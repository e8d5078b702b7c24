#!/usr/bin/env python3
"""Smoke test of the benchmark harness at reduced sizes; not a tier-1 test.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload it runs ``run.py --scale smoke`` untraced and traced and
checks that the result line is well formed, that every metric named in
BENCHMARK.json is emitted with its unit, and that the layer self times plus
``trace.unattributed_s`` add up to the traced pass time. It also checks that
the benchmark refuses to run, without printing a result, from a directory
that holds only BENCHMARK.json and the benchmark's own files. The numbers a
smoke run prints mean nothing.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import LAYERS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# At smoke sizes (n=300) the identifiability experiment lacks the power its
# thresholds assume, so only that operation may fail there.
SMOKE_MAY_FAIL = {"cli-adversarial": ("failed: cli.identify:",)}


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "0", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def check_result(workload: str, trace: int, proc) -> list[str]:
    errors = []
    if proc.returncode != 0:
        return [f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        errors.append(f"result keys {sorted(result)}")
    if result["attempted"] < 1:
        errors.append("no operation attempted")
    allowed = SMOKE_MAY_FAIL.get(workload, ())
    unexpected = [line for line in lines[:-1] if line.startswith("failed:")
                  and not line.startswith(allowed)]
    if unexpected or (not result["correct"] and not allowed):
        errors.append(f"failures: {unexpected or 'correct is false'}")
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    metrics = result["metrics"]
    for m in spec:
        got = metrics.get(m["name"])
        if got is None:
            errors.append(f"missing metric {m['name']}")
        elif got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            errors.append(f"metric {m['name']}: {got}")
    extra = set(metrics) - {m["name"] for m in spec}
    if extra:
        errors.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    if trace and not errors:
        covered = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        covered += metrics["trace.unattributed_s"]["value"]
        wall = metrics["trace.wall_s"]["value"]
        if abs(covered - wall) > 1e-6 * max(1.0, wall):
            errors.append(f"self times {covered:.6f} s do not add up to {wall:.6f} s")
    return errors


def check_bare_directory() -> list[str]:
    """Only BENCHMARK.json and the benchmark's paths: must exit non-zero, silently."""
    bare = ROOT / ".perfbench_smoke"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
        return []
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    failures = 0
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            errors = check_result(workload, trace, run(ROOT, workload, trace))
            print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
            for e in errors:
                print(f"     {e}")
            failures += bool(errors)
    errors = check_bare_directory()
    print(f"{'FAIL' if errors else 'ok  '} bare directory refuses to run")
    for e in errors:
        print(f"     {e}")
    failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
