#!/usr/bin/env python3
"""Benchmark of the hetpref pipeline.

Usage, from the repository root:

    python3 perfbench/run.py --workload mpi40 --seed 0 --seconds 30 --trace 0

Runs passes of one workload for at least ``--seconds`` seconds and prints,
as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
an untimed warm-up pass on replicate 0 comes first; then the passes cycle
over the workload's replicates (input sets drawn from the seed) until each
has had a timed pass, and the metrics are the end-to-end ones: medians over
replicates of each replicate's figures. With ``--trace 1`` every pass uses
replicate 0, and the metrics are the per-layer ones from traced passes,
which alternate with untraced passes so that the tracing overhead is
measured.
A provenance line (versions, nproc, BLAS threads, git revision, seed,
pass counts) precedes the result. ``--seed`` picks the workload's inputs;
re-check a claim on a seed not used while building the benchmark (NOTES.md
lists those). The package is imported from ``src/`` of this checkout only.
"""

from __future__ import annotations

import os

# One client, one thread: BLAS must not fan out on a small shared machine.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SPANS_DIR = ROOT / ".perfbench_spans"

WORKLOADS = ("mpi40", "multiprompt", "cli-adversarial")
DEFAULT_SEED = 0
SETUP_SAMPLES = 2  # extra fresh interpreters whose set-up time is measured

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "em_nll_per_record": "nats",
    "max_regret": "kappa",
}
# Per-layer metrics the benchmark measures itself rather than from spans.
LAYER_UNITS_EXTRA = {
    "cli.out_bytes": "bytes",
    "aggregate.lightweight.max_regret": "kappa",
    "identify.recovery_margin_corr": "ratio",
    "identify.binary_loglik_gap": "nats",
    "trace.overhead_s": "s",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import hetpref from this checkout's src/ and nowhere else."""
    if not (SRC / "hetpref" / "__init__.py").is_file():
        fail(f"no hetpref sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import hetpref

    if SRC.resolve() not in Path(hetpref.__file__).resolve().parents:
        fail(f"imported hetpref from {hetpref.__file__}, not from {SRC}")
    return hetpref


def timed_setup(workload: str, seed: int, scale: str):
    """Import the program and build the workload's inputs; returns (world, seconds)."""
    t0 = time.perf_counter()
    import_program()
    import workloads

    world = workloads.build_world(workload, seed, scale)
    return world, time.perf_counter() - t0


def setup_samples(args) -> list[float]:
    """Set-up time measured in fresh interpreters, which each import cold."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def git_revision() -> str | None:
    """HEAD of the checkout's git metadata, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def provenance(args, passes: dict) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
    }


def run(args) -> dict:
    world, first_setup = timed_setup(args.workload, args.seed, args.scale)
    import workloads
    from tracing import Tracer, layer_metrics

    SCRATCH.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))
    tracer = Tracer()
    replicates = 1 if args.trace else world["size"]["replicates"]
    # Pass times and results per replicate.
    untraced: dict[int, list[float]] = {r: [] for r in range(replicates)}
    results: dict[int, list[dict]] = {r: [] for r in range(replicates)}
    traced: list[float] = []
    layer_rows: list[dict] = []
    attempted = failed = 0
    failures: dict[str, str] = {}
    notes: set[str] = set()

    start = time.perf_counter()
    pass_id = 0
    warmup_s = None
    while True:
        use_trace = bool(args.trace) and pass_id % 2 == 1
        # An untraced run's first pass fills caches and finishes lazy set-up
        # and is not timed. It runs replicate 0, which pass `replicates`
        # runs again for the determinism check.
        warmup = not args.trace and pass_id == 0
        replicate = pass_id % replicates
        pass_id += 1
        tracer.pass_id = pass_id
        ops = workloads.Ops(tracer if use_trace else None)
        if use_trace:
            tracer.install()
        t0 = time.perf_counter()
        root = tracer.begin("bench.pass") if use_trace else None
        try:
            res = workloads.run_pass(world, ops, scratch, replicate, warmup)
        except workloads.PassAborted:
            res = None
        finally:
            if use_trace:
                tracer.end(root)
                tracer.uninstall()
        elapsed = time.perf_counter() - t0
        attempted += ops.attempted
        failed += len(ops.failed)
        failures.update(ops.failed)
        notes.update(ops.notes)
        if res is not None:
            results[replicate].append(res)
            if use_trace:
                row = layer_metrics(tracer.spans, pass_id)
                row.update(res.get("layer", {}))
                layer_rows.append(row)
                traced.append(elapsed)
            elif warmup:
                warmup_s = elapsed
            else:
                untraced[replicate].append(elapsed)
        else:
            break
        done = time.perf_counter() - start
        # Untraced: one timed pass of every replicate; traced: one of each kind.
        n_untraced = sum(len(t) for t in untraced.values())
        enough = (n_untraced >= replicates if not args.trace
                  else min(n_untraced, len(traced)) >= 1)
        if enough and done + elapsed > args.seconds:
            break

    shutil.rmtree(scratch)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run in this checkout still uses it
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        tracer.write(SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl")

    nondeterministic = [r for r, rs in results.items() if len({x["digest"] for x in rs}) > 1]
    complete = all(results.values()) and (bool(args.trace) or all(untraced.values()))
    correct = failed == 0 and complete and not nondeterministic
    for name, why in sorted(failures.items()):
        print(f"failed: {name}: {why}")
    for r in nondeterministic:
        print(f"failed: passes on replicate {r} of one seed produced different outputs")
    for note in sorted(notes):
        print(note)

    metrics: dict[str, dict] = {}
    setup: list[float] = []
    if not args.trace:
        setup = [first_setup] + setup_samples(args)

        def over_replicates(per_replicate) -> float:
            """Median over replicates; 0 if a pass aborted (correct is then false)."""
            return statistics.median(per_replicate(r) for r in results) if complete else 0.0

        values = {
            "wall_s": over_replicates(lambda r: statistics.median(untraced[r])),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "em_nll_per_record": over_replicates(lambda r: results[r][-1]["em_nll_per_record"]),
            "max_regret": over_replicates(lambda r: results[r][-1]["max_regret"]),
        }
        for name, unit in END_TO_END_UNITS.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        # All layer metrics come from one traced pass, the median by time, so
        # that its self times add up to its trace.wall_s.
        by_time = sorted(layer_rows, key=lambda r: r["trace.wall_s"])
        row = dict(by_time[(len(by_time) - 1) // 2]) if by_time else {}
        row["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced[0])
                                   if traced and untraced[0] else 0.0)
        for key in sorted(set(row) | set(LAYER_UNITS_EXTRA)):
            metrics[key] = {"value": row.get(key, 0.0), "unit": layer_unit(key)}
    print("provenance: " + json.dumps(provenance(args, {
        "replicates": replicates, "data_seeds": world["data_seeds"],
        "warmup_s": None if warmup_s is None else round(warmup_s, 4),
        "untraced": sum(len(t) for t in untraced.values()), "traced": len(traced),
        "untraced_s": {r: [round(t, 4) for t in ts] for r, ts in untraced.items()},
        "traced_s": [round(t, 4) for t in traced],
        "setup_samples": SETUP_SAMPLES + 1 if not args.trace else 0,
        "setup_s": [round(t, 4) for t in setup],
    }), sort_keys=True))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def layer_unit(key: str) -> str:
    if key in LAYER_UNITS_EXTRA:
        return LAYER_UNITS_EXTRA[key]
    what = key.rsplit(".", 1)[1]
    named = {"records_per_s": "1/s", "io_bytes": "bytes", "us_per_iter": "us",
             "grad_norm_max": "grad", "gap": "gap"}
    if what in named:
        return named[what]
    return "s" if what.endswith("_s") else "count"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that only exercise the harness")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    sys.path.insert(0, str(BENCH_DIR))
    if args.setup_probe:
        _world, seconds = timed_setup(args.workload, args.seed, args.scale)
        print(repr(seconds))
        return
    result = run(args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
