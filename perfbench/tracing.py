"""In-memory span recorder that wraps hetpref's public functions from outside.

Tracing is installed only for traced passes: each public function named in
``SPANS`` is replaced, in every hetpref module namespace that holds it, by a
wrapper that records one span (name, start, end, parent, pass id). The
program itself is not modified. Untraced passes run the original functions.

A layer's self time is its span durations minus the time its child spans
cover. Spans opened by the benchmark itself are named ``bench.*``; their
self time is the part of a pass no layer span covers.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

# (defining module, function, span name). The span name's first component
# is the layer; ``rewards`` is too cheap to time on its own and shows up
# inside ``simulate`` and ``policy``.
SPANS = [
    ("simulate", "simulate_dataset", "simulate"),
    ("simulate", "write_dataset", "simulate.io_write"),
    ("simulate", "read_dataset", "simulate.io_read"),
    ("emdpo", "fit_preference_table", "emdpo.fit"),
    ("emdpo", "run_em", "emdpo.em"),
    ("emdpo", "mixture_loglik", "emdpo.loglik"),
    ("policy", "policy_probs", "policy.probs"),
    ("aggregate", "regret_of_policy", "aggregate.regret"),
    ("aggregate", "discrepancy_matrix", "aggregate.discrepancy"),
    ("aggregate", "minimax_policy_lightweight", "aggregate.lightweight"),
    ("aggregate", "minimax_policy_direct", "aggregate.direct"),
    ("aggregate", "solve_regret_game", "aggregate.game"),
    ("identify", "ternary_recovery_experiment", "identify.recovery"),
    ("identify", "binary_likelihood_flatness", "identify.flatness"),
    ("identify", "verify_binary_flatness", "identify.flatness"),
    ("evaluate", "max_mean_reward_margin", "evaluate.margins"),
    ("evaluate", "mean_margin", "evaluate.margins"),
    ("evaluate", "accuracy", "evaluate.margins"),
    ("evaluate", "max_regret", "evaluate.max_regret"),
    ("cli", "cmd_simulate", "cli.simulate"),
    ("cli", "cmd_emdpo", "cli.emdpo"),
    ("cli", "cmd_aggregate", "cli.aggregate"),
    ("cli", "cmd_identify", "cli.identify"),
    ("cli", "cmd_evaluate", "cli.evaluate"),
    ("cli", "main", "cli.main"),
]
# Classmethods of emdpo.CompiledRecords; patched on the class itself.
COMPILE_METHODS = ("from_dataset", "from_records")

LAYERS = ("simulate", "emdpo", "policy", "aggregate", "identify", "evaluate", "cli")
MODULES = ("simulate", "policy", "emdpo", "aggregate", "identify", "evaluate", "cli")


class Tracer:
    """Records spans of the current pass; ``install`` patches hetpref."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, parent, start, end, pass_id, attrs]
        self.stack: list[int] = []
        self.pass_id = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, name, parent, time.perf_counter(), None, self.pass_id, None])
        self.stack.append(sid)
        return sid

    def end(self, sid: int, attrs: dict | None = None) -> None:
        span = self.spans[sid]
        span[4] = time.perf_counter()
        span[6] = attrs
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {span[1]} closed out of order")

    def inside(self, name: str) -> bool:
        return any(self.spans[s][1] == name for s in self.stack)

    def _wrap(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            # A call nested in a span of the same name (mean_margin inside
            # max_mean_reward_margin) belongs to the outer span.
            if stack and tracer.spans[stack[-1]][1] == name:
                return fn(*args, **kwargs)
            sid = tracer.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                attrs = _describe(name, args, kwargs, result, tracer)
                return result
            except BaseException as exc:
                attrs = {"error": type(exc).__name__}
                raise
            finally:
                tracer.end(sid, attrs)

        return wrapper

    # -- patching --------------------------------------------------------
    def install(self) -> None:
        import importlib

        import hetpref

        namespaces = [hetpref] + [importlib.import_module(f"hetpref.{m}") for m in MODULES]
        for home, attr, name in SPANS:
            original = getattr(importlib.import_module(f"hetpref.{home}"), attr)
            wrapped = self._wrap(original, name)
            for ns in namespaces:
                if getattr(ns, attr, None) is original:
                    self._patches.append((ns, attr, original))
                    setattr(ns, attr, wrapped)
        compiled_cls = importlib.import_module("hetpref.emdpo").CompiledRecords
        for attr in COMPILE_METHODS:
            original = compiled_cls.__dict__[attr]
            self._patches.append((compiled_cls, attr, original))
            setattr(compiled_cls, attr,
                    classmethod(self._wrap(original.__func__, "emdpo.compile")))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """Write every recorded span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for sid, name, parent, start, end, pass_id, attrs in self.spans:
                fh.write(json.dumps({
                    "id": sid, "name": name, "parent": parent, "pass": pass_id,
                    "start": start, "end": end, "attrs": attrs,
                }) + "\n")


def _describe(name: str, args, kwargs, result, tracer: Tracer) -> dict | None:
    """Counters taken from a call's arguments and return value."""
    if name == "simulate":
        return {"records": sum(len(a.records) for a in result.annotators)}
    if name == "simulate.io_write":
        return {"bytes": os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])}
    if name == "simulate.io_read":
        return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}
    if name == "emdpo.fit":
        grad_tol = kwargs.get("grad_tol", args[4] if len(args) > 4 else 1e-8)
        # The lightweight aggregator runs capped ascents on purpose; every
        # other fit is meant to reach its gradient tolerance.
        capped = tracer.inside("aggregate.lightweight")
        return {"grad_norm": float(result[1]), "grad_tol": float(grad_tol),
                "capped": capped}
    if name == "emdpo.em":
        return {"iters": sum(len(t) for t in result.restart_traces)}
    if name == "aggregate.lightweight":
        return {"rounds": len(result[1])}
    if name == "aggregate.game":
        return {"iters": int(result.iters), "gap": float(result.gap_trace[-1])}
    if name == "cli.main":
        return {"exit": int(result)}
    return None


def layer_metrics(spans: list[list], pass_id: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed ``<layer>.<what>``."""
    mine = [s for s in spans if s[5] == pass_id]
    by_id = {s[0]: s for s in mine}
    child_time: dict[int, float] = defaultdict(float)
    for s in mine:
        if s[2] in by_id:
            child_time[s[2]] += s[4] - s[3]
    busy: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    for sid, name, _parent, start, end, _pid, _attrs in mine:
        busy[name] += end - start
        calls[name] += 1
        self_time[name] += (end - start) - child_time[sid]

    def attrs(name, key):
        """Attributes of the spans called ``name`` that returned ``key``."""
        return [s[6] for s in mine if s[1] == name and s[6] and key in s[6]]

    fits = [a for a in attrs("emdpo.fit", "grad_norm") if not a["capped"]]
    game = attrs("aggregate.game", "iters")
    sim_records = sum(a["records"] for a in attrs("simulate", "records"))
    roots = [s for s in mine if s[1] == "bench.pass"]
    wall = sum(s[4] - s[3] for s in roots)
    game_iters = sum(a["iters"] for a in game)

    m = {
        "simulate.busy_s": busy["simulate"],
        "simulate.records_per_s": sim_records / busy["simulate"] if busy["simulate"] else 0.0,
        "simulate.io_write_s": busy["simulate.io_write"],
        "simulate.io_read_s": busy["simulate.io_read"],
        "simulate.io_bytes": float(sum(a["bytes"] for a in attrs("simulate.io_write", "bytes"))
                                   + sum(a["bytes"] for a in attrs("simulate.io_read", "bytes"))),
        "emdpo.compile.calls": float(calls["emdpo.compile"]),
        "emdpo.compile.busy_s": busy["emdpo.compile"],
        "emdpo.fit.calls": float(calls["emdpo.fit"]),
        "emdpo.fit.busy_s": busy["emdpo.fit"],
        "emdpo.fit.grad_norm_max": max((a["grad_norm"] for a in fits), default=0.0),
        "emdpo.fit.unconverged": float(sum(a["grad_norm"] > a["grad_tol"] for a in fits)),
        "emdpo.em.busy_s": busy["emdpo.em"],
        "emdpo.em.iters": float(sum(a["iters"] for a in attrs("emdpo.em", "iters"))),
        "emdpo.estep_s": self_time["emdpo.em"],
        "policy.probs.calls": float(calls["policy.probs"]),
        "policy.probs.busy_s": busy["policy.probs"],
        "aggregate.regret.calls": float(calls["aggregate.regret"]),
        "aggregate.regret.busy_s": busy["aggregate.regret"],
        "aggregate.discrepancy.busy_s": busy["aggregate.discrepancy"],
        "aggregate.lightweight.busy_s": busy["aggregate.lightweight"],
        "aggregate.lightweight.rounds": float(sum(a["rounds"]
                                                  for a in attrs("aggregate.lightweight", "rounds"))),
        "aggregate.direct.busy_s": busy["aggregate.direct"],
        "aggregate.game.busy_s": busy["aggregate.game"],
        "aggregate.game.iters": float(game_iters),
        "aggregate.game.us_per_iter": (busy["aggregate.game"] / game_iters * 1e6
                                       if game_iters else 0.0),
        "aggregate.game.gap": max((a["gap"] for a in game), default=0.0),
        "identify.recovery.calls": float(calls["identify.recovery"]),
        "identify.recovery.busy_s": busy["identify.recovery"],
        "identify.flatness.busy_s": busy["identify.flatness"],
        "evaluate.margins.busy_s": busy["evaluate.margins"],
        "evaluate.max_regret.busy_s": busy["evaluate.max_regret"],
        "cli.simulate.busy_s": busy["cli.simulate"],
        "cli.emdpo.busy_s": busy["cli.emdpo"],
        "cli.aggregate.busy_s": busy["cli.aggregate"],
        "cli.identify.busy_s": busy["cli.identify"],
        "cli.evaluate.busy_s": busy["cli.evaluate"],
        "cli.exit_nonzero": float(sum(a["exit"] != 0 for a in attrs("cli.main", "exit"))),
        "trace.wall_s": wall,
        "trace.unattributed_s": sum(t for n, t in self_time.items() if n.startswith("bench.")),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(t for n, t in self_time.items()
                                   if n == layer or n.startswith(layer + "."))
    return m
