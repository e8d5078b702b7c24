"""The benchmark's workloads: inputs built from a seed, one pass, its checks.

Every workload is a closed loop with one client: a pass issues its layer
calls one after another, each after the previous returned. A pass is made
of operations; an operation is one timed layer call, and it fails if it
raises, the CLI exits non-zero, or its output check fails. See NOTES.md for
why each workload exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import shutil
import tempfile
import warnings
from pathlib import Path

import numpy as np
import yaml

import hetpref as hp
from hetpref import cli

# Sizes of one pass. "full" is the benchmark; "smoke" only exercises the
# harness (perfbench/smoke.py) and its numbers mean nothing. ``replicates``
# is the number of input sets a run draws from its seed; pass p uses set
# p mod replicates (see data_seeds). A multiprompt replicate has its own
# catalog. A cli-adversarial pass instead fits ``datasets`` datasets itself,
# because its passes are too long to cycle.
SIZES = {
    "full": {
        "mpi40": dict(replicates=6, n=2000, m=3, em_iters=8, restarts=1, lw_rounds=15,
                      game_iters=30_000, heldout_n=2000),
        "multiprompt": dict(replicates=4, prompts=60, n=1000, m=5, em_iters=2, lw_rounds=10,
                            direct_iters=100, game_iters=2000),
        "cli-adversarial": dict(replicates=1, datasets=3, n=5000, em_iters=80,
                                game_iters=10_000, lw_rounds=30, identify_n=5000,
                                eval_n=1200),
    },
    "smoke": {
        "mpi40": dict(replicates=2, n=200, m=3, em_iters=2, restarts=1, lw_rounds=2,
                      game_iters=10_000, heldout_n=200),
        "multiprompt": dict(replicates=2, prompts=8, n=200, m=5, em_iters=1, lw_rounds=2,
                            direct_iters=5, game_iters=200),
        "cli-adversarial": dict(replicates=1, datasets=2, n=300, em_iters=3, game_iters=200,
                                lw_rounds=2, identify_n=300, eval_n=200),
    },
}

KAPPA = 0.1
# Tolerance on a per-iteration log-likelihood decrease, as in the
# acceptance suite's EM monotonicity criterion.
EM_DECREASE_TOL = 1e-7
# Offset between the workload seed and the seed of held-out data.
HELDOUT_SEED_OFFSET = 1_000_003
MULTIPROMPT_THETAS = [[2.0, 0.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0], [-1.0, -1.0, 1.5, 1.0]]
MULTIPROMPT_ETAS = [0.45, 0.35, 0.2]
# Feature spread of the random catalog. Wider features make some prompt's
# choices nearly deterministic, and such a prompt's fit runs to its cap.
FEATURE_SCALE = 0.5
ADVERSARIAL_THETA = [2.0, 0.5]
IDENTIFY_SEED = 0
# Spawn key that separates replicate dataset seeds from the catalog's stream.
REPLICATE_KEY = 11


class PassAborted(Exception):
    """An operation raised; the rest of the pass depends on its result."""


class Ops:
    """Counts operations of one pass and records which failed and why."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.attempted = 0
        self.failed: dict[str, str] = {}
        self.notes: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        self.attempted += 1
        sid = self.tracer.begin(f"bench.{name}") if self.tracer else None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.failed[name] = f"raised {type(exc).__name__}: {exc}"
            raise PassAborted(name) from exc
        finally:
            if self.tracer:
                self.tracer.end(sid)

    def check(self, name: str, ok: bool, detail: str) -> None:
        """A failed output check marks its operation failed; the pass goes on."""
        if not ok and name not in self.failed:
            self.failed[name] = f"check failed: {detail}"

    def cli(self, name: str, argv: list, expect_exit: tuple[int, ...] = (0,)) -> int:
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = self.call(name, cli.main, [str(a) for a in argv])
        self.check(name, code in expect_exit,
                   f"exit {code}: {err.getvalue().strip()[-300:]}")
        return code


def check_em(ops: Ops, name: str, restart_logliks) -> None:
    """Generalized EM never lowers the observed-data log-likelihood."""
    for r, lls in enumerate(restart_logliks):
        steps = np.diff(np.asarray(lls, dtype=float))
        worst = float(steps.min()) if steps.size else 0.0
        ops.check(name, worst >= -EM_DECREASE_TOL,
                  f"restart {r}: log-likelihood fell by {-worst:.3e}")


def check_gap(ops: Ops, name: str, gap_trace) -> None:
    """The game's duality gap shrinks from 1e2 iterations to 1e4 (or the end)."""
    late = gap_trace[min(len(gap_trace), 10_000) - 1]
    ops.check(name, late < gap_trace[99],
              f"gap {late:.3e} at iteration {min(len(gap_trace), 10_000)} is not "
              f"below {gap_trace[99]:.3e} at iteration 100")


def data_seeds(seed: int, count: int) -> list[int]:
    """Seeds of the input sets a run draws: the workload seed, then derived ones.

    One fitted dataset's quality figures (the fit's clusters, and so its
    regret) vary by a third between seeds; the run reports medians over
    several input sets so that its figures do not hang on one draw.
    """
    derived = [int(np.random.SeedSequence(entropy=seed, spawn_key=(REPLICATE_KEY, r))
                   .generate_state(1, dtype=np.uint32)[0]) for r in range(1, count)]
    return [seed] + derived


# -- worlds: everything built before the first layer call ------------------

def build_world(workload: str, seed: int, scale: str) -> dict:
    size = SIZES[scale][workload]
    seeds = data_seeds(seed, size.get("datasets", size["replicates"]))
    if workload == "mpi40":
        population, catalog = hp.make_mpi_population(n_phrases=40)
        world = {"population": population, "catalogs": [catalog] * len(seeds)}
    elif workload == "multiprompt":
        population = hp.Population.from_weights(MULTIPROMPT_THETAS, MULTIPROMPT_ETAS)
        world = {"population": population,
                 "catalogs": [random_catalog(s, size["prompts"]) for s in seeds]}
    elif workload == "cli-adversarial":
        world = {"configs": [cli_configs(s, size) for s in seeds]}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if "catalogs" in world:
        world["refs"] = [hp.ReferencePolicy.uniform(c) for c in world["catalogs"]]
        world["pws"] = [hp.uniform_prompt_weights(c) for c in world["catalogs"]]
    world.update(workload=workload, seed=seed, size=size, data_seeds=seeds)
    return world


def random_catalog(seed: int, prompts: int) -> hp.Catalog:
    """``prompts`` prompts of four responses with N(0, FEATURE_SCALE²) features in d=4."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(7,)))
    feats = rng.normal(scale=FEATURE_SCALE, size=(prompts, 4, 4))
    width = len(str(prompts - 1))
    return hp.Catalog.build({
        f"prompt_{i:0{width}d}": [(f"r{j}", feats[i, j]) for j in range(4)]
        for i in range(prompts)
    })


def cli_configs(seed: int, size: dict) -> dict[str, dict]:
    base = {
        "population": {"preset": "adversarial", "theta": ADVERSARIAL_THETA,
                       "n_responses": 4},
        "simulate": {"n": size["n"], "m": 1, "choice_set_size": 3, "seed": seed},
        "emdpo": {"k": 2, "max_iters": size["em_iters"], "tol": 1e-10,
                  "on_nonconvergence": "warn"},
        "aggregate": {"method": "affine", "iters": size["game_iters"]},
        # identify draws its own data; its seed stays fixed (see NOTES.md).
        "identify": {"theta": ADVERSARIAL_THETA, "n_values": [size["identify_n"]],
                     "seed": IDENTIFY_SEED},
        "evaluate": {"eval_n": size["eval_n"], "eval_seed": seed + HELDOUT_SEED_OFFSET},
    }
    lightweight = json.loads(json.dumps(base))
    lightweight["aggregate"] = {"method": "lightweight", "iters": size["lw_rounds"]}
    # The documented default config, unchanged: a probe of ROADMAP item 3.
    return {"base": base, "lightweight": lightweight, "default": {}}


# -- passes ----------------------------------------------------------------

def run_pass(world: dict, ops: Ops, scratch: Path, replicate: int, warmup: bool) -> dict:
    """One pass of the workload on replicate ``replicate``; returns its results
    and a determinism digest, which a warm-up pass's must equal.

    Files a pass writes go under ``scratch`` and are removed by the pass.
    """
    with warnings.catch_warnings():
        # warn-mode fits report capped inner solves as RuntimeWarnings; the
        # traced run counts them as emdpo.fit.unconverged instead.
        warnings.simplefilter("ignore")
        return PASSES[world["workload"]](world, ops, scratch, replicate, warmup)


def _inputs(world: dict, replicate: int) -> tuple:
    """(catalog, population, reference, prompt weights, sizes, data seed)."""
    return (world["catalogs"][replicate], world["population"], world["refs"][replicate],
            world["pws"][replicate], world["size"], world["data_seeds"][replicate])


def _pass_mpi40(world: dict, ops: Ops, _scratch: Path, replicate: int, _warmup: bool) -> dict:
    cat, pop, ref, pw, sz, seed = _inputs(world, replicate)
    ds = ops.call("simulate", hp.simulate_dataset, cat, pop, n=sz["n"], m=sz["m"],
                  choice_set_size=3, rng_seed=seed)
    state = ops.call("em", hp.run_em, ds, cat, k=3, kappa=KAPPA, max_iters=sz["em_iters"],
                     restarts=sz["restarts"], tol=1e-10, inner_max_iter=200,
                     on_nonconvergence="warn")
    check_em(ops, "em", [[row["loglik"] for row in t] for t in state.restart_traces])
    ens = state.ensemble
    table, _trace = ops.call("lightweight", hp.minimax_policy_lightweight, ds, cat, ens,
                             state.gamma, ref, iters=sz["lw_rounds"], step=0.1,
                             inner_steps=40)
    L = ops.call("discrepancy", hp.discrepancy_matrix, ens, ref, cat, pw)
    R = ops.call("regret_matrix", hp.regret_matrix, L)
    sol = ops.call("game", hp.solve_regret_game, R, iters=sz["game_iters"])
    check_gap(ops, "game", sol.gap_trace)
    r_lw = ops.call("max_regret.lightweight", hp.max_regret, table, ens, ref, cat, pw)
    r_affine = ops.call("max_regret.affine", hp.max_regret, sol.w, ens, ref, cat, pw)
    r_uniform = ops.call("max_regret.uniform", hp.max_regret, hp.uniform_mixture(ens),
                         ens, ref, cat, pw)
    # The affine game is the exact minimax over mixtures, which include the
    # uniform one. The lightweight table carries no such guarantee, and with
    # these settings it does worse than uniform; that is reported, not checked.
    ops.check("max_regret.affine", r_affine <= r_uniform,
              f"affine minimax {r_affine:.6g} above uniform mixture {r_uniform:.6g}")
    if r_lw > r_uniform:
        ops.notes.append("observed: lightweight max_regret above the uniform mixture's")
    heldout = ops.call("simulate.heldout", hp.simulate_dataset, cat, pop, n=sz["heldout_n"],
                       m=1, choice_set_size=2, rng_seed=seed + HELDOUT_SEED_OFFSET)
    groups = hp.split_by_true_type(heldout)
    margins = ops.call("margins", lambda: [hp.max_mean_reward_margin(ens, cat, g)
                                           for _t, g in sorted(groups.items())])
    return {
        "em_nll_per_record": -state.loglik / (sz["n"] * sz["m"]),
        "max_regret": r_affine,
        "digest": repr((state.loglik, r_lw, r_affine, r_uniform, sol.value, margins)),
        "layer": {"aggregate.lightweight.max_regret": r_lw},
    }


def _pass_multiprompt(world: dict, ops: Ops, _scratch: Path, replicate: int,
                      _warmup: bool) -> dict:
    cat, pop, ref, pw, sz, seed = _inputs(world, replicate)
    ds = ops.call("simulate", hp.simulate_dataset, cat, pop, n=sz["n"], m=sz["m"],
                  choice_set_size=3, rng_seed=seed)
    state = ops.call("em", hp.run_em, ds, cat, k=3, kappa=KAPPA, max_iters=sz["em_iters"],
                     on_nonconvergence="warn")
    check_em(ops, "em", [[row["loglik"] for row in t] for t in state.restart_traces])
    ens = state.ensemble
    table, _trace = ops.call("lightweight", hp.minimax_policy_lightweight, ds, cat, ens,
                             state.gamma, ref, iters=sz["lw_rounds"], step=0.1,
                             inner_steps=40)
    direct, _trace = ops.call("direct", hp.minimax_policy_direct, ens, ref, cat, pw,
                              iters=sz["direct_iters"])
    L = ops.call("discrepancy", hp.discrepancy_matrix, ens, ref, cat, pw)
    R = ops.call("regret_matrix", hp.regret_matrix, L)
    sol = ops.call("game", hp.solve_regret_game, R, iters=sz["game_iters"])
    check_gap(ops, "game", sol.gap_trace)
    r_lw = ops.call("max_regret.lightweight", hp.max_regret, table, ens, ref, cat, pw)
    r_direct = ops.call("max_regret.direct", hp.max_regret, direct, ens, ref, cat, pw)
    r_affine = ops.call("max_regret.affine", hp.max_regret, sol.w, ens, ref, cat, pw)
    return {
        "em_nll_per_record": -state.loglik / (sz["n"] * sz["m"]),
        "max_regret": r_affine,
        "digest": repr((state.loglik, r_lw, r_direct, r_affine, sol.value)),
        "layer": {"aggregate.lightweight.max_regret": r_lw},
    }


def _tree_digest(root: Path) -> tuple[str, int]:
    """SHA-256 over every file's relative path and bytes, and the total size."""
    h = hashlib.sha256()
    total = 0
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        h.update(str(path.relative_to(root)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), total


def _pass_cli(world: dict, ops: Ops, scratch: Path, _replicate: int, warmup: bool) -> dict:
    # A warm-up pass runs dataset 0 only: every CLI command once, on the
    # inputs the timed pass repeats.
    configs = world["configs"][:1] if warmup else world["configs"]
    tmp = Path(tempfile.mkdtemp(prefix="cli-", dir=scratch))
    try:
        return _cli_steps(configs, ops, tmp, records=world["size"]["n"])
    finally:
        shutil.rmtree(tmp)


def _cli_steps(datasets: list[dict], ops: Ops, tmp: Path, records: int) -> dict:
    """Dataset 0 runs the whole pipeline; the others simulate, fit and aggregate (affine)."""
    outs = []
    for i, configs in enumerate(datasets):
        cfg = {}
        for name, doc in configs.items():
            cfg[name] = tmp / f"{name}{i}.yaml"
            cfg[name].write_text(yaml.safe_dump(doc), encoding="utf-8")
        out = tmp / f"out{i}"
        outs.append(out)
        tag = f".{i}" if i else ""  # operation names of datasets after the first
        dataset, catalog = out / "dataset.jsonl", out / "catalog.json"
        ensemble, gamma = out / "ensemble.json", out / "gamma.csv"

        ops.cli("cli.simulate" + tag, ["simulate", "--config", cfg["base"], "--out", out])
        ops.cli("cli.emdpo" + tag, ["emdpo", "--config", cfg["base"], "--dataset", dataset,
                                    "--catalog", catalog, "--out", out])
        ops.cli("cli.aggregate.affine" + tag, ["aggregate", "--config", cfg["base"],
                                               "--ensemble", ensemble, "--catalog", catalog,
                                               "--out", out / "affine"])
        if i > 0:
            continue
        ops.cli("cli.aggregate.lightweight",
                ["aggregate", "--config", cfg["lightweight"], "--ensemble", ensemble,
                 "--catalog", catalog, "--dataset", dataset, "--gamma", gamma,
                 "--out", out / "lightweight"])
        ops.cli("cli.identify", ["identify", "--config", cfg["base"],
                                 "--out", out / "identify"])
        ops.cli("cli.evaluate", ["evaluate", "--config", cfg["base"], "--catalog", catalog,
                                 "--ensemble", f"fit={ensemble}",
                                 "--ensemble", f"minimax={out / 'lightweight'}"
                                               "/aggregated_policy.json",
                                 "--out", out / "evaluate"])

        # Known defect (ROADMAP item 3): the default config's emdpo exits 4
        # because the 990-phrase binary default has no finite tabular MLE. The
        # probe is recorded (cli.exit_nonzero) but only exits other than 0 and 4
        # count as failures; once item 3 lands it exits 0.
        probe = tmp / "probe"
        ops.cli("cli.probe.simulate", ["simulate", "--config", cfg["default"],
                                       "--out", probe])
        code = ops.cli("cli.probe.emdpo", ["emdpo", "--config", cfg["default"], "--dataset",
                                           probe / "dataset.jsonl", "--catalog",
                                           probe / "catalog.json", "--out", probe],
                       expect_exit=(0, 4))
        if code == 4:
            ops.notes.append("known defect: default-config emdpo exits 4 (ROADMAP item 3)")

    # m=1: one record per annotator
    return ops.call("cli.outputs", _cli_results, ops, outs, probe, records=records)


def _cli_results(ops: Ops, outs: list[Path], probe: Path, records: int) -> dict:
    nll, regret = [], []
    for i, out in enumerate(outs):
        tag = f".{i}" if i else ""
        trace_rows = (out / "trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        restarts: dict[str, list[float]] = {}
        for row in trace_rows:
            fields = row.split(",")
            restarts.setdefault(fields[0], []).append(float(fields[2]))
        check_em(ops, "cli.emdpo" + tag, restarts.values())
        loglik = json.loads((out / "manifest_emdpo.json").read_text())["outputs"]["loglik"]
        nll.append(-loglik / records)

        game = (out / "affine" / "game_trace.csv").read_text(encoding="utf-8").splitlines()[1:]
        check_gap(ops, "cli.aggregate.affine" + tag, [float(r.rsplit(",", 1)[1]) for r in game])
        regret.append(json.loads((out / "affine" / "aggregate_report.json").read_text())
                      ["max_regret"])
    out = outs[0]
    lightweight = json.loads((out / "lightweight" / "aggregate_report.json").read_text())

    ident = json.loads((out / "identify" / "identify_report.json").read_text())
    experiment = ident["experiments"][0]
    corr = experiment["ternary"]["margin_correlation"]
    binary = experiment["binary"]
    binary_gap = abs(binary["expected_loglik_fit"] - binary["expected_loglik_null"])
    ops.check("cli.identify", corr >= 0.95, f"ternary margin correlation {corr:.4f} < 0.95")
    ops.check("cli.identify", binary_gap <= 1e-3,
              f"binary log-likelihood gap {binary_gap:.3e} > 1e-3 nats/record")

    digests, out_bytes = zip(*(_tree_digest(root) for root in [probe] + outs))
    return {
        "em_nll_per_record": float(np.mean(nll)),
        "max_regret": float(np.mean(regret)),
        # Dataset 0's tree and the probe's: what a warm-up pass also writes.
        "digest": digests[0] + digests[1],
        "layer": {
            "cli.out_bytes": float(sum(out_bytes)),
            "aggregate.lightweight.max_regret": lightweight["max_regret"],
            "identify.recovery_margin_corr": corr,
            "identify.binary_loglik_gap": binary_gap,
        },
    }


PASSES = {
    "mpi40": _pass_mpi40,
    "multiprompt": _pass_multiprompt,
    "cli-adversarial": _pass_cli,
}
