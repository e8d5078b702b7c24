"""Config-driven experiment orchestration.

Subcommands mirror the pipeline: simulate a dataset, fit the latent-type
ensemble, aggregate it into one policy, run the identifiability
experiments, and evaluate metrics. Every command is a pure function of
its config file and input files; manifests chain content hashes so any
output can be traced back to the exact inputs that produced it.

Exit codes: 0 success, 2 config error (including a step size that makes
an aggregator diverge) or malformed input file, 3 input-hash mismatch,
4 convergence failure.
"""

from __future__ import annotations

import argparse
import copy
import functools
import hashlib
import json
import math
import operator
import sys
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np
import yaml

from . import aggregate as agg
from . import emdpo, evaluate, identify, policy, rewards, simulate
from .errors import (
    CatalogKeyError,
    ConfigError,
    ConvergenceError,
    HashMismatchError,
    InputError,
    StepSizeError,
)

# Pipeline-wide tuned defaults (KL coefficient, EM iterations, MWU
# iterations and learning rate).
PIPELINE_DEFAULTS = {
    "kappa": 0.1,
    "em_max_iters": 5,
    "mwu_iters": 20,
    "mwu_step": 0.01,
}

AGGREGATE_METHODS = ("affine", "lightweight", "direct", "uniform")
METHOD_ALIASES = {"ae": "affine", "lw": "lightweight", "original": "direct"}


def default_config() -> dict:
    return {
        "population": {
            "preset": "mpi",
            "n_phrases": 990,
            "phrase_seed": 0,
            "theta": None,
            "n_responses": 4,
            "reward_spread": 3.0,
            "thetas": None,
            "etas": None,
            "catalog": None,
        },
        "simulate": {
            "n": 1500,
            "m": 1,
            "choice_set_size": 2,
            "seed": 0,
        },
        "emdpo": {
            "k": 2,
            "kappa": PIPELINE_DEFAULTS["kappa"],
            "max_iters": PIPELINE_DEFAULTS["em_max_iters"],
            "tol": 1e-8,
            "init": "kmeans_winner_features",
            "seed": 0,
            "restarts": 1,
            "grad_tol": 1e-8,
            "inner_max_iter": 1000,
            "on_nonconvergence": "raise",
        },
        "sweep": {"k_values": [2, 3, 4, 5, 6]},
        "aggregate": {
            "method": "affine",
            "iters": PIPELINE_DEFAULTS["mwu_iters"],
            "step": PIPELINE_DEFAULTS["mwu_step"],
            "inner_steps": 40,
            "policy_step": 0.5,
            "mwu_step": 0.05,
        },
        "identify": {
            "theta": [2.0, 0.0],
            "n_values": [500, 2000, 5000],
            "seed": 0,
            "n_responses": 4,
            "reward_spread": 3.0,
            "em": {},
        },
        "evaluate": {
            "eval_n": 1200,
            "eval_seed": 1000003,
        },
    }


_DOMAINS: dict[str, tuple] = {
    "population.preset": ("mpi", "adversarial", "custom"),
    "emdpo.init": emdpo.INIT_STRATEGIES,
    "emdpo.on_nonconvergence": ("raise", "warn"),
}

# mappings whose keys are not a fixed schema
_FREE_FORM = {"identify.em", "population.catalog"}


def _merge_validated(base: dict, user: Mapping, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in user.items():
        dotted = f"{path}{key}"
        if key not in base:
            raise ConfigError(
                f"unknown config field {dotted!r}; expected one of "
                f"{sorted(base.keys())}"
            )
        if dotted in _FREE_FORM:
            if value is not None and not isinstance(value, Mapping):
                raise ConfigError(f"config field {dotted!r} must be a mapping")
            out[key] = copy.deepcopy(value)
        elif isinstance(base[key], dict):
            if not isinstance(value, Mapping):
                raise ConfigError(f"config field {dotted!r} must be a mapping")
            out[key] = _merge_validated(base[key], value, dotted + ".")
        else:
            if dotted in _DOMAINS and value not in _DOMAINS[dotted]:
                raise ConfigError(
                    f"config field {dotted!r} must be one of {_DOMAINS[dotted]}, "
                    f"got {value!r}"
                )
            out[key] = value
    return out


def load_config(path: str | Path) -> dict:
    try:
        raw = yaml.safe_load(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config file is not valid YAML: {exc}")
    if raw is None:
        raw = {}
    if not isinstance(raw, Mapping):
        raise ConfigError("config root must be a mapping")
    cfg = _merge_validated(default_config(), raw)
    if cfg["identify"]["em"] is None:
        cfg["identify"]["em"] = {}
    return cfg


def _require_int(cfg: Mapping, dotted: str, minimum: int = 1) -> int:
    """An integer config field of at least ``minimum``, else a ConfigError."""
    node = functools.reduce(operator.getitem, dotted.split("."), cfg)
    if not isinstance(node, int) or isinstance(node, bool) or node < minimum:
        kind = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}")
        raise ConfigError(f"config field {dotted!r} must be {kind}, got {node!r}")
    return node


def _require_number(cfg: Mapping, dotted: str, positive: bool = True,
                    allow_null: bool = False) -> float | None:
    """A finite number config field, > 0 if ``positive``; null only where ``allow_null``."""
    node = functools.reduce(operator.getitem, dotted.split("."), cfg)
    if node is None and allow_null:
        return None
    if (isinstance(node, bool) or not isinstance(node, (int, float))
            or not (math.isfinite(node) and (node > 0 or not positive))):
        null = ", or null for the affine solver's automatic step" if allow_null else ""
        raise ConfigError(f"config field {dotted!r} must be a finite number"
                          f"{' > 0' if positive else ''}{null}, got {node!r}"
                          f"{_yaml11_hint(node)}")
    return float(node)


def _require_theta(cfg: Mapping, dotted: str) -> np.ndarray:
    """An adversarial pair's theta: a list of finite numbers, not all zero."""
    node = functools.reduce(operator.getitem, dotted.split("."), cfg)
    try:
        theta = np.asarray(node, dtype=float)
    except (TypeError, ValueError):
        theta = np.empty(0)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)) or not np.any(theta != 0.0):
        raise ConfigError(f"config field {dotted!r} must be a list of finite numbers, "
                          f"not all zero, got {node!r}")
    return theta


def _yaml11_hint(node: Any) -> str:
    """Why a string that looks like a float was not read as a number, or "".

    PyYAML follows YAML 1.1, where a float needs a dot and a signed
    exponent: ``1e-8`` and ``1.0e6`` are strings, ``1.0e-8`` and
    ``1.0e+6`` are numbers.
    """
    if not isinstance(node, str):
        return ""
    try:
        value = float(node)
    except ValueError:
        return ""
    if not math.isfinite(value):
        return ""
    spelling = np.format_float_scientific(value, trim="0", exp_digits=1)
    return f" (YAML read it as a string; write {spelling} for a number)"


def build_population(cfg: Mapping) -> tuple[rewards.Population, rewards.Catalog]:
    pop_cfg = cfg["population"]
    preset = pop_cfg["preset"]
    if preset == "mpi":
        n_phrases = _require_int(cfg, "population.n_phrases")
        seed = _require_int(cfg, "population.phrase_seed", minimum=0)
        return simulate.make_mpi_population(n_phrases=n_phrases, seed=seed)
    if preset == "adversarial":
        if pop_cfg["theta"] is None:
            raise ConfigError("config field 'population.theta' is required for the "
                              "adversarial preset")
        theta = _require_theta(cfg, "population.theta")
        catalog = identify.recovery_catalog(
            theta,
            n_responses=_require_int(cfg, "population.n_responses", minimum=2),
            reward_spread=_require_number(cfg, "population.reward_spread"),
        )
        return simulate.make_adversarial_pair(theta), catalog
    # custom
    if pop_cfg["thetas"] is None or pop_cfg["etas"] is None:
        raise ConfigError("config fields 'population.thetas' and 'population.etas' "
                          "are required for the custom preset")
    if pop_cfg["catalog"] is None:
        raise ConfigError("config field 'population.catalog' is required for the "
                          "custom preset: {prompt: [[response, [features...]], ...]}")
    try:
        catalog = rewards.Catalog.build({
            prompt: [(rid, vec) for rid, vec in items]
            for prompt, items in pop_cfg["catalog"].items()
        })
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config field 'population.catalog': {exc}") from None
    try:
        population = rewards.Population.from_weights(pop_cfg["thetas"], pop_cfg["etas"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"config fields 'population.thetas' and 'population.etas': "
                          f"{exc}") from None
    if population.thetas.shape[1] != catalog.d:
        raise ConfigError("config field 'population.thetas' dimension does not match "
                          "the catalog feature dimension")
    return population, catalog


def _file_sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    # str(float) is the shortest round-trip form, the same as repr
    lines = [",".join(header)] + [",".join(map(str, row)) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_manifest(out: Path, command: str, cfg: Mapping, inputs: dict, outputs: dict) -> None:
    _write_json(
        out / f"manifest_{command}.json",
        {"command": command, "config": cfg, "inputs": inputs, "outputs": outputs},
    )


def _load_catalog(path: Path) -> rewards.Catalog:
    """Read a catalog; a malformed file raises :class:`InputError` naming it."""
    try:
        return rewards.Catalog.from_json_dict(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InputError(f"{path}: {type(exc).__name__}: {exc}") from None


def _read_dataset(path: Path, catalog: rewards.Catalog) -> simulate.Dataset:
    """Read a dataset and check it against the catalog: its hash, then every id."""
    dataset = simulate.read_dataset(path)
    actual = catalog.content_hash()
    if dataset.catalog_hash != actual:
        raise HashMismatchError(
            "dataset was generated against a different catalog:\n"
            f"  dataset catalog_hash: {dataset.catalog_hash}\n"
            f"  provided catalog:     {actual}"
        )
    for entry, (prompt, response) in enumerate(dataset.vocab):
        try:
            catalog.response_index(prompt, response)
        except CatalogKeyError as exc:
            line = dataset.first_row_with(entry) + 2
            raise InputError(f"{path}, line {line}: {exc.args[0]}") from None
    return dataset


def cmd_simulate(cfg: Mapping, out: Path) -> None:
    population, catalog = build_population(cfg)
    sim = cfg["simulate"]
    for field in ("n", "m", "choice_set_size"):
        _require_int(cfg, f"simulate.{field}")
    _require_int(cfg, "simulate.seed", minimum=0)
    dataset = simulate.simulate_dataset(
        catalog,
        population,
        n=sim["n"],
        m=sim["m"],
        choice_set_size=sim["choice_set_size"],
        rng_seed=sim["seed"],
    )
    out.mkdir(parents=True, exist_ok=True)
    catalog_path = out / "catalog.json"
    dataset_path = out / "dataset.jsonl"
    _write_json(catalog_path, catalog.to_json_dict())
    simulate.write_dataset(dataset, dataset_path)
    _write_manifest(
        out, "simulate", cfg,
        inputs={},
        outputs={
            "catalog.json": _file_sha256(catalog_path),
            "dataset.jsonl": _file_sha256(dataset_path),
            "catalog_hash": catalog.content_hash(),
            "seed": sim["seed"],
        },
    )


def _em_kwargs(cfg: Mapping, section: str = "emdpo") -> dict:
    """Checked run_em keyword arguments from every field of ``section`` but ``k``:
    ``emdpo``, or ``identify.em``, which may hold any of its fields."""
    kwargs = {}
    for key, value in functools.reduce(operator.getitem, section.split("."), cfg).items():
        dotted = f"{section}.{key}"
        if key in ("kappa", "grad_tol"):
            value = _require_number(cfg, dotted)
        elif key == "tol":
            value = _require_number(cfg, dotted, positive=False)
        elif key in ("k", "max_iters", "restarts", "inner_max_iter"):
            value = _require_int(cfg, dotted)
        elif key == "seed":
            value = _require_int(cfg, dotted, minimum=0)
        elif key not in default_config()["emdpo"]:
            raise ConfigError(f"unknown config field {dotted!r}; expected one of "
                              f"{sorted(default_config()['emdpo'])}")
        elif value not in _DOMAINS[f"emdpo.{key}"]:
            raise ConfigError(f"config field {dotted!r} must be one of "
                              f"{_DOMAINS[f'emdpo.{key}']}, got {value!r}")
        kwargs[key] = value
    kwargs.pop("k", None)
    return kwargs


def _write_em_outputs(out: Path, state: emdpo.EmState, catalog: rewards.Catalog,
                      dataset: simulate.Dataset) -> dict:
    ensemble_path = out / "ensemble.json"
    policy.write_ensemble(state.ensemble, catalog, ensemble_path)
    k = state.ensemble.k
    gamma_path = out / "gamma.csv"
    _write_csv(
        gamma_path,
        ["annotator"] + [f"g_{j}" for j in range(k)],
        [
            [a] + [float(g) for g in row]
            for a, row in zip(dataset.ids.tolist(), state.gamma)
        ],
    )
    trace_path = out / "trace.csv"
    traces = state.restart_traces or (state.trace,)
    _write_csv(
        trace_path,
        ["restart", "iteration", "loglik"] + [f"eta_{j}" for j in range(k)]
        + [f"grad_norm_{j}" for j in range(k)],
        [
            [r, row["iteration"], row["loglik"]] + row["eta"] + row["grad_norms"]
            for r, trace in enumerate(traces)
            for row in trace
        ],
    )
    return {
        "ensemble.json": _file_sha256(ensemble_path),
        "gamma.csv": _file_sha256(gamma_path),
        "trace.csv": _file_sha256(trace_path),
    }


def cmd_emdpo(cfg: Mapping, dataset_path: Path, catalog_path: Path, out: Path) -> None:
    catalog = _load_catalog(catalog_path)
    dataset = _read_dataset(dataset_path, catalog)
    k = _require_int(cfg, "emdpo.k")
    state = emdpo.run_em(dataset, catalog, k, **_em_kwargs(cfg))
    out.mkdir(parents=True, exist_ok=True)
    outputs = _write_em_outputs(out, state, catalog, dataset)
    outputs["loglik"] = state.loglik
    _write_manifest(
        out, "emdpo", cfg,
        inputs={
            "dataset.jsonl": _file_sha256(dataset_path),
            "catalog.json": _file_sha256(catalog_path),
            "catalog_hash": catalog.content_hash(),
        },
        outputs=outputs,
    )


def cmd_sweep_k(cfg: Mapping, dataset_path: Path, catalog_path: Path, out: Path) -> None:
    catalog = _load_catalog(catalog_path)
    dataset = _read_dataset(dataset_path, catalog)
    k_values = cfg["sweep"]["k_values"]
    if not isinstance(k_values, Sequence) or not k_values:
        raise ConfigError("config field 'sweep.k_values' must be a non-empty list")
    groups = evaluate.split_by_true_type(evaluate.binarize_records(dataset))
    rows = []
    for k in k_values:
        if not isinstance(k, int) or k < 1:
            raise ConfigError(f"config field 'sweep.k_values' must hold positive "
                              f"integers, got {k!r}")
        state = emdpo.run_em(dataset, catalog, k, **_em_kwargs(cfg))
        margins = [
            evaluate.max_mean_reward_margin(state.ensemble, catalog, g)
            for _t, g in sorted(groups.items())
        ]
        rows.append([k, state.loglik] + margins)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / "sweep.csv"
    _write_csv(
        sweep_path,
        ["k", "loglik"] + [f"max_mean_margin_group_{t}" for t in sorted(groups)],
        rows,
    )
    _write_manifest(
        out, "sweep-k", cfg,
        inputs={
            "dataset.jsonl": _file_sha256(dataset_path),
            "catalog.json": _file_sha256(catalog_path),
        },
        outputs={"sweep.csv": _file_sha256(sweep_path)},
    )


def _flatten_trace(trace: Sequence[Mapping]) -> tuple[list[str], list[list]]:
    """Expand list-valued trace fields into one CSV column per element."""
    if not trace:
        return ["iteration"], []
    keys = ["iteration"] + sorted(k for k in trace[0] if k != "iteration")
    header: list[str] = []
    for key in keys:
        value = trace[0][key]
        if isinstance(value, list):
            header.extend(f"{key}_{j}" for j in range(len(value)))
        else:
            header.append(key)
    rows = []
    for row in trace:
        flat: list = []
        for key in keys:
            value = row[key]
            if isinstance(value, list):
                flat.extend(value)
            else:
                flat.append(value)
        rows.append(flat)
    return header, rows


def _read_gamma(path: Path, annotators: Sequence[int], k: int) -> np.ndarray:
    """Posteriors from a gamma CSV: one row per annotator in dataset order, on the simplex."""
    try:
        rows = path.read_text(encoding="utf-8").strip().splitlines()[1:]
    except OSError as exc:
        raise InputError(f"gamma file {path}: {type(exc).__name__}: {exc}") from None
    if len(rows) != len(annotators):
        raise InputError(f"gamma file {path} has {len(rows)} rows, dataset has "
                         f"{len(annotators)} annotators")
    gamma = np.empty((len(annotators), k))
    for i, (line, annotator) in enumerate(zip(rows, annotators)):
        where = f"gamma file {path}, line {i + 2}"
        cells = line.split(",")
        if len(cells) != k + 1:
            raise InputError(f"{where}: {len(cells) - 1} columns, ensemble has {k}")
        if cells[0].strip() != str(annotator):
            raise InputError(f"{where}: annotator {cells[0]!r}, but the dataset's "
                             f"annotator {i + 1} is {annotator}")
        try:
            row = [float(v) for v in cells[1:]]
        except ValueError as exc:
            raise InputError(f"{where}: {exc}") from None
        if not (min(row) >= 0.0 and abs(sum(row) - 1.0) <= emdpo.ROW_SUM_ATOL):
            raise InputError(f"{where}: {row} does not lie on the simplex")
        gamma[i] = row
    return gamma


def cmd_aggregate(cfg: Mapping, ensemble_path: Path, catalog_path: Path, out: Path,
                  dataset_path: Path | None = None, gamma_path: Path | None = None) -> None:
    catalog = _load_catalog(catalog_path)
    ensemble = policy.read_ensemble(ensemble_path, catalog)
    ref = policy.ReferencePolicy.uniform(catalog)
    pw = policy.uniform_prompt_weights(catalog)
    acfg = cfg["aggregate"]
    method = METHOD_ALIASES.get(acfg["method"], acfg["method"])
    if method not in AGGREGATE_METHODS:
        raise ConfigError(
            f"config field 'aggregate.method' must be one of {AGGREGATE_METHODS} "
            f"(aliases {sorted(METHOD_ALIASES)}), got {acfg['method']!r}"
        )
    iters = _require_int(cfg, "aggregate.iters", minimum=2 if method == "affine" else 1)
    inner_steps = _require_int(cfg, "aggregate.inner_steps")
    # lightweight has no automatic step to fall back on
    step = _require_number(cfg, "aggregate.step", allow_null=method != "lightweight")
    policy_step = _require_number(cfg, "aggregate.policy_step")
    mwu_step = _require_number(cfg, "aggregate.mwu_step")
    inputs = {
        "ensemble.json": _file_sha256(ensemble_path),
        "catalog.json": _file_sha256(catalog_path),
    }
    outputs: dict = {}

    R = agg.regret_matrix(agg.discrepancy_matrix(ensemble, ref, catalog, pw))
    csvs: dict[str, tuple[list, list]] = {}  # file name -> (header, rows)
    table = None  # the aggregated policy of the table-valued methods

    if method == "affine":
        try:
            sol = agg.solve_regret_game(R, iters=iters, step=step)
        except ValueError as exc:  # R is finite, so the step is at fault
            raise ConfigError(f"config field 'aggregate.step': {exc}") from None
        columns = np.column_stack([sol.w_avg_trace, sol.p_avg_trace, sol.gap_trace])
        csvs["game_trace.csv"] = (
            ["iteration"] + [f"w_{j}" for j in range(ensemble.k)]
            + [f"p_{j}" for j in range(ensemble.k + 1)] + ["gap"],
            [[t] + row for t, row in enumerate(columns.tolist(), 1)],
        )
        candidate: Any = sol.w
        solution = {
            "method": method,
            "w": [float(v) for v in sol.w],
            "p": [float(v) for v in sol.p],
            "value": sol.value,
            "gap": float(sol.gap_trace[-1]),
        }
    elif method == "uniform":
        w = agg.uniform_mixture(ensemble)
        candidate = w
        solution = {"method": method, "w": [float(v) for v in w]}
    else:
        if dataset_path is None and method == "lightweight":
            raise ConfigError("aggregate method 'lightweight' requires --dataset")
        if method == "lightweight":
            dataset = _read_dataset(dataset_path, catalog)
            inputs["dataset.jsonl"] = _file_sha256(dataset_path)
            if gamma_path is None:
                raise ConfigError("aggregate method 'lightweight' requires --gamma")
            gamma = _read_gamma(gamma_path, dataset.ids.tolist(), ensemble.k)
            inputs["gamma.csv"] = _file_sha256(gamma_path)
            table, trace = agg.minimax_policy_lightweight(
                dataset, catalog, ensemble, gamma, ref,
                iters=iters, step=step,
                inner_steps=inner_steps,
                prompt_weights=pw,
            )
        else:
            try:
                table, trace = agg.minimax_policy_direct(
                    ensemble, ref, catalog, pw,
                    iters=iters, policy_step=policy_step, mwu_step=mwu_step,
                )
            except StepSizeError as exc:
                raise ConfigError(f"config field 'aggregate.policy_step' is too large, "
                                  f"the direct descent diverged: {exc}") from None
        csvs["aggregate_trace.csv"] = _flatten_trace(trace)
        candidate = table
        solution = {"method": method}

    # --out is made only once the method has succeeded: a failed run leaves nothing
    out.mkdir(parents=True, exist_ok=True)
    if table is not None:
        policy_path = out / "aggregated_policy.json"
        single = policy.ScoreEnsemble(tables=(table,), eta=np.array([1.0]))
        policy.write_ensemble(single, catalog, policy_path)
        outputs["aggregated_policy.json"] = _file_sha256(policy_path)
    csvs["regret_matrix.csv"] = (
        ["row"] + [f"member_{j}" for j in range(ensemble.k)],
        [[("null" if i == 0 else f"type_{i - 1}")] + R[i].tolist()
         for i in range(ensemble.k + 1)],
    )
    for name, (header, rows) in csvs.items():
        _write_csv(out / name, header, rows)
        outputs[name] = _file_sha256(out / name)
    regrets = agg.regrets_of_policy(candidate, ensemble, ref, catalog, pw)
    report = {
        "method": method,
        "per_group_regrets": [float(r) for r in regrets],
        "max_regret": float(regrets.max()),
        "solution": solution,
    }
    report_path = out / "aggregate_report.json"
    _write_json(report_path, report)
    outputs["aggregate_report.json"] = _file_sha256(report_path)
    _write_manifest(out, "aggregate", cfg, inputs=inputs, outputs=outputs)


def cmd_identify(cfg: Mapping, out: Path) -> None:
    icfg = cfg["identify"]
    theta = _require_theta(cfg, "identify.theta")
    seed = _require_int(cfg, "identify.seed", minimum=0)
    em_config = _em_kwargs(cfg, "identify.em")
    n_responses = _require_int(cfg, "identify.n_responses", minimum=2)
    spread = _require_number(cfg, "identify.reward_spread")
    n_values = icfg["n_values"]
    if not isinstance(n_values, list) or not all(
            isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_values):
        raise ConfigError(f"config field 'identify.n_values' must be a list of positive "
                          f"integers, got {n_values!r}")
    catalog = identify.recovery_catalog(theta, n_responses, spread)
    population = simulate.make_adversarial_pair(theta)

    flatness = identify.verify_binary_flatness(catalog, theta)

    binary_ds = simulate.simulate_dataset(
        catalog, population, n=200, m=1, choice_set_size=2, rng_seed=seed
    )
    candidates = [
        population,
        simulate.make_adversarial_pair(2.0 * theta),
        rewards.Population.from_weights([np.zeros_like(theta)], [1.0]),
    ]
    binary_spread = identify.binary_likelihood_flatness(
        binary_ds, catalog, population, candidates
    )
    ternary_ds = simulate.simulate_dataset(
        catalog, population, n=200, m=1, choice_set_size=3, rng_seed=seed
    )
    ternary_spread = identify.binary_likelihood_flatness(
        ternary_ds, catalog, population, candidates
    )

    rng = np.random.default_rng(seed)
    d = len(theta)
    design = rng.normal(size=(3 * d, d))
    logits = design @ theta
    theta_hat = identify.recover_theta_from_binary(design, logits)
    recovery_error = float(np.abs(theta_hat - theta).max())

    rows = []
    reports = []
    for n in n_values:
        rep3 = identify.ternary_recovery_experiment(
            theta, n=n, seed=seed, em_config=em_config,
            choice_set_size=3, n_responses=n_responses, reward_spread=spread,
        )
        rep2 = identify.ternary_recovery_experiment(
            theta, n=n, seed=seed, em_config=em_config,
            choice_set_size=2, n_responses=n_responses, reward_spread=spread,
        )
        rows.append([
            n,
            rep3.margin_correlation,
            max(rep3.eta_error),
            rep3.expected_loglik_fit - rep3.expected_loglik_null,
            rep2.expected_loglik_fit - rep2.expected_loglik_null,
        ])
        reports.append({"ternary": rep3.to_json_dict(), "binary": rep2.to_json_dict()})

    out.mkdir(parents=True, exist_ok=True)
    curve_path = out / "recovery_curve.csv"
    _write_csv(
        curve_path,
        ["n", "ternary_margin_correlation", "ternary_max_eta_error",
         "ternary_loglik_gap_vs_null", "binary_loglik_gap_vs_null"],
        rows,
    )
    report_path = out / "identify_report.json"
    _write_json(
        report_path,
        {
            "binary_flatness_max_deviation": flatness,
            "binary_likelihood_spread": binary_spread,
            "ternary_likelihood_spread": ternary_spread,
            "theta_recovery_max_error": recovery_error,
            "experiments": reports,
        },
    )
    _write_manifest(
        out, "identify", cfg, inputs={},
        outputs={
            "identify_report.json": _file_sha256(report_path),
            "recovery_curve.csv": _file_sha256(curve_path),
        },
    )


def cmd_evaluate(cfg: Mapping, catalog_path: Path, ensembles: Sequence[tuple[str, Path]],
                 out: Path) -> None:
    catalog = _load_catalog(catalog_path)
    population, pop_catalog = build_population(cfg)
    if pop_catalog.content_hash() != catalog.content_hash():
        raise HashMismatchError(
            "evaluation population preset does not rebuild the provided catalog:\n"
            f"  provided catalog: {catalog.content_hash()}\n"
            f"  preset catalog:   {pop_catalog.content_hash()}"
        )
    ecfg = cfg["evaluate"]
    eval_n = _require_int(cfg, "evaluate.eval_n")
    eval_ds = simulate.simulate_dataset(
        catalog, population, n=eval_n, m=1, choice_set_size=2,
        rng_seed=_require_int(cfg, "evaluate.eval_seed", minimum=0),
    )
    groups = evaluate.split_by_true_type(eval_ds)
    group_ids = sorted(groups)

    margin_rows = []
    acc_rows = []
    inputs = {"catalog.json": _file_sha256(catalog_path)}
    for label, path in ensembles:
        ensemble = policy.read_ensemble(path, catalog)
        inputs[f"ensemble:{label}"] = _file_sha256(path)
        margins = [
            evaluate.max_mean_reward_margin(ensemble, catalog, groups[t])
            for t in group_ids
        ]
        margin_rows.append([label] + margins)
        accs = []
        for t in group_ids:
            best = max(
                ensemble.tables,
                key=lambda tab: evaluate.mean_margin(tab, catalog, groups[t]),
            )
            accs.append(evaluate.accuracy(best, catalog, groups[t]))
        acc_rows.append([label] + accs)

    out.mkdir(parents=True, exist_ok=True)
    metrics_path = out / "metrics.csv"
    header = ["block", "method"] + [f"group_{t}" for t in group_ids]
    rows = [["max_mean_margin"] + r for r in margin_rows]
    rows += [["accuracy"] + r for r in acc_rows]
    _write_csv(metrics_path, header, rows)
    _write_manifest(
        out, "evaluate", cfg, inputs=inputs,
        outputs={"metrics.csv": _file_sha256(metrics_path)},
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetpref",
        description="Latent-type preference pipeline: simulate, fit, aggregate, verify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="YAML config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("simulate", help="generate a dataset from a population preset")
    common(p)

    p = sub.add_parser("emdpo", help="fit the latent-type ensemble")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--catalog", required=True)

    p = sub.add_parser("sweep-k", help="fit for every k in sweep.k_values")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--catalog", required=True)

    p = sub.add_parser("aggregate", help="combine the ensemble into one policy")
    common(p)
    p.add_argument("--ensemble", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--dataset", default=None)
    p.add_argument("--gamma", default=None)

    p = sub.add_parser("identify", help="run the identifiability experiments")
    common(p)

    p = sub.add_parser("evaluate", help="margins and accuracies per hidden group")
    common(p)
    p.add_argument("--catalog", required=True)
    p.add_argument(
        "--ensemble",
        action="append",
        required=True,
        metavar="LABEL=PATH",
        help="ensemble file to score, repeatable",
    )
    return parser


def _apply_seed_override(cfg: dict, command: str, seed: int | None) -> None:
    if seed is None:
        return
    if seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    if command == "simulate":
        cfg["simulate"]["seed"] = seed
    elif command in ("emdpo", "sweep-k"):
        cfg["emdpo"]["seed"] = seed
    elif command == "identify":
        cfg["identify"]["seed"] = seed
    elif command == "evaluate":
        cfg["evaluate"]["eval_seed"] = seed


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        _apply_seed_override(cfg, args.command, args.seed)
        out = Path(args.out)
        if args.command == "simulate":
            cmd_simulate(cfg, out)
        elif args.command == "emdpo":
            cmd_emdpo(cfg, Path(args.dataset), Path(args.catalog), out)
        elif args.command == "sweep-k":
            cmd_sweep_k(cfg, Path(args.dataset), Path(args.catalog), out)
        elif args.command == "aggregate":
            cmd_aggregate(
                cfg, Path(args.ensemble), Path(args.catalog), out,
                dataset_path=Path(args.dataset) if args.dataset else None,
                gamma_path=Path(args.gamma) if args.gamma else None,
            )
        elif args.command == "identify":
            cmd_identify(cfg, out)
        elif args.command == "evaluate":
            ensembles = []
            for entry in args.ensemble:
                if "=" not in entry:
                    raise ConfigError(
                        f"--ensemble expects LABEL=PATH, got {entry!r}"
                    )
                label, path = entry.split("=", 1)
                ensembles.append((label, Path(path)))
            cmd_evaluate(cfg, Path(args.catalog), ensembles, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except HashMismatchError as exc:
        print(f"hash mismatch: {exc}", file=sys.stderr)
        return 3
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
