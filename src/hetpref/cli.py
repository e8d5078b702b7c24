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
import hashlib
import json
import math
import sys
from itertools import islice
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

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

METHOD_ALIASES = {"ae": "affine", "lw": "lightweight", "original": "direct"}
# Rows a CSV writer formats before each write, so no file is built whole in memory.
CSV_CHUNK_ROWS = 1024

# Every config field: section -> field -> (default, kind). A kind is one of
# "int>=0", "int>=1", "int>=2": an integer of at least that value;
# "number>0", "number": a finite number, > 0 or of any sign, and
# "number>0|null", which may also be null; "theta": a list of finite
# numbers, not all zero; "ints": a non-empty list of positive integers;
# "mapping": a mapping or null; a tuple: one of its values; None: unchecked
# here (Population.from_weights checks the custom preset's thetas and etas).
# A field whose default is null may be null: the command that needs it says so.
_SCHEMA: dict[str, dict[str, tuple[Any, Any]]] = {
    "population": {
        "preset": ("mpi", ("mpi", "adversarial", "custom")),
        "n_phrases": (990, "int>=1"),
        "phrase_seed": (0, "int>=0"),
        "theta": (None, "theta"),
        "n_responses": (4, "int>=2"),
        "reward_spread": (3.0, "number>0"),
        "thetas": (None, None),
        "etas": (None, None),
        "catalog": (None, "mapping"),
    },
    "simulate": {
        "n": (1500, "int>=1"),
        "m": (1, "int>=1"),
        "choice_set_size": (2, "int>=1"),
        "seed": (0, "int>=0"),
    },
    "emdpo": {
        "k": (2, "int>=1"),
        "kappa": (0.1, "number>0"),
        "max_iters": (5, "int>=1"),
        "tol": (1e-8, "number"),
        "init": ("kmeans_winner_features", emdpo.INIT_STRATEGIES),
        "seed": (0, "int>=0"),
        "restarts": (1, "int>=1"),
        "grad_tol": (1e-8, "number>0"),
        "inner_max_iter": (1000, "int>=1"),
        "on_nonconvergence": ("raise", ("raise", "warn")),
    },
    "sweep": {"k_values": ([2, 3, 4, 5, 6], "ints")},
    "aggregate": {
        "method": ("affine", ("affine", "lightweight", "direct", "uniform", *METHOD_ALIASES)),
        "iters": (20, "int>=1"),
        "step": (0.01, "number>0|null"),
        "inner_steps": (40, "int>=1"),
        "policy_step": (0.5, "number>0"),
        "mwu_step": (0.05, "number>0"),
    },
    "identify": {
        "theta": ([2.0, 0.0], "theta"),
        "n_values": ([500, 2000, 5000], "ints"),
        "seed": (0, "int>=0"),
        "n_responses": (4, "int>=2"),
        "reward_spread": (3.0, "number>0"),
        "em": ({}, "mapping"),  # any emdpo field but k
    },
    "evaluate": {
        "eval_n": (1200, "int>=1"),
        "eval_seed": (1000003, "int>=0"),
    },
}


def default_config() -> dict:
    return copy.deepcopy({section: {field: default for field, (default, _) in rows.items()}
                          for section, rows in _SCHEMA.items()})


def _unknown(dotted: str, rows: Mapping) -> ConfigError:
    return ConfigError(f"unknown config field {dotted!r}; expected one of {sorted(rows)}")


def load_config(path: str | Path) -> dict:
    """The defaults overlaid with a YAML file; fields are known, domains and mappings checked."""
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
    cfg = default_config()
    for section, fields in raw.items():
        if section not in _SCHEMA:
            raise _unknown(str(section), _SCHEMA)
        if not isinstance(fields, Mapping):
            raise ConfigError(f"config field {section!r} must be a mapping")
        for field, value in fields.items():
            dotted = f"{section}.{field}"
            if field not in _SCHEMA[section]:
                raise _unknown(dotted, _SCHEMA[section])
            kind = _SCHEMA[section][field][1]
            if isinstance(kind, tuple) or kind == "mapping":
                _check(dotted, value, kind)
            cfg[section][field] = copy.deepcopy(value)
    if cfg["identify"]["em"] is None:
        cfg["identify"]["em"] = {}
    return cfg


def _checked(cfg: Mapping, section: str) -> dict:
    """Every field of ``section`` checked against its kind: numbers as float, a theta
    as an array. ``identify.em`` holds any ``emdpo`` field but ``k``."""
    if section == "identify.em":
        node = cfg["identify"]["em"]
        rows = {field: row for field, row in _SCHEMA["emdpo"].items() if field != "k"}
    else:
        node, rows = cfg[section], _SCHEMA[section]
    checked = {}
    for field, value in node.items():
        dotted = f"{section}.{field}"
        if field not in rows:
            raise _unknown(dotted, rows)
        default, kind = rows[field]
        checked[field] = (value if value is None and default is None
                          else _check(dotted, value, kind))
    return checked


def _is_int(value: Any, minimum: int) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= minimum


def _check(dotted: str, value: Any, kind: Any) -> Any:
    """``value`` if it is of ``kind`` (see ``_SCHEMA``), converted; else a ConfigError."""
    if kind is None or (value is None and kind in ("mapping", "number>0|null")):
        return value
    checked, hint = value, ""
    if isinstance(kind, tuple):
        ok, what = value in kind, f"one of {kind}"
    elif kind == "mapping":
        ok, what = isinstance(value, Mapping), "a mapping"
    elif kind.startswith("int>="):
        minimum = int(kind[5:])
        ok = _is_int(value, minimum)
        what = {0: "a non-negative integer", 1: "a positive integer"}.get(
            minimum, f"an integer >= {minimum}")
    elif kind == "ints":
        ok = isinstance(value, list) and bool(value) and all(_is_int(v, 1) for v in value)
        what = "a non-empty list of positive integers"
    elif kind == "theta":
        try:
            checked = np.asarray(value, dtype=float)
        except (TypeError, ValueError):
            checked = np.empty(0)
        ok = checked.ndim == 1 and np.all(np.isfinite(checked)) and np.any(checked != 0.0)
        what = "a list of finite numbers, not all zero"
    else:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and math.isfinite(value) and (value > 0 or kind == "number"))
        checked = float(value) if ok else value
        what = "a finite number" + {"number": "", "number>0": " > 0",
                                    "number>0|null": " > 0, or null"}[kind]
        hint = _yaml11_hint(value)
    if not ok:
        raise ConfigError(f"config field {dotted!r} must be {what}, got {value!r}{hint}")
    return checked


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
    pop_cfg = _checked(cfg, "population")
    preset = pop_cfg["preset"]
    if preset == "mpi":
        return simulate.make_mpi_population(n_phrases=pop_cfg["n_phrases"],
                                            seed=pop_cfg["phrase_seed"])
    if preset == "adversarial":
        theta = pop_cfg["theta"]
        if theta is None:
            raise ConfigError("config field 'population.theta' is required for the "
                              "adversarial preset")
        catalog = identify.recovery_catalog(theta, n_responses=pop_cfg["n_responses"],
                                            reward_spread=pop_cfg["reward_spread"])
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
    with path.open("rb") as f:
        return hashlib.file_digest(f, "sha256").hexdigest()


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, sort_keys=True, indent=1) + "\n", encoding="utf-8")


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``rows`` under ``header``, formatting and writing CSV_CHUNK_ROWS rows at a time."""
    rows = iter(rows)
    with path.open("w", encoding="utf-8") as f:
        f.write(",".join(header) + "\n")
        while chunk := list(islice(rows, CSV_CHUNK_ROWS)):
            # str(float) is the shortest round-trip form, the same as repr
            f.write("".join([",".join(map(str, row)) + "\n" for row in chunk]))


def _write_manifest(out: Path, command: str, cfg: Mapping, inputs: dict, outputs: dict) -> None:
    _write_json(out / f"manifest_{command}.json",
                {"command": command, "config": cfg, "inputs": inputs, "outputs": outputs})


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
    sim = _checked(cfg, "simulate")
    population, catalog = build_population(cfg)
    dataset = simulate.simulate_dataset(catalog, population, n=sim["n"], m=sim["m"],
                                        choice_set_size=sim["choice_set_size"],
                                        rng_seed=sim["seed"])
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


def _write_em_outputs(out: Path, state: emdpo.EmState, catalog: rewards.Catalog,
                      dataset: simulate.Dataset) -> dict:
    ensemble_path = out / "ensemble.json"
    policy.write_ensemble(state.ensemble, catalog, ensemble_path)
    k = state.ensemble.k
    gamma_path = out / "gamma.csv"
    _write_csv(gamma_path, ["annotator"] + [f"g_{j}" for j in range(k)],
               [[a] + row for a, row in zip(dataset.ids.tolist(), state.gamma.tolist())])
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
    em = _checked(cfg, "emdpo")
    catalog = _load_catalog(catalog_path)
    dataset = _read_dataset(dataset_path, catalog)
    state = emdpo.run_em(dataset, catalog, em.pop("k"), **em)
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
    k_values = _checked(cfg, "sweep")["k_values"]
    em = {field: value for field, value in _checked(cfg, "emdpo").items() if field != "k"}
    catalog = _load_catalog(catalog_path)
    dataset = _read_dataset(dataset_path, catalog)
    groups = evaluate.split_by_true_type(evaluate.binarize_records(dataset))
    rows = []
    for k in k_values:
        state = emdpo.run_em(dataset, catalog, k, **em)
        margins = [evaluate.max_mean_reward_margin(state.ensemble, catalog, g)
                   for _t, g in sorted(groups.items())]
        rows.append([k, state.loglik] + margins)
    out.mkdir(parents=True, exist_ok=True)
    sweep_path = out / "sweep.csv"
    _write_csv(sweep_path,
               ["k", "loglik"] + [f"max_mean_margin_group_{t}" for t in sorted(groups)], rows)
    _write_manifest(out, "sweep-k", cfg,
                    inputs={"dataset.jsonl": _file_sha256(dataset_path),
                            "catalog.json": _file_sha256(catalog_path)},
                    outputs={"sweep.csv": _file_sha256(sweep_path)})


def _flatten_trace(trace: Sequence[Mapping]) -> tuple[list[str], list[list]]:
    """Expand list-valued trace fields into one CSV column per element."""
    if not trace:
        return ["iteration"], []
    keys = ["iteration"] + sorted(k for k in trace[0] if k != "iteration")

    def cells(row: Mapping) -> list[tuple[str, Any]]:
        """(column, value) pairs; a list field spreads over key_0, key_1, ..."""
        return [pair for key in keys for pair in (
            [(f"{key}_{j}", v) for j, v in enumerate(row[key])]
            if isinstance(row[key], list) else [(key, row[key])])]

    return [c for c, _ in cells(trace[0])], [[v for _, v in cells(row)] for row in trace]


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
    acfg = _checked(cfg, "aggregate")
    method = METHOD_ALIASES.get(acfg["method"], acfg["method"])
    iters, step = acfg["iters"], acfg["step"]
    if method == "affine" and iters < 2:
        raise ConfigError(f"config field 'aggregate.iters' must be an integer >= 2 for the "
                          f"affine method, got {iters!r}")
    # lightweight has no automatic step to fall back on
    if method == "lightweight" and step is None:
        raise ConfigError("config field 'aggregate.step' must be a finite number > 0 for "
                          "the lightweight method, got None")
    catalog = _load_catalog(catalog_path)
    ensemble = policy.read_ensemble(ensemble_path, catalog)
    ref = policy.ReferencePolicy.uniform(catalog)
    pw = policy.uniform_prompt_weights(catalog)
    inputs = {"ensemble.json": _file_sha256(ensemble_path),
              "catalog.json": _file_sha256(catalog_path)}
    outputs: dict = {}

    R = agg.regret_matrix(agg.discrepancy_matrix(ensemble, ref, catalog, pw))
    csvs: dict[str, tuple[list, list]] = {}  # file name -> (header, rows)
    table = None  # the aggregated policy of the table-valued methods

    if method == "affine":
        try:
            sol = agg.solve_regret_game(R, iters=iters, step=step)
        except ValueError as exc:  # R is finite, so the step is at fault
            raise ConfigError(f"config field 'aggregate.step': {exc}") from None
        except MemoryError as exc:  # the iterate buffer holds one row per iteration
            raise ConfigError(f"config field 'aggregate.iters' is too large: {iters} game "
                              f"iterations do not fit in memory ({exc})") from None
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
                inner_steps=acfg["inner_steps"],
                prompt_weights=pw,
            )
        else:
            try:
                table, trace = agg.minimax_policy_direct(
                    ensemble, ref, catalog, pw,
                    iters=iters, policy_step=acfg["policy_step"], mwu_step=acfg["mwu_step"],
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
    icfg = _checked(cfg, "identify")
    em_config = _checked(cfg, "identify.em")
    theta, seed = icfg["theta"], icfg["seed"]
    n_responses, spread = icfg["n_responses"], icfg["reward_spread"]
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
    for n in icfg["n_values"]:
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
    ecfg = _checked(cfg, "evaluate")
    population, pop_catalog = build_population(cfg)
    catalog = _load_catalog(catalog_path)
    if pop_catalog.content_hash() != catalog.content_hash():
        raise HashMismatchError(
            "evaluation population preset does not rebuild the provided catalog:\n"
            f"  provided catalog: {catalog.content_hash()}\n"
            f"  preset catalog:   {pop_catalog.content_hash()}"
        )
    eval_ds = simulate.simulate_dataset(
        catalog, population, n=ecfg["eval_n"], m=1, choice_set_size=2,
        rng_seed=ecfg["eval_seed"],
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

    for name, text in (("emdpo", "fit the latent-type ensemble"),
                       ("sweep-k", "fit for every k in sweep.k_values")):
        p = sub.add_parser(name, help=text)
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
    p.add_argument("--ensemble", action="append", required=True, metavar="LABEL=PATH",
                   help="ensemble file to score, repeatable")
    return parser


# the config field --seed overrides, per command; aggregate draws nothing
_SEED_FIELDS = {"simulate": "simulate.seed", "emdpo": "emdpo.seed", "sweep-k": "emdpo.seed",
                "identify": "identify.seed", "evaluate": "evaluate.eval_seed"}


def _apply_seed_override(cfg: dict, command: str, seed: int | None) -> None:
    if seed is not None and seed < 0:
        raise ConfigError(f"--seed must be a non-negative integer, got {seed}")
    if seed is not None and command in _SEED_FIELDS:
        section, field = _SEED_FIELDS[command].split(".")
        cfg[section][field] = seed


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
                    raise ConfigError(f"--ensemble expects LABEL=PATH, got {entry!r}")
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
