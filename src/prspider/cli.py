"""Command-line entry point: run experiments, sweeps, and verification.

Usage:
    prspider run CONFIG [--out DIR]
    prspider sweep CONFIG --axis {N,I,eps,heterogeneity} --values V1,V2,...
                   [--hold-total-data] [--out DIR]
    prspider verify [--suite {all,finite,online}]

Configs are JSON with three blocks::

    {
      "problem":   {"family": "quadratic", "N": 4, "n": 64, "d": 8,
                    "heterogeneity": 0.5, "seed": 7},
      "algorithm": {"name": "pr-spider-finite",
                    "auto": {"eps": 0.05, "I": 4}},
      "run":       {"seeds": [0, 1], "out_dir": "runs/demo",
                    "eps_targets": [0.05], "metrics_every": 1,
                    "parallel": false}
    }

``algorithm`` takes either ``auto`` (hyperparameters derived from the
suite's certified constants for the target ``eps``) or explicit
``params``. A table per block gives each key its type, range and default;
``parse_block`` checks a block against it. An unknown or missing key, a
wrong type (integer keys reject ``4.0`` and ``true``) or a value out of
range is a configuration error, so a misspelt key cannot silently fall
back to its default. Every run writes one trace CSV and one JSON sidecar
per seed; the sidecar echoes the fully resolved configuration and is a
valid config, so any experiment reruns exactly from its outputs. The
``PRSPIDER_OUT`` environment variable prefixes relative output directories.

Outputs are streamed into a temporary file beside the target and moved
into place, so a failed or killed run never leaves a partial file; ``sweep``
rewrites ``sweep.csv`` after each point. ``statistics`` loads only in
``sweep``, which alone uses it.

Exit codes: 0 success, 2 configuration error, 3 divergence,
4 verification failure, 5 an objective below the problem's certified
optimum (the certificate is wrong; the partial trace is still written).
When seeds end differently, the highest code wins.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .algorithms import (
    DivergedError,
    HyperParams,
    choose_params_baseline,
    choose_params_finite,
    choose_params_online,
    run_parallel_minibatch_sgd,
    run_parallel_restarted_sgd,
    run_pr_spider_finite,
    run_pr_spider_online,
)
from .checks import run_suite
from .harness import (
    CertificateError,
    MetricsTrace,
    first_hit,
    open_atomic,
)
from .problems import (
    ProblemSuite,
    make_nonconvex_suite,
    make_quadratic_suite,
    quadratic_suite_from_centers,
    sigmoid_suite_from_params,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_VERIFY = 4
EXIT_CERTIFICATE = 5


class ConfigError(ValueError):
    pass


class Key(NamedTuple):
    """One config key: its JSON type, its range and its default."""

    kind: type  # int takes no true or 4.0; float takes finite numbers, as floats
    low: float | None = None  # for a list, the bound on its length
    default: object = ...  # ...: no default, the key is required
    strict: bool = False  # the bound ``low`` is exclusive
    words: tuple = ()  # strings taken as they are; a str key takes no others
    item: Key | None = None  # the check of each value of a list


COUNT = Key(int, 1)
STEP = Key(float, 0)
SEED = Key(int, 0)
NAME = Key(str)
ARRAY = Key(list)
OPTIONAL = Key(dict, default=None)

# ``result`` is the block sidecars carry, so a sidecar reruns as a config
TOP = {
    "problem": Key(dict), "algorithm": Key(dict),
    "run": Key(dict, default={}), "result": OPTIONAL,
}
GENERATED = {
    "family": NAME, "N": COUNT, "n": COUNT, "d": COUNT,
    "heterogeneity": Key(float, default=0.0), "seed": SEED,
}
# family -> (suite factory, the problem block's table)
PROBLEMS = {
    "quadratic": (make_quadratic_suite, {
        **GENERATED, "center_spread": Key(float, default=1.0),
        "initial_offset": Key(float, 0, default=None),
    }),
    "sigmoid": (make_nonconvex_suite, {
        **GENERATED, "n": Key(int, 1, words=("online",)),
        "online_pool": Key(int, 1, default=512),
    }),
    "quadratic-explicit": (quadratic_suite_from_centers, {
        "family": NAME, "centers": ARRAY, "initial_point": ARRAY,
    }),
    "sigmoid-explicit": (sigmoid_suite_from_params, {
        "family": NAME, "features": ARRAY, "offsets": ARRAY,
        "initial_point": ARRAY, "online": Key(bool, default=False),
    }),
}
AUTO = {"eps": Key(float, 0, strict=True), "I": Key(int, 1, default=4)}
# par-sgd never averages mid-run: its ``I`` sets only the step size, that
# of one local step unless given
SGD_AUTO = {**AUTO, "I": Key(int, 1, default=1)}
# ``N`` defaults to the problem's worker count
SPIDER = {
    "gamma": STEP, "I": COUNT, "m": COUNT, "B": COUNT, "S": COUNT,
    "N": Key(int, 1, default=None),
}
SGD = {"gamma": STEP, "batch": COUNT, "horizon": COUNT}
RESTARTED_SGD = {"gamma": STEP, "batch": COUNT, "I": COUNT, "horizon": COUNT}
# name -> (runner, the ``params`` table, the ``auto`` table, whether the
# runner takes a ``HyperParams`` rather than the params as keywords)
ALGORITHMS = {
    "pr-spider-finite": (run_pr_spider_finite, SPIDER, AUTO, True),
    "pr-spider-online": (run_pr_spider_online, {**SPIDER, "n_b": COUNT}, AUTO, True),
    "par-sgd": (run_parallel_minibatch_sgd, SGD, SGD_AUTO, False),
    "par-restarted-sgd": (run_parallel_restarted_sgd, RESTARTED_SGD, AUTO, False),
}
ALGORITHM = {
    "name": Key(str, words=tuple(ALGORITHMS)), "auto": OPTIONAL, "params": OPTIONAL,
}
RUN = {
    "seeds": Key(list, 1, default=[0], item=SEED),
    "out_dir": Key(str, default="runs"),
    "eps_targets": Key(list, default=[], item=Key(float, 0)),
    "metrics_every": Key(int, 1, default=1),
    "parallel": Key(bool, default=False),
}
# the params that size an array of sample indices, and numpy's longest one
BATCHES = ("B", "batch", "n_b")
MAX_BATCH = int(np.iinfo(np.intp).max)
# sweep axis -> the key its values are checked as
AXES = {"N": GENERATED["N"], "I": AUTO["I"], "eps": AUTO["eps"],
        "heterogeneity": GENERATED["heterogeneity"]}
# the axes that set a problem key; the others set an algorithm key
PROBLEM_AXES = ("N", "heterogeneity")

_KINDS = {int: "an integer", float: "a finite number", bool: "true or false",
          str: "a string", dict: "an object", list: "a list"}


def _describe(spec: Key) -> str:
    words = ", ".join(map(repr, spec.words))
    if spec.kind is str and words:
        return f"one of {words}"
    item = "" if spec.item is None else f" whose items are each {_describe(spec.item)}"
    low = "" if spec.low is None else f" {'>' if spec.strict else '>='} {spec.low:g}"
    length = " of length" if spec.kind is list and low else ""
    return _KINDS[spec.kind] + length + low + item + (f" or {words}" if words else "")


def _convert(value, spec: Key):
    """``value`` as ``spec`` takes it; a ValueError or OverflowError if not."""
    if value in spec.words:
        return value
    if spec.kind is float and type(value) in (int, float):
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(value)
    if type(value) is not spec.kind or spec.kind is str and spec.words:
        raise ValueError(value)
    if spec.item is not None:
        value = [_convert(item, spec.item) for item in value]
    size = len(value) if spec.kind is list else value
    if spec.low is not None and (
        size <= spec.low if spec.strict else size < spec.low
    ):
        raise ValueError(value)
    return value


def parse_block(block, schema: dict, where: str) -> dict:
    """Check ``block`` against its table; return its values, defaults filled in."""
    if type(block) is not dict:
        raise ConfigError(f"{where} block must be an object")
    for key in block:
        if key not in schema:
            raise ConfigError(
                f"unknown key {key!r} in {where} block; it takes "
                f"{', '.join(schema)}"
            )
    values = {}
    for key, spec in schema.items():
        if key in block:
            try:
                values[key] = _convert(block[key], spec)
            except (ValueError, OverflowError):
                raise ConfigError(
                    f"key {key!r} in {where} block must be {_describe(spec)}, "
                    f"got {block[key]!r}"
                ) from None
        elif spec.default is ...:
            raise ConfigError(f"missing key {key!r} in {where} block")
        else:
            values[key] = copy.copy(spec.default)
    return values


def load_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except RecursionError:
        raise ConfigError(f"{path}: invalid JSON: nested too deeply") from None
    top = parse_block(config, TOP, "top-level")
    config.setdefault("run", top["run"])
    return config


def _parse_run(block) -> dict:
    """The run block, checked; a seed or target given twice would count twice."""
    run = parse_block(block, RUN, "run")
    for key, what in (("seeds", "a seed"), ("eps_targets", "a target")):
        if len(set(run[key])) < len(run[key]):
            raise ConfigError(f"key {key!r} in run block repeats {what}: {run[key]}")
    return run


def _parse_problem(problem) -> tuple[Callable[..., ProblemSuite], dict]:
    """The family's suite factory and its keyword arguments."""
    family = problem.get("family")
    if type(family) is not str or family not in PROBLEMS:
        raise ConfigError(
            f"key 'family' in problem block must be one of "
            f"{', '.join(map(repr, PROBLEMS))}, got {family!r}"
        )
    factory, schema = PROBLEMS[family]
    args = parse_block(problem, schema, "problem")
    del args["family"]
    return factory, args


def build_suite(problem: dict) -> ProblemSuite:
    factory, args = _parse_problem(problem)
    try:
        return factory(**args)
    except (ValueError, TypeError, MemoryError) as exc:
        # the factories check the explicit arrays, which the tables take as
        # plain lists: shape, element type and finiteness, naming the key;
        # a size past the memory fails as it allocates
        raise ConfigError(f"problem: {exc}") from exc


def _parse_algorithm(algorithm) -> tuple[str, str, dict]:
    """The algorithm's name, its mode (``auto`` or ``params``) and that block."""
    block = parse_block(algorithm, ALGORITHM, "algorithm")
    _, params, auto, _ = ALGORITHMS[block["name"]]
    if (block["auto"] is None) == (block["params"] is None):
        raise ConfigError("algorithm needs exactly one of 'auto' or 'params'")
    mode, schema = ("params", params) if block["auto"] is None else ("auto", auto)
    return block["name"], mode, parse_block(block[mode], schema, f"algorithm.{mode}")


def _auto_params(name: str, suite: ProblemSuite, eps: float, I: int) -> dict:
    L = suite.smoothness
    gap = suite.initial_gap()
    N = suite.num_workers
    if name == "pr-spider-finite":
        return choose_params_finite(N, suite.sample_count, I, L, gap, eps).as_dict()
    if name == "pr-spider-online":
        hp = choose_params_online(N, suite.variance_bound, I, L, gap, eps)
        return hp.as_dict()
    params = choose_params_baseline(N, suite.variance_bound, I, L, gap, eps)
    if name == "par-restarted-sgd":
        params["I"] = I
    return params


def resolve_algorithm(algorithm: dict, suite: ProblemSuite) -> tuple[str, dict]:
    name, mode, params = _parse_algorithm(algorithm)
    if name == "pr-spider-finite" and not suite.is_finite_sum:
        raise ConfigError("pr-spider-finite needs a finite-sum problem")
    if mode == "auto":
        try:
            params = _auto_params(name, suite, **params)
        except (ValueError, OverflowError) as exc:
            # a rule input out of range, or a horizon past any integer
            raise ConfigError(f"algorithm.auto: {exc}") from exc
    elif "N" in params:
        params["N"] = params["N"] or suite.num_workers
        if params["N"] != suite.num_workers:
            raise ConfigError(
                f"params N={params['N']} but the problem has "
                f"{suite.num_workers} workers"
            )
    for key in BATCHES:
        if params.get(key, 0) > MAX_BATCH:
            raise ConfigError(f"algorithm.{mode}: {key!r} is above {MAX_BATCH}")
    return name, params


def run_one(
    name: str, params: dict, suite: ProblemSuite, seed: int, run_block: dict
) -> MetricsTrace:
    run = parse_block(run_block, RUN, "run")
    kwargs = {"metrics_every": run["metrics_every"], "parallel": run["parallel"]}
    runner, _, _, takes_hp = ALGORITHMS[name]
    if takes_hp:
        return runner(suite, HyperParams(**params), seed, **kwargs)
    return runner(suite, seed=seed, **params, **kwargs)


def _run_seed(
    name, params, suite, seed, run_block
) -> tuple[MetricsTrace, int]:
    """One seed's trace and exit code; a typed failure gives its partial trace."""
    try:
        return run_one(name, params, suite, seed, run_block), EXIT_OK
    except DivergedError as exc:
        return exc.trace, EXIT_DIVERGED
    except CertificateError as exc:
        print(f"seed {seed}: {exc}", file=sys.stderr)
        return exc.trace, EXIT_CERTIFICATE
    except MemoryError as exc:
        # a size the config asks for that this machine cannot hold
        raise ConfigError(f"seed {seed}: {exc}") from None


def _out_dir(out_dir: str, override: str | None) -> Path:
    out = Path(override or out_dir)
    root = os.environ.get("PRSPIDER_OUT")
    if root and not out.is_absolute():
        out = Path(root) / out
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out}: {exc}") from exc
    return out


COST_FIELDS = ["ifo_at_eps", "comm_at_eps", "per_node_ifo_at_eps"]
HIT_FIELDS = ["eps", "hit_s", "hit_t", *COST_FIELDS]


def _hit_row(trace: MetricsTrace, eps: float, N: int) -> dict:
    """The first record reaching ``eps``; a miss leaves the hit columns blank."""
    hit = first_hit(trace, eps)
    if hit is None:
        return {"eps": eps}
    values = (eps, hit.s, hit.t, hit.ifo_total, hit.comm_rounds, hit.ifo_total / N)
    return dict(zip(HIT_FIELDS, values))


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    with open_atomic(path) as fh:
        fh.write(",".join(fieldnames) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(k, "")) for k in fieldnames) + "\n")


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    config = load_config(config_path)
    run = _parse_run(config["run"])
    suite = build_suite(config["problem"])
    name, params = resolve_algorithm(config["algorithm"], suite)
    out = _out_dir(run["out_dir"], out_override)

    summary_rows = []
    code = EXIT_OK
    for seed in run["seeds"]:
        trace, seed_code = _run_seed(name, params, suite, seed, config["run"])
        code = max(code, seed_code)
        trace.write_csv(out / f"trace_seed{seed}.csv")
        trace.write_sidecar(out / f"trace_seed{seed}.json")
        if run["eps_targets"]:
            for eps in run["eps_targets"]:
                row = {"seed": seed, "outcome": trace.outcome}
                row.update(_hit_row(trace, eps, suite.num_workers))
                summary_rows.append(row)
        else:
            summary_rows.append({"seed": seed, "outcome": trace.outcome})
        print(
            f"seed {seed}: {trace.outcome}, {len(trace.records)} records, "
            f"ifo={trace.ifo_total}, rounds={trace.comm_rounds}"
        )
    fields = ["seed", "outcome"] + (HIT_FIELDS if run["eps_targets"] else [])
    _write_csv(out / "summary.csv", fields, summary_rows)
    return code


def _apply_axis(config: dict, axis: str, value, mode: str, total) -> dict:
    """``config`` with the axis key set, sharing every block it leaves alone.

    The key goes in a copy of the problem block or of the algorithm's
    ``mode`` block, and a ``total`` sets ``n`` to ``total / N``;
    ``build_suite`` and ``resolve_algorithm`` check the result. An explicit
    suite's dataset stays the one ``config`` holds, uncopied.
    """
    derived = dict(config)
    if axis in PROBLEM_AXES:
        problem = derived["problem"] = dict(config["problem"])
        if total is not None:
            if total % value != 0:
                raise ConfigError(
                    f"total data {total} not divisible by N={value}"
                )
            problem["n"] = total // value
        problem[axis] = value
    else:
        algorithm = derived["algorithm"] = dict(config["algorithm"])
        algorithm[mode] = {**config["algorithm"][mode], axis: value}
    return derived


def cmd_sweep(
    config_path: str,
    axis: str,
    values: list,
    hold_total_data: bool = False,
    out_override: str | None = None,
) -> int:
    import statistics

    base = load_config(config_path)
    run = _parse_run(base["run"])
    if axis != "eps" and not run["eps_targets"]:
        raise ConfigError("sweep needs run.eps_targets (or axis=eps)")
    _, mode, _ = _parse_algorithm(base["algorithm"])
    if axis == "eps" and mode != "auto":
        raise ConfigError("eps axis needs an algorithm in auto mode")
    if hold_total_data and axis != "N":
        raise ConfigError("--hold-total-data needs --axis N")
    total = None  # the N * n that --hold-total-data keeps
    if hold_total_data:
        _, args = _parse_problem(base["problem"])
        if "n" not in args or args["n"] == "online":
            raise ConfigError("--hold-total-data needs a finite n")
        total = args["N"] * args["n"]
    out = _out_dir(run["out_dir"], out_override)

    rows = []
    summary = []
    code = EXIT_OK
    suite = None
    for value in values:
        config = _apply_axis(base, axis, value, mode, total)
        # an eps or I point runs on the problem the last point built
        if suite is None or axis in PROBLEM_AXES:
            suite = build_suite(config["problem"])
        name, params = resolve_algorithm(config["algorithm"], suite)
        eps_targets = [value] if axis == "eps" else run["eps_targets"]
        point = []
        for seed in run["seeds"]:
            trace, seed_code = _run_seed(name, params, suite, seed, config["run"])
            code = max(code, seed_code)
            for eps in eps_targets:
                row = {"axis": axis, "value": value, "seed": seed}
                row.update(_hit_row(trace, eps, suite.num_workers))
                point.append(row)
        rows += point
        # rewritten after each point, so a later failure keeps these rows
        _write_csv(out / "sweep.csv", ["axis", "value", "seed", *HIT_FIELDS], rows)

        # summary over seeds: median with min/max whiskers; first-hit times
        # are heavy-tailed, so medians keep desk-scale comparisons stable
        for eps in sorted({r["eps"] for r in point}):
            group = [r for r in point if r["eps"] == eps]
            hits = [r for r in group if "ifo_at_eps" in r]
            misses = len(group) - len(hits)
            entry = {"axis": axis, "value": value, "eps": eps, "misses": misses}
            for col in COST_FIELDS:
                data = [float(r[col]) for r in hits]
                if data:
                    entry[f"{col}_median"] = statistics.median(data)
                    entry[f"{col}_min"] = min(data)
                    entry[f"{col}_max"] = max(data)
            summary.append(entry)
    sum_fields = ["axis", "value", "eps", "misses"] + [
        f"{col}_{stat}" for col in COST_FIELDS for stat in ("median", "min", "max")
    ]
    _write_csv(out / "sweep_summary.csv", sum_fields, summary)
    for entry in summary:
        print(
            f"{axis}={entry['value']} eps={entry['eps']}: "
            f"comm median={entry.get('comm_at_eps_median', 'n/a')} "
            f"ifo median={entry.get('ifo_at_eps_median', 'n/a')} "
            f"misses={entry['misses']}"
        )
    return code


def cmd_verify(selector: str = "all") -> int:
    results = run_suite(selector)
    for result in results:
        print(result.line())
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prspider",
        description="Deterministic worker-server optimization simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("config")
    p_run.add_argument("--out", default=None, help="output directory override")

    p_sweep = sub.add_parser("sweep", help="sweep one axis of a base config")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", required=True, choices=AXES)
    p_sweep.add_argument(
        "--values", required=True,
        help="comma-separated axis values, e.g. 1,2,4",
    )
    p_sweep.add_argument(
        "--hold-total-data", action="store_true",
        help="keep N*n fixed while sweeping N (needs --axis N)",
    )
    p_sweep.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the built-in property suites")
    p_verify.add_argument(
        "--suite", default="all", choices=("all", "finite", "online")
    )
    return parser


def _parse_values(axis: str, raw: str) -> list:
    """The ``--values`` list, each checked as the key its axis sets."""
    spec = AXES[axis]
    values = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            # int() or float() of the text, then the key's own checks
            values.append(_convert(spec.kind(item), spec))
        except (ValueError, OverflowError):
            raise ConfigError(
                f"--values item {item!r} for axis {axis} must be "
                f"{_describe(spec)}"
            ) from None
    if not values:
        raise ConfigError("no sweep values given")
    return values


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args.config, args.out)
        if args.command == "sweep":
            values = _parse_values(args.axis, args.values)
            return cmd_sweep(
                args.config, args.axis, values, args.hold_total_data, args.out
            )
        return cmd_verify(args.suite)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
