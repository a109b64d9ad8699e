"""Command-line entry point: run experiments, sweeps, and verification.

Usage:
    prspider run CONFIG [--out DIR]
    prspider sweep CONFIG --axis {N,I,eps,heterogeneity} --values V1,V2,...
                   [--hold-total-data] [--out DIR]
    prspider verify [--suite {all,finite,online}] [--inject skip-restart]

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
``params``. A key that a block does not take is a configuration error, so
a misspelt key cannot silently fall back to its default. Every run writes
one trace CSV and one JSON sidecar per seed; the sidecar echoes the fully
resolved configuration and is itself a valid config, so any experiment can
be rerun exactly from its outputs. The ``PRSPIDER_OUT`` environment
variable prefixes relative output directories.

Outputs are written to a temporary file beside the target and moved into
place, so a failed or killed run never leaves a partial file.

Exit codes: 0 success, 2 configuration error, 3 divergence,
4 verification failure, 5 an objective below the problem's certified
optimum (the certificate is wrong; the partial trace is still written).
When seeds end differently, the highest code wins.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
import statistics
import sys
from contextlib import contextmanager
from pathlib import Path

from .algorithms import (
    DivergedError,
    HyperParams,
    choose_params_finite,
    choose_params_online,
    run_parallel_minibatch_sgd,
    run_parallel_restarted_sgd,
    run_pr_spider_finite,
    run_pr_spider_online,
    step_size_rule,
)
from .checks import run_suite
from .harness import (
    CertificateError,
    MetricsTrace,
    first_hit,
    write_text_atomic,
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

ALGORITHMS = (
    "pr-spider-finite",
    "pr-spider-online",
    "par-sgd",
    "par-restarted-sgd",
)


# The keys each config block takes. The top level also takes the
# ``result`` block that sidecars carry, so a sidecar reruns as a config.
TOP_KEYS = ("problem", "algorithm", "run", "result")
PROBLEM_KEYS = {
    "quadratic": (
        "family", "N", "n", "d", "heterogeneity", "seed", "center_spread",
        "initial_offset",
    ),
    "sigmoid": (
        "family", "N", "n", "d", "heterogeneity", "seed", "online_pool",
    ),
    "quadratic-explicit": ("family", "centers", "initial_point"),
    "sigmoid-explicit": (
        "family", "features", "offsets", "initial_point", "online",
    ),
}
ALGORITHM_KEYS = ("name", "auto", "params")
AUTO_KEYS = ("eps", "I")
PARAM_KEYS = {
    "pr-spider-finite": ("gamma", "I", "m", "B", "S", "N"),
    "pr-spider-online": ("gamma", "I", "m", "B", "S", "N", "n_b"),
    "par-sgd": ("gamma", "batch", "horizon"),
    "par-restarted-sgd": ("gamma", "batch", "I", "horizon"),
}
RUN_KEYS = ("seeds", "out_dir", "eps_targets", "metrics_every", "parallel")


class ConfigError(ValueError):
    pass


def _require(block: dict, key: str, where: str):
    if key not in block:
        raise ConfigError(f"missing key {key!r} in {where} block")
    return block[key]


def _as_object(block, where: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} block must be an object")
    return block


def _check_keys(block, allowed, where: str) -> None:
    """Reject a block that is not an object or has a key it does not take."""
    for key in _as_object(block, where):
        if key not in allowed:
            raise ConfigError(
                f"unknown key {key!r} in {where} block; it takes "
                f"{', '.join(allowed)}"
            )


@contextmanager
def _config_errors(where: str):
    """Report a ValueError or TypeError raised while building from a block.

    A TypeError is what ``int()`` or ``float()`` raises on a value of the
    wrong JSON type, such as a list or null.
    """
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys(config, TOP_KEYS, "top-level")
    for block in ("problem", "algorithm"):
        if block not in config:
            raise ConfigError(f"{path}: missing {block!r} block")
    config.setdefault("run", {})
    _check_keys(config["run"], RUN_KEYS, "run")
    return config


def build_suite(problem: dict) -> ProblemSuite:
    with _config_errors("problem"):
        family = _require(_as_object(problem, "problem"), "family", "problem")
        if not isinstance(family, str) or family not in PROBLEM_KEYS:
            raise ConfigError(f"unknown problem family {family!r}")
        _check_keys(problem, PROBLEM_KEYS[family], "problem")
        if family == "quadratic":
            offset = problem.get("initial_offset")
            return make_quadratic_suite(
                N=int(_require(problem, "N", "problem")),
                n=int(_require(problem, "n", "problem")),
                d=int(_require(problem, "d", "problem")),
                heterogeneity=float(problem.get("heterogeneity", 0.0)),
                seed=int(_require(problem, "seed", "problem")),
                center_spread=float(problem.get("center_spread", 1.0)),
                initial_offset=None if offset is None else float(offset),
            )
        if family == "sigmoid":
            n = _require(problem, "n", "problem")
            return make_nonconvex_suite(
                N=int(_require(problem, "N", "problem")),
                n=n if n == "online" else int(n),
                d=int(_require(problem, "d", "problem")),
                heterogeneity=float(problem.get("heterogeneity", 0.0)),
                seed=int(_require(problem, "seed", "problem")),
                online_pool=int(problem.get("online_pool", 512)),
            )
        if family == "quadratic-explicit":
            return quadratic_suite_from_centers(
                _require(problem, "centers", "problem"),
                _require(problem, "initial_point", "problem"),
            )
        if family == "sigmoid-explicit":
            return sigmoid_suite_from_params(
                _require(problem, "features", "problem"),
                _require(problem, "offsets", "problem"),
                _require(problem, "initial_point", "problem"),
                online=bool(problem.get("online", False)),
            )


def _auto_params(name: str, auto: dict, suite: ProblemSuite) -> dict:
    eps = float(_require(auto, "eps", "algorithm.auto"))
    if eps <= 0:
        raise ConfigError("auto mode needs a positive target eps")
    L = suite.smoothness
    gap = suite.initial_gap()
    N = suite.num_workers
    if name == "pr-spider-finite":
        if not suite.is_finite_sum:
            raise ConfigError("pr-spider-finite needs a finite-sum problem")
        I = int(auto.get("I", 4))
        return choose_params_finite(N, suite.sample_count, I, L, gap, eps).as_dict()
    if name == "pr-spider-online":
        I = int(auto.get("I", 4))
        hp = choose_params_online(N, suite.variance_bound, I, L, gap, eps)
        return hp.as_dict()
    # baselines: classic variance-killing batch and the matching horizon
    gamma = step_size_rule(L, int(auto.get("I", 1)))
    batch = max(1, round(4.0 * suite.variance_bound**2 / (N * eps)))
    horizon = max(1, int(2.0 * gap / (gamma * eps)) + 1)
    params = {"gamma": gamma, "batch": batch, "horizon": horizon}
    if name == "par-restarted-sgd":
        params["I"] = int(auto.get("I", 4))
    return params


def resolve_algorithm(algorithm: dict, suite: ProblemSuite) -> tuple[str, dict]:
    _check_keys(algorithm, ALGORITHM_KEYS, "algorithm")
    name = _require(algorithm, "name", "algorithm")
    if name not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {name!r}; choose one of {', '.join(ALGORITHMS)}"
        )
    has_auto = "auto" in algorithm
    has_params = "params" in algorithm
    if has_auto == has_params:
        raise ConfigError("algorithm needs exactly one of 'auto' or 'params'")
    if has_auto:
        _check_keys(algorithm["auto"], AUTO_KEYS, "algorithm.auto")
        with _config_errors("algorithm.auto"):
            params = _auto_params(name, algorithm["auto"], suite)
    else:
        _check_keys(algorithm["params"], PARAM_KEYS[name], "algorithm.params")
        params = dict(algorithm["params"])
    if name == "pr-spider-finite" and not suite.is_finite_sum:
        raise ConfigError("pr-spider-finite needs a finite-sum problem")
    if name == "pr-spider-online" and "n_b" not in params:
        raise ConfigError("pr-spider-online needs a restart batch size n_b")
    with _config_errors("algorithm"):
        if int(params.get("N", suite.num_workers)) != suite.num_workers:
            raise ConfigError(
                f"params N={params['N']} but the problem has "
                f"{suite.num_workers} workers"
            )
    return name, params


def run_one(name: str, params: dict, suite: ProblemSuite, seed: int, run_block: dict) -> MetricsTrace:
    with _config_errors("run"):
        kwargs = {
            "metrics_every": int(run_block.get("metrics_every", 1)),
            "parallel": bool(run_block.get("parallel", False)),
        }
    try:
        with _config_errors(f"algorithm {name!r}"):
            if name in ("pr-spider-finite", "pr-spider-online"):
                runner = (
                    run_pr_spider_finite
                    if name == "pr-spider-finite"
                    else run_pr_spider_online
                )
                hp = HyperParams(
                    gamma=float(params["gamma"]),
                    I=int(params["I"]),
                    m=int(params["m"]),
                    B=int(params["B"]),
                    S=int(params["S"]),
                    N=int(params.get("N", suite.num_workers)),
                    n_b=int(params["n_b"]) if "n_b" in params else None,
                )
                args = (hp,)
            elif name == "par-sgd":
                runner = run_parallel_minibatch_sgd
                args = (
                    float(params["gamma"]),
                    int(params["batch"]),
                    int(params["horizon"]),
                )
            else:
                runner = run_parallel_restarted_sgd
                args = (
                    float(params["gamma"]),
                    int(params["batch"]),
                    int(params["I"]),
                    int(params["horizon"]),
                )
    except KeyError as exc:
        raise ConfigError(f"algorithm {name!r} is missing parameter {exc}") from exc
    return runner(suite, *args, seed, **kwargs)


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


def _out_dir(run_block: dict, override: str | None) -> Path:
    out = Path(override) if override else Path(run_block.get("out_dir", "runs"))
    root = os.environ.get("PRSPIDER_OUT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


def _hit_row(trace: MetricsTrace, eps: float, N: int) -> dict:
    hit = first_hit(trace, eps)
    if hit is None:
        return {
            "eps": eps, "hit_s": "", "hit_t": "", "ifo_at_eps": "",
            "comm_at_eps": "", "per_node_ifo_at_eps": "",
        }
    return {
        "eps": eps,
        "hit_s": hit.s,
        "hit_t": hit.t,
        "ifo_at_eps": hit.ifo_total,
        "comm_at_eps": hit.comm_rounds,
        "per_node_ifo_at_eps": hit.ifo_total / N,
    }


def _write_csv(path: Path, fieldnames: list[str], rows: list[dict]) -> None:
    lines = [",".join(fieldnames)]
    for row in rows:
        lines.append(",".join(str(row.get(k, "")) for k in fieldnames))
    write_text_atomic(path, "\n".join(lines) + "\n")


def cmd_run(config_path: str, out_override: str | None = None) -> int:
    config = load_config(config_path)
    suite = build_suite(config["problem"])
    name, params = resolve_algorithm(config["algorithm"], suite)
    run_block = config["run"]
    seeds = [int(s) for s in run_block.get("seeds", [0])]
    eps_targets = [float(e) for e in run_block.get("eps_targets", [])]
    out = _out_dir(run_block, out_override)

    summary_rows = []
    code = EXIT_OK
    for seed in seeds:
        trace, seed_code = _run_seed(name, params, suite, seed, run_block)
        code = max(code, seed_code)
        trace.write_csv(out / f"trace_seed{seed}.csv")
        trace.write_sidecar(out / f"trace_seed{seed}.json")
        if eps_targets:
            for eps in eps_targets:
                row = {"seed": seed, "outcome": trace.outcome}
                row.update(_hit_row(trace, eps, suite.num_workers))
                summary_rows.append(row)
        else:
            summary_rows.append({"seed": seed, "outcome": trace.outcome})
        print(
            f"seed {seed}: {trace.outcome}, {len(trace.records)} records, "
            f"ifo={trace.ifo_total}, rounds={trace.comm_rounds}"
        )
    fields = ["seed", "outcome"]
    if eps_targets:
        fields += [
            "eps", "hit_s", "hit_t", "ifo_at_eps", "comm_at_eps",
            "per_node_ifo_at_eps",
        ]
    _write_csv(out / "summary.csv", fields, summary_rows)
    return code


AXES = ("N", "I", "eps", "heterogeneity")


def _apply_axis(config: dict, axis: str, value, hold_total_data: bool) -> dict:
    derived = copy.deepcopy(config)
    if axis == "N":
        problem = derived["problem"]
        if hold_total_data:
            if problem.get("n") in (None, "online"):
                raise ConfigError("--hold-total-data needs a finite n")
            total = int(problem["N"]) * int(problem["n"])
            if total % int(value) != 0:
                raise ConfigError(
                    f"total data {total} not divisible by N={value}"
                )
            problem["n"] = total // int(value)
        problem["N"] = int(value)
    elif axis == "I":
        block = "auto" if "auto" in derived["algorithm"] else "params"
        derived["algorithm"][block]["I"] = int(value)
    elif axis == "eps":
        if "auto" not in derived["algorithm"]:
            raise ConfigError("eps axis needs an algorithm in auto mode")
        derived["algorithm"]["auto"]["eps"] = float(value)
    elif axis == "heterogeneity":
        derived["problem"]["heterogeneity"] = float(value)
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return derived


def cmd_sweep(
    config_path: str,
    axis: str,
    values: list,
    hold_total_data: bool = False,
    out_override: str | None = None,
) -> int:
    base = load_config(config_path)
    run_block = base["run"]
    seeds = [int(s) for s in run_block.get("seeds", [0])]
    out = _out_dir(run_block, out_override)

    rows = []
    code = EXIT_OK
    for value in values:
        config = _apply_axis(base, axis, value, hold_total_data)
        suite = build_suite(config["problem"])
        name, params = resolve_algorithm(config["algorithm"], suite)
        if axis == "eps":
            eps_targets = [float(value)]
        else:
            eps_targets = [float(e) for e in run_block.get("eps_targets", [])]
            if not eps_targets:
                raise ConfigError("sweep needs run.eps_targets (or axis=eps)")
        for seed in seeds:
            trace, seed_code = _run_seed(name, params, suite, seed, config["run"])
            code = max(code, seed_code)
            for eps in eps_targets:
                row = {"axis": axis, "value": value, "seed": seed}
                row.update(_hit_row(trace, eps, suite.num_workers))
                rows.append(row)

    fields = [
        "axis", "value", "seed", "eps", "hit_s", "hit_t", "ifo_at_eps",
        "comm_at_eps", "per_node_ifo_at_eps",
    ]
    _write_csv(out / "sweep.csv", fields, rows)

    # summary over seeds: median with min/max whiskers; first-hit times are
    # heavy-tailed, so medians keep desk-scale comparisons stable
    summary = []
    for value in values:
        eps_set = sorted({r["eps"] for r in rows if r["value"] == value})
        for eps in eps_set:
            group = [
                r for r in rows
                if r["value"] == value and r["eps"] == eps and r["ifo_at_eps"] != ""
            ]
            misses = sum(
                1 for r in rows
                if r["value"] == value and r["eps"] == eps and r["ifo_at_eps"] == ""
            )
            entry = {"axis": axis, "value": value, "eps": eps, "misses": misses}
            for col in ("ifo_at_eps", "comm_at_eps", "per_node_ifo_at_eps"):
                data = [float(r[col]) for r in group]
                if data:
                    entry[f"{col}_median"] = statistics.median(data)
                    entry[f"{col}_min"] = min(data)
                    entry[f"{col}_max"] = max(data)
            summary.append(entry)
    sum_fields = ["axis", "value", "eps", "misses"]
    for col in ("ifo_at_eps", "comm_at_eps", "per_node_ifo_at_eps"):
        sum_fields += [f"{col}_median", f"{col}_min", f"{col}_max"]
    _write_csv(out / "sweep_summary.csv", sum_fields, summary)
    for entry in summary:
        print(
            f"{axis}={entry['value']} eps={entry['eps']}: "
            f"comm median={entry.get('comm_at_eps_median', 'n/a')} "
            f"ifo median={entry.get('ifo_at_eps_median', 'n/a')} "
            f"misses={entry['misses']}"
        )
    return code


def cmd_verify(selector: str = "all", inject: str | None = None) -> int:
    results = run_suite(selector, inject=inject)
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
        help="keep N*n fixed while sweeping N",
    )
    p_sweep.add_argument("--out", default=None)

    p_verify = sub.add_parser("verify", help="run the built-in property suites")
    p_verify.add_argument(
        "--suite", default="all", choices=("all", "finite", "online")
    )
    p_verify.add_argument(
        "--inject", default=None, choices=("skip-restart",),
        help="fault injection for check-sensitivity testing",
    )
    return parser


def _parse_values(axis: str, raw: str) -> list:
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        out.append(int(item) if axis in ("N", "I") else float(item))
    if not out:
        raise ConfigError("no sweep values given")
    return out


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
        return cmd_verify(args.suite, args.inject)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
