"""The config tables: every bad value exits 2 with one line, never a traceback.

``DEFECTS`` lists values that once ended in a traceback or were silently
coerced (``"parallel": "no"`` turned the pool on, ``"seeds": []`` ran
nothing and exited 0, a ``NaN`` in ``centers`` ran and diverged, ``true``
and ``"1.5"`` in ``centers`` ran as 1.0 and 1.5, ``centers`` nested
deeper than the JSON parser recurses ended in a ``RecursionError``). A defect
in the run block is tried under ``run`` and under ``sweep``. The fuzz
test sets one key, or one whole block, of a small valid config to a value
from a fixed pool of wrong types and edge numbers, and requires a
documented exit code.
"""

from __future__ import annotations

import copy
import functools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from prspider import cli
from prspider.algorithms import choose_params_baseline
from prspider.cli import EXIT_CONFIG, EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src"

QUADRATIC = {"family": "quadratic", "N": 2, "n": 8, "d": 2, "seed": 1}
SIGMOID_ONLINE = {
    "family": "sigmoid", "N": 2, "n": "online", "d": 2, "seed": 1,
    "heterogeneity": 0.5, "online_pool": 8,
}
PAR_SGD = {"name": "par-sgd", "params": {"gamma": 0.1, "batch": 2, "horizon": 4}}
EXPLICIT = {
    "quadratic-explicit": {
        "family": "quadratic-explicit",
        "centers": [[[0.0, 1.0], [2.0, -1.0]], [[1.0, 1.0], [0.0, 0.0]]],
        "initial_point": [3.0, -2.0],
    },
    "sigmoid-explicit": {
        "family": "sigmoid-explicit", "features": [[[1.0, 0.0], [0.0, 1.0]]],
        "offsets": [[0.1, 0.2]], "initial_point": [0.0, 0.0],
    },
}


def _config(problem=QUADRATIC, algorithm=PAR_SGD, run=None):
    return copy.deepcopy({
        "problem": problem,
        "algorithm": algorithm,
        "run": run or {"seeds": [0], "eps_targets": [0.1]},
    })


# stands for lists nested deeper than the JSON parser recurses, which
# json.dumps cannot write either; _dump splices them into the text
DEEP = "<lists nested 100,000 deep>"


def _dump(config: dict) -> str:
    return json.dumps(config).replace(
        json.dumps(DEEP), "[" * 100_000 + "]" * 100_000
    )


def _set(config: dict, path: tuple, value) -> dict:
    functools.reduce(dict.__getitem__, path[:-1], config)[path[-1]] = value
    return config


# (id, path into the config, bad value, what the message must name)
DEFECTS = [
    ("batch-zero", ("algorithm", "params", "batch"), 0, "'batch'"),
    ("horizon-zero", ("algorithm", "params", "horizon"), 0, "'horizon'"),
    ("gamma-nan", ("algorithm", "params", "gamma"), math.nan, "'gamma'"),
    ("metrics-every-zero", ("run", "metrics_every"), 0, "'metrics_every'"),
    ("seeds-string", ("run", "seeds"), "abc", "'seeds'"),
    ("seeds-int", ("run", "seeds"), 5, "'seeds'"),
    ("seeds-negative", ("run", "seeds"), [-1], "'seeds'"),
    ("seeds-empty", ("run", "seeds"), [], "'seeds'"),
    ("eps-targets-negative", ("run", "eps_targets"), [-1], "'eps_targets'"),
    ("eps-targets-string", ("run", "eps_targets"), ["x"], "'eps_targets'"),
    ("par-sgd-auto-period-zero", ("algorithm",),
     {"name": "par-sgd", "auto": {"eps": 0.5, "I": 0}}, "'I'"),
    ("parallel-string", ("run", "parallel"), "no", "'parallel'"),
    ("seed-fraction", ("problem", "seed"), 1.7, "'seed'"),
    ("N-true", ("problem", "N"), True, "'N'"),
    ("online-string", ("problem",),
     dict(EXPLICIT["sigmoid-explicit"], online="no"), "'online'"),
    ("centers-nested-deep", ("problem",),
     dict(EXPLICIT["quadratic-explicit"], centers=DEEP), "nested too deeply"),
] + [
    (f"{family}-start-nested", ("problem",),
     dict(EXPLICIT[family], initial_point=[[1.0]]), "initial_point")
    for family in sorted(EXPLICIT)
] + [
    (f"{family}-{key}-{defect}", ("problem",), dict(EXPLICIT[family], **{key: value}),
     f"problem: {key}")
    for family, key in (("quadratic-explicit", "centers"),
                        ("sigmoid-explicit", "features"))
    for defect, value in (
        ("ragged", [[[0.0, 1.0], [2.0]], [[1.0, 1.0], [0.0, 0.0]]]),
        ("string", [[["a"]]]),
        ("nan", [[[math.nan, 1.0], [2.0, -1.0]]]),
    )
] + [
    ("sigmoid-explicit-offsets-size", ("problem",),
     dict(EXPLICIT["sigmoid-explicit"], offsets=[0.0, 1.0, 2.0]), "problem: offsets"),
] + [
    # JSON numbers only: numpy's float conversion would take each of these
    (f"{family}-{key}-{defect}", ("problem",), dict(EXPLICIT[family], **{key: value}),
     f"problem: {key}: must hold numbers")
    for family, key in (("quadratic-explicit", "centers"),
                        ("sigmoid-explicit", "features"))
    for defect, value in (
        ("true", [[[True, False]]]),
        ("mixed-true", [[[1.0, True]]]),
        ("numeric-string", [[["1.5", "2"]]]),
        ("null", [[[None, 1.0]]]),
    )
] + [
    ("sigmoid-explicit-offsets-numeric-string", ("problem",),
     dict(EXPLICIT["sigmoid-explicit"], offsets=[["0.5"]]),
     "problem: offsets: must hold numbers"),
] + [
    (f"{family}-start-not-numbers", ("problem",),
     dict(EXPLICIT[family], initial_point=[True, "3"]),
     "problem: initial_point: must hold numbers")
    for family in sorted(EXPLICIT)
]
RUN_DEFECTS = [case for case in DEFECTS if case[1][0] == "run"]


@pytest.mark.parametrize(
    "command, path, value, names",
    [("run", *case[1:]) for case in DEFECTS]
    + [("sweep", *case[1:]) for case in RUN_DEFECTS]
    + [("sweep", None, "a,b", "--values")],
    ids=[case[0] for case in DEFECTS]
    + [f"sweep-{case[0]}" for case in RUN_DEFECTS]
    + ["sweep-values-text"],
)
def test_bad_value_exits_config_naming_the_key(
    tmp_path, capsys, command, path, value, names
):
    cfg = tmp_path / "cfg.json"
    config = _config(run={"seeds": [0], "eps_targets": [0.1], "out_dir": str(tmp_path)})
    argv = [command, str(cfg)]
    if command == "sweep":
        argv += ["--axis", "N", "--values", value if path is None else "2"]
    if path is not None:
        _set(config, path, value)
    cfg.write_text(_dump(config))
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert err.count("\n") == 1
    assert names in err


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("flag", [True, False], ids=["--out", "out_dir"])
@pytest.mark.parametrize("target", ["afile", "afile/sub"])
def test_output_path_through_a_file_exits_config(
    tmp_path, capsys, command, flag, target
):
    (tmp_path / "afile").write_text("")
    out = str(tmp_path / target)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config(run={
        "seeds": [0], "eps_targets": [0.1], "out_dir": str(tmp_path if flag else out),
    })))
    argv = [command, str(cfg)]
    if command == "sweep":
        argv += ["--axis", "N", "--values", "2"]
    if flag:
        argv += ["--out", out]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot create output directory {out}: ")
    assert err.count("\n") == 1


def test_bad_value_in_a_subprocess_prints_no_traceback(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_set(_config(), ("run", "metrics_every"), 0)))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), path])))
    proc = subprocess.run(
        [sys.executable, "-m", "prspider", "run", str(cfg)],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: key 'metrics_every' in run block")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("family", sorted(EXPLICIT))
@pytest.mark.parametrize("point", [[], [1.0], [1.0, 2.0, 3.0]])
def test_explicit_start_point_of_another_dimension_exits_config(
    tmp_path, capsys, family, point
):
    cfg = tmp_path / "cfg.json"
    problem = dict(EXPLICIT[family], initial_point=point)
    cfg.write_text(json.dumps(_config(problem=problem)))
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        f"config error: problem: initial_point: expected dimension 2, "
        f"got {len(point)}\n"
    )


def test_integer_keys_reject_floats_and_booleans():
    for bad in (4.0, True):
        with pytest.raises(cli.ConfigError, match="'I'.*an integer >= 1"):
            cli.parse_block({"eps": 0.1, "I": bad}, cli.AUTO, "algorithm.auto")
    values = cli.parse_block({"eps": 1}, cli.AUTO, "algorithm.auto")
    assert values == {"eps": 1.0, "I": 4}
    assert type(values["eps"]) is float


def test_baseline_auto_resolution():
    # without ``I``, par-sgd takes the step size of I = 1, and
    # par-restarted-sgd takes AUTO's I = 4 for its step size and its period
    suite = cli.build_suite(QUADRATIC)
    rule = functools.partial(
        choose_params_baseline, suite.num_workers, suite.variance_bound,
        L=suite.smoothness, gap_bound=suite.initial_gap(), eps=0.5,
    )

    def resolve(name, **auto):
        return cli.resolve_algorithm({"name": name, "auto": auto}, suite)[1]

    assert resolve("par-sgd", eps=0.5) == rule(I=1)
    assert resolve("par-sgd", eps=0.5, I=4) == rule(I=4)
    assert resolve("par-restarted-sgd", eps=0.5) == {**rule(I=4), "I": 4}
    assert resolve("par-restarted-sgd", eps=0.5) == resolve(
        "par-restarted-sgd", eps=0.5, I=4
    )
    assert resolve("par-restarted-sgd", eps=0.5, I=4) == {**rule(I=4), "I": 4}
    assert resolve("par-restarted-sgd", eps=0.5, I=2) == {**rule(I=2), "I": 2}


def test_defaults_are_fresh_per_parse(tmp_path):
    # a caller that edits one config's defaulted run block or seed list
    # must not change the next config's
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"problem": QUADRATIC, "algorithm": PAR_SGD}))
    cli.load_config(cfg)["run"]["seeds"] = [7]
    assert cli.load_config(cfg)["run"] == {}
    cli.parse_block({}, cli.RUN, "run")["seeds"].append(7)
    assert cli.parse_block({}, cli.RUN, "run")["seeds"] == [0]


def test_sweep_keeps_the_rows_of_finished_points(tmp_path, capsys):
    # N*n = 10: N=2 runs, N=3 does not divide the data and stops the sweep
    cfg = tmp_path / "cfg.json"
    problem = dict(QUADRATIC, n=5)
    cfg.write_text(json.dumps(_config(problem=problem)))
    out = tmp_path / "out"
    argv = ["sweep", str(cfg), "--axis", "N", "--values", "2,3",
            "--hold-total-data", "--out", str(out)]
    assert main(argv) == EXIT_CONFIG
    assert "not divisible by N=3" in capsys.readouterr().err
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("axis,value,seed,eps,")
    assert [line.split(",")[:3] for line in lines[1:]] == [["N", "2", "0"]]


def test_sweep_value_column_keeps_its_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_config()))
    out = tmp_path / "out"
    argv = ["sweep", str(cfg), "--axis", "heterogeneity", "--values", "1,0.5",
            "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = (out / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["1.0", "0.5"]


# Small valid configs: all four algorithms, auto and params, both generated
# families and an explicit one.
FUZZ_BASES = [
    _config(algorithm={
        "name": "pr-spider-finite",
        "params": {"gamma": 0.1, "I": 2, "m": 4, "B": 2, "S": 2, "N": 2},
    }),
    _config(algorithm={"name": "pr-spider-finite", "auto": {"eps": 0.5, "I": 2}}),
    _config(problem=SIGMOID_ONLINE, algorithm={
        "name": "pr-spider-online",
        "params": {"gamma": 0.1, "I": 2, "m": 4, "B": 2, "S": 2, "n_b": 4},
    }),
    _config(problem=SIGMOID_ONLINE,
            algorithm={"name": "pr-spider-online", "auto": {"eps": 0.5}}),
    _config(),
    _config(algorithm={"name": "par-sgd", "auto": {"eps": 0.5, "I": 1}}),
    _config(problem=dict(SIGMOID_ONLINE, n=8), algorithm={
        "name": "par-restarted-sgd",
        "params": {"gamma": 0.1, "batch": 2, "I": 2, "horizon": 4},
    }),
    _config(problem=EXPLICIT["quadratic-explicit"], algorithm={
        "name": "pr-spider-finite",
        "params": {"gamma": 0.1, "I": 1, "m": 2, "B": 1, "S": 2},
    }),
    _config(problem=dict(QUADRATIC, center_spread=0.5, initial_offset=0.3),
            algorithm={"name": "par-restarted-sgd", "auto": {"eps": 0.5}},
            run={"seeds": [0, 1], "eps_targets": [0.1], "metrics_every": 2,
                 "parallel": False, "out_dir": "fuzz"}),
]


def _paths(block: dict, prefix=()):
    """Every key of ``block`` and of its sub-blocks, as paths."""
    for key, value in block.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))


FUZZ_CASES = [(i, path) for i, base in enumerate(FUZZ_BASES) for path in _paths(base)]
POOL = [
    0, -1, 1, 1.5, 4.0, math.nan, math.inf, -math.inf, True, False, None,
    "x", "online", "", [], [1], {}, {"x": 1},
]


@settings(
    max_examples=500, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=st.sampled_from(FUZZ_CASES), value=st.sampled_from(POOL))
def test_any_single_bad_value_ends_in_a_documented_exit_code(
    tmp_path, monkeypatch, capsys, case, value
):
    monkeypatch.setenv("PRSPIDER_OUT", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    base, path = case
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_set(copy.deepcopy(FUZZ_BASES[base]), path, value)))
    code = main(["run", str(cfg)])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 5)
    assert "Traceback" not in err
    if code == EXIT_CONFIG:
        assert err.startswith("config error: ") and err.count("\n") == 1
