import dataclasses
import functools
import json
import math
import statistics

import pytest

from prspider import algorithms, cli
from prspider.cli import (
    EXIT_CERTIFICATE,
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_OK,
    EXIT_VERIFY,
    main,
)


def write_config(path, problem=None, algorithm=None, run=None):
    config = {
        "problem": problem
        or {
            "family": "quadratic",
            "N": 4,
            "n": 64,
            "d": 8,
            "heterogeneity": 0.5,
            "seed": 7,
        },
        "algorithm": algorithm
        or {"name": "pr-spider-finite", "auto": {"eps": 0.1, "I": 4}},
        "run": run or {"seeds": [0], "eps_targets": [0.1]},
    }
    config["run"].setdefault("out_dir", str(path.parent / "out"))
    path.write_text(json.dumps(config))
    return config


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestCmdRun:
    def test_trace_row_count_matches_horizon(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            algorithm={
                "name": "pr-spider-finite",
                "params": {"gamma": 0.03125, "I": 4, "m": 12, "B": 1, "S": 3},
            },
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        records = read_rows(tmp_path / "out" / "trace_seed0.csv")
        assert len(records) == 36  # S * m

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["run", str(cfg), "--out", str(tmp_path / "a")]) == EXIT_OK
        assert main(["run", str(cfg), "--out", str(tmp_path / "b")]) == EXIT_OK
        a = (tmp_path / "a" / "trace_seed0.csv").read_bytes()
        b = (tmp_path / "b" / "trace_seed0.csv").read_bytes()
        assert a == b

    def test_zero_step_size_never_hits(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            algorithm={
                "name": "pr-spider-finite",
                "params": {"gamma": 0.0, "I": 2, "m": 8, "B": 1, "S": 2},
            },
            run={"seeds": [0], "eps_targets": [1e-9]},
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "summary.csv")
        assert rows[0]["ifo_at_eps"] == ""
        assert rows[0]["comm_at_eps"] == ""

    def test_sidecar_round_trip_reproduces_trace(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg)
        assert main(["run", str(cfg)]) == EXIT_OK
        sidecar = tmp_path / "out" / "trace_seed0.json"
        assert main(["run", str(sidecar), "--out", str(tmp_path / "replay")]) == EXIT_OK
        original = (tmp_path / "out" / "trace_seed0.csv").read_bytes()
        replayed = (tmp_path / "replay" / "trace_seed0.csv").read_bytes()
        assert original == replayed

    def test_summary_contains_hits_per_eps(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, run={"seeds": [0, 1], "eps_targets": [0.2, 0.1]})
        assert main(["run", str(cfg)]) == EXIT_OK
        rows = read_rows(tmp_path / "out" / "summary.csv")
        assert len(rows) == 4  # 2 seeds x 2 targets
        assert {r["eps"] for r in rows} == {"0.2", "0.1"}

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == EXIT_CONFIG

    def test_malformed_json_reports_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{\n  "problem": {,}\n}')
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_config_that_is_not_utf8_names_the_path(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b'{"problem": "\xff"}')
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}: ")
        assert err.count("\n") == 1

    def test_algorithm_problem_compatibility_checked(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem={
                "family": "sigmoid",
                "N": 2,
                "n": "online",
                "d": 3,
                "heterogeneity": 0.0,
                "seed": 1,
            },
            algorithm={"name": "pr-spider-finite", "auto": {"eps": 0.1, "I": 2}},
        )
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_auto_and_params_are_exclusive(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            algorithm={
                "name": "pr-spider-finite",
                "auto": {"eps": 0.1},
                "params": {"gamma": 0.1, "I": 1, "m": 1, "B": 1, "S": 1},
            },
        )
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    def test_unknown_algorithm_and_family(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, algorithm={"name": "adam", "auto": {"eps": 0.1}})
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        write_config(cfg, problem={"family": "rosenbrock"})
        assert main(["run", str(cfg)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "auto, path, key",
        [
            (False, ("problem",), "heterogenity"),
            (False, ("run",), "metric_every"),
            (False, ("algorithm",), "parmas"),
            (False, ("algorithm", "params"), "gama"),
            (True, ("algorithm", "auto"), "epsilon"),
            (False, (), "runs"),
        ],
    )
    def test_unknown_key_exits_config_naming_it(
        self, tmp_path, capsys, auto, path, key
    ):
        cfg = tmp_path / "cfg.json"
        params = {"gamma": 0.1, "I": 1, "m": 2, "B": 1, "S": 1}
        config = write_config(
            cfg,
            algorithm={
                "name": "pr-spider-finite",
                **({"auto": {"eps": 0.1}} if auto else {"params": params}),
            },
        )
        functools.reduce(dict.__getitem__, path, config)[key] = 5
        cfg.write_text(json.dumps(config))
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: unknown key ")
        assert err.count("\n") == 1
        assert repr(key) in err
        assert not (tmp_path / "out").exists()

    def test_sidecar_and_baseline_keys_still_load(self, tmp_path):
        # a sidecar (with its ``result`` block) reruns as a config, and each
        # algorithm takes its own params
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            algorithm={
                "name": "par-restarted-sgd",
                "params": {"gamma": 0.1, "batch": 4, "I": 2, "horizon": 6},
            },
            run={"seeds": [0], "metrics_every": 2, "parallel": True},
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        sidecar = tmp_path / "out" / "trace_seed0.json"
        assert "result" in json.loads(sidecar.read_text())
        again = ["run", str(sidecar), "--out", str(tmp_path / "again")]
        assert main(again) == EXIT_OK

    @pytest.mark.parametrize(
        "N, params",
        [
            (2, {"I": 0}),
            (2, {"N": 3}),
            (0, {}),
            ([2], {}),
            (2, {"m": None}),
        ],
        ids=[
            "period-zero", "params-N-mismatch", "problem-N-zero",
            "problem-N-list", "params-m-null",
        ],
    )
    def test_bad_value_exits_config_with_one_line(self, tmp_path, capsys, N, params):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem={
                "family": "quadratic", "N": N, "n": 8, "d": 2,
                "heterogeneity": 0.5, "seed": 1,
            },
            algorithm={
                "name": "pr-spider-finite",
                "params": {"gamma": 0.1, "I": 1, "m": 2, "B": 1, "S": 1, **params},
            },
        )
        assert main(["run", str(cfg)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert err.count("\n") == 1

    def test_divergence_exit_code_and_partial_trace(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            algorithm={
                "name": "pr-spider-finite",
                "params": {"gamma": 64.0, "I": 4, "m": 400, "B": 1, "S": 2},
            },
        )
        assert main(["run", str(cfg)]) == EXIT_DIVERGED
        sidecar = json.loads((tmp_path / "out" / "trace_seed0.json").read_text())
        assert sidecar["result"]["outcome"] == "diverged"
        records = read_rows(tmp_path / "out" / "trace_seed0.csv")
        assert 0 < len(records) < 800

    def test_certificate_failure_exit_code_and_partial_trace(
        self, tmp_path, monkeypatch, capsys
    ):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            algorithm={
                "name": "pr-spider-finite",
                "params": {"gamma": 0.1, "I": 4, "m": 20, "B": 4, "S": 2},
            },
        )
        build = cli.build_suite

        def overstated_optimum(problem):
            # an optimum halfway between the start value and the true one
            suite = build(problem)
            start = suite.value(suite.initial_point)
            wrong = (start + suite.optimum_value) / 2
            return dataclasses.replace(suite, optimum_value=wrong)

        monkeypatch.setattr(cli, "build_suite", overstated_optimum)
        assert main(["run", str(cfg)]) == EXIT_CERTIFICATE
        assert "below certified optimum" in capsys.readouterr().err
        sidecar = json.loads((tmp_path / "out" / "trace_seed0.json").read_text())
        assert sidecar["result"]["outcome"] == "below-optimum"
        records = read_rows(tmp_path / "out" / "trace_seed0.csv")
        assert 0 < len(records) < 40
        assert sidecar["result"]["records"] == len(records)
        summary = read_rows(tmp_path / "out" / "summary.csv")
        assert summary[0]["outcome"] == "below-optimum"

    def test_online_run_via_cli(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem={
                "family": "sigmoid",
                "N": 2,
                "n": "online",
                "d": 3,
                "heterogeneity": 0.2,
                "seed": 3,
                "online_pool": 64,
            },
            algorithm={
                "name": "pr-spider-online",
                "params": {
                    "gamma": 0.01, "I": 2, "m": 6, "B": 1, "S": 2, "n_b": 8,
                },
            },
            run={"seeds": [0]},
        )
        assert main(["run", str(cfg)]) == EXIT_OK
        records = read_rows(tmp_path / "out" / "trace_seed0.csv")
        assert len(records) == 12

    def test_output_root_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PRSPIDER_OUT", str(tmp_path / "root"))
        cfg = tmp_path / "cfg.json"
        write_config(cfg, run={"seeds": [0], "out_dir": "exp"})
        assert main(["run", str(cfg)]) == EXIT_OK
        assert (tmp_path / "root" / "exp" / "trace_seed0.csv").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_repeated_seed_exits_config(self, tmp_path, capsys, command):
        # run would overwrite one trace pair and sweep count the seed twice
        cfg = tmp_path / "cfg.json"
        write_config(cfg, run={"seeds": [3, 1, 3], "eps_targets": [0.1]})
        argv = [command, str(cfg)]
        if command == "sweep":
            argv += ["--axis", "N", "--values", "2"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: key 'seeds' in run block repeats a seed: [3, 1, 3]\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_repeated_eps_target_exits_config(self, tmp_path, capsys, command):
        # run would write each summary row twice and sweep count each miss
        # twice
        cfg = tmp_path / "cfg.json"
        write_config(cfg, run={"seeds": [0, 1], "eps_targets": [1e-9, 1e-9]})
        argv = [command, str(cfg)]
        if command == "sweep":
            argv += ["--axis", "N", "--values", "2"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == (
            "config error: key 'eps_targets' in run block repeats a target: "
            "[1e-09, 1e-09]\n"
        )
        assert not (tmp_path / "out").exists()


def explicit_quadratic_problem(initial_offset):
    # factory instance with a pinned start distance, so the sweep probes
    # the regime where first hits move with eps
    return {
        "family": "quadratic",
        "N": 4,
        "n": 64,
        "d": 8,
        "heterogeneity": 0.5,
        "seed": 11,
        "initial_offset": initial_offset,
    }


class TestCmdSweep:
    def test_axis_period_comm_decreasing_ifo_stable(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem=explicit_quadratic_problem(0.15),
            algorithm={
                "name": "pr-spider-finite",
                "params": {"gamma": 0.03125, "I": 1, "m": 48, "B": 1, "S": 1},
            },
            run={"seeds": [0, 1, 2], "eps_targets": [0.02]},
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", str(cfg), "--axis", "I", "--values", "1,2,4",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = read_rows(out / "sweep_summary.csv")
        comm = [float(r["comm_at_eps_median"]) for r in summary]
        assert comm[0] > comm[1] > comm[2]
        ifo = [float(r["ifo_at_eps_median"]) for r in summary]
        assert max(ifo) <= 2 * min(ifo)

    def test_axis_eps_comm_ratio_near_inverse_law(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem=explicit_quadratic_problem(0.11),
            algorithm={"name": "pr-spider-finite", "auto": {"eps": 0.1, "I": 4}},
            run={"seeds": [0, 1, 2]},
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", str(cfg), "--axis", "eps", "--values", "0.1,0.01",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = read_rows(out / "sweep_summary.csv")
        by_eps = {float(r["eps"]): float(r["comm_at_eps_median"]) for r in summary}
        ratio = by_eps[0.01] / by_eps[0.1]
        assert 5.0 <= ratio <= 20.0

    def test_axis_workers_with_held_total_data(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem={
                "family": "quadratic", "N": 2, "n": 512, "d": 8,
                "heterogeneity": 0.5, "seed": 11,
            },
            algorithm={"name": "pr-spider-finite", "auto": {"eps": 0.05, "I": 4}},
            run={"seeds": [0, 1, 2], "eps_targets": [0.05]},
        )
        out = tmp_path / "out"
        code = main(
            ["sweep", str(cfg), "--axis", "N", "--values", "2,4,8",
             "--hold-total-data", "--out", str(out)]
        )
        assert code == EXIT_OK
        summary = read_rows(out / "sweep_summary.csv")
        per_node = {
            int(r["value"]): float(r["per_node_ifo_at_eps_median"]) for r in summary
        }
        for small, big in ((2, 4), (4, 8)):
            ratio = per_node[small] / per_node[big]
            assert 1.5 <= ratio <= 2.5

    def test_hold_total_data_requires_divisibility(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem={
                "family": "quadratic", "N": 2, "n": 5, "d": 2,
                "heterogeneity": 0.0, "seed": 0,
            },
            run={"seeds": [0], "eps_targets": [0.1]},
        )
        code = main(
            ["sweep", str(cfg), "--axis", "N", "--values", "3",
             "--hold-total-data", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG

    @staticmethod
    def _online_config(path):
        write_config(
            path,
            problem={
                "family": "sigmoid", "N": 2, "n": "online", "d": 3,
                "heterogeneity": 0.5, "seed": 1, "online_pool": 16,
            },
            algorithm={
                "name": "pr-spider-online",
                "params": {"gamma": 0.1, "I": 2, "m": 4, "B": 2, "S": 2, "n_b": 8},
            },
            run={"seeds": [0], "eps_targets": [1e-3]},
        )

    def test_axis_workers_on_online_problem(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        self._online_config(cfg)
        out = tmp_path / "out"
        code = main(
            ["sweep", str(cfg), "--axis", "N", "--values", "1,3", "--out", str(out)]
        )
        assert code == EXIT_OK
        assert [r["value"] for r in read_rows(out / "sweep.csv")] == ["1", "3"]

    def test_hold_total_data_needs_finite_n(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self._online_config(cfg)
        code = main(
            ["sweep", str(cfg), "--axis", "N", "--values", "1,3",
             "--hold-total-data", "--out", str(tmp_path / "out")]
        )
        assert code == EXIT_CONFIG
        assert "needs a finite n" in capsys.readouterr().err

    def test_hold_total_data_needs_the_n_axis(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        self._online_config(cfg)
        out = tmp_path / "out"
        code = main(
            ["sweep", str(cfg), "--axis", "I", "--values", "1,2",
             "--hold-total-data", "--out", str(out)]
        )
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: --hold-total-data needs --axis N\n"
        )
        assert not out.exists()

    def test_sweep_rows_cover_values_and_seeds(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        write_config(
            cfg,
            problem=explicit_quadratic_problem(0.15),
            run={"seeds": [0, 1], "eps_targets": [0.05]},
        )
        out = tmp_path / "out"
        assert (
            main(
                ["sweep", str(cfg), "--axis", "heterogeneity",
                 "--values", "0.0,1.0", "--out", str(out)]
            )
            == EXIT_OK
        )
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 4  # 2 values x 2 seeds x 1 eps
        assert {r["value"] for r in rows} == {"0.0", "1.0"}

    def test_eps_axis_builds_the_suite_once(self, tmp_path, monkeypatch):
        cfg = tmp_path / "cfg.json"
        write_config(cfg, run={"seeds": [0, 1]})
        builds = []
        build_suite = cli.build_suite

        def counted(problem):
            builds.append(problem)
            return build_suite(problem)

        monkeypatch.setattr(cli, "build_suite", counted)
        values = ["0.2", "0.1", "0.05"]
        out = tmp_path / "sweep"
        code = main(
            ["sweep", str(cfg), "--axis", "eps", "--values", ",".join(values),
             "--out", str(out)]
        )
        assert code == EXIT_OK
        assert len(builds) == 1
        rows = read_rows(out / "sweep.csv")
        # each point's rows are what `prspider run` at that eps reports
        for value in values:
            point = tmp_path / f"cfg_{value}.json"
            write_config(
                point,
                algorithm={
                    "name": "pr-spider-finite",
                    "auto": {"eps": float(value), "I": 4},
                },
                run={"seeds": [0, 1], "eps_targets": [float(value)]},
            )
            assert main(["run", str(point), "--out", str(tmp_path / value)]) == 0
            want = [
                {k: r[k] for k in cli.HIT_FIELDS}
                for r in read_rows(tmp_path / value / "summary.csv")
            ]
            got = [
                {k: r[k] for k in cli.HIT_FIELDS}
                for r in rows
                if r["value"] == value
            ]
            assert got == want
            assert all(r["ifo_at_eps"] for r in got)


class TestCmdVerify:
    def test_default_suites_pass(self):
        assert main(["verify"]) == EXIT_OK

    def test_injected_restart_bug_is_caught(self, monkeypatch, capsys):
        # a runner that skips its epoch restarts: only the initial gradient
        # round and the in-epoch exchanges go through
        sync = algorithms._Run.sync

        def skip_restarts(run, s, t, payload, gradients=None):
            if payload == "both" or (s, t) == (0, 0):
                sync(run, s, t, payload, gradients)

        monkeypatch.setattr(algorithms._Run, "sync", skip_restarts)
        assert main(["verify", "--suite", "finite"]) == EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL restart-identity" in out

    def test_online_suite_selector(self, capsys):
        assert main(["verify", "--suite", "online"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "restart-variance-bound" in out
        assert "gd-degeneracy" not in out
