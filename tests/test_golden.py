"""Golden digests: every runner's trace CSV and sidecar, pinned byte for byte.

Each config goes through the same calls as ``prspider run``
(``build_suite``, ``resolve_algorithm``, ``run_one``, ``write_csv``,
``write_sidecar``) and the SHA-256 of both files must match the digest
recorded here. Together the configs cover all four algorithms, both
families, finite and online sampling, ``parallel`` on and off, batches that
span several kernel blocks, the single-column (d=1) quadratic, an explicit
quadratic suite, and runs that diverge (their partial trace is pinned).

No digest holds on every machine. The digests were recorded under
OpenBLAS's SkylakeX kernel, and every family's trace depends on BLAS's
summation order. The quadratic metrics take ``numerics.sq_norm`` and
``sq_norms`` through a BLAS dot, so ``f_bar``, ``grad_sq`` and ``fos``
move in their last bits under another kernel: with
``OPENBLAS_CORETYPE=Haswell`` on the same CPU, 11 of the 12 digest pairs
fail, and only the d=1 quadratic passes. The sigmoid path also takes its
margins and analytic gradients through BLAS matvecs, so a BLAS or CPU
change can move the ``sigmoid-*`` digests without any change to prspider.
"""

from __future__ import annotations

import hashlib
import warnings

import pytest

from prspider.algorithms import DivergedError
from prspider.cli import build_suite, resolve_algorithm, run_one


def _config(problem, name, params, parallel):
    return {
        "problem": problem,
        "algorithm": {"name": name, "params": params},
        "run": {"seeds": [0], "metrics_every": 1, "parallel": parallel},
    }


QUAD_FINITE = {"family": "quadratic", "N": 3, "n": 70, "d": 6,
               "heterogeneity": 0.5, "seed": 11}
QUAD_SPIDER = {"gamma": 0.1, "I": 3, "m": 12, "B": 40, "S": 3}
SIGMOID_FINITE = {"family": "sigmoid", "N": 4, "n": 256, "d": 4,
                  "heterogeneity": 0.5, "seed": 9}

CONFIGS = {
    "quadratic-spider-finite-serial": _config(
        QUAD_FINITE, "pr-spider-finite", QUAD_SPIDER, False
    ),
    "quadratic-spider-finite-parallel": _config(
        QUAD_FINITE, "pr-spider-finite", QUAD_SPIDER, True
    ),
    "quadratic-d1-spider-online-parallel": _config(
        {"family": "quadratic", "N": 2, "n": 50, "d": 1,
         "heterogeneity": 1.0, "seed": 5},
        "pr-spider-online",
        {"gamma": 0.2, "I": 2, "m": 10, "B": 20, "S": 3, "n_b": 45},
        True,
    ),
    # batch == n takes the runner's full-pass branch
    "quadratic-par-sgd-full-batch": _config(
        {"family": "quadratic", "N": 2, "n": 40, "d": 5,
         "heterogeneity": 0.3, "seed": 2},
        "par-sgd",
        {"gamma": 0.2, "batch": 40, "horizon": 20},
        False,
    ),
    "quadratic-par-restarted-sgd-parallel": _config(
        {"family": "quadratic", "N": 3, "n": 64, "d": 3,
         "heterogeneity": 0.8, "seed": 4},
        "par-restarted-sgd",
        {"gamma": 0.1, "batch": 35, "I": 4, "horizon": 30},
        True,
    ),
    # sigmoid digests can move with the BLAS build or the CPU (see above)
    "sigmoid-spider-finite-serial": _config(
        SIGMOID_FINITE,
        "pr-spider-finite",
        {"gamma": 0.0186, "I": 4, "m": 32, "B": 40, "S": 3},
        False,
    ),
    "sigmoid-spider-online-parallel": _config(
        {"family": "sigmoid", "N": 2, "n": "online", "d": 8,
         "heterogeneity": 0.5, "seed": 3, "online_pool": 64},
        "pr-spider-online",
        {"gamma": 0.1, "I": 4, "m": 20, "B": 10, "S": 2, "n_b": 50},
        True,
    ),
    "sigmoid-par-restarted-sgd-serial": _config(
        {"family": "sigmoid", "N": 3, "n": 32, "d": 4,
         "heterogeneity": 0.5, "seed": 6},
        "par-restarted-sgd",
        {"gamma": 0.1, "batch": 5, "I": 3, "horizon": 40},
        False,
    ),
    "sigmoid-online-par-sgd-parallel": _config(
        {"family": "sigmoid", "N": 2, "n": "online", "d": 4,
         "heterogeneity": 0.5, "seed": 8, "online_pool": 32},
        "par-sgd",
        {"gamma": 0.1, "batch": 8, "horizon": 25},
        True,
    ),
    "quadratic-explicit-spider-finite": _config(
        {"family": "quadratic-explicit",
         "centers": [[[0.0, 1.0], [2.0, -1.0], [0.5, 0.25]],
                     [[-1.0, 3.0], [1.5, 0.0], [4.0, 2.0]]],
         "initial_point": [3.0, -2.0]},
        "pr-spider-finite",
        {"gamma": 0.2, "I": 2, "m": 6, "B": 2, "S": 3},
        False,
    ),
    # the step size makes these overflow partway; the partial trace that
    # DivergedError carries is what gets written
    "quadratic-spider-finite-diverged": _config(
        QUAD_FINITE,
        "pr-spider-finite",
        {"gamma": 64.0, "I": 3, "m": 12, "B": 40, "S": 20},
        False,
    ),
    "quadratic-par-sgd-diverged": _config(
        {"family": "quadratic", "N": 2, "n": 40, "d": 5,
         "heterogeneity": 0.3, "seed": 2},
        "par-sgd",
        {"gamma": 1e3, "batch": 7, "horizon": 200},
        True,
    ),
}

DIVERGING = {"quadratic-spider-finite-diverged", "quadratic-par-sgd-diverged"}

# name -> (sha256 of trace CSV, sha256 of sidecar)
GOLDEN = {
    "quadratic-explicit-spider-finite": (
        "44789de2819875012c7a9481691cf3be2b93c6be2cecdd97ce74132fe48362fa",
        "41accea6d81fa2eec3a545a286675d2bbad61c3f8262f992356cc7f931da00b4",
    ),
    "quadratic-par-sgd-diverged": (
        "9a367a88888f5784adc9b40ead1a2fac9c900bfe9eb79c6ab8b8fd02ce3b39a6",
        "6ce89e2c0b765d294b61709f398964ac203da6426823d50570a24011ae064825",
    ),
    "quadratic-spider-finite-diverged": (
        "0ac5352e35f302c8ccd02a1a77cce8cafa5f16b6251d1537a1a31d2e521961ad",
        "26329426c3128f753959819f9f0a0eb20fcae45e5e555df37731f206a0742564",
    ),
    "quadratic-d1-spider-online-parallel": (
        "ef918efd48e32c882035ddfe3f7e7b0a7f141a26a28419c602604e4b5854cff8",
        "53026811bbb3f096b44a9bd6c3409b9e8804944aab27d79aab22df93d3f32dbc",
    ),
    "quadratic-par-restarted-sgd-parallel": (
        "bea58097a9fed6c1793398455cf16ff88d1dc1bdccf12be18e67fa82b7955922",
        "59a0bf612e2e74c6772487a3e6cbec1647db23eff4254675bc98ffaba7cf6a5c",
    ),
    "quadratic-par-sgd-full-batch": (
        "374f65e044421b94e0835a002fff62afd9524a09a456b34ac28dc497d37d096f",
        "e74ed0eb47c547bf59cee668293ef0d591e38e059628d596c1d92c18be184a5e",
    ),
    "quadratic-spider-finite-parallel": (
        "82bfe3194b56a5a0afd3f807a67798713a0d97440172af004b7d48e355dbc7f5",
        "c36a1f7bf2488f00377fc24a067899b0b97a403e616244c05f5ad25c048a1c40",
    ),
    "quadratic-spider-finite-serial": (
        "82bfe3194b56a5a0afd3f807a67798713a0d97440172af004b7d48e355dbc7f5",
        "9b296020a02b39c62633a3c063aad09bf77335a9a6792d9363ddbb5a2c952581",
    ),
    "sigmoid-online-par-sgd-parallel": (
        "0c203c5b3080a604e2ebae087de4bc4d2f0bdfc3d9541fdaa1eb7ea5d761285a",
        "7614b2fa00cdd085717e5b5029b71eb4547627d54513e99e46aebc9d5fa8f794",
    ),
    "sigmoid-par-restarted-sgd-serial": (
        "cc991f97e9be8ca5fbc5960c7229cafc9d237c932102df815ace5295fe2ed9d5",
        "e4eca40d8359d76e6510546184de857890f0f1b20e26cc4fe4f1e936435d90e0",
    ),
    "sigmoid-spider-finite-serial": (
        "1fc29e3f4b23a1d088cd0ff5e888cabaccd7ffe155ca6d735cdcc8900f33aac5",
        "5f41513c5cd51f23c14e61015dec866403f349427da7d844f7d041e12885b76b",
    ),
    "sigmoid-spider-online-parallel": (
        "4da5fc6c9a73fe032c0c7cbeb69298c860b3950b10d10f7cf1bc55be98f44c09",
        "51b4c68b2f6c16ceee7b21e7fbcec1f75135b6d3ee1c45491b0d6c453169fd1d",
    ),
}


def trace_digests(config: dict, out_dir, outcome="completed") -> tuple[str, str]:
    suite = build_suite(config["problem"])
    name, params = resolve_algorithm(config["algorithm"], suite)
    run = config["run"]
    try:
        trace = run_one(name, params, suite, run["seeds"][0], run)
    except DivergedError as exc:
        trace = exc.trace
    assert trace.outcome == outcome
    csv_path, sidecar_path = out_dir / "trace.csv", out_dir / "trace.json"
    trace.write_csv(csv_path)
    trace.write_sidecar(sidecar_path)
    return tuple(
        hashlib.sha256(p.read_bytes()).hexdigest()
        for p in (csv_path, sidecar_path)
    )


def test_golden_covers_every_algorithm_family_and_mode():
    configs = CONFIGS.values()
    assert {c["algorithm"]["name"] for c in configs} == {
        "pr-spider-finite", "pr-spider-online", "par-sgd", "par-restarted-sgd"
    }
    assert {c["problem"]["family"] for c in configs} == {
        "quadratic", "sigmoid", "quadratic-explicit"
    }
    assert {c["problem"].get("n") == "online" for c in configs} == {True, False}
    assert {c["run"]["parallel"] for c in configs} == {True, False}
    assert {c["algorithm"]["name"] for c in map(CONFIGS.get, DIVERGING)} == {
        "pr-spider-finite", "par-sgd"
    }
    assert set(GOLDEN) == set(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_trace_matches_golden_digest(name, tmp_path):
    outcome = "diverged" if name in DIVERGING else "completed"
    assert trace_digests(CONFIGS[name], tmp_path, outcome) == GOLDEN[name]


def test_parallel_divergence_is_silent(tmp_path):
    # overflow is a detected divergence, not a warning, in pool threads too:
    # each task runs under the runner's numpy error state
    name = "quadratic-par-sgd-diverged"
    assert CONFIGS[name]["run"]["parallel"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert trace_digests(CONFIGS[name], tmp_path, "diverged") == GOLDEN[name]
