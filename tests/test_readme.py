"""The README's examples work as written.

The ``python`` block under "Library use" is executed, and the ``json``
config under "CLI" goes through the CLI's own loading, suite building and
parameter resolution, so the docs cannot drift from the API.
"""

from __future__ import annotations

import re
from pathlib import Path

from prspider import cli
from prspider.harness import MetricsRecord

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section: str, lang: str) -> str:
    """The first ``lang`` code block under the ``## section`` heading."""
    body = README.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_library_use_example_runs(capsys):
    names = {}
    exec(_block("Library use", "python"), names)
    hit = names["hit"]
    # the hit is a record of the trace, and the example prints from it
    assert isinstance(hit, MetricsRecord)
    assert any(hit == r for r in names["trace"].records)
    printed = (hit.s, hit.t, hit.ifo_total, hit.comm_rounds, hit.fos)
    assert capsys.readouterr().out == " ".join(map(str, printed)) + "\n"


def test_cli_config_example_resolves(tmp_path):
    path = tmp_path / "demo.json"
    path.write_text(_block("CLI", "json"))
    config = cli.load_config(path)
    suite = cli.build_suite(config["problem"])
    name, params = cli.resolve_algorithm(config["algorithm"], suite)
    assert (suite.num_workers, suite.sample_count, suite.dim) == (4, 64, 8)
    assert name == "pr-spider-finite"
    assert params["N"] == 4 and params["I"] == 4
