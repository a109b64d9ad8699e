"""The CI workflow's Tier-1 step runs the verify command ROADMAP.md states,
and a later step runs the benchmark smoke test.

Both files are read as plain text, so the check needs no YAML parser: the
command is the backquoted text of ROADMAP's ``**Tier-1 verify:**`` line,
and a step is the ``run:`` line right after its ``- name:`` line.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_tier1_step_runs_the_roadmap_verify_command():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    verify = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.M)
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    step = re.search(r"^ *- name: Tier-1\n *run: (.+)$", workflow, re.M)
    assert verify and step
    assert step.group(1) == verify.group(1)


def test_a_step_after_tier1_runs_the_benchmark_smoke_test():
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    steps = re.findall(r"^ *- name: (.+)\n *run: (.+)$", workflow, re.M)
    names = [name for name, _ in steps]
    assert "Tier-1" in names
    later = steps[names.index("Tier-1") + 1 :]
    assert "python3 perfbench/smoke.py" in [run for _, run in later]
