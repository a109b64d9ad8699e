"""The CI workflow's Tier-1 step runs the verify command ROADMAP.md states.

Both files are read as plain text, so the check needs no YAML parser: the
command is the backquoted text of ROADMAP's ``**Tier-1 verify:**`` line,
and the step is the ``run:`` line right after ``- name: Tier-1``.
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
