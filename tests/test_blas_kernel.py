"""The test report and the digest assertions name the OpenBLAS kernel."""

from __future__ import annotations

import os
import subprocess
import sys

from blas_kernel import RECORDED_CORE, digest_note, openblas_core

HERE = os.path.dirname(os.path.abspath(__file__))


def _collect(*flags: str) -> str:
    # collecting this module alone runs the suite's conftest hooks
    src = os.path.join(HERE, os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-p",
         "no:cacheprovider", *flags, os.path.join(HERE, "test_blas_kernel.py")],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        cwd=os.path.join(HERE, os.pardir), check=True, timeout=120,
    )
    return done.stdout


def test_the_report_header_names_the_core():
    assert f"OpenBLAS core: {openblas_core()}" in _collect().splitlines()


def test_a_quiet_report_names_the_core():
    # ``-q`` hides the header, so the summary carries the line instead
    assert f"OpenBLAS core: {openblas_core()}" in _collect("-q").splitlines()


def test_digest_note_names_the_recorded_and_the_running_core():
    note = digest_note()
    assert f"recorded under OpenBLAS {RECORDED_CORE}" in note
    assert note.endswith(f"this run's core is {openblas_core()}")
