"""Test-suite settings shared by every module.

Hypothesis prints a ``@reproduce_failure`` line with each failing example,
so a rare failure in a CI log can be replayed exactly. The profile changes
nothing else: example counts, deadlines and seeds stay as each test sets
them. The report header names the OpenBLAS kernel, which the golden
digests depend on.
"""

from blas_kernel import openblas_core
from hypothesis import settings

settings.register_profile("replayable", print_blob=True)
settings.load_profile("replayable")


def pytest_report_header(config):
    return f"OpenBLAS core: {openblas_core()}"


def pytest_terminal_summary(terminalreporter):
    # ``-q``, as the Tier-1 command runs, hides the header
    if terminalreporter.verbosity < 0:
        terminalreporter.write_line(f"OpenBLAS core: {openblas_core()}")
