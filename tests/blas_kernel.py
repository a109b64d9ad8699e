"""The name of the OpenBLAS kernel numpy's bundled library picked.

The golden digests encode one kernel's summation order (see
``test_golden.py``), so the test report and the digest assertions name the
kernel a run used. OpenBLAS picks it when it loads, from the CPU or from
``OPENBLAS_CORETYPE``. numpy 2 wheels bundle scipy-openblas, which exports
``scipy_openblas_get_corename64_``; 1.x wheels bundle OpenBLAS itself, which
exports ``openblas_get_corename64_``. Any other numpy reads ``unknown``.
"""

from __future__ import annotations

import ctypes
import glob
import os

import numpy as np

SYMBOLS = ("scipy_openblas_get_corename64_", "openblas_get_corename64_")


def openblas_core() -> str:
    """The core name of the OpenBLAS that numpy loaded, or ``unknown``."""
    root = os.path.dirname(np.__file__)
    # wheels put the library beside the package (Linux, Windows) or in it
    pattern = "*openblas*"
    for lib in sorted(
        glob.glob(os.path.join(root + ".libs", pattern))
        + glob.glob(os.path.join(root, ".dylibs", pattern))
    ):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in SYMBOLS:
            corename = getattr(dll, symbol, None)
            if corename is not None:
                corename.argtypes = []
                corename.restype = ctypes.c_char_p
                return corename().decode()
    return "unknown"


# the kernel every golden digest was recorded under
RECORDED_CORE = "SkylakeX"


def digest_note() -> str:
    """What a failed golden digest assertion says about the kernels."""
    return (
        f"golden digests were recorded under OpenBLAS {RECORDED_CORE}; "
        f"this run's core is {openblas_core()}"
    )
