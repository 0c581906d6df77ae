"""Test-session setup: BLAS runs on one thread.

numpy's BLAS reads its thread count once, when numpy is first imported, and this
file is loaded before any test module imports numpy. One thread makes an SVD-heavy
test's time independent of other work on the host, and its bits independent of
the caller's thread variables; the behaviour and CSV locks pass at one thread.
"""

import os

for _var in (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"
