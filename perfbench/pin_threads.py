"""Pins BLAS and OpenMP thread pools to one thread.

Import it before numpy: the pools are sized when numpy is first imported.
Processes started afterwards inherit the setting through the environment.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"
