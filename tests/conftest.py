"""One BLAS thread for the whole suite.

Several tests bound wall time (criterion 1 allows 10 s), and a dense
product on a BLAS pool that shares the cores with other work can take
several times longer than on one thread.  The variables are read when
numpy loads its BLAS, so they are set here, before any test module
imports numpy; the same ones as `perfbench/run.py` pins.
"""
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

assert "numpy" not in sys.modules, "numpy was imported before the BLAS threads were pinned"
for var in THREAD_VARS:
    os.environ[var] = "1"
