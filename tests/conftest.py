"""Pin OpenBLAS to one thread, as CI and the benchmark do, before any test imports numpy.

An unpinned thread pool slows the sup-norm grid product under contention.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
