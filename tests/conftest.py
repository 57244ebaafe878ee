"""Pin OpenBLAS to one thread, as CI and the benchmark do, before any test imports numpy.

The tests run many small matrix products, which an unpinned thread pool only
slows under contention.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
