"""Machine speed, timed on a fixed snippet that does not use the package.

The cores of a shared sandbox switch between speed states for seconds to
minutes as other tenants load the host, and the same ops then run up to 40 %
faster or slower.  The benchmark times this snippet every ``INTERVAL_S``
between ops and reports each op's time at a reference speed,
``t * REF_S / cal``, with ``cal`` the median of the two snippet times on
either side of the op and the two beyond those, which smooths the snippet's
own noise over about two seconds.  The snippet mixes interpreted Python with
small numpy calls, as the package does.  Raw times are kept in the run's
record.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np
import numpy.polynomial.polynomial as npp

# the snippet's time on a 2-core Xeon sandbox (Python 3.11, numpy 2.4) in its
# slower, more common state; any constant would do, this one keeps reported
# times close to raw times there
REF_S = 3.2e-3
INTERVAL_S = 0.5
REPS = 5

_A = np.random.default_rng(0).random((64, 64))
_X = np.linspace(0.0, 1.0, 2000)


def _snippet():
    s = 0
    for i in range(20_000):
        s += i * i % 7
    for _ in range(20):
        npp.polyval(_X, (1.0, 2.0, 3.0, 4.0, 5.0))
        _A @ _A
    return s


def op_snippet_s(samples, i):
    """Snippet time for an op run between samples i and i + 1."""
    return statistics.median(samples[max(i - 1, 0) : i + 3])


def snippet_s() -> float:
    """Median time of a few runs of the snippet, in seconds."""
    times = []
    for _ in range(REPS):
        t0 = perf_counter()
        _snippet()
        times.append(perf_counter() - t0)
    return statistics.median(times)
