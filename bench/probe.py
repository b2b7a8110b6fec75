"""Host-speed probe: a fixed piece of work that does not use the program.

The shared VMs this benchmark runs on change speed by up to 2x, in phases
that last from seconds to minutes, and every kind of work slows down with
them. A time measured in one run is therefore as much a reading of the host
as of the program. Each run also times this probe, on a timer every PERIOD
seconds while the program runs, and scales its times by
REFERENCE_S / (mean probe time): the figures read as seconds on a host
where one probe takes REFERENCE_S. The timer spreads the samples evenly
over the run, whatever the program is doing, and probe time is taken out
of every timed interval. The mean, not the median, because a timed
interval is itself a mean over the host's phases while it ran. The probe
never calls into cutflow, so a change to the program moves the scaled
times exactly as much as the raw ones.

The probe mixes the kinds of work the program does: a Python loop over
small dense matrices (element kernels), sparse assembly from triplets
(global assembly), and a sparse LU factorization with solves.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np
import scipy.sparse as sparse
# bound at import: the traced run wraps scipy.sparse.linalg.splu afterwards
from scipy.sparse.linalg import splu

# probe time, in seconds, that the scaled times assume; about the mean on a
# 2-core Xeon VM shared with other work
REFERENCE_S = 0.04
PERIOD = 0.5  # seconds between probes; a probe takes about REFERENCE_S

_rng = np.random.default_rng(0)
_B = _rng.standard_normal((6, 12))
_D = np.diag(1.0 + _rng.random(6))
_RHS = np.ones(4)
_N = 1600  # unknowns of the sparse parts
_ROWS = _rng.integers(0, _N, 160_000)
_COLS = (_ROWS + _rng.integers(-40, 41, _ROWS.size)) % _N
_VALS = _rng.standard_normal(_ROWS.size)
_LOOP = 1100


def _laplacian(n):
    t = sparse.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sparse.identity(n)
    return (sparse.kron(eye, t) + sparse.kron(t, eye)).tocsc()


_LAPLACIAN = _laplacian(50)
_B_GLOBAL = np.ones(_LAPLACIAN.shape[0])


def probe_once():
    """Run the probe's fixed work once; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    rows = []
    for i in range(_LOOP):
        k = _B.T @ (_D * (1.0 + 1e-3 * i)) @ _B
        acc += float(np.linalg.solve(k[:4, :4] + 10.0 * np.eye(4), _RHS)[0])
        rows.append({"i": i, "diag": k[0, :3].tolist()})
    a = sparse.coo_matrix((_VALS, (_ROWS, _COLS)), shape=(_N, _N)).tocsr()
    acc += float(a.sum())
    lu = splu(_LAPLACIAN)
    for _ in range(3):
        acc += float(lu.solve(_B_GLOBAL)[0])
    if not np.isfinite(acc) or len(rows) != _LOOP:
        raise RuntimeError("host probe produced a wrong result")
    return time.perf_counter() - t0


class HostSpeed:
    """Probes the host on a wall-clock timer while the program runs.

    `clock()` is wall time less the probe time so far. The spans and the
    iteration marks read it, so probe time falls out of every timed interval.
    """

    def __init__(self):
        self.samples = []
        self.total = 0.0  # probe seconds so far
        self._busy = False

    def clock(self):
        return time.perf_counter() - self.total

    def _probe(self, *_):
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        try:
            dt = probe_once()
            self.samples.append(dt)
            self.total += dt
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Probe once now, then every PERIOD seconds of wall time in the block.

        A SIGALRM handler runs in the main thread between bytecodes, so a
        probe interrupts the program at an arbitrary point; during a long C
        call (a factorization, say) it waits for the call to return.
        """
        previous = signal.signal(signal.SIGALRM, self._probe)
        try:
            self._probe()
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)


def scale(samples):
    """Multiplier that turns a run's wall times into reference-host times."""
    return REFERENCE_S / statistics.fmean(samples)
