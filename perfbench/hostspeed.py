"""Host-speed probe: a fixed numpy/scipy loop timed between jobs.

On a shared virtual machine the vCPU itself runs faster or slower in phases
of 10 to 60 s, by up to 2x, and CPU time slows with wall time.  A run's
job times then depend on the phases it happened to hit more than on the
program.  So the benchmark times this probe just before and just after each
job, and reports the job's times scaled to a host on which the probe takes
REFERENCE_S:

    scaled = measured * (REFERENCE_S / mean(probe before, probe after)) ** SENSITIVITY

The probe is shaped like the program's hot path (small sparse LU solves
and vector updates driven from a Python loop), so the host's phases slow it
as they slow the jobs.  It uses only numpy and scipy, never hierctrl, so a
change to the program cannot change the probe.

The probe slows somewhat more than the jobs do: over recorded jobs, the
log of a job's time rose about 0.8 times as fast as the log of the probe's
time around it.  SENSITIVITY is that slope.  With 1.0, runs in slow phases
came out faster than runs in fast ones.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

REFERENCE_S = 0.1   # probe seconds on the reference host; scaled times are in its seconds
UNKNOWNS = 62       # interior unknowns of the 1D beam at nx = 64
STEPS = 12000       # solve-and-update steps per probe, about 0.1 s
SENSITIVITY = 0.8   # d log(job time) / d log(probe time), measured on both gated workloads


class HostSpeed:
    """Probes the host once on creation and again at each next_scale()."""

    def __init__(self):
        n = UNKNOWNS
        main, off = 2.5 * np.ones(n), -np.ones(n - 1)
        self._lu = spla.splu(sp.diags([off, main, off], [-1, 0, 1], format="csc"))
        self._b = np.linspace(0.0, 1.0, n)
        self.scales = []
        self._before = self.probe()

    def probe(self):
        """Seconds for STEPS solve-and-update steps."""
        b = self._b
        t0 = perf_counter()
        for _ in range(STEPS):
            x = self._lu.solve(b)
            b = 0.5 * x + 0.1
        return perf_counter() - t0

    def next_scale(self):
        """Factor from measured to reference-host seconds for the work since the last probe."""
        after = self.probe()
        scale = (REFERENCE_S / (0.5 * (self._before + after))) ** SENSITIVITY
        self._before = after
        self.scales.append(scale)
        return scale
