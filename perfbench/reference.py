"""Fixed computations that measure how fast this machine runs right now.

On a shared 2-core machine the speed of one process drifts by 20-60 %
over minutes as neighbours come and go, far more than the changes the
benchmark must detect.  So a reference computation of the same kind as
the workload's dominant layer is timed before every iteration and after
the last.  Each iteration's wall time is reported as a multiple of the
mean of the two reference times around it (``wall_rel``), and set-up time
is rescaled to the speed at which the reference takes ``NOMINAL_S``
(``setup_s``).  The references use numpy and scipy only and never call
sinrcap, so no change to the library can change them.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog


def _affectance(n: int, seed: int) -> tuple:
    """Clipped affectance a[w, v] = min(1, (l_v / d(s_w, r_v)) ** 2.5) and the
    link lengths of n random planar links (uniform power, beta 1, no noise)."""
    rng = np.random.default_rng(seed)
    sx, sy = rng.uniform(0.0, np.sqrt(n / 0.1), (2, n))
    length = rng.uniform(1.0, 8.0, n)
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    rx, ry = sx + length * np.cos(angle), sy + length * np.sin(angle)
    d = np.hypot(sx[:, None] - rx[None, :], sy[:, None] - ry[None, :])
    aff = np.minimum(1.0, (length[None, :] / d) ** 2.5)
    np.fill_diagonal(aff, 0.0)
    return aff, length


class LpReference:
    """One HiGHS solve of a fixed capacity-style LP on 450 links: rows bound
    the affectance each link receives from and sends to no-shorter links."""

    N = 450
    NOMINAL_S = 0.15  # fastest run seen on an idle 2-core x86 VM

    def __init__(self):
        aff, length = _affectance(self.N, 1)
        no_shorter = length[:, None] >= length[None, :]
        np.fill_diagonal(no_shorter, False)
        self.rows = np.vstack([(aff * no_shorter).T, (aff.T * no_shorter).T])

    def __call__(self) -> float:
        res = linprog(-np.ones(self.N), A_ub=self.rows, b_ub=np.full(2 * self.N, 1.2),
                      bounds=(0.0, 1.0), method="highs")
        return round(float(res.fun), 6)


class EnumerationReference:
    """Exhaustive search over the 2**19 subsets of a fixed 19-link set, in
    blocks of boolean masks as the oracle does it."""

    N, BLOCK = 19, 1 << 14
    NOMINAL_S = 0.16  # fastest run seen on an idle 2-core x86 VM

    def __init__(self):
        self.rows = _affectance(self.N, 2)[0]
        self.budget = 0.3 * self.rows.sum(axis=0)
        self.bit = 1 << np.arange(self.N, dtype=np.int64)

    def __call__(self) -> float:
        best = 0
        for start in range(0, 1 << self.N, self.BLOCK):
            masks = np.arange(start, start + self.BLOCK, dtype=np.int64)
            sel = (masks[:, None] & self.bit[None, :]) != 0
            ok = np.all((sel.astype(float) @ self.rows <= self.budget) | ~sel, axis=1)
            best = max(best, int(sel[ok].sum(axis=1).max(initial=0)))
        return float(best)


class Timer:
    """Times a reference; fails if its result ever changes, since then it
    would no longer measure the same work."""

    def __init__(self, reference):
        self.reference = reference
        self.expected = None

    def __call__(self) -> float:
        t0 = time.perf_counter()
        result = self.reference()
        elapsed = time.perf_counter() - t0
        if self.expected is None:
            self.expected = result
        elif result != self.expected:
            raise RuntimeError("reference computation changed its result")
        return elapsed


REFERENCES = {"lp": LpReference, "enumeration": EnumerationReference}
