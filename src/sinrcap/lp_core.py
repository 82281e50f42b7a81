"""Generic linear programs over [0,1] variables with nonnegative rows.

Programs here always maximize a nonnegative objective subject to
``A x <= b`` with ``A >= 0``, ``b > 0`` and box bounds ``0 <= x <= 1``,
so x = 0 is feasible and the optimum is finite.  Solving is delegated to
the HiGHS solver bundled with scipy behind a thin checked interface,
which passes the rows' nonzeros column-wise as plain arrays.

A program names its variables: ``ids`` holds the link id of each
variable (0..n-1 unless given), so rounding needs no other record of
which links a program covers.

An ``LpSession`` holds one HiGHS model across solves.  A constant sweep
(``rounding.round_trials``) is one mode's program: built at the first
constant, and derived at each later one with ``LinearProgram.at``, which
shares the read-only objective and rows and recomputes only the row
bounds and limits.  When a program's objective and rows are the loaded
arrays themselves, the session pushes only the row bounds that changed
and re-solves with the dual simplex from the previous optimal basis (the
warm start): after a bound change only that basis's dual feasibility
survives.  Any other program is loaded cold and solved by the primal
simplex.  x = 0 is a feasible basis of every program here, so the primal
starts in its phase 2, while the dual would start from the
all-at-upper-bound point.  ``solve_lp`` runs one program through a given
session, or through a fresh one.

A program may also carry the data of the second rounding stage: per row,
the variable whose survival the row decides (-1: the whole sample) and
the load limit a rounded selection must respect.  Without it, rounding
keeps every stage-one pick.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize._highspy import _core as highs  # private; scipy >= 1.15

from .model import require_positive

SOLVE_TOL = 1e-7

# Quiet simplex without presolve: on these dense nonnegative rows it
# reduces next to nothing, yet took about 45 % of a cold solve and 40 MiB
# of the peak memory of ``sinrcap solve`` at n=1000.
HIGHS_OPTIONS = {
    "output_flag": False,
    "log_to_console": False,
    "presolve": "off",
}
# Set on every solve: a cold load starts the primal simplex from the
# feasible basis x = 0; a warm re-solve keeps the old basis, which is
# still dual feasible after a bound change but may be primal infeasible.
_STRATEGY = highs.simplex_constants.SimplexStrategy
SIMPLEX_STRATEGY = {False: int(_STRATEGY.kSimplexStrategyPrimal),
                    True: int(_STRATEGY.kSimplexStrategyDual)}


class LpSolveError(Exception):
    """The LP solver failed; never silently approximated."""


def block_bounds(blocks, C: float) -> tuple:
    """Per-row bounds and limits at constant C of the row blocks ``blocks``,
    each (rows, bound, limit, scaled): a scaled block's bound and limit are
    multiples of C, another block's are fixed."""
    require_positive("C", C)
    sizes = [b[0] for b in blocks]
    return tuple(np.repeat([float(b[i] * C if b[3] else b[i]) for b in blocks], sizes)
                 for i in (1, 2))


@dataclass(frozen=True, eq=False)
class LinearProgram:
    objective: np.ndarray
    row_coeffs: np.ndarray
    row_bounds: np.ndarray
    row_names: tuple = ()
    row_var: Optional[np.ndarray] = None    # default: -1 for every row
    row_limit: Optional[np.ndarray] = None  # default: inf for every row
    row_blocks: tuple = ()  # (rows, bound, limit, scaled) per block, for ``at``
    ids: Optional[np.ndarray] = None        # link id per variable; default: 0..n-1

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.row_coeffs, dtype=float)
        if a.ndim != 2 or a.shape[1] != obj.size:
            raise ValueError("row coefficients must be a matrix with one column per variable")
        if not np.all(np.isfinite(obj)) or np.any(obj < 0):
            raise ValueError("objective coefficients must be finite and nonnegative")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError("row coefficients must be finite and nonnegative")
        if self.row_names and len(self.row_names) != a.shape[0]:
            raise ValueError("row names length must match the number of rows")
        var = np.full(a.shape[0], -1) if self.row_var is None else np.asarray(self.row_var)
        if var.dtype.kind not in "iu" or np.any(var < -1) or np.any(var >= obj.size):
            raise ValueError("row variables must be integers in [-1, n)")
        ids = np.arange(obj.size) if self.ids is None else np.asarray(self.ids)
        if ids.shape != obj.shape or ids.dtype.kind not in "iu":
            raise ValueError("variable ids must be one integer per variable")
        self._freeze(objective=obj, row_coeffs=a, row_var=var, ids=ids)
        self._set_bounds(self.row_bounds, self.row_limit)

    def _set_bounds(self, bounds, limit):
        """Check and set the row bounds and limits: the only arrays that
        ``at`` changes."""
        b = np.asarray(bounds, dtype=float)
        limit = np.full(b.size, np.inf) if limit is None else np.asarray(limit, dtype=float)
        if not np.all(np.isfinite(b)) or np.any(b <= 0):
            raise ValueError("row bounds must be finite and positive")
        if b.shape != (self.m,):
            raise ValueError("row bounds length must match the number of rows")
        if self.row_var.shape != b.shape or limit.shape != b.shape:
            raise ValueError("rounding data length must match the number of rows")
        if not np.all(limit > 0):  # also rejects NaN
            raise ValueError("row limits must be positive")
        self._freeze(row_bounds=b, row_limit=limit)

    def _freeze(self, **arrays):
        """Set the arrays read-only, each copied first when it is a view,
        whose base its caller could still write."""
        for name, a in arrays.items():
            a = a.copy() if a.base is not None else a
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def at(self, C: float) -> "LinearProgram":
        """This program at constant C: the same arrays, but the bounds and
        limits of its row blocks at C."""
        if not self.row_blocks:
            raise ValueError("program has no row blocks to set at a constant")
        lp = copy.copy(self)
        lp._set_bounds(*block_bounds(self.row_blocks, C))
        return lp

    @property
    def n(self) -> int:
        return self.objective.size

    @property
    def m(self) -> int:
        return self.row_coeffs.shape[0]


@dataclass(frozen=True)
class FractionalSolution:
    values: np.ndarray
    objective: float


class LpSession:
    """One HiGHS model reused across solves of programs that differ only in
    their row bounds.

    ``iterations`` and ``warm`` describe the last solve: its simplex
    iterations and whether it re-solved the loaded model from its basis.
    """

    def __init__(self):
        self._highs = highs._Highs()
        for option, value in HIGHS_OPTIONS.items():
            if self._highs.setOptionValue(option, value) != highs.HighsStatus.kOk:
                raise LpSolveError(f"HiGHS rejected option {option}={value!r}")
        self._loaded = None   # the loaded program; None: reload
        self.iterations = 0
        self.warm = False

    def solve(self, lp: LinearProgram) -> FractionalSolution:
        """Solve to optimality; constraint and optimality tolerance 1e-7."""
        self.iterations, self.warm = 0, False
        if lp.n == 0:
            return FractionalSolution(values=np.zeros(0), objective=0.0)
        if lp.m == 0:
            # box bounds only; nonnegative objective is maximized at 1
            values = np.ones(lp.n)
            return FractionalSolution(values=values, objective=float(lp.objective.sum()))
        loaded, self._loaded = self._loaded, None  # a failed run leaves no basis to reuse
        self.warm = loaded is not None and lp.objective is loaded.objective \
            and lp.row_coeffs is loaded.row_coeffs
        if self.warm:
            for i in np.flatnonzero(lp.row_bounds != loaded.row_bounds):
                self._highs.changeRowBounds(int(i), -np.inf, float(lp.row_bounds[i]))
        elif self._load(lp) == highs.HighsStatus.kError:
            raise LpSolveError("HiGHS rejected the program")
        if self._highs.setOptionValue("simplex_strategy",
                                      SIMPLEX_STRATEGY[self.warm]) != highs.HighsStatus.kOk:
            raise LpSolveError("HiGHS rejected the simplex strategy")
        run_status = self._highs.run()
        status = self._highs.getModelStatus()
        if run_status == highs.HighsStatus.kError or status != highs.HighsModelStatus.kOptimal:
            raise LpSolveError(
                f"LP solve failed: {self._highs.modelStatusToString(status)}")
        self.iterations = int(self._highs.getInfo().simplex_iteration_count)
        values = np.array(self._highs.getSolution().col_value, dtype=float)
        if np.any(values < -SOLVE_TOL) or np.any(values > 1.0 + SOLVE_TOL):
            raise LpSolveError("solver returned values outside the box bounds")
        values = np.clip(values, 0.0, 1.0)
        if not check_solution(lp, values):
            raise LpSolveError("solver returned an infeasible point")
        self._loaded = lp
        return FractionalSolution(values=values, objective=float(lp.objective @ values))

    def _load(self, lp: LinearProgram):
        """Load the program cold: minimize -objective over the box; the rows
        go column-wise as n starts, then the nonzeros' row indices and values."""
        cols = lp.row_coeffs.T
        nonzero = cols != 0
        start = np.zeros(lp.n, dtype=np.int32)
        np.cumsum(nonzero.sum(axis=1)[:-1], out=start[1:])
        index = np.broadcast_to(np.arange(lp.m, dtype=np.int32), cols.shape)[nonzero]
        return self._highs.passModel(
            lp.n, lp.m, index.size, int(highs.MatrixFormat.kColwise),
            int(highs.ObjSense.kMinimize), 0.0, -lp.objective, np.zeros(lp.n),
            np.ones(lp.n), np.full(lp.m, -np.inf), lp.row_bounds,
            start, index, cols[nonzero], np.zeros(lp.n, dtype=np.int32))


def solve_lp(lp: LinearProgram, session: Optional[LpSession] = None) -> FractionalSolution:
    """Solve to optimality through ``session``, warm when it last solved
    the same objective and rows, or through a fresh session."""
    return (session if session is not None else LpSession()).solve(lp)


def check_solution(lp: LinearProgram, values) -> bool:
    """True iff the box bounds and all rows hold within ``SOLVE_TOL``."""
    x = np.asarray(values, dtype=float)
    if x.shape != (lp.n,):
        raise ValueError(f"expected {lp.n} values, got shape {x.shape}")
    if np.any(x < -SOLVE_TOL) or np.any(x > 1.0 + SOLVE_TOL):
        return False
    if lp.m == 0:
        return True
    return bool(np.all(lp.row_coeffs @ x <= lp.row_bounds + SOLVE_TOL))


def dump_lp(lp: LinearProgram) -> str:
    """Render in LP text format for cross-checking with external tools."""
    obj_terms = " + ".join(f"{float(c)!r} x{j}"
                           for j, c in enumerate(lp.objective) if c != 0.0)
    lines = ["Maximize", f" obj: {obj_terms or '0 x0'}", "Subject To"]
    for i in range(lp.m):
        name = lp.row_names[i] if lp.row_names else f"c{i}"
        terms = " + ".join(f"{float(c)!r} x{j}"
                           for j, c in enumerate(lp.row_coeffs[i]) if c != 0.0)
        lines.append(f" {name}: {terms or '0 x0'} <= {float(lp.row_bounds[i])!r}")
    lines.append("Bounds")
    for j in range(lp.n):
        lines.append(f" 0 <= x{j} <= 1")
    lines.append("End")
    return "\n".join(lines) + "\n"
