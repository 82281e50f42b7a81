"""Generic linear programs over [0,1] variables with nonnegative rows.

Programs here always maximize a nonnegative objective subject to
``A x <= b`` with ``A >= 0``, ``b > 0`` and box bounds ``0 <= x <= 1``,
so x = 0 is feasible and the optimum is finite.  Solving is delegated to
scipy's HiGHS backend behind a thin checked interface.

A program may also carry the data of the second rounding stage: per row,
the variable whose survival the row decides (-1: the whole sample) and
the load limit a rounded selection must respect.  Without it, rounding
keeps every stage-one pick.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

SOLVE_TOL = 1e-7


class LpSolveError(Exception):
    """The LP solver failed; never silently approximated."""


@dataclass(frozen=True, eq=False)
class LinearProgram:
    objective: np.ndarray
    row_coeffs: np.ndarray
    row_bounds: np.ndarray
    row_names: tuple = ()
    row_var: Optional[np.ndarray] = None    # default: -1 for every row
    row_limit: Optional[np.ndarray] = None  # default: inf for every row

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float)
        a = np.asarray(self.row_coeffs, dtype=float)
        if a.ndim == 2 and a.shape[1] == obj.size:
            pass  # already (m, n); reshape would drop zero-variable rows
        else:
            a = a.reshape(-1, obj.size)
        b = np.asarray(self.row_bounds, dtype=float)
        if not np.all(np.isfinite(obj)) or np.any(obj < 0):
            raise ValueError("objective coefficients must be finite and nonnegative")
        if not np.all(np.isfinite(a)) or np.any(a < 0):
            raise ValueError("row coefficients must be finite and nonnegative")
        if not np.all(np.isfinite(b)) or np.any(b <= 0):
            raise ValueError("row bounds must be finite and positive")
        if b.shape != (a.shape[0],):
            raise ValueError("row bounds length must match the number of rows")
        if self.row_names and len(self.row_names) != a.shape[0]:
            raise ValueError("row names length must match the number of rows")
        var = np.full(b.size, -1) if self.row_var is None else np.asarray(self.row_var)
        limit = np.full(b.size, np.inf) if self.row_limit is None \
            else np.asarray(self.row_limit, dtype=float)
        if var.shape != b.shape or limit.shape != b.shape:
            raise ValueError("rounding data length must match the number of rows")
        if var.dtype.kind not in "iu" or np.any(var < -1) or np.any(var >= obj.size):
            raise ValueError("row variables must be integers in [-1, n)")
        if not np.all(limit > 0):  # also rejects NaN
            raise ValueError("row limits must be positive")
        object.__setattr__(self, "objective", obj)
        object.__setattr__(self, "row_coeffs", a)
        object.__setattr__(self, "row_bounds", b)
        object.__setattr__(self, "row_var", var)
        object.__setattr__(self, "row_limit", limit)

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


def solve_lp(lp: LinearProgram) -> FractionalSolution:
    """Solve to optimality; constraint and optimality tolerance 1e-7."""
    if lp.n == 0:
        return FractionalSolution(values=np.zeros(0), objective=0.0)
    if lp.m == 0:
        # box bounds only; nonnegative objective is maximized at 1
        values = np.ones(lp.n)
        return FractionalSolution(values=values, objective=float(lp.objective.sum()))
    res = linprog(
        -lp.objective,
        A_ub=lp.row_coeffs,
        b_ub=lp.row_bounds,
        bounds=(0.0, 1.0),
        method="highs",
    )
    if not res.success:
        raise LpSolveError(f"LP solve failed (status {res.status}): {res.message}")
    values = np.asarray(res.x, dtype=float)
    if np.any(values < -SOLVE_TOL) or np.any(values > 1.0 + SOLVE_TOL):
        raise LpSolveError("solver returned values outside the box bounds")
    values = np.clip(values, 0.0, 1.0)
    if not check_solution(lp, values):
        raise LpSolveError("solver returned an infeasible point")
    return FractionalSolution(values=values, objective=float(lp.objective @ values))


def check_solution(lp: LinearProgram, values, tol: float = SOLVE_TOL) -> bool:
    """True iff the box bounds and all rows hold within tolerance."""
    x = np.asarray(values, dtype=float)
    if x.shape != (lp.n,):
        raise ValueError(f"expected {lp.n} values, got shape {x.shape}")
    if np.any(x < -tol) or np.any(x > 1.0 + tol):
        return False
    if lp.m == 0:
        return True
    return bool(np.all(lp.row_coeffs @ x <= lp.row_bounds + tol))


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
