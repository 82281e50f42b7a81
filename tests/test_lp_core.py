import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.sparse import csc_array

from sinrcap import (LinearProgram, LpSession, LpSolveError, PowerAssignment,
                     RoundingPolicy, build_admission_large_lp, build_admission_lp,
                     build_capacity_lp, build_qos_lp, build_weighted_lp,
                     check_solution, dump_lp, solve_lp)
from sinrcap import lp_core
from sinrcap.lp_core import highs

from conftest import feasible_prim_ctx, random_ctx, sampled


def lp(obj, rows, bounds, names=()):
    return LinearProgram(objective=np.asarray(obj, dtype=float),
                         row_coeffs=np.asarray(rows, dtype=float),
                         row_bounds=np.asarray(bounds, dtype=float),
                         row_names=tuple(names))


def test_box_only_maximum():
    program = lp([1.0], np.zeros((0, 1)), [])
    sol = solve_lp(program)
    assert sol.objective == pytest.approx(1.0)
    assert sol.values[0] == pytest.approx(1.0)


def test_hand_solved_program():
    # maximize d1 + d2 subject to 2 d1 + 2 d2 <= 1  ->  0.5
    sol = solve_lp(lp([1.0, 1.0], [[2.0, 2.0]], [1.0]))
    assert sol.objective == pytest.approx(0.5, abs=1e-7)


def test_zero_objective():
    sol = solve_lp(lp([0.0, 0.0], [[1.0, 1.0]], [1.0]))
    assert sol.objective == pytest.approx(0.0)


def test_check_solution_cases():
    program = lp([1.0, 1.0], [[1.0, 1.0]], [0.5])
    assert check_solution(program, [0.0, 0.0])
    assert not check_solution(program, [1.0, 1.0])  # row sums to 2 > 0.5
    assert not check_solution(program, [1.5, 0.0])  # box violation
    with pytest.raises(ValueError):
        check_solution(program, [0.0])


def _random_program(rng, n=8, m=10):
    return lp(rng.uniform(0, 2, n), rng.uniform(0, 1, (m, n)), rng.uniform(0.5, 2, m))


def test_solver_output_passes_check(rng):
    for _ in range(10):
        program = _random_program(rng)
        sol = solve_lp(program)
        assert check_solution(program, sol.values)
        assert sol.objective == pytest.approx(float(program.objective @ sol.values))


def test_value_monotone_in_bounds(rng):
    for _ in range(10):
        n, m = 6, 8
        obj = rng.uniform(0, 2, n)
        rows = rng.uniform(0, 1, (m, n))
        b = rng.uniform(0.2, 1.0, m)
        lo = solve_lp(lp(obj, rows, b)).objective
        hi = solve_lp(lp(obj, rows, 2 * b)).objective
        assert hi >= lo - 1e-7


def test_determinism(rng):
    program = _random_program(rng)
    a = solve_lp(program)
    b = solve_lp(program)
    assert a.objective == b.objective
    assert np.array_equal(a.values, b.values)


def test_invalid_programs_rejected():
    with pytest.raises(ValueError):
        lp([1.0], [[-0.5]], [1.0])  # negative coefficient
    with pytest.raises(ValueError):
        lp([1.0], [[0.5]], [0.0])   # nonpositive bound
    with pytest.raises(ValueError):
        lp([-1.0], [[0.5]], [1.0])  # negative objective
    for coeffs, bounds in ((np.ones((3, 4)), np.ones(6)),  # 12 entries, but not 6 x 2
                           ([1.0, 2.0, 3.0, 4.0], np.ones(2))):  # flat, not 2 x 2
        with pytest.raises(ValueError, match="one column per variable"):
            LinearProgram(objective=np.ones(2), row_coeffs=coeffs, row_bounds=bounds)
    rows, bounds = [[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0]
    for var, limit in (([0], [1.0, 1.0]),         # rounding data of the wrong length
                       ([0, 1], [1.0]),
                       ([0, 2], [1.0, 1.0]),      # variable index outside [-1, n)
                       ([-2, 0], [1.0, 1.0]),
                       ([0, 1], [1.0, np.nan])):  # NaN limit
        with pytest.raises(ValueError):
            LinearProgram(objective=np.ones(2), row_coeffs=np.asarray(rows),
                          row_bounds=np.asarray(bounds), row_var=np.asarray(var),
                          row_limit=np.asarray(limit))
    with pytest.raises(ValueError, match="row blocks"):
        lp([1.0], [[0.5]], [1.0]).at(2.0)  # no blocks to set at a constant


def test_program_ids_are_one_integer_per_variable():
    assert lp([1.0, 1.0], [[1.0, 1.0]], [1.0]).ids.tolist() == [0, 1]  # the default
    for ids in ([0], [0.5, 1.0], [[0, 1]]):
        with pytest.raises(ValueError, match="variable ids"):
            LinearProgram(objective=np.ones(2), row_coeffs=np.ones((1, 2)),
                          row_bounds=np.ones(1), ids=np.asarray(ids))


def test_program_without_rounding_data_keeps_stage_one_picks():
    ctx = random_ctx(2, n=10, R=2.0, delta=2.0)
    built = build_capacity_lp(ctx, 0.4)
    bare = LinearProgram(objective=built.objective, row_coeffs=built.row_coeffs,
                         row_bounds=built.row_bounds, ids=built.ids)
    policy = RoundingPolicy(mode="capacity", C=0.4, trials=1, seed=5)
    ones = np.ones(ctx.n)
    assert sampled(bare, ones, policy, 0) == tuple(int(i) for i in ctx.ids)
    assert len(sampled(built, ones, policy, 0)) < ctx.n


def test_dump_format():
    text = dump_lp(lp([1.0, 2.0], [[0.25, 0.75]], [1.5], names=("row_a",)))
    assert "Maximize" in text
    assert "Subject To" in text
    assert "row_a:" in text
    assert "Bounds" in text
    assert text.endswith("End\n")


def _parse_dump(text, n):
    """Minimal reader for the dump format, standing in for external tools."""
    obj = np.zeros(n)
    rows, bounds = [], []
    section = None
    for line in text.splitlines():
        if line in ("Maximize", "Subject To", "Bounds", "End"):
            section = line
            continue
        body = line.strip()
        if section == "Maximize":
            for term in body.split(":", 1)[1].split(" + "):
                c, var = term.split()
                obj[int(var[1:])] = float(c)
        elif section == "Subject To":
            lhs, rhs = body.split("<=")
            row = np.zeros(n)
            for term in lhs.split(":", 1)[1].strip().split(" + "):
                c, var = term.split()
                row[int(var[1:])] = float(c)
            rows.append(row)
            bounds.append(float(rhs))
    return obj, np.array(rows), np.array(bounds)


def test_dump_round_trips_through_parser(rng):
    program = _random_program(rng, n=5, m=4)
    obj, rows, bounds = _parse_dump(dump_lp(program), program.n)
    assert np.array_equal(obj, program.objective)
    assert np.array_equal(rows, program.row_coeffs)
    assert np.array_equal(bounds, program.row_bounds)
    # the reconstructed program solves to the same optimum
    again = lp(obj, rows, bounds)
    assert solve_lp(again).objective == pytest.approx(solve_lp(program).objective)


def _linprog_objective(program):
    """The reference optimum, from scipy's linprog."""
    res = linprog(-program.objective, A_ub=program.row_coeffs, b_ub=program.row_bounds,
                  bounds=(0.0, 1.0), method="highs")
    assert res.success
    return float(program.objective @ res.x)


def test_session_matches_linprog(rng):
    for _ in range(10):
        program = _random_program(rng, n=int(rng.integers(2, 15)), m=int(rng.integers(1, 20)))
        assert solve_lp(program).objective == pytest.approx(
            _linprog_objective(program), abs=1e-9)
    # a five-bound sweep through one session, each solve against a cold linprog
    session = LpSession()
    obj, rows = rng.uniform(0, 2, 12), rng.uniform(0, 1, (16, 12))
    for scale in (0.6, 1.2, 1.8, 2.4, 3.0):
        program = lp(obj, rows, np.full(16, scale))
        sol = solve_lp(program, session)
        assert check_solution(program, sol.values)
        assert sol.objective == pytest.approx(_linprog_objective(program), abs=1e-9)


def test_bounds_change_resolves_warm_in_fewer_iterations():
    rng = np.random.default_rng(7)
    obj, rows = rng.uniform(0.5, 2, 60), rng.uniform(0, 1, (80, 60))
    session = LpSession()
    solve_lp(lp(obj, rows, np.full(80, 2.0)), session)
    assert not session.warm
    changed = lp(obj, rows, np.full(80, 2.0) * rng.uniform(1.0, 1.5, 80))
    warm = solve_lp(changed, session)
    cold_session = LpSession()
    cold = solve_lp(changed, cold_session)
    assert session.warm and not cold_session.warm
    assert 0 <= session.iterations < cold_session.iterations
    assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    np.testing.assert_allclose(warm.values, cold.values, atol=1e-9)
    # unchanged bounds: nothing to pivot
    again = solve_lp(changed, session)
    assert session.warm and session.iterations == 0
    assert np.array_equal(again.values, warm.values)


def test_changed_rows_or_objective_load_cold(rng):
    obj, rows, bounds = rng.uniform(0, 2, 10), rng.uniform(0, 1, (12, 10)), np.ones(12)
    others = (lp(obj, rows * rng.uniform(0.5, 1.5, rows.shape), bounds),   # other rows
              lp(obj[::-1].copy(), rows, bounds),                           # other objective
              lp(obj[:8], rows[:, :8], bounds))                             # fewer columns
    for other in others:
        session = LpSession()
        solve_lp(lp(obj, rows, bounds), session)
        sol = solve_lp(other, session)
        assert not session.warm
        fresh = solve_lp(other)
        assert sol.objective == fresh.objective
        assert np.array_equal(sol.values, fresh.values)


def test_non_optimal_status_raises(monkeypatch, rng):
    program = _random_program(rng)
    session = LpSession()
    solve_lp(program, session)
    monkeypatch.setattr(lp_core.highs._Highs, "getModelStatus",
                        lambda self: lp_core.highs.HighsModelStatus.kIterationLimit)
    with pytest.raises(LpSolveError, match="Iteration limit"):
        solve_lp(program, session)
    with pytest.raises(LpSolveError):
        solve_lp(program)
    monkeypatch.undo()
    # the failed run leaves no basis to reuse: the next solve loads cold
    sol = solve_lp(program, session)
    assert not session.warm
    assert sol.objective == pytest.approx(_linprog_objective(program), abs=1e-9)


def test_empty_programs_through_a_session(rng):
    session = LpSession()
    assert solve_lp(lp([], np.zeros((0, 0)), []), session).values.shape == (0,)
    sol = solve_lp(lp([1.0, 2.0], np.zeros((0, 2)), []), session)
    assert sol.objective == pytest.approx(3.0) and np.array_equal(sol.values, [1.0, 1.0])
    # empty programs leave the loaded model alone
    program = _random_program(rng)
    first = solve_lp(program, session)
    solve_lp(lp([1.0], np.zeros((0, 1)), []), session)
    assert solve_lp(program, session).objective == first.objective
    assert session.warm


class _HighsLpSession(LpSession):
    """The reference load path: the program built as a ``HighsLp`` from
    ``csc_array``'s arrays and passed as one object."""

    def _load(self, lp):
        a = csc_array(lp.row_coeffs)
        model = highs.HighsLp()
        model.num_col_, model.num_row_ = lp.n, lp.m
        model.col_cost_ = -lp.objective
        model.col_lower_, model.col_upper_ = np.zeros(lp.n), np.ones(lp.n)
        model.row_lower_, model.row_upper_ = np.full(lp.m, -np.inf), lp.row_bounds
        matrix = model.a_matrix_
        matrix.format_ = highs.MatrixFormat.kColwise
        matrix.num_col_, matrix.num_row_ = lp.n, lp.m
        matrix.start_, matrix.index_, matrix.value_ = a.indptr, a.indices, a.data
        return self._highs.passModel(model)


def _load_cases():
    rng = np.random.default_rng(3)
    rows = rng.uniform(0, 1, (6, 5)) * (rng.uniform(size=(6, 5)) < 0.6)
    zero_row, zero_col = rows.copy(), rows.copy()
    zero_row[2], zero_col[:, 3] = 0.0, 0.0
    obj, bounds = rng.uniform(0.5, 2, 5), rng.uniform(0.5, 2, 6)
    return {"sparse": lp(obj, rows, bounds),
            "zero-row": lp(obj, zero_row, bounds),
            "zero-column": lp(obj, zero_col, bounds),
            "one-row": lp(obj, rows[:1], bounds[:1]),
            "capacity": build_capacity_lp(random_ctx(4, n=12, R=4.0, delta=2.0), 1.0)}


@pytest.mark.parametrize("name", list(_load_cases()))
def test_cold_load_passes_the_program(name):
    program = _load_cases()[name]
    session = LpSession()
    solve_lp(program, session)
    model, a = session._highs.getLp(), csc_array(program.row_coeffs)
    assert (model.num_col_, model.num_row_) == (program.n, program.m)
    assert model.sense_ == highs.ObjSense.kMinimize and model.offset_ == 0.0
    assert np.array_equal(model.col_cost_, -program.objective)
    assert np.array_equal(model.col_lower_, np.zeros(program.n))
    assert np.array_equal(model.col_upper_, np.ones(program.n))
    assert np.array_equal(model.row_lower_, np.full(program.m, -np.inf))
    assert np.array_equal(model.row_upper_, program.row_bounds)
    assert all(v == highs.HighsVarType.kContinuous for v in model.integrality_)
    matrix = model.a_matrix_
    assert matrix.format_ == highs.MatrixFormat.kColwise
    assert np.array_equal(matrix.start_, a.indptr)
    assert np.array_equal(matrix.index_, a.indices)
    assert np.array_equal(matrix.value_, a.data)


def _builder_programs():
    ctx = random_ctx(6, n=16, R=5.0, delta=3.0, power=PowerAssignment.mean())
    prim = feasible_prim_ctx(8, n=16, R=6.0, delta=3.0, primaries=2)
    return {"capacity": build_capacity_lp(ctx, 1.0), "qos": build_qos_lp(ctx, 1.0),
            "weighted": build_weighted_lp(ctx, 1.0),
            "admission": build_admission_lp(prim, 1.0),
            "admission-large": build_admission_large_lp(prim, 1.0)}


@pytest.mark.parametrize("name", list(_builder_programs()))
def test_cold_solution_matches_the_highs_lp_load(name):
    program = _builder_programs()[name]
    assert program.m > 0 and program.n > 0
    sol, ref = solve_lp(program, LpSession()), solve_lp(program, _HighsLpSession())
    assert np.array_equal(sol.values, ref.values)
    assert sol.objective == ref.objective


def test_program_rows_and_objective_are_read_only():
    ctx = random_ctx(2, n=10, R=2.0, delta=2.0)
    program = build_capacity_lp(ctx, 0.4)
    assert ctx.ids.flags.writeable  # the program froze a copy of the context's ids
    for a in (program.row_coeffs, program.objective, program.ids):
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
    # an array the program owns is frozen in place; a view is copied first
    rows = np.ones((2, 3))
    view = np.ones((4, 3))[::2]
    assert lp(np.ones(3), rows, [1.0, 1.0]).row_coeffs is rows and not rows.flags.writeable
    copied = lp(np.ones(3), view, [1.0, 1.0]).row_coeffs
    assert copied is not view and view.flags.writeable and not copied.flags.writeable


def test_program_over_a_mutated_view_is_never_solved_warm(rng):
    base = rng.uniform(0, 1, (12, 10))
    obj, bounds, view = rng.uniform(0.5, 2, 10), np.ones(6), base[::2]
    session = LpSession()
    solve_lp(lp(obj, view, bounds), session)
    base *= 2.0  # the caller rewrites the rows behind the view
    stale = lp(obj, view, bounds)
    sol = solve_lp(stale, session)
    assert not session.warm
    fresh = solve_lp(lp(obj, view.copy(), bounds))
    assert sol.objective == fresh.objective and np.array_equal(sol.values, fresh.values)


def _strategy(session):
    return session._highs.getOptionValue("simplex_strategy")[1]


PRIMAL = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal)
DUAL = int(highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual)


def _seeded_programs(seed):
    """(name, program) of the five builders."""
    ctx = random_ctx(seed, n=24, R=5.0, delta=3.0, power=PowerAssignment.mean(),
                     weight_dist="weight_class")
    prim = feasible_prim_ctx(seed, n=24, R=6.0, delta=3.0, primaries=2)
    return [("capacity", build_capacity_lp(ctx, 1.0)),
            ("qos", build_qos_lp(ctx, 1.0)),
            ("weighted", build_weighted_lp(ctx, 1.0)),
            ("admission", build_admission_lp(prim, 1.0)),
            ("admission-large", build_admission_large_lp(prim, 1.0))]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_cold_primal_solve_matches_a_dual_simplex_reference(seed):
    for name, program in _seeded_programs(seed):
        assert program.m > 0 and program.n > 0, name  # the program reaches HiGHS
        session = LpSession()
        sol = solve_lp(program, session)
        assert not session.warm and _strategy(session) == PRIMAL, name
        ref = linprog(-program.objective, A_ub=program.row_coeffs, b_ub=program.row_bounds,
                      bounds=(0.0, 1.0), method="highs-ds")
        assert ref.success, name
        np.testing.assert_allclose(sol.values, ref.x, rtol=0, atol=1e-9, err_msg=name)
        policy = RoundingPolicy(mode="capacity", C=1.0, trials=25, seed=seed)
        for trial in range(25):
            assert sampled(program, sol.values, policy, trial) == \
                sampled(program, ref.x, policy, trial), (name, trial)


def test_warm_resolve_after_a_primal_load_is_dual():
    ctx = random_ctx(5, n=30, R=5.0, delta=3.0, power=PowerAssignment.mean())
    session, built = LpSession(), build_capacity_lp(ctx, 1.0)
    solve_lp(built, session)
    assert not session.warm and _strategy(session) == PRIMAL
    for C in (1.6, 0.6):
        program = built.at(C)
        warm = solve_lp(program, session)
        assert session.warm and _strategy(session) == DUAL
        cold_session = LpSession()
        cold = solve_lp(program, cold_session)
        assert not cold_session.warm and _strategy(cold_session) == PRIMAL
        np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-9)
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)
    # a program with other rows loads cold again, and runs the primal
    solve_lp(build_qos_lp(ctx, 1.0), session)
    assert not session.warm and _strategy(session) == PRIMAL
