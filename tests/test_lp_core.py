import numpy as np
import pytest

from sinrcap import (LinearProgram, RoundingPolicy, build_capacity_lp,
                     check_solution, dump_lp, sample_round, solve_lp)

from conftest import random_ctx


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


def test_program_without_rounding_data_keeps_stage_one_picks():
    ctx = random_ctx(2, n=10, R=2.0, delta=2.0)
    built = build_capacity_lp(ctx, 0.4)
    bare = LinearProgram(objective=built.objective, row_coeffs=built.row_coeffs,
                         row_bounds=built.row_bounds)
    policy = RoundingPolicy(mode="capacity", C=0.4, trials=1, seed=5)
    ones = np.ones(ctx.n)
    assert sample_round(ctx, bare, ones, policy, 0) == tuple(int(i) for i in ctx.ids)
    assert len(sample_round(ctx, built, ones, policy, 0)) < ctx.n


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
