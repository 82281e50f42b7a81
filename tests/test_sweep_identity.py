"""A constant sweep through one LpSession gives what cold solves give.

Each sweep below re-solves one model after changing only its row bounds.
The reference is a fresh build and a fresh session, so a cold load, for
every constant.
``sinrcap solve``, ``run_compare`` and ``sinrcap admit`` each sweep in one
``rounding.round_trials`` call, which makes the sweep's session; the
tests replace its session class.
"""

import math

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, LpSession, PowerAssignment,
                     RoundingPolicy, build_capacity_lp, build_weighted_lp,
                     generate_instance, run_compare, run_oracle_suite, solve_lp)
from sinrcap import cli, formulations, lp_core, rounding
from sinrcap.model import write_instance

from conftest import ColdSession, sampled

SWEEP = (0.6, 1.2, 1.8, 2.4)
TRIALS = 25

# (formulation, builder, rounding mode, power, instance config)
CASES = {
    "capacity": ("capacity", build_capacity_lp, "capacity", "mean",
                 GenConfig(n=120, R=math.sqrt(120 / 0.1), delta=8.0, seed=1)),
    "weighted": ("weighted", build_weighted_lp, "weighted", "linear",
                 GenConfig(n=100, R=math.sqrt(100 / 0.5), delta=2.0, seed=2)),
}


class RecordingSession(LpSession):
    """Records whether each solve was warm."""

    warm_flags = []

    def solve(self, lp):
        sol = super().solve(lp)
        self.warm_flags.append(self.warm)
        return sol


def _ctx(case):
    _, _, _, power, cfg = CASES[case]
    power = PowerAssignment.mean() if power == "mean" else PowerAssignment.linear()
    return AffectanceContext(generate_instance(cfg), power)


@pytest.mark.parametrize("case", sorted(CASES))
def test_session_sweep_matches_cold_solves(case):
    _, build, mode, _, _ = CASES[case]
    ctx = _ctx(case)
    session, built = LpSession(), build(ctx, SWEEP[0])
    for i, c in enumerate(SWEEP):
        lp = built.at(c)
        warm, cold = solve_lp(lp, session), solve_lp(build(ctx, c))
        assert session.warm == (i > 0)
        np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-9)
        assert warm.objective == pytest.approx(cold.objective, rel=0, abs=1e-9)
        policy = RoundingPolicy(mode=mode, C=c, trials=TRIALS, seed=11)
        for trial in range(TRIALS):
            assert sampled(lp, warm.values, policy, trial) == \
                sampled(lp, cold.values, policy, trial)


def _assert_warm_matches_cold(monkeypatch, run, lp_sweeps=1):
    """``run()`` solves ``lp_sweeps`` LP sweeps, each one cold solve and
    then warm ones, and returns what it returns with cold sessions."""
    RecordingSession.warm_flags = []
    monkeypatch.setattr(rounding, "LpSession", RecordingSession)
    warm = run()
    assert RecordingSession.warm_flags == \
        ([False] + [True] * (len(SWEEP) - 1)) * lp_sweeps
    monkeypatch.setattr(rounding, "LpSession", ColdSession)
    assert warm == run()


def _cli_output(tmp_path, argv):
    out = tmp_path / "out.json"
    assert cli.main([*argv, "--trials", str(TRIALS), "--sweep", ",".join(map(str, SWEEP)),
                     "--seed", "5", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_solve_output_matches_cold_solves(case, tmp_path, monkeypatch):
    formulation, _, _, power, cfg = CASES[case]
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(cfg), inst_path)
    argv = ["solve", str(inst_path), "--algo", "lp", "--formulation", formulation,
            "--power", power]
    _assert_warm_matches_cold(monkeypatch, lambda: _cli_output(tmp_path, argv))


@pytest.mark.parametrize("method", ["general", "large"])
def test_cli_admit_output_matches_cold_solves(method, tmp_path, monkeypatch):
    inst_path = tmp_path / "prim.json"
    write_instance(generate_instance(GenConfig(n=80, R=math.sqrt(80 / 0.1), delta=8.0,
                                               seed=1, primaries=2)), inst_path)
    argv = ["admit", str(inst_path), "--method", method, "--power", "uniform"]
    _assert_warm_matches_cold(monkeypatch, lambda: _cli_output(tmp_path, argv))


def test_run_compare_csv_matches_cold_solves(tmp_path, monkeypatch):
    configs = [CASES["weighted"][4], GenConfig(n=60, R=8.0, delta=4.0, seed=3)]
    out = tmp_path / "compare.csv"

    def run():
        run_compare(configs, SWEEP, TRIALS, out)
        return out.read_bytes()

    # one LP sweep per instance; the greedy sweeps solve nothing
    _assert_warm_matches_cold(monkeypatch, run, lp_sweeps=len(configs))


def test_oracle_suite_rows_match_cold_solves(monkeypatch):
    configs = [GenConfig(n=8, R=4.0 + 2.0 * (s % 3), delta=4.0, seed=s) for s in range(6)]
    report = run_oracle_suite(configs, trials=20)
    monkeypatch.setattr(rounding, "LpSession", ColdSession)
    monkeypatch.setattr(lp_core, "LpSession", ColdSession)
    assert run_oracle_suite(configs, trials=20)["rows"] == report["rows"]


def test_cli_solve_sweep_builds_its_program_once(tmp_path, monkeypatch):
    formulation, build, _, power, cfg = CASES["capacity"]
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(cfg), inst_path)
    calls = []

    def counted(ctx, C):
        calls.append(C)
        return build(ctx, C)

    # the CLI looks the builder up in its module on every sweep
    monkeypatch.setattr(formulations, "build_capacity_lp", counted)
    RecordingSession.warm_flags = []
    monkeypatch.setattr(rounding, "LpSession", RecordingSession)
    out = tmp_path / "out.json"
    sweep = (0.6, 1.2, 1.8, 2.4, 3.0)
    assert cli.main(["solve", str(inst_path), "--algo", "lp", "--formulation", formulation,
                     "--power", power, "--trials", "5", "--sweep", ",".join(map(str, sweep)),
                     "--out", str(out)]) == 0
    assert calls == [sweep[0]]
    assert RecordingSession.warm_flags == [False, True, True, True, True]
