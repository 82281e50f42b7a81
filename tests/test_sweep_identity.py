"""A constant sweep through one LpSession gives what cold solves give.

Each sweep below re-solves one model after changing only its row bounds.
The reference is a fresh session, so a cold load, for every constant.
"""

import math

import numpy as np
import pytest

from sinrcap import (AffectanceContext, GenConfig, LpSession, PowerAssignment,
                     RoundingPolicy, build_capacity_lp, build_weighted_lp,
                     generate_instance, run_oracle_suite, sample_round, solve_lp)
from sinrcap import cli, harness
from sinrcap.model import write_instance

SWEEP = (0.6, 1.2, 1.8, 2.4)
TRIALS = 25

# (formulation, builder, rounding mode, power, instance config)
CASES = {
    "capacity": ("capacity", build_capacity_lp, "capacity", "mean",
                 GenConfig(n=120, R=math.sqrt(120 / 0.1), delta=8.0, seed=1)),
    "weighted": ("weighted", build_weighted_lp, "weighted", "linear",
                 GenConfig(n=100, R=math.sqrt(100 / 0.5), delta=2.0, seed=2)),
}


class ColdSession(LpSession):
    """Loads every program cold, as solving without a session did."""

    def solve(self, lp):
        return LpSession().solve(lp)


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
    session = LpSession()
    for i, c in enumerate(SWEEP):
        lp = build(ctx, c)
        warm, cold = solve_lp(lp, session), solve_lp(lp)
        assert session.warm == (i > 0)
        np.testing.assert_allclose(warm.values, cold.values, rtol=0, atol=1e-9)
        assert warm.objective == pytest.approx(cold.objective, rel=0, abs=1e-9)
        policy = RoundingPolicy(mode=mode, C=c, trials=TRIALS, seed=11)
        for trial in range(TRIALS):
            assert sample_round(ctx, lp, warm.values, policy, trial) == \
                sample_round(ctx, lp, cold.values, policy, trial)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_solve_output_matches_cold_solves(case, tmp_path, monkeypatch):
    formulation, _, _, power, cfg = CASES[case]
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(cfg), inst_path)

    def solve(out, session_cls):
        monkeypatch.setattr(cli, "LpSession", session_cls)
        assert cli.main(["solve", str(inst_path), "--algo", "lp", "--formulation",
                         formulation, "--power", power, "--trials", str(TRIALS),
                         "--sweep", ",".join(map(str, SWEEP)), "--seed", "5",
                         "--out", str(out)]) == 0
        return out.read_bytes()

    RecordingSession.warm_flags = []
    warm = solve(tmp_path / "warm.json", RecordingSession)
    assert RecordingSession.warm_flags == [False] + [True] * (len(SWEEP) - 1)
    assert warm == solve(tmp_path / "cold.json", ColdSession)


def test_oracle_suite_rows_match_cold_solves(monkeypatch):
    configs = [GenConfig(n=8, R=4.0 + 2.0 * (s % 3), delta=4.0, seed=s) for s in range(6)]
    report = run_oracle_suite(configs, trials=20)
    monkeypatch.setattr(harness, "LpSession", ColdSession)
    assert run_oracle_suite(configs, trials=20)["rows"] == report["rows"]
