import csv
import json
import math
import warnings

import pytest

from sinrcap import (AffectanceContext, GenConfig, PowerAssignment, certify,
                     check_feasibility, generate_instance, run_compare,
                     run_oracle_suite, verify_admission)
from sinrcap import cli
from sinrcap.cli import main as cli_main
from sinrcap.harness import CSV_COLUMNS, best_over_sweep, verify_output
from sinrcap.model import read_instance, write_instance


def test_generator_deterministic():
    cfg = GenConfig(n=12, R=5.0, delta=3.0, seed=42)
    a = generate_instance(cfg)
    b = generate_instance(cfg)
    assert [lk.sender for lk in a.links] == [lk.sender for lk in b.links]
    assert [lk.weight for lk in a.links] == [lk.weight for lk in b.links]


def test_generator_bounds():
    cfg = GenConfig(n=50, R=7.0, delta=4.0, seed=3)
    inst = generate_instance(cfg)
    for lk in inst.links:
        assert 0.0 <= lk.sender.x <= 7.0 and 0.0 <= lk.sender.y <= 7.0
        assert 1.0 <= inst.length_of(lk.id) <= 4.0
        assert 1.0 <= lk.weight <= 50.0


def test_generator_weight_distributions():
    n = 32
    rev = generate_instance(GenConfig(n=n, R=5.0, delta=2.0, seed=1,
                                      weight_dist="reversed"))
    assert all(1.0 / n < lk.weight <= 1.0 for lk in rev.links)
    length = generate_instance(GenConfig(n=n, R=5.0, delta=2.0, seed=1,
                                         weight_dist="length_determined"))
    for lk in length.links:
        assert lk.weight == pytest.approx(length.length_of(lk.id))
    wc = generate_instance(GenConfig(n=n, R=5.0, delta=2.0, seed=1,
                                     weight_dist="weight_class"))
    exponents = {math.log2(lk.weight) for lk in wc.links}
    assert all(e == int(e) and 1 <= e <= math.ceil(math.log2(n)) for e in exponents)


def test_generator_primaries():
    cfg = GenConfig(n=6, R=8.0, delta=2.0, seed=5, primaries=2, primary_power=1.5)
    inst = generate_instance(cfg)
    assert len(inst.primaries) == 2
    assert inst.primaries.powers == (1.5, 1.5)
    ids = {lk.id for lk in inst.links} | {lk.id for lk in inst.primaries.links}
    assert len(ids) == 8


def _small_configs():
    return [GenConfig(n=12, R=4.0, delta=2.0, seed=s) for s in (0, 1)]


def test_run_compare_csv(tmp_path):
    out = tmp_path / "cmp.csv"
    records = run_compare(_small_configs(), sweep=[0.5, 1.0], trials=10, out_path=out)
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    body = rows[1:]
    assert len(body) == len(records) == 2 * 5  # 4 algorithms + ratio per instance
    algo_col = CSV_COLUMNS.index("algo")
    feas_col = CSV_COLUMNS.index("feasible")
    ratio_col = CSV_COLUMNS.index("ratio")
    for row in body:
        if row[algo_col] == "ratio":
            assert row[ratio_col] != ""
        else:
            assert row[feas_col] == "true"
    lp_rows = [r for r in body if r[algo_col] == "lp"]
    assert len(lp_rows) == 2


def test_run_compare_trivial_instance_ratio_one(tmp_path):
    # two far-apart links: every algorithm finds the unique optimum
    cfg = GenConfig(n=2, R=1000.0, delta=1.0, seed=5)
    records = run_compare([cfg], sweep=[1.0], trials=5,
                          out_path=tmp_path / "t.csv")
    ratio_rows = [r for r in records if r.algo == "ratio"]
    assert ratio_rows[0].value == pytest.approx(1.0)


def test_run_compare_rejects_empty_sweep(tmp_path):
    with pytest.raises(ValueError):
        run_compare(_small_configs(), sweep=[], trials=5, out_path=tmp_path / "x.csv")


def test_run_compare_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_compare(_small_configs(), sweep=[0.6, 1.2], trials=8, out_path=a)
    run_compare(_small_configs(), sweep=[0.6, 1.2], trials=8, out_path=b)
    assert a.read_bytes() == b.read_bytes()


def test_run_oracle_suite():
    configs = [GenConfig(n=8, R=4.0, delta=2.0, seed=s) for s in range(3)]
    report = run_oracle_suite(configs, trials=20)
    assert report["all_ok"]
    for row in report["rows"]:
        assert row["ALG"] <= row["OPT"]
        assert row["LP*"] >= row["W2"] - 1e-6
    again = run_oracle_suite(configs, trials=20)
    assert again["rows"] == report["rows"]


@pytest.mark.parametrize("beta", ["1.0", "0.5"])
def test_cli_gen_solve_oracle(tmp_path, beta):
    inst_path = tmp_path / "inst.json"
    assert cli_main(["gen", "--n", "9", "--side", "5", "--delta", "2",
                     "--seed", "4", "--beta", beta, "--out", str(inst_path)]) == 0
    inst = read_instance(inst_path)
    assert inst.n == 9

    out = tmp_path / "sol.json"
    rc = cli_main(["solve", str(inst_path), "--algo", "lp", "--formulation",
                   "capacity", "--trials", "10", "--sweep", "1.0",
                   "--out", str(out)])
    assert rc == 0
    sol = json.loads(out.read_text())
    assert sol["verified"]

    rc = cli_main(["oracle", str(inst_path), "--out", str(tmp_path / "opt.json")])
    assert rc == 0
    opt = json.loads((tmp_path / "opt.json").read_text())
    assert opt["verified"]
    assert sol["value"] <= opt["size"]

    rc = cli_main(["solve", str(inst_path), "--algo", "greedy",
                   "--sweep", "0.5,1.0", "--out", str(out)])
    assert rc == 0


@pytest.mark.parametrize("flags,oracle_fn", [
    (["--mode", "exact"], "exact_capacity"),
    (["--mode", "affectance"], "exact_capacity"),
    (["--admission"], "exact_admission"),
])
def test_cli_oracle_fails_on_infeasible_optimum(tmp_path, monkeypatch, flags, oracle_fn):
    # every link of a dense instance at once, certified, stands in for a
    # wrong optimum; the subcommand's own re-check must reject it
    inst = generate_instance(GenConfig(n=8, R=2.0, delta=2.0, seed=5, primaries=1))
    inst_path = tmp_path / "dense.json"
    write_instance(inst, inst_path)
    plain = AffectanceContext(inst, PowerAssignment.uniform())
    assert not verify_output(plain, plain.ids)
    assert not check_feasibility(plain, plain.ids, 1.0, "feasible")
    joint = AffectanceContext(inst, PowerAssignment.uniform(), primaries=inst.primaries)
    assert not verify_admission(joint, joint.ids)
    monkeypatch.setattr(cli, oracle_fn, lambda ctx, *args, **kwargs: certify(ctx, ctx.ids))
    out = tmp_path / "opt.json"
    assert cli_main(["oracle", str(inst_path), *flags, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["verified"] is False


def test_best_over_sweep_ignores_float_noise():
    runs = [(1.0, 5.0, "a"), (2.0, 5.0 + 5e-13, "b"), (3.0, 5.0 + 2e-12, "c")]
    by_constant = {c: (value, result) for c, value, result in runs}

    def run(c, session):
        return by_constant[c]

    assert best_over_sweep([1.0, 2.0], run) == runs[0]
    assert best_over_sweep([1.0, 2.0, 3.0], run) == runs[2]


@pytest.mark.parametrize("command", ["solve", "admit", "compare"])
@pytest.mark.parametrize("constant", ["inf", "0", "-1", "nan"])
def test_cli_rejects_constants_that_are_not_finite_and_positive(command, constant,
                                                                 tmp_path):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4,
                                               primaries=1)), inst_path)
    args = {"solve": ["solve", str(inst_path), "--algo", "greedy"],
            "admit": ["admit", str(inst_path)],
            "compare": ["compare", "--n", "6", "--deltas", "2", "--sides", "6"]}[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit):
        cli_main([*args, "--trials", "2", "--sweep", f"1.0,{constant}", "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["compare", "--sides", "0"], "--sides"),
    (["compare", "--sides", "a"], "--sides"),
    (["compare", "--deltas", "2,inf"], "--deltas"),
    (["compare", "--n", "-3"], "--n"),
    (["gen", "--n", "0", "--side", "6", "--delta", "2"], "--n"),
    (["gen", "--n", "2.5", "--side", "6", "--delta", "2"], "--n"),
    (["solve", "INSTANCE", "--algo", "lp", "--trials", "0"], "--trials"),
    (["suite", "--count", "0"], "--count"),
    (["solve", "INSTANCE", "--algo", "lp", "--power", "foo"], "--power"),
    (["admit", "INSTANCE", "--power", "exp:2"], "--power"),
    (["oracle", "INSTANCE", "--power", "uniform:x"], "--power"),
    (["compare", "--power", "quadratic"], "--power"),
    (["solve", "INSTANCE", "--algo", "lp", "--power", "uniform:inf"], "--power"),
], ids=["sides-0", "sides-a", "deltas-inf", "compare-n", "gen-n-0", "gen-n-float",
        "solve-trials-0", "suite-count-0", "solve-power-foo", "admit-power-exp-2",
        "oracle-power-uniform-x", "compare-power-quadratic", "solve-power-uniform-inf"])
def test_cli_rejects_bad_numeric_flags(args, flag, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4)), inst_path)
    out = tmp_path / "out"
    args = [str(inst_path) if a == "INSTANCE" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        cli_main([*args, "--out", str(out)])
    assert exc.value.code == 2  # a usage error, not a traceback
    assert f"argument {flag}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["gen", "--n", "5", "--side", "6", "--delta", "2"], ["--trials", "3"]),
    (["gen", "--n", "5", "--side", "6", "--delta", "2"], ["--power", "linear"]),
    (["gen", "--n", "5", "--side", "6", "--delta", "2"], ["--sweep", "9"]),
    (["oracle", "INSTANCE"], ["--seed", "3"]),
    (["oracle", "INSTANCE"], ["--trials", "3"]),
    (["oracle", "INSTANCE"], ["--sweep", "9"]),
    (["suite", "--n", "6", "--count", "1"], ["--power", "linear"]),
    (["suite", "--n", "6", "--count", "1"], ["--sweep", "9"]),
    (["suite", "--n", "6", "--count", "1"], ["--out", "OUT"]),
], ids=["gen-trials", "gen-power", "gen-sweep", "oracle-seed", "oracle-trials",
        "oracle-sweep", "suite-power", "suite-sweep", "suite-out"])
def test_cli_rejects_flags_its_subcommand_ignores(args, flag, tmp_path, capsys):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4)), inst_path)
    out = tmp_path / "out"
    sub = {"INSTANCE": str(inst_path), "OUT": str(out)}
    argv = [sub.get(a, a) for a in args + flag]
    if args[0] != "suite":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not out.exists()


GEN = ["gen", "--n", "5", "--side", "6", "--delta", "2"]


@pytest.mark.parametrize("args,bad", [
    (GEN + ["--side", "0"], "0.0"),
    (GEN + ["--side", "nan"], "nan"),
    (GEN + ["--side", "inf"], "inf"),
    (GEN + ["--delta", "0.5"], "0.5"),
    (GEN + ["--alpha", "0"], "alpha must be positive, got 0.0"),
    (GEN + ["--beta", "0"], "beta must be positive, got 0.0"),
    (GEN + ["--noise", "-1"], "noise must be nonnegative, got -1.0"),
    (GEN + ["--alpha", "inf"], "alpha must be finite, got inf"),
    (GEN + ["--beta", "inf"], "beta must be finite, got inf"),
    (GEN + ["--noise", "inf"], "noise must be finite, got inf"),
    (GEN + ["--primaries", "1", "--primary-power", "inf"], "not JSON compliant"),
    (GEN + ["--primaries", "2", "--primary-power", "0"], "power must be positive, got 0.0"),
    (GEN + ["--primaries", "-1"], "primaries must be nonnegative, got -1"),
    (["compare", "--n", "5", "--deltas", "0.5", "--sides", "6"], "0.5"),
    (["oracle", "BIG"], "21 links"),
    (["suite", "--n", "21", "--count", "1"], "21 links"),
    (["admit", "BIG"], "big.json has no primaries"),
    (["oracle", "BIG", "--admission"], "big.json has no primaries"),
    (["oracle", "PRIM", "--admission", "--objective", "weight"], "--objective weight"),
    (["oracle", "PRIM", "--admission", "--mode", "affectance"], "--mode affectance"),
], ids=["side-0", "side-nan", "side-inf", "delta-0.5", "alpha-0", "beta-0", "noise-neg",
        "alpha-inf", "beta-inf", "noise-inf", "primary-power-inf", "primary-power-0",
        "primaries-neg", "compare-delta", "oracle-21", "suite-21", "admit-no-primaries",
        "oracle-admission-no-primaries", "oracle-admission-weight",
        "oracle-admission-affectance"])
def test_cli_reports_rejected_input_in_one_line(args, bad, tmp_path, capsys):
    paths = {"BIG": tmp_path / "big.json", "PRIM": tmp_path / "prim.json"}
    write_instance(generate_instance(GenConfig(n=21, R=9.0, delta=2.0, seed=4)), paths["BIG"])
    # the admission optimum of this instance is (3,): a run would succeed
    write_instance(generate_instance(GenConfig(n=12, R=6.0, delta=2.0, seed=3, primaries=2)),
                   paths["PRIM"])
    out = tmp_path / "out"
    argv = [str(paths.get(a, a)) for a in args]
    if args[0] != "suite":
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sinrcap {args[0]}: error: ") and err.count("\n") == 1
    assert bad in err
    assert not out.exists()


@pytest.mark.parametrize("args", [GEN, ["compare", "--n", "5", "--deltas", "2", "--sides", "6"]],
                         ids=["gen", "compare"])
def test_cli_requires_out_where_the_file_is_the_output(args, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli_main(args)
    assert exc.value.code == 2
    assert "the following arguments are required: --out" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["solve", "--algo", "lp"], ["admit"], ["oracle"]],
                         ids=["solve", "admit", "oracle"])
@pytest.mark.parametrize("case,bad", [
    ("missing", "No such file or directory"),
    ("not-json", "parse error at line 1"),
    ("negative-id", "link id must be nonnegative, got -1"),
    ("not-object", "instance: expected an object, got int"),
    ("link-not-object", "link #0: expected an object, got int"),
])
def test_cli_reports_unreadable_instance_in_one_line(command, case, bad, tmp_path, capsys):
    path = tmp_path / "inst.json"
    if case == "not-json":
        path.write_text("{")
    elif case == "not-object":
        path.write_text("5")
    elif case == "link-not-object":
        path.write_text('{"alpha": 2.5, "links": [5]}')
    elif case == "negative-id":
        write_instance(generate_instance(GenConfig(n=3, R=6.0, delta=2.0, seed=4)), path)
        d = json.loads(path.read_text())
        d["links"][0]["id"] = -1
        path.write_text(json.dumps(d))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main([command[0], str(path), *command[1:], "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sinrcap {command[0]}: error: ") and err.count("\n") == 1
    assert bad in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["admit"], ["oracle", "--admission"]],
                         ids=["admit", "oracle-admission"])
def test_cli_reports_infeasible_primaries_in_one_line(command, tmp_path, capsys):
    # each primary's sender sits 0.1 from the other primary's receiver
    unit = {"sy": 0.0, "ry": 0.0, "power": 1.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "alpha": 2.5, "links": [{"id": 0, "sx": 50.0, "sy": 0.0, "rx": 51.0, "ry": 0.0}],
        "primaries": [{"id": 1, "sx": 0.0, "rx": 1.0, **unit},
                      {"id": 2, "sx": 1.1, "rx": -0.1, **unit}]}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main([command[0], str(path), *command[1:], "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sinrcap {command[0]}: error: ") and err.count("\n") == 1
    assert "cannot satisfy their own SINR" in err
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve", "--algo", "lp"], ["solve", "--algo", "greedy"],
                                     ["admit"], ["oracle"], ["oracle", "--admission"]],
                         ids=["solve-lp", "solve-greedy", "admit", "oracle", "oracle-admission"])
@pytest.mark.parametrize("length", [1e-200, 1e200], ids=["underflow", "overflow"])
def test_cli_reports_power_out_of_range_in_one_line(command, length, tmp_path, capsys):
    # under linear power (l**alpha) link 0's power is 0 or overflows to inf
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "alpha": 2.5,
        "links": [{"id": 0, "sx": 0.0, "sy": 0.0, "rx": length, "ry": 0.0},
                  {"id": 1, "sx": 5.0, "sy": 0.0, "rx": 6.0, "ry": 0.0}],
        "primaries": [{"id": 2, "sx": 50.0, "sy": 0.0, "rx": 51.0, "ry": 0.0,
                       "power": 1.0}]}))
    out = tmp_path / "out"
    argv = [command[0], str(path), *command[1:], "--power", "linear", "--out", str(out)]
    with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")  # the refusal is the only report
        cli_main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"sinrcap {command[0]}: error: ") and err.count("\n") == 1
    assert "nonpositive or non-finite power" in err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["lp", "greedy"])
def test_cli_solves_an_instance_at_the_float_order_boundary(algo, tmp_path, capsys):
    # links 2, 1 and 0 put affectance of about 0.7, 0.2 and 0.1 on link 3,
    # found by a search in ulp steps: summed in one order the three stay
    # within 1, summed in another they exceed it
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "noise": 0.0, "links": [
        {"id": 0, "sx": 100.0, "sy": 1000.0000000000001, "rx": 100.0, "ry": 1001.0000000000001},
        {"id": 1, "sx": 100.0, "sy": -500.0000000000005, "rx": 100.0, "ry": -502.0000000000005},
        {"id": 2, "sx": 100.0, "sy": 142.85714285714278, "rx": 100.0, "ry": 145.85714285714278},
        {"id": 3, "sx": 0.0, "sy": 0.0, "rx": 100.0, "ry": 0.0}]}))
    assert cli_main(["solve", str(path), "--algo", algo, "--power", "uniform"]) == 0
    best = json.loads(capsys.readouterr().out)
    assert best["ids"] == [0, 1, 2] and best["verified"] is True


def test_cli_solve_keeps_smaller_constant_over_float_noise(tmp_path, monkeypatch):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=10, R=6.0, delta=2.0, seed=3)), inst_path)
    values = iter([4.0, 4.0 + 5e-13])  # the two constants' weights, 5e-13 apart
    monkeypatch.setattr(cli, "_schedule_objective", lambda ctx, ids, mode: next(values))
    out = tmp_path / "sol.json"
    assert cli_main(["solve", str(inst_path), "--algo", "lp", "--formulation", "weighted",
                     "--power", "linear", "--trials", "5", "--sweep", "1.0,2.0",
                     "--out", str(out)]) == 0
    best = json.loads(out.read_text())
    assert (best["constant"], best["value"]) == (1.0, 4.0)


def test_cli_admit_and_suite(tmp_path):
    inst_path = tmp_path / "prim.json"
    assert cli_main(["gen", "--n", "8", "--side", "8", "--delta", "2",
                     "--seed", "21", "--primaries", "1",
                     "--out", str(inst_path)]) == 0
    out = tmp_path / "admit.json"
    rc = cli_main(["admit", str(inst_path), "--method", "general",
                   "--trials", "10", "--sweep", "1.0", "--out", str(out)])
    assert rc == 0
    res = json.loads(out.read_text())
    assert res["verified"]

    rc = cli_main(["oracle", str(inst_path), "--admission",
                   "--out", str(tmp_path / "aopt.json")])
    assert rc == 0
    aopt = json.loads((tmp_path / "aopt.json").read_text())
    assert res["value"] <= aopt["size"]

    assert cli_main(["suite", "--count", "2", "--n", "6", "--trials", "10"]) == 0


def test_cli_compare(tmp_path):
    out = tmp_path / "cmp.csv"
    rc = cli_main(["compare", "--n", "20", "--deltas", "2", "--sides", "6,12",
                   "--sweep", "0.5,1.0", "--trials", "5", "--seed", "2",
                   "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == ",".join(CSV_COLUMNS)
    assert len(rows) == 1 + 2 * 5


def test_run_compare_timing_flag(tmp_path):
    out = tmp_path / "timed.csv"
    records = run_compare(_small_configs()[:1], sweep=[1.0], trials=5,
                          out_path=out, timing=True)
    lp_rows = [r for r in records if r.algo == "lp"]
    assert lp_rows and lp_rows[0].runtime_ms is not None
    assert lp_rows[0].runtime_ms > 0
    # without the flag the runtime column stays empty (determinism contract)
    plain = run_compare(_small_configs()[:1], sweep=[1.0], trials=5,
                        out_path=tmp_path / "plain.csv")
    assert all(r.runtime_ms is None for r in plain)


def test_io_roundtrip_generated(tmp_path):
    inst = generate_instance(GenConfig(n=7, R=4.0, delta=2.0, seed=9, primaries=1))
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    write_instance(inst, p1)
    write_instance(read_instance(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
