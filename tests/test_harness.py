import csv
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from sinrcap import (AffectanceContext, DistanceMatrix, GenConfig, PowerAssignment, certify,
                     exact_capacity, generate_instance, run_compare, run_oracle_suite, verify)
from sinrcap import cli
from sinrcap.affectance import check_positions
from sinrcap.cli import main as cli_main
from sinrcap.formulations import PROBLEMS
from sinrcap.harness import CSV_COLUMNS, sweep_best
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
    # the header is pinned here, so renaming a record field cannot change it silently
    assert rows[0] == list(CSV_COLUMNS) == [
        "seed", "n", "R", "delta", "density", "weight_dist", "algo", "constant", "value",
        "feasible", "runtime_ms", "ratio"]
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


def test_explicit_metric_instance_matches_its_plane_and_verifies(tmp_path):
    # the generated instance again, its points' own distances as the metric
    plane = generate_instance(GenConfig(n=12, R=5.0, delta=3.0, seed=4))
    points = np.array([(p.x, p.y) for lk in plane.links for p in (lk.sender, lk.receiver)])
    gaps = points[:, None, :] - points[None, :, :]
    metric = DistanceMatrix(np.hypot(gaps[..., 0], gaps[..., 1]))
    inst = dataclasses.replace(plane, metric=metric)
    power = PowerAssignment.mean()
    ctx, want = AffectanceContext(inst, power), AffectanceContext(plane, power)
    # lengths: math.hypot in the plane, the matrix's np.hypot here
    assert np.array_equal(ctx.ids, want.ids) and ctx.removed_ids == want.removed_ids
    np.testing.assert_allclose(ctx.raw, want.raw, rtol=1e-12, atol=0)
    np.testing.assert_allclose(ctx.table, want.table, rtol=1e-12, atol=0)

    opt = exact_capacity(ctx)
    assert opt.size > 1 and verify(ctx, opt) and certify(ctx, opt.ids) == opt
    path, out = tmp_path / "metric.json", tmp_path / "sol.json"
    write_instance(inst, path)
    assert cli_main(["solve", str(path), "--algo", "lp", "--power", "mean", "--trials", "10",
                     "--sweep", "1.0", "--out", str(out)]) == 0
    sol = json.loads(out.read_text())
    assert sol["verified"] and certify(ctx, sol["ids"]).exact_sinr_ok


@pytest.mark.parametrize("mode", PROBLEMS)
def test_cli_runs_and_verifies_every_problem_of_the_table(mode, tmp_path, capsys):
    # 12 links, 2 primaries: small enough for the oracle, and both
    # admission pipelines admit a link
    path = tmp_path / "prim.json"
    write_instance(generate_instance(GenConfig(n=12, R=6.0, delta=2.0, seed=3, primaries=2)),
                   path)
    problem = PROBLEMS[mode]
    run = (["admit", str(path), "--method", mode.removeprefix("admission_")]
           if problem.primaries else ["solve", str(path), "--algo", "lp", "--formulation", mode])
    assert cli_main([*run, "--trials", "10", "--sweep", "0.5,1.0"]) == 0
    found = json.loads(capsys.readouterr().out)
    assert cli_main(["oracle", str(path), "--problem", problem.name]) == 0
    opt = json.loads(capsys.readouterr().out)
    assert found["verified"] is True and opt["verified"] is True
    assert found["value"] <= opt["weight" if problem.objective == "weight" else "size"]


@pytest.mark.parametrize("problem", ["capacity", "weighted", "admission"])
def test_cli_oracle_fails_on_infeasible_optimum(tmp_path, monkeypatch, problem):
    # every link of a dense instance at once, certified, stands in for a
    # wrong optimum; the subcommand's own re-check must reject it
    inst = generate_instance(GenConfig(n=8, R=2.0, delta=2.0, seed=5, primaries=1))
    inst_path = tmp_path / "dense.json"
    write_instance(inst, inst_path)
    plain = AffectanceContext(inst, PowerAssignment.uniform())
    assert not verify(plain, plain.ids)
    assert not check_positions(plain, plain.index_of(plain.ids))
    joint = AffectanceContext(inst, PowerAssignment.uniform(), primaries=inst.primaries)
    assert not verify(joint, joint.ids)
    assert not certify(joint, joint.ids).exact_sinr_ok
    monkeypatch.setattr(cli, "exact_capacity", lambda ctx, *args, **kwargs: certify(ctx, ctx.ids))
    out = tmp_path / "opt.json"
    assert cli_main(["oracle", str(inst_path), "--problem", problem, "--out", str(out)]) == 1
    assert json.loads(out.read_text())["verified"] is False


def test_sweep_best_ignores_float_noise():
    runs = [(1.0, 5.0, "a"), (2.0, 5.0 + 5e-13, "b"), (3.0, 5.0 + 2e-12, "c")]
    results = [(value, result) for _, value, result in runs]
    assert sweep_best([1.0, 2.0], results[:2]) == runs[0]
    assert sweep_best([1.0, 2.0, 3.0], results) == runs[2]


# The refusal tables below are the one list of the inputs the CLI refuses.
# Each row checks what a real process shows: exit status 2, the message, no
# output file, and nothing else on stderr.


def refusal(argv, capsys, caplog):
    """The stderr of a CLI run that must refuse ``argv`` with exit status 2.
    A warning or a log record, which a real process prints too, fails it."""
    with pytest.raises(SystemExit) as exc, warnings.catch_warnings():
        warnings.simplefilter("error")
        cli_main(argv)
    assert exc.value.code == 2  # a usage error or a refused input, not a traceback
    assert not caplog.records
    return capsys.readouterr().err


def one_line_refusal(argv, capsys, caplog):
    """``refusal`` of an input the library refuses: one error line, no usage."""
    err = refusal(argv, capsys, caplog)
    assert err.startswith(f"sinrcap {argv[0]}: error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command", ["solve", "admit", "compare"])
@pytest.mark.parametrize("constant", ["inf", "0", "-1", "nan"])
def test_cli_rejects_constants_that_are_not_finite_and_positive(command, constant,
                                                                 tmp_path, capsys, caplog):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4,
                                               primaries=1)), inst_path)
    args = {"solve": ["solve", str(inst_path), "--algo", "greedy"],
            "admit": ["admit", str(inst_path)],
            "compare": ["compare", "--n", "6", "--deltas", "2", "--sides", "6"]}[command]
    out = tmp_path / "out"
    err = refusal([*args, "--trials", "2", "--sweep", f"1.0,{constant}", "--out", str(out)],
                  capsys, caplog)
    assert "argument --sweep" in err
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
    (["oracle", "INSTANCE", "--problem", "foo"], "--problem"),
], ids=["sides-0", "sides-a", "deltas-inf", "compare-n", "gen-n-0", "gen-n-float",
        "solve-trials-0", "suite-count-0", "solve-power-foo", "admit-power-exp-2",
        "oracle-power-uniform-x", "compare-power-quadratic", "solve-power-uniform-inf",
        "oracle-problem-foo"])
def test_cli_rejects_bad_numeric_flags(args, flag, tmp_path, capsys, caplog):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4)), inst_path)
    out = tmp_path / "out"
    args = [str(inst_path) if a == "INSTANCE" else a for a in args]
    assert f"argument {flag}" in refusal([*args, "--out", str(out)], capsys, caplog)
    assert not out.exists()


@pytest.mark.parametrize("args,flag", [
    (["gen", "--n", "5", "--side", "6", "--delta", "2"], ["--trials", "3"]),
    (["gen", "--n", "5", "--side", "6", "--delta", "2"], ["--power", "linear"]),
    (["gen", "--n", "5", "--side", "6", "--delta", "2"], ["--sweep", "9"]),
    (["oracle", "INSTANCE"], ["--seed", "3"]),
    (["oracle", "INSTANCE"], ["--trials", "3"]),
    (["oracle", "INSTANCE"], ["--sweep", "9"]),
    (["oracle", "INSTANCE"], ["--objective", "weight"]),
    (["oracle", "INSTANCE"], ["--mode", "affectance"]),
    (["oracle", "INSTANCE"], ["--admission"]),
    (["suite", "--n", "6", "--count", "1"], ["--power", "linear"]),
    (["suite", "--n", "6", "--count", "1"], ["--sweep", "9"]),
    (["suite", "--n", "6", "--count", "1"], ["--out", "OUT"]),
], ids=["gen-trials", "gen-power", "gen-sweep", "oracle-seed", "oracle-trials",
        "oracle-sweep", "oracle-objective", "oracle-mode", "oracle-admission", "suite-power",
        "suite-sweep", "suite-out"])
def test_cli_rejects_flags_its_subcommand_ignores(args, flag, tmp_path, capsys, caplog):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=6, R=6.0, delta=2.0, seed=4)), inst_path)
    out = tmp_path / "out"
    sub = {"INSTANCE": str(inst_path), "OUT": str(out)}
    argv = [sub.get(a, a) for a in args + flag]
    if args[0] != "suite":
        argv += ["--out", str(out)]
    assert f"unrecognized arguments: {flag[0]}" in refusal(argv, capsys, caplog)
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
    (GEN + ["--primaries", "1", "--primary-power", "inf"], "power must be finite, got inf"),
    (GEN + ["--primaries", "2", "--primary-power", "0"], "power must be positive, got 0.0"),
    (GEN + ["--primaries", "-1"], "primaries must be nonnegative, got -1"),
    (GEN + ["--seed", "-1"], "seed must be nonnegative, got -1"),
    (["gen", "--n", "600", "--side", "77", "--delta", "8", "--primaries", "8", "--seed", "3"],
     "primary link(s) [601] cannot satisfy their own SINR"),
    (["compare", "--n", "5", "--deltas", "0.5", "--sides", "6"], "0.5"),
    (["compare", "--seed", "-5", "--n", "5", "--deltas", "2", "--sides", "8"],
     "seed must be nonnegative, got -5"),
    (["suite", "--seed", "-3", "--count", "1", "--n", "5"], "seed must be nonnegative, got -3"),
    (["oracle", "BIG"], "21 links"),
    (["suite", "--n", "21", "--count", "1"], "21 links"),
    (["admit", "BIG"], "big.json has no primaries"),
    (["oracle", "BIG", "--problem", "admission"], "big.json has no primaries"),
    (["admit", "EMPTY", "--method", "large"], "empty.json has no primaries"),
    (["admit", "EMPTY"], "empty.json has no primaries"),
    (["oracle", "EMPTY", "--problem", "admission"], "empty.json has no primaries"),
    (["admit", "OWN"], "primary 1: takes no beta or noise override"),
    (["admit", "OWN", "--method", "large"], "primary 1: takes no beta or noise override"),
    (["oracle", "OWN", "--problem", "admission"], "primary 1: takes no beta or noise override"),
    (["solve", "NANNOISE", "--algo", "lp"], "link 0: noise override must be finite"),
    (["solve", "HUGEBETA", "--algo", "lp"], "link 0: beta override must be finite"),
    (["admit", "HUGEPOWER"], "primary 1: power must be finite, got inf"),
    (["admit", "HUGEPOWER", "--method", "large"], "primary 1: power must be finite, got inf"),
    (["oracle", "HUGEPOWER", "--problem", "admission"], "primary 1: power must be finite"),
], ids=["side-0", "side-nan", "side-inf", "delta-0.5", "alpha-0", "beta-0", "noise-neg",
        "alpha-inf", "beta-inf", "noise-inf", "primary-power-inf", "primary-power-0",
        "primaries-neg", "gen-seed-neg", "gen-primaries-clash", "compare-delta",
        "compare-seed-neg", "suite-seed-neg", "oracle-21", "suite-21",
        "admit-no-primaries", "oracle-admission-no-primaries", "admit-large-empty-primaries",
        "admit-empty-primaries", "oracle-admission-empty-primaries",
        "admit-primary-override", "admit-large-primary-override",
        "oracle-admission-primary-override", "solve-noise-nan", "solve-beta-1e400",
        "admit-primary-power-1e400", "admit-large-primary-power-1e400",
        "oracle-admission-primary-power-1e400"])
def test_cli_reports_rejected_input_in_one_line(args, bad, tmp_path, capsys, caplog):
    paths = {name: tmp_path / f"{name.lower()}.json"
             for name in ("BIG", "EMPTY", "OWN", "NANNOISE", "HUGEBETA", "HUGEPOWER")}
    write_instance(generate_instance(GenConfig(n=21, R=9.0, delta=2.0, seed=4)), paths["BIG"])
    link = {"id": 0, "sx": 0.0, "sy": 0.0, "rx": 1.0, "ry": 0.0}
    # a primary list, but an empty one
    paths["EMPTY"].write_text(json.dumps({"alpha": 2.5, "links": [link], "primaries": []}))
    # a primary with its own threshold, which no SINR could reach
    paths["OWN"].write_text(json.dumps({"alpha": 2.5, "links": [link], "primaries": [
        {"id": 1, "sx": 50.0, "sy": 0.0, "rx": 51.0, "ry": 0.0, "power": 1.0, "beta": 1e9}]}))
    # values that read as nan or inf: a link's noise and beta, a primary's power
    text = '{"alpha": 2.5, "links": [{"id": 0, "sx": 0, "sy": 0, "rx": 1, "ry": 0%s}]%s}'
    paths["NANNOISE"].write_text(text % (', "noise": NaN', ""))
    paths["HUGEBETA"].write_text(text % (', "beta": 1e400', ""))
    paths["HUGEPOWER"].write_text(text % ("", ', "primaries": [{"id": 1, "sx": 50, "sy": 0, '
                                              '"rx": 51, "ry": 0, "power": 1e400}]'))
    out = tmp_path / "out"
    argv = [str(paths.get(a, a)) for a in args]
    if args[0] != "suite":
        argv += ["--out", str(out)]
    assert bad in one_line_refusal(argv, capsys, caplog)
    assert not out.exists()


@pytest.mark.parametrize("args", [GEN, ["compare", "--n", "5", "--deltas", "2", "--sides", "6"]],
                         ids=["gen", "compare"])
def test_cli_requires_out_where_the_file_is_the_output(args, tmp_path, monkeypatch, capsys,
                                                      caplog):
    monkeypatch.chdir(tmp_path)
    assert "the following arguments are required: --out" in refusal(args, capsys, caplog)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", [["solve", "--algo", "lp"], ["admit"], ["oracle"]],
                         ids=["solve", "admit", "oracle"])
@pytest.mark.parametrize("case,bad", [
    ("missing", "No such file or directory"),
    ("not-json", "parse error at line 1"),
    ("negative-id", "link id must be nonnegative, got -1"),
    ("not-object", "instance: expected an object, got int"),
    ("link-not-object", "link #0: expected an object, got int"),
    ("sx-list", "link #0: field 'sx' must be a finite number, got list"),
    ("alpha-str", "instance: field 'alpha' must be a finite number, got str"),
    ("fractional-id", "link #0: field 'id' must be an integer, got 2.7"),
    ("sy-bool", "link #0: field 'sy' must be a finite number, got bool"),
])
def test_cli_reports_unreadable_instance_in_one_line(command, case, bad, tmp_path, capsys,
                                                     caplog):
    def one_link(alpha=2.5, **field):
        return json.dumps({"alpha": alpha, "links": [{"id": 0, "sx": 0, "sy": 0, "rx": 1,
                                                      "ry": 0, **field}]})
    text = {"not-json": "{", "not-object": "5", "link-not-object": '{"alpha": 2.5, "links": [5]}',
            "negative-id": one_link(id=-1), "sx-list": one_link(sx=[1]),
            "alpha-str": one_link(alpha="2.5"), "fractional-id": one_link(id=2.7),
            "sy-bool": one_link(sy=True)}
    path = tmp_path / "inst.json"
    if case != "missing":
        path.write_text(text[case])
    out = tmp_path / "out"
    assert bad in one_line_refusal([command[0], str(path), *command[1:], "--out", str(out)],
                                   capsys, caplog)
    assert not out.exists()


@pytest.mark.parametrize("command", [["admit"], ["oracle", "--problem", "admission"]],
                         ids=["admit", "oracle-admission"])
def test_cli_reports_infeasible_primaries_in_one_line(command, tmp_path, capsys, caplog):
    # each primary's sender sits 0.1 from the other primary's receiver
    unit = {"sy": 0.0, "ry": 0.0, "power": 1.0}
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "alpha": 2.5, "links": [{"id": 0, "sx": 50.0, "sy": 0.0, "rx": 51.0, "ry": 0.0}],
        "primaries": [{"id": 1, "sx": 0.0, "rx": 1.0, **unit},
                      {"id": 2, "sx": 1.1, "rx": -0.1, **unit}]}))
    out = tmp_path / "out"
    argv = [command[0], str(path), *command[1:], "--out", str(out)]
    assert "cannot satisfy their own SINR" in one_line_refusal(argv, capsys, caplog)
    assert not out.exists()


def test_cli_writes_every_id_as_a_json_integer(tmp_path, capsys):
    path = tmp_path / "prim.json"
    write_instance(generate_instance(GenConfig(n=12, R=8.0, delta=2.0, seed=3, primaries=2)),
                   path)
    runs = [["solve", "--algo", algo] for algo in ("lp", "greedy", "greedy_w", "greedy_l")]
    runs += [["admit", "--method", "general"], ["admit", "--method", "large"], ["oracle"],
             ["oracle", "--problem", "admission"]]
    for run in runs:
        assert cli_main([run[0], str(path), *run[1:], *(["--trials", "10", "--sweep", "0.5,1.0"]
                                                      if run[0] != "oracle" else [])]) == 0
        payload = json.loads(capsys.readouterr().out)
        members = payload["ids"] + [i for g in payload.get("groups", []) for i in g]
        assert payload["ids"], run  # something to check
        assert all(type(i) is int for i in members), run
        if run[1:] == ["--method", "general"]:
            assert len(payload["groups"]) > 1


@pytest.mark.parametrize("command", [["solve", "--algo", "lp"], ["solve", "--algo", "greedy"],
                                     ["admit"], ["oracle"], ["oracle", "--problem", "admission"]],
                         ids=["solve-lp", "solve-greedy", "admit", "oracle", "oracle-admission"])
@pytest.mark.parametrize("length,power,message", [
    (1e-200, "linear", "nonpositive or non-finite power"),
    (1e200, "linear", "nonpositive or non-finite power"),
    (1e-130, "uniform", "signal P/l**alpha is not finite"),
    (1e-130, "mean", "signal P/l**alpha is not finite"),
], ids=["underflow", "overflow", "uniform-signal", "mean-signal"])
def test_cli_reports_power_out_of_range_in_one_line(command, length, power, message, tmp_path,
                                                    capsys, caplog):
    # under linear power (l**alpha) link 0's power is 0 or overflows to inf;
    # under uniform or mean power its l**alpha underflows to 0, so its own
    # signal P/l**alpha is infinite
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({
        "alpha": 2.5,
        "links": [{"id": 0, "sx": 0.0, "sy": 0.0, "rx": length, "ry": 0.0},
                  {"id": 1, "sx": 5.0, "sy": 0.0, "rx": 6.0, "ry": 0.0}],
        "primaries": [{"id": 2, "sx": 50.0, "sy": 0.0, "rx": 51.0, "ry": 0.0,
                       "power": 1.0}]}))
    out = tmp_path / "out"
    argv = [command[0], str(path), *command[1:], "--power", power, "--out", str(out)]
    assert message in one_line_refusal(argv, capsys, caplog)
    assert not out.exists()


def test_cli_refuses_a_signal_over_beta_that_is_not_finite_in_one_line(tmp_path, capsys,
                                                                        caplog):
    # link 0's signal P/l**alpha is 1e300 under uniform power, finite, but
    # over the instance's beta of 1e-10 it passes the float range
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alpha": 2.5, "beta": 1e-10, "links": [
        {"id": 0, "sx": 0, "sy": 0, "rx": 1e-120, "ry": 0},
        {"id": 1, "sx": 50, "sy": 0, "rx": 51, "ry": 0}]}))
    out = tmp_path / "out"
    err = refusal(["solve", str(path), "--algo", "lp", "--power", "uniform", "--out", str(out)],
                  capsys, caplog)
    assert err == "sinrcap solve: error: link(s) [0]: signal P/l**alpha is not finite over beta\n"
    assert not out.exists()


@pytest.mark.parametrize("command", [["solve", "--algo", "lp"], ["oracle"]])
@pytest.mark.parametrize("noise,sy", [(0.0, 1e-124), (0.9999999, 1e-121)],
                         ids=["distance", "budget"])
def test_cli_verifies_a_nearly_colocated_pair_without_a_warning(command, noise, sy, tmp_path,
                                                                capsys, caplog):
    # link 1's sender sits so near link 0's receiver that its interference
    # there (or that over link 0's budget) passes the float range
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alpha": 2.5, "noise": noise, "links": [
        {"id": 0, "sx": 0, "sy": 0, "rx": 1, "ry": 0},
        {"id": 1, "sx": 1, "sy": sy, "rx": 1.5, "ry": 0}]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main([command[0], str(path), *command[1:]]) == 0
    assert not caplog.records
    out, err = capsys.readouterr()
    best = json.loads(out)
    assert len(best["ids"]) == 1 and best["verified"] is True and err == ""


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


@pytest.mark.parametrize("method", ["general", "large"])
def test_cli_admits_at_the_float_order_boundary(method, tmp_path, capsys):
    # the geometry above with link 3 as a primary: links 2, 1 and 0 load it
    # by about 0.7, 0.2 and 0.1, summed in join order within 1 while their
    # interference exceeds its budget, found by a search in ulp steps
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"alpha": 1.0, "beta": 1.0, "noise": 0.0, "links": [
        {"id": 0, "sx": 100.0, "sy": 999.9999999999864, "rx": 100.0, "ry": 1000.9999999999864},
        {"id": 1, "sx": 100.0, "sy": -500.00000000000324, "rx": 100.0,
         "ry": -502.00000000000324},
        {"id": 2, "sx": 100.0, "sy": 142.85714285714286, "rx": 100.0, "ry": 145.85714285714286}],
        "primaries": [{"id": 3, "sx": 0.0, "sy": 0.0, "rx": 100.0, "ry": 0.0, "power": 1.0}]}))
    assert cli_main(["admit", str(path), "--method", method, "--trials", "10",
                     "--sweep", "1.0"]) == 0
    best = json.loads(capsys.readouterr().out)
    assert best["verified"] is True
    if method == "general":
        assert best["ids"] == [1, 2]


def test_cli_solve_keeps_smaller_constant_over_float_noise(tmp_path, monkeypatch):
    inst_path = tmp_path / "inst.json"
    write_instance(generate_instance(GenConfig(n=10, R=6.0, delta=2.0, seed=3)), inst_path)
    values = iter([4.0, 4.0 + 5e-13])  # the two constants' weights, 5e-13 apart
    monkeypatch.setattr(cli, "schedule_value", lambda ctx, schedule, objective: next(values))
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

    rc = cli_main(["oracle", str(inst_path), "--problem", "admission",
                   "--out", str(tmp_path / "aopt.json")])
    assert rc == 0
    aopt = json.loads((tmp_path / "aopt.json").read_text())
    assert res["value"] <= aopt["size"]

    assert cli_main(["suite", "--count", "2", "--n", "6", "--trials", "10"]) == 0


@pytest.mark.parametrize("command", ["solve", "admit"])
def test_cli_accepts_a_negative_rounding_seed(command, tmp_path, capsys):
    # a rounding seed keys its Philox stream modulo 2**64, so -1 is well
    # defined; only the commands that draw instances from --seed refuse it
    inst_path = tmp_path / "prim.json"
    write_instance(generate_instance(GenConfig(n=8, R=8.0, delta=2.0, seed=21, primaries=1)),
                   inst_path)
    args = {"solve": ["solve", str(inst_path), "--algo", "lp"],
            "admit": ["admit", str(inst_path)]}[command]
    assert cli_main([*args, "--seed", "-1", "--trials", "5", "--sweep", "1.0"]) == 0
    assert json.loads(capsys.readouterr().out)["verified"] is True


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
    ms = {r.algo: r.runtime_ms for r in records}
    assert ms["lp"] > 0 and ms["ratio"] is None
    # the three greedy rows come from one shared sweep and carry its time
    assert ms["greedy_w"] == ms["greedy_l"] == ms["greedy"] > 0
    # without the flag the runtime column stays empty (determinism contract)
    # and the rows are otherwise the timed run's
    plain_out = tmp_path / "plain.csv"
    plain = run_compare(_small_configs()[:1], sweep=[1.0], trials=5, out_path=plain_out)
    assert all(r.runtime_ms is None for r in plain)
    column = CSV_COLUMNS.index("runtime_ms")
    timed_rows = [row.split(",") for row in out.read_text().splitlines()]
    for row in timed_rows[1:]:
        row[column] = ""
    assert plain_out.read_text().splitlines() == [",".join(row) for row in timed_rows]


def test_io_roundtrip_generated(tmp_path):
    inst = generate_instance(GenConfig(n=7, R=4.0, delta=2.0, seed=9, primaries=1))
    p1, p2 = tmp_path / "x.json", tmp_path / "y.json"
    write_instance(inst, p1)
    write_instance(read_instance(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()
