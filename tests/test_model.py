import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrcap import (DistanceMatrix, GenConfig, Instance, PowerAssignment, PrimarySet,
                     generate_instance, read_instance, write_instance)
from sinrcap.model import instance_from_dict, parse_power

from conftest import distance, far_instance, line_links, make_link


def test_cross_distance_pythagorean():
    w = make_link(0, 0.0, 0.0, 1.0, 0.0)
    v = make_link(1, 10.0, 10.0, 3.0, 4.0)
    inst = Instance(links=(w, v), alpha=2.0)
    assert inst.sr_matrix([0], [1])[0, 0] == pytest.approx(5.0)


def test_cross_distance_self_is_length():
    v = make_link(0, 0.0, 0.0, 2.0, 0.0)
    inst = Instance(links=(v,), alpha=2.0)
    assert inst.sr_matrix([0], [0])[0, 0] == inst.lengths[0] == pytest.approx(2.0)


def test_cross_distance_unknown_id():
    inst = far_instance(2)
    with pytest.raises(KeyError, match="unknown link id 99"):
        inst.sr_matrix([0], [99])


def test_cross_distance_matrix_entry():
    # points on a line at 0, 1, 8.5, 7.0 (s0, r0, s1, r1); distances |xi - xj|
    xs = [0.0, 1.0, 8.5, 7.0]
    mat = [[abs(a - b) for b in xs] for a in xs]
    links = line_links((0.0, 1.0), (8.5, 7.0))
    inst = Instance(links=links, alpha=2.0, metric=DistanceMatrix(mat))
    assert inst.sr_matrix([1], [0])[0, 0] == 7.5
    assert inst.lengths.tolist() == [1.0, 1.5]


def test_matrix_validation_rejects_asymmetry():
    mat = np.ones((2, 2)) - np.eye(2)
    mat[0, 1] = 2.0
    with pytest.raises(ValueError, match="symmetric"):
        DistanceMatrix(mat)


def test_matrix_validation_rejects_triangle_violation():
    # d(0,1) = 10 but d(0,2) + d(2,1) = 2
    mat = np.array([[0.0, 10.0, 1.0], [10.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(ValueError, match="triangle"):
        DistanceMatrix(mat)


def test_power_of_uniform():
    lk = make_link(0, 0.0, 0.0, 3.0, 0.0)
    length = distance(lk.sender, lk.receiver)
    assert PowerAssignment.uniform(1.0).power(length, 2.5) == 1.0


def test_power_of_linear():
    lk = make_link(0, 0.0, 0.0, 2.0, 0.0)
    length = distance(lk.sender, lk.receiver)
    assert PowerAssignment.linear().power(length, 2.5) == pytest.approx(5.656854249492381)


def test_power_of_mean():
    lk = make_link(0, 0.0, 0.0, 4.0, 0.0)
    length = distance(lk.sender, lk.receiver)
    assert PowerAssignment.mean().power(length, 2.0) == pytest.approx(4.0)


def _per_kind_power(pa, length, alpha):
    """The four per-kind expressions that the single rule replaced, kept as
    the reference: uniform, linear, mean and exponent."""
    if pa.tau == 0.0:
        return np.full_like(length, pa.p0)
    if pa == PowerAssignment.linear():
        return length ** alpha
    if pa == PowerAssignment.mean():
        return length ** (alpha / 2.0)
    return length ** (pa.tau * alpha)


@given(p0=st.floats(min_value=1e-100, max_value=1e100),
       tau=st.floats(min_value=0.0, max_value=1.0),
       alpha=st.floats(min_value=0.5, max_value=6.0),
       lengths=st.lists(st.floats(min_value=1e-100, max_value=1e100), min_size=2, max_size=12))
@settings(max_examples=200, deadline=None)
def test_power_rule_is_non_decreasing_and_sub_linear(p0, tau, alpha, lengths):
    lengths = np.sort(np.array(lengths))
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        scale = lengths ** alpha
        for pa in (PowerAssignment(p0=p0, tau=tau), PowerAssignment.uniform(p0),
                   PowerAssignment.linear(), PowerAssignment.mean(),
                   PowerAssignment.exponent(tau)):
            power = pa.power(lengths, alpha)
            ratio = power / scale
            # compare neighbours where power, l**alpha and their ratio are
            # finite and normal: a subnormal carries too few digits to order
            normal = np.all([np.isfinite(x) & (x >= np.finfo(float).tiny)
                             for x in (power, scale, ratio)], axis=0)
            pair = normal[:-1] & normal[1:]
            assert np.all(power[1:][pair] >= power[:-1][pair] * (1 - 1e-12))
            assert np.all(ratio[1:][pair] <= ratio[:-1][pair] * (1 + 1e-12))
            if pa.p0 == 1.0 or pa.tau == 0.0:  # a named constructor
                assert power.tobytes() == _per_kind_power(pa, lengths, alpha).tobytes()
                one = np.asarray(lengths[0])  # a scalar is read as a 0-d array
                assert pa.power(lengths[0], alpha) == float(_per_kind_power(pa, one, alpha))


def test_exponent_tau_out_of_range():
    with pytest.raises(ValueError):
        PowerAssignment.exponent(1.5)


@pytest.mark.parametrize("p0,tau,message", [
    (0.0, 0.0, "p0"), (-1.0, 0.5, "p0"), (math.inf, 0.0, "p0"), (math.nan, 1.0, "p0"),
    (1.0, -0.1, "tau"), (1.0, math.nan, "tau"), (1.0, math.inf, "tau")])
def test_power_rule_refuses_out_of_range_numbers(p0, tau, message):
    with pytest.raises(ValueError, match=message):
        PowerAssignment(p0=p0, tau=tau)


@pytest.mark.parametrize("sx,rx", [(1.0, 1.0), (-1e308, 1e308), (1e308, -1e308)],
                         ids=["zero", "inf", "-inf"])
def test_length_that_is_not_finite_and_positive_rejected(sx, rx):
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, sx, 1.0, rx, 1.0))
    with pytest.raises(ValueError) as exc:
        Instance(links=links, alpha=2.0)
    assert str(exc.value) == "link 1: length must be finite and positive"


def test_duplicate_ids_rejected():
    links = (make_link(0, 0, 0, 1, 0), make_link(0, 5, 0, 6, 0))
    with pytest.raises(ValueError, match="distinct"):
        Instance(links=links, alpha=2.0)


@pytest.mark.parametrize("field", ["alpha", "beta", "noise"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_nonfinite_parameters_rejected(field, value, tmp_path):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Instance(links=line_links((0.0, 1.0)), **{"alpha": 2.5, field: value})
    # a file holding the non-standard JSON constant is refused on reading too
    path = tmp_path / "inst.json"
    path.write_text('{"alpha": 2.5, "%s": %s, "links": [{"id": 0, "sx": 0, "sy": 0, '
                    '"rx": 1, "ry": 0}]}' % (field, "Infinity" if value > 0 else "NaN"))
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        read_instance(path)


def _json(value):
    """``value`` as the non-standard JSON that reads back as it: 1e400 for inf."""
    return "1e400" if value > 0 else "NaN"


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_nonfinite_primary_power_rejected(value, tmp_path):
    # refused when built, so no instance holding it is ever written
    path = tmp_path / "inst.json"
    with pytest.raises(ValueError, match="primary 7: power must be finite"):
        prim = PrimarySet(links=(make_link(7, 10.0, 0.0, 11.0, 0.0),), powers=(value,))
        write_instance(Instance(links=line_links((0.0, 1.0)), alpha=2.5, primaries=prim), path)
    assert not path.exists()
    path.write_text('{"alpha": 2.5, "links": [{"id": 0, "sx": 0, "sy": 0, "rx": 1, "ry": 0}], '
                    '"primaries": [{"id": 7, "sx": 10, "sy": 0, "rx": 11, "ry": 0, '
                    '"power": %s}]}' % _json(value))
    with pytest.raises(ValueError, match="primary 7: power must be finite"):
        read_instance(path)


@pytest.mark.parametrize("field", ["beta", "noise"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_nonfinite_link_overrides_rejected(field, value, tmp_path):
    with pytest.raises(ValueError, match=f"link 0: {field} override must be finite"):
        make_link(0, 0.0, 0.0, 1.0, 0.0, **{f"{field}_override": value})
    path = tmp_path / "inst.json"
    path.write_text('{"alpha": 2.5, "links": [{"id": 0, "sx": 0, "sy": 0, "rx": 1, "ry": 0, '
                    '"%s": %s}]}' % (field, _json(value)))
    with pytest.raises(ValueError, match=f"link 0: {field} override must be finite"):
        read_instance(path)


def test_negative_id_rejected():
    with pytest.raises(ValueError, match="-3"):
        make_link(-3, 0, 0, 1, 0)


def test_negative_weight_rejected():
    with pytest.raises(ValueError, match="weight"):
        make_link(0, 0, 0, 1, 0, weight=-1.0)


def test_zero_cross_distance_allowed():
    # sender of one link on the receiver of the other is valid input
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, 1.0, 0.0, 2.0, 0.0))
    inst = Instance(links=links, alpha=2.0)
    assert inst.sr_matrix([1], [0])[0, 0] == 0.0


def test_roundtrip_bytes_identical(tmp_path):
    links = (
        make_link(0, 0.25, 0.5, 1.75, 0.5, weight=2.5),
        make_link(1, 3.0, 0.125, 4.5, 0.125, weight=1.0, beta_override=1.5,
                  noise_override=0.01),
    )
    prim = PrimarySet(links=(make_link(7, 10.0, 0.0, 11.0, 0.0),), powers=(2.0,))
    inst = Instance(links=links, alpha=2.5, beta=1.0, noise=0.1, primaries=prim)
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    write_instance(inst, p1)
    again = read_instance(p1)
    write_instance(again, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert again.link(1).beta_override == 1.5
    assert again.primaries.powers == (2.0,)


def test_matrix_instance_roundtrip(tmp_path):
    xs = [0.0, 1.0, 8.5, 7.0]
    mat = [[abs(a - b) for b in xs] for a in xs]
    inst = Instance(links=line_links((0.0, 1.0), (8.5, 7.0)), alpha=3.0,
                    metric=DistanceMatrix(mat))
    path = tmp_path / "m.json"
    write_instance(inst, path)
    back = read_instance(path)
    assert back.sr_matrix([1], [0])[0, 0] == 7.5


def test_parse_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"alpha": 2.0,\n  "links": [}')
    with pytest.raises(ValueError, match="line 2"):
        read_instance(path)


def test_missing_field_error():
    with pytest.raises(ValueError, match="missing field"):
        instance_from_dict({"alpha": 2.0, "links": [{"id": 0, "sx": 0, "sy": 0}]})


UNIT = {"id": 0, "sx": 0, "sy": 0, "rx": 1, "ry": 0}


@pytest.mark.parametrize("d,where", [
    (5, "instance: expected an object, got int"),
    ([UNIT], "instance: expected an object, got list"),
    ({"alpha": 2.5, "links": 5}, "instance: field 'links' must be a list, got int"),
    ({"alpha": 2.5, "links": [5]}, "link #0: expected an object, got int"),
    ({"alpha": 2.5, "links": [UNIT, "x"]}, "link #1: expected an object, got str"),
    ({"alpha": 2.5, "links": [], "primaries": {}},
     "instance: field 'primaries' must be a list, got dict"),
    ({"alpha": 2.5, "links": [], "primaries": [[1]]},
     "primary #0: expected an object, got list"),
], ids=["top-int", "top-list", "links-int", "link-int", "link-str", "primaries-dict",
        "primary-list"])
def test_malformed_structure_names_its_location(d, where):
    with pytest.raises(ValueError) as exc:
        instance_from_dict(d)
    assert str(exc.value) == where


@pytest.mark.parametrize("d,where", [
    ({"alpha": None, "links": [UNIT]},
     "instance: field 'alpha' must be a finite number, got NoneType"),
    ({"alpha": 2.5, "beta": "x", "links": [UNIT]},
     "instance: field 'beta' must be a finite number, got str"),
    ({"alpha": 2.5, "links": [dict(UNIT, sx=[1])]},
     "link #0: field 'sx' must be a finite number, got list"),
    ({"alpha": 2.5, "links": [dict(UNIT, id={})]},
     "link #0: field 'id' must be a finite number, got dict"),
    ({"alpha": 2.5, "links": [UNIT, dict(UNIT, id=1, noise=None)]},
     "link #1: field 'noise' must be a finite number, got NoneType"),
    ({"alpha": 2.5, "links": [], "primaries": [dict(UNIT, power=[2])]},
     "primary #0: field 'power' must be a finite number, got list"),
    ({"alpha": 2.5, "links": [UNIT], "metric": {"matrix": {"a": 1}}},
     "metric: 'matrix' must be a list of lists of numbers"),
    ({"alpha": 2.5, "links": [dict(UNIT, id=float("inf"))]},
     "link #0: field 'id' must be a finite number, got float"),
    ({"alpha": "2.5", "links": [UNIT]},
     "instance: field 'alpha' must be a finite number, got str"),
    ({"alpha": 2.5, "links": [dict(UNIT, sx="0")]},
     "link #0: field 'sx' must be a finite number, got str"),
    ({"alpha": 2.5, "links": [dict(UNIT, sy=True)]},
     "link #0: field 'sy' must be a finite number, got bool"),
    ({"alpha": 2.5, "links": [dict(UNIT, id=False)]},
     "link #0: field 'id' must be a finite number, got bool"),
    ({"alpha": 2.5, "links": [dict(UNIT, id="1")]},
     "link #0: field 'id' must be a finite number, got str"),
    ({"alpha": 2.5, "links": [dict(UNIT, id=2.7)]},
     "link #0: field 'id' must be an integer, got 2.7"),
    ({"alpha": 2.5, "links": [dict(UNIT, id=float("nan"))]},
     "link #0: field 'id' must be a finite number, got float"),
], ids=["alpha-null", "beta-str", "sx-list", "id-dict", "noise-null", "power-list",
        "matrix-dict", "id-inf", "alpha-numeric-str", "sx-numeric-str", "sy-bool",
        "id-bool", "id-str", "id-fractional", "id-nan"])
def test_wrong_json_type_names_its_field(d, where):
    with pytest.raises(ValueError) as exc:
        instance_from_dict(d)
    assert str(exc.value) == where


def test_integral_float_id_accepted():
    inst = instance_from_dict({"alpha": 2.5, "links": [dict(UNIT, id=3.0)]})
    assert [link.id for link in inst.links] == [3]
    assert type(inst.links[0].id) is int


def test_sr_matrix_matches_per_link_geometry():
    links = (make_link(0, 0.25, 0.5, 1.75, 0.5), make_link(3, 3.0, -0.125, 4.5, 1e-3),
             make_link(1, -2.0, 7.0, -1.0, 6.5))
    prim = PrimarySet(links=(make_link(7, 10.0, 0.1, 11.0, 0.3),), powers=(2.0,))
    inst = Instance(links=links, alpha=2.5, primaries=prim)
    from_ids, to_ids = [7, 1, 3, 0, 1], [3, 7, 0]
    expected = np.array([[distance(inst.link(i).sender, inst.link(j).receiver)
                          for j in to_ids] for i in from_ids])
    np.testing.assert_allclose(inst.sr_matrix(from_ids, to_ids), expected, rtol=1e-15, atol=0)
    assert inst.sr_matrix([], to_ids).shape == (0, 3)
    with pytest.raises(KeyError, match="unknown link id 5"):
        inst.sr_matrix([0, 5], to_ids)


def test_lengths_are_the_sr_matrix_diagonal():
    # one distance rule: a link's length is its own sender-to-receiver
    # distance bit for bit, on an instance where a second rule rounds
    # some lengths apart (links 143, 768 and 856 by one ulp)
    inst = generate_instance(GenConfig(n=1000, R=100.0, delta=8.0, seed=1))
    ids = [lk.id for lk in inst.links]
    assert inst.lengths.tobytes() == np.diag(inst.sr_matrix(ids, ids)).tobytes()


def test_cross_distance_past_the_float_range_reads_infinite():
    links = (make_link(0, -1e308, 0.0, -1e308, 1.0), make_link(1, 1e308, 0.0, 1e308, 1.0))
    inst = Instance(links=links, alpha=2.5)
    assert inst.lengths.tolist() == [1.0, 1.0]
    assert inst.sr_matrix([0, 1], [0, 1]).tolist() == [[1.0, math.inf], [math.inf, 1.0]]


def test_parse_power_specs():
    specs = {"uniform": (1.0, 0.0), "uniform:3.5": (3.5, 0.0), "linear": (1.0, 1.0),
             "mean": (1.0, 0.5), "exp:0.25": (1.0, 0.25)}
    for spec, (p0, tau) in specs.items():
        assert parse_power(spec) == PowerAssignment(p0=p0, tau=tau), spec
    with pytest.raises(ValueError):
        parse_power("quadratic")
