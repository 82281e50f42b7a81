import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinrcap import (AffectanceContext, GenConfig, IndividuallyInfeasible, Instance,
                     PowerAssignment, PrimarySet, affectance, bernoulli_draws, c_factor,
                     certify, exact_admission, generate_instance, hat_noise,
                     separation_check, signal_strengthen)
from sinrcap.affectance import (BETA, BUDGET, HAT_NOISE, NOISE, POWER, RAW_CAP,
                                _exact_budgets, _within, check_positions)

from conftest import (colocated_pair, feasible_prim_ctx, make_link, random_ctx, selection,
                      sr_distance)

UNIFORM = PowerAssignment.uniform()


def single_link_ctx(beta=1.0, noise=0.0, alpha=2.0, length=1.0):
    inst = Instance(links=(make_link(0, 0.0, 0.0, length, 0.0),),
                    alpha=alpha, beta=beta, noise=noise)
    return AffectanceContext(inst, UNIFORM)


def test_c_factor_no_noise():
    assert c_factor(single_link_ctx(beta=1.0), 0) == pytest.approx(1.0)
    assert c_factor(single_link_ctx(beta=2.0), 0) == pytest.approx(2.0)


def test_c_factor_half_margin():
    # beta=1, N * l^alpha / P = 0.5  ->  c = 1 / (1 - 0.5) = 2
    assert c_factor(single_link_ctx(noise=0.5), 0) == pytest.approx(2.0)


def test_individually_infeasible_removed():
    inst = Instance(links=(make_link(0, 0, 0, 1, 0), make_link(1, 50, 0, 51, 0)),
                    alpha=2.0, beta=1.0, noise=0.0)
    bad = Instance(links=(make_link(0, 0, 0, 1, 0, noise_override=2.0),
                          make_link(1, 50, 0, 51, 0)),
                   alpha=2.0, beta=1.0, noise=0.0)
    ctx = AffectanceContext(bad, UNIFORM)
    assert ctx.removed_ids == (0,)
    assert list(ctx.ids) == [1]
    # every entry point reports the removed link the same way
    removed_calls = [
        lambda c: c.index_of([0]),
        lambda c: c_factor(c, 0),
        lambda c: affectance(c, 1, 0),
        lambda c: affectance(c, 0, 1),
        lambda c: certify(c, [0, 1]).verified,
        lambda c: certify(c, [0]),
        lambda c: separation_check(c, [0, 1], 2.0),
    ]
    for call in removed_calls:
        with pytest.raises(IndividuallyInfeasible):
            call(ctx)
    empty = PrimarySet(links=(), powers=())
    with_prim = AffectanceContext(dataclasses.replace(bad, primaries=empty), UNIFORM,
                                  primaries=empty)
    for call in removed_calls + [lambda c: hat_noise(c, 0)]:
        with pytest.raises(IndividuallyInfeasible):
            call(with_prim)
    # an id the instance never had is a KeyError, not a removed link
    for call in (lambda c: c.index_of([7]), lambda c: c_factor(c, 7),
                 lambda c: affectance(c, 1, 7),
                 lambda c: certify(c, [7]), lambda c: hat_noise(c, 7)):
        with pytest.raises(KeyError):
            call(with_prim)
    # the same geometry without the override keeps both links
    assert AffectanceContext(inst, UNIFORM).removed_ids == ()


@pytest.mark.parametrize("power", [UNIFORM, PowerAssignment.mean(), PowerAssignment.exponent(0.9),
                                   PowerAssignment.linear()])
def test_context_refuses_a_link_whose_own_signal_is_not_finite(power):
    # at length 1e-130 and alpha 2.5, l**alpha underflows to 0: the signal
    # P/l**alpha is infinite unless P underflows too, as linear power's does
    tiny = make_link(0, 0.0, 0.0, 1e-130, 0.0)
    expected = "nonpositive or non-finite power" if power.tau == 1.0 \
        else r"link\(s\) \[0\]: signal P/l\*\*alpha is not finite"
    with warnings.catch_warnings(), pytest.raises(ValueError, match=expected):
        warnings.simplefilter("error")  # the refusal is the only report
        AffectanceContext(Instance(links=(tiny, make_link(1, 5.0, 0.0, 6.0, 0.0)), alpha=2.5),
                          power)
    # a primary's own signal is refused the same way
    prim = PrimarySet(links=(dataclasses.replace(tiny, id=2),), powers=(1.0,))
    inst = Instance(links=(make_link(1, 50.0, 0.0, 51.0, 0.0),), alpha=2.5, primaries=prim)
    with warnings.catch_warnings(), pytest.raises(ValueError, match=r"link\(s\) \[2\]"):
        warnings.simplefilter("error")
        AffectanceContext(inst, power, primaries=prim)


def test_affectance_self_zero():
    ctx = random_ctx(0, n=5)
    for i in ctx.ids:
        assert affectance(ctx, int(i), int(i)) == 0.0


def test_affectance_hand_value():
    # uniform power, beta=1, N=0, l_v=1, d_wv=2, alpha=2.5 -> 2**-2.5
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, 3.0, 0.0, 4.0, 0.0))
    inst = Instance(links=links, alpha=2.5)
    ctx = AffectanceContext(inst, UNIFORM)
    assert affectance(ctx, 1, 0) == pytest.approx(2.0 ** -2.5)
    assert affectance(ctx, 1, 0) == pytest.approx(0.176777, abs=1e-6)


def test_affectance_clipped_at_one():
    # interferer sender right next to (and exactly on) the victim receiver
    for sx in (1.05, 1.0):
        links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, sx, 0.0, sx + 1.0, 0.0))
        inst = Instance(links=links, alpha=2.5)
        ctx = AffectanceContext(inst, UNIFORM)
        assert affectance(ctx, 1, 0) == 1.0


def test_affectance_monotone_in_distance_and_power():
    base = None
    for d in (2.0, 3.0, 5.0, 9.0):
        links = (make_link(0, 0.0, 0.0, 1.0, 0.0),
                 make_link(1, 1.0 + d, 0.0, 2.0 + d, 0.0))
        ctx = AffectanceContext(Instance(links=links, alpha=2.5), UNIFORM)
        val = affectance(ctx, 1, 0)
        if base is not None:
            assert val <= base
        base = val
    # higher interferer power cannot decrease affectance
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, 4.0, 0.0, 6.0, 0.0))
    inst = Instance(links=links, alpha=2.5)
    lo = affectance(AffectanceContext(inst, PowerAssignment.uniform(1.0)), 1, 0)
    # linear power gives the longer link 2**2.5 times the victim's power
    hi = affectance(AffectanceContext(inst, PowerAssignment.linear()), 1, 0)
    assert hi >= lo


def test_hat_noise_values():
    sec = (make_link(0, 0.0, 0.0, 1.0, 0.0),)
    # no primaries attached -> error; empty primary set -> base noise
    ctx = AffectanceContext(Instance(links=sec, alpha=2.0, noise=0.25), UNIFORM)
    with pytest.raises(ValueError):
        hat_noise(ctx, 0)
    empty = PrimarySet(links=(), powers=())
    ctx = AffectanceContext(Instance(links=sec, alpha=2.0, noise=0.25, primaries=empty),
                            UNIFORM, primaries=empty)
    assert hat_noise(ctx, 0) == 0.25

    # one primary, power 1 at distance 1 from the receiver, N=0 -> 1.0
    # (short primary links keep the primaries' own SINR comfortable)
    sec = (make_link(0, 0.0, 0.0, 0.5, 0.0),)
    prim = PrimarySet(links=(make_link(9, 1.5, 0.0, 1.5, 0.1),), powers=(1.0,))
    inst = Instance(links=sec, alpha=2.0, noise=0.0, beta=0.1, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert hat_noise(ctx, 0) == pytest.approx(1.0)

    # two primaries, powers 1 at distances 1 and 2, alpha=2, N=0.5 -> 1.75
    prim = PrimarySet(links=(make_link(9, 1.5, 0.0, 1.5, 0.1),
                             make_link(10, 2.5, 0.0, 2.5, 0.1)), powers=(1.0, 1.0))
    inst = Instance(links=sec, alpha=2.0, noise=0.5, beta=0.05, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert hat_noise(ctx, 0) == pytest.approx(0.5 + 1.0 + 0.25)


def _sinr_holds(inst, power, subset, primaries=None):
    """Independent direct evaluation of the SINR inequality, pure python.

    The primaries, if given, transmit at their explicit powers, and their
    own inequalities are checked too.
    """
    prim_power = dict(zip((lk.id for lk in primaries.links), primaries.powers)) \
        if primaries is not None else {}
    senders = {w: prim_power[w] if w in prim_power
               else power.power(sr_distance(inst, w, w), inst.alpha)
               for w in list(prim_power) + list(subset)}
    receivers = list(subset) + list(prim_power)
    for v in receivers:
        lv = inst.link(v)
        length = sr_distance(inst, v, v)
        beta = lv.beta_override or inst.beta
        noise = inst.noise if lv.noise_override is None else lv.noise_override
        interference = 0.0
        for w, pw in senders.items():
            if w == v:
                continue
            d = sr_distance(inst, w, v)
            if d == 0.0:
                return False
            interference += pw / d ** inst.alpha
        if senders[v] / length ** inst.alpha < beta * (noise + interference):
            return False
    return True


def _with_overrides(inst, seed):
    """The instance with random per-link thresholds and noise."""
    rng = np.random.default_rng(seed)
    links = tuple(dataclasses.replace(lk, beta_override=float(rng.uniform(0.3, 1.5)),
                                      noise_override=float(rng.uniform(0.0, 0.05)))
                  for lk in inst.links)
    return dataclasses.replace(inst, links=links)


def _exact_case(seed, kind):
    if kind in ("primaries", "both"):
        ctx = feasible_prim_ctx(seed, n=8, R=4.0, delta=2.5, primaries=2, beta=0.5)
    else:
        ctx = random_ctx(seed, n=8, R=4.0, delta=2.5)
    if kind in ("overrides", "both"):
        ctx = AffectanceContext(_with_overrides(ctx.instance, seed), UNIFORM,
                                primaries=ctx.primaries)
    return ctx


@pytest.mark.parametrize("seed,kind", [
    (0, "plain"), (1, "plain"), (2, "plain"),
    (3, "primaries"), (4, "primaries"), (5, "overrides"), (6, "overrides"), (7, "both"),
], ids=["0", "1", "2", "primaries-3", "primaries-4", "overrides-5", "overrides-6",
        "both-7"])
def test_exact_sinr_matches_direct_evaluation(seed, kind):
    ctx = _exact_case(seed, kind)
    inst = ctx.instance
    assert ctx.k == (2 if kind in ("primaries", "both") else 0)
    ids = [int(i) for i in ctx.ids]
    verdicts = set()
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            schedule = certify(ctx, subset)
            want = _sinr_holds(inst, UNIFORM, subset, ctx.primaries)
            assert schedule.exact_sinr_ok == want, f"subset {subset}"
            got = schedule.verified
            feasible = check_positions(ctx, ctx.index_of(subset))
            assert got == (want and feasible), f"subset {subset} verified"
            verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_affectance_feasibility_equals_exact_for_beta_ge_one(seed):
    beta = 1.0 if seed % 2 else 1.3
    ctx = random_ctx(seed, n=8, R=4.0, delta=2.5, beta=beta)
    ids = [int(i) for i in ctx.ids]
    for r in range(len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            feas = check_positions(ctx, ctx.index_of(subset))
            exact = certify(ctx, subset).exact_sinr_ok
            assert feas == exact, f"subset {subset}"


def test_feasibility_empty_and_singleton():
    ctx = random_ctx(9, n=4)
    for ids in ([], [int(ctx.ids[0])]):
        assert check_positions(ctx, ctx.index_of(ids))
        # anti- and bi-feasible: sent sums within 1 as well
        sel = selection(ctx, ids)
        assert _within(sel, ctx.raw, 1.0)[0] and _within(sel, ctx.raw.T, 1.0)[0]
        assert certify(ctx, ids).exact_sinr_ok
        assert certify(ctx, ids).verified


def test_within_judges_selected_members_and_the_first_k_columns():
    # two selectable rows over k = 1 primary column, then members 0 and 1;
    # member 1 puts 3.0 on member 0, and together they put 1.2 on the primary
    loads = np.array([[0.6, 0.0, 0.2],
                      [0.6, 3.0, 0.0]])
    sel = np.array([[False, False], [True, False], [False, True], [True, True]])
    # an unselected member is exempt: {1} passes with 3.0 on member 0
    assert _within(sel, loads, 1.0, k=1).tolist() == [True, True, True, False]
    # a scalar limit broadcasts as a column of equal entries does
    assert _within(sel, loads, np.ones(3), k=1).tolist() == [True, True, True, False]
    # the primary column fails {0, 1} on its own, member 0's load on its own
    assert _within(sel, loads, np.array([1.0, 5.0, 5.0]), k=1).tolist() == [True] * 3 + [False]
    assert _within(sel, loads, np.array([2.0, 1.0, 1.0]), k=1).tolist() == [True] * 3 + [False]
    assert _within(sel, loads, np.array([2.0, 5.0, 5.0]), k=1).all()
    # the first k columns are judged even for the empty set
    assert not _within(sel, loads, np.array([-1.0, 1.0, 1.0]), k=1).any()
    # with k = 0 every column is a member's
    assert _within(sel, loads[:, 1:], 1.0).tolist() == [True, True, True, False]
    assert _within(sel, loads[:, 1:], -1.0).tolist() == [True, False, False, False]


def _within_by_rows(sel, loads, limit, k=0):
    """``_within`` as two reductions along the rows of the fit matrix: the
    reference form the kernel's transposed single pass must match."""
    fits = sel.astype(float) @ loads <= limit
    if k:
        return fits[:, :k].all(axis=1) & (fits[:, k:] >= sel).all(axis=1)
    return (fits >= sel).all(axis=1)


@given(rows=st.sampled_from([0, 1, 2049]), n=st.integers(0, 20), k=st.sampled_from([0, 1, 3]),
       limit_kind=st.sampled_from(["scalar", "column", "row"]), dyadic=st.booleans(),
       fortran=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
def test_within_matches_the_row_reductions_and_takes_the_plain_products(
        rows, n, k, limit_kind, dyadic, fortran, seed):
    rng = np.random.default_rng(seed)
    # each row holds 0 to n members; the first of a block is empty
    sel = rng.random((rows, n)) < rng.random((rows, 1))
    sel[:rows > 1] = False
    # dyadic loads sum exactly, so many sums land on a scalar limit of 1
    values = rng.choice([0.0, 0.125, 0.25, 0.5, 1.0], (k + n, n)) if dyadic else \
        rng.exponential(0.2, (k + n, n))
    # F-ordered loads as largest_bifeasible's transposed view hands them
    loads = values.T if fortran else np.ascontiguousarray(values.T)
    products = sel.astype(float) @ loads
    if limit_kind == "scalar":
        limit = 1.0
    elif limit_kind == "column":
        limit = rng.uniform(0.0, 2.0, k + n)
    else:  # one row's own products: that row's loads sit exactly at the limit
        limit = products[-1].copy() if rows else np.ones(k + n)
    got = _within(sel, loads, limit, k)
    assert got.dtype == bool and got.shape == (rows,)
    assert np.array_equal(got, _within_by_rows(sel, loads, limit, k))
    if rows > 1:  # the all-unselected row is judged at the first k columns only
        assert got[0] == bool(np.all(products[0, :k] <= np.broadcast_to(limit, k + n)[:k]))
    if rows and limit_kind == "row":
        # the last row passes at its own products and fails when any judged
        # column's limit drops one ulp: the kernel's products are these, bit for bit
        assert got[-1]
        for col in np.flatnonzero(np.r_[np.ones(k, bool), sel[-1]]):
            lower = limit.copy()
            lower[col] = np.nextafter(lower[col], -np.inf)
            assert not _within(sel, loads, lower, k)[-1]
            assert np.array_equal(_within(sel, loads, lower, k),
                                  _within_by_rows(sel, loads, lower, k))


def test_colocated_pair_boundary_and_noise():
    # with zero noise the pair sits exactly on the SINR boundary: feasible
    ctx0 = AffectanceContext(colocated_pair(noise=0.0), UNIFORM)
    assert check_positions(ctx0, ctx0.index_of([0, 1]))
    assert certify(ctx0, [0, 1]).exact_sinr_ok
    assert certify(ctx0, [0, 1]).verified
    # any positive noise breaks it, under both predicates
    ctx = AffectanceContext(colocated_pair(noise=0.1), UNIFORM)
    assert not check_positions(ctx, ctx.index_of([0, 1]))
    assert not certify(ctx, [0, 1]).exact_sinr_ok
    assert not certify(ctx, [0, 1]).verified
    # but the pair is 2-feasible under clipped sums
    assert _within(selection(ctx, [0, 1]), np.minimum(ctx.raw, 1.0), 2.0)[0]


def test_separation_check_basics():
    ctx = AffectanceContext(colocated_pair(), UNIFORM)
    assert separation_check(ctx, [0], 2.0)
    assert not separation_check(ctx, [0, 1], 2.0)  # 1 * 1 < 4 * 1 * 1


@pytest.mark.parametrize("q", [2.0, 3.0])
def test_separation_of_strongly_feasible_sets(q):
    ctx = random_ctx(11, n=8, R=6.0, delta=2.0)
    ids = [int(i) for i in ctx.ids]
    gamma = 1.0 / q ** ctx.instance.alpha
    found = 0
    for r in range(2, len(ids) + 1):
        for subset in itertools.combinations(ids, r):
            if _within(selection(ctx, subset), ctx.raw, gamma)[0]:
                found += 1
                assert separation_check(ctx, subset, q)
    assert found > 0


def test_certificate_consistent_with_recomputation():
    ctx = random_ctx(13, n=6)
    ids = [int(i) for i in ctx.ids][:4]
    sched = certify(ctx, ids)
    for pos, v in enumerate(sched.ids):
        assert sched.in_affectance[pos] == pytest.approx(
            sum(affectance(ctx, w, v) for w in sched.ids))
        assert sched.out_affectance[pos] == pytest.approx(
            sum(affectance(ctx, v, w) for w in sched.ids))


# every entry point that reads a link id, each given the id ``i`` (beside
# link 1 where it takes a set); the context has primaries, so that
# hat_noise reads secondary ids
ID_READERS = {
    "index_of": lambda ctx, i: ctx.index_of([1, i]).tolist(),
    "certify": lambda ctx, i: certify(ctx, [i, 1]),
    "c_factor": lambda ctx, i: c_factor(ctx, i),
    "affectance": lambda ctx, i: (affectance(ctx, 1, i), affectance(ctx, i, 1)),
    "hat_noise": lambda ctx, i: hat_noise(ctx, i),
    "separation_check": lambda ctx, i: separation_check(ctx, [1, i], 2.0),
    "signal_strengthen": lambda ctx, i: signal_strengthen(ctx, [1, i]),
    "bernoulli_draws": lambda ctx, i: bernoulli_draws(1, 0, [1, i]).tolist(),
    "Link": lambda ctx, i: make_link(i, 0.0, 0.0, 1.0, 0.0).id,
}


@pytest.mark.parametrize("reader", list(ID_READERS))
@pytest.mark.parametrize("given", [3.7, True, "3", float("nan"), 3.0, np.int64(3)],
                         ids=["fractional", "bool", "str", "nan", "integral-float", "numpy"])
def test_every_id_reader_follows_the_link_id_rule(reader, given):
    ctx = feasible_prim_ctx(12, n=8, primaries=2)
    assert ctx.k == 2 and {1, 3} <= set(ctx.ids.tolist())
    read = ID_READERS[reader]
    if given == 3:  # read as link 3, as the file reader reads 3.0
        assert repr(read(ctx, given)) == repr(read(ctx, 3))
        return
    with pytest.raises(ValueError) as exc:
        read(ctx, given)
    assert str(exc.value) == f"link id {given!r} is not an integer"


# every entry point that reads a set of link ids, each given the set
# ``ids``, with what it reads from the distinct set [0, 3]
SET_READERS = {
    "certify": (lambda ctx, ids: certify(ctx, ids).ids, (0, 3)),
    "separation_check": (lambda ctx, ids: separation_check(ctx, ids, 2.0), True),
    "signal_strengthen": (lambda ctx, ids: signal_strengthen(ctx, ids), [(0, 3)]),
}


@pytest.mark.parametrize("reader", list(SET_READERS))
@pytest.mark.parametrize("ids,repeated", [([3, 1, 3.0], 3), ([0, 0], 0), ([0, 3, 3], 3)],
                         ids=["float-repeat", "pair", "triple"])
def test_every_set_reader_refuses_a_repeated_id(reader, ids, repeated):
    ctx = AffectanceContext(generate_instance(GenConfig(n=8, R=40.0, delta=2.0, seed=1)),
                            UNIFORM)
    read, distinct = SET_READERS[reader]
    assert read(ctx, [0, 3]) == distinct
    with pytest.raises(ValueError) as exc:
        read(ctx, ids)
    assert str(exc.value) == f"link id {repeated} is repeated"


@pytest.mark.parametrize("q", [float("nan"), -2.0, 0.0, float("inf"), True])
def test_separation_check_refuses_a_q_that_is_not_a_finite_positive_number(q):
    ctx = AffectanceContext(generate_instance(GenConfig(n=8, R=40.0, delta=2.0, seed=1)),
                            UNIFORM)
    with pytest.raises(ValueError) as exc:
        separation_check(ctx, [0, 3], q)
    assert str(exc.value) == f"q must be a finite positive number, got {q!r}"


def test_affectance_bounds_random():
    for seed in range(5):
        ctx = random_ctx(seed, n=7, R=3.0, delta=3.0,
                         power=PowerAssignment.mean())
        aff = np.minimum(ctx.raw, 1.0)
        assert np.all(aff >= 0.0)
        assert np.all(aff <= 1.0)
        assert np.all(np.diag(aff) == 0.0)


def test_context_stores_one_matrix():
    ctx = feasible_prim_ctx(21, n=12, primaries=2)
    n = ctx.n
    assert n > ctx.k > 0
    square = [name for name, v in vars(ctx).items()
              if isinstance(v, np.ndarray) and v.ndim == 2 and v.shape == (n, n)]
    assert square == ["raw"]


# -- the kernel against the paper's c-factor form ----------------------------

POWERS = {"uniform": UNIFORM, "mean": PowerAssignment.mean(),
          "linear": PowerAssignment.linear()}


def _kernel_case(seed, kind, power):
    if kind in ("primaries", "both"):
        ctx = feasible_prim_ctx(seed, n=10, R=6.0, delta=2.5, primaries=2, beta=0.5,
                                noise=0.01)
        inst = ctx.instance
    else:
        inst = random_ctx(seed, n=10, R=6.0, delta=2.5, noise=0.01).instance
    if kind in ("overrides", "both"):
        inst = _with_overrides(inst, seed)
    return AffectanceContext(inst, power, primaries=inst.primaries)


def _c_factor(inst, v, noise_v, beta_v, p_v):
    """c_v = beta_v / (1 - beta_v * N_v * l_v ** alpha / P_v)."""
    return beta_v / (1.0 - beta_v * noise_v * sr_distance(inst, v, v) ** inst.alpha / p_v)


def _c_form(inst, w, v, p_w, p_v, c_v):
    """c_v * (P_w / P_v) * (l_v / d_wv) ** alpha."""
    return c_v * (p_w / p_v) * (sr_distance(inst, v, v) / sr_distance(inst, w, v)) ** inst.alpha


@pytest.mark.parametrize("power", sorted(POWERS))
@pytest.mark.parametrize("seed,kind", [(0, "plain"), (1, "overrides"), (2, "primaries"),
                                       (3, "both")])
def test_kernel_matches_c_factor_form(seed, kind, power):
    ctx = _kernel_case(seed, kind, POWERS[power])
    inst = ctx.instance
    assert ctx.k == (2 if kind in ("primaries", "both") else 0)
    prim_power = dict(zip(ctx.prim_ids, ctx.table[:ctx.k, POWER]))

    def sec_power(i):
        return float(POWERS[power].power(sr_distance(inst, i, i), inst.alpha))

    def hat(v, exclude=None):
        base = inst.noise if v in prim_power or inst.link(v).noise_override is None \
            else inst.link(v).noise_override
        return base + sum(p / sr_distance(inst, j, v) ** inst.alpha
                          for j, p in prim_power.items() if j != exclude)

    def beta(v):
        return inst.beta if v in prim_power else (inst.link(v).beta_override or inst.beta)

    # the old margin test: 1 - beta * hat noise * l ** alpha / P > 0
    dropped = tuple(v for v in sorted(lk.id for lk in inst.links)
                    if not 1.0 - beta(v) * hat(v) * sr_distance(inst, v, v) ** inst.alpha
                    / sec_power(v) > 0)
    assert ctx.removed_ids == dropped
    ids = [int(i) for i in ctx.ids]
    c = [_c_factor(inst, v, hat(v), beta(v), sec_power(v)) for v in ids]
    raw = np.array([[_c_form(inst, w, v, sec_power(w), sec_power(v), c_v) if w != v else 0.0
                     for v, c_v in zip(ids, c)] for w in ids]).reshape(ctx.n, ctx.n)
    np.testing.assert_allclose(ctx.raw, raw, rtol=1e-14, atol=0)
    np.testing.assert_allclose([c_factor(ctx, v) for v in ids], c, rtol=1e-14, atol=0)

    def on_primaries(noise):
        return np.array([[_c_form(inst, w, v, sec_power(w), prim_power[v],
                                  _c_factor(inst, v, noise(v), beta(v), prim_power[v]))
                          for v in ctx.prim_ids] for w in ids]).reshape(ctx.n, ctx.k)

    np.testing.assert_allclose(ctx.raw_to_prim, on_primaries(lambda v: hat(v, exclude=v)),
                               rtol=1e-14, atol=0)
    np.testing.assert_allclose(ctx.aff_to_prim_plain,
                               np.minimum(on_primaries(lambda v: inst.noise), 1.0),
                               rtol=1e-14, atol=0)


def test_colocated_sender_reads_raw_cap_over_any_budget():
    # link 1's sender and primary 9's receiver sit on link 0's receiver; with
    # beta 0.5 and noise 0.1 every budget is above 1 (link 0: 1.11, link 1:
    # 1.74, primary 9: 1.48), so capping the interference before dividing by
    # the budget would read below RAW_CAP
    prim = PrimarySet(links=(make_link(9, 1.0, -1.1, 1.0, 0.0),), powers=(1.0,))
    links = (make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, 1.0, 0.0, 1.0, 1.0))
    inst = Instance(links=links, alpha=2.5, beta=0.5, noise=0.1, primaries=prim)
    ctx = AffectanceContext(inst, UNIFORM, primaries=prim)
    assert ctx.removed_ids == ()
    assert ctx.raw[1, 0] == RAW_CAP
    assert ctx.raw_to_prim[1, 0] == RAW_CAP
    assert ctx.aff_to_prim_plain[1, 0] == 1.0
    bare = AffectanceContext(dataclasses.replace(inst, primaries=None), UNIFORM)
    assert bare.raw[1, 0] == RAW_CAP


def _terms_before_the_table(ctx, power):
    """c_v of every secondary and hat noise of every receiver, primaries
    first, computed as the context did before it held a receiver table:
    signal over beta minus the noise and the primaries' summed interference,
    each primary at the instance's beta and noise."""
    inst, prims = ctx.instance, ctx.prim_ids
    recv = prims + [int(i) for i in ctx.ids]
    lengths = inst.lengths[inst.positions(recv)]
    powers = np.concatenate([np.array(ctx.primaries.powers if prims else (), dtype=float),
                             power.power(lengths[len(prims):], inst.alpha)])
    beta = np.array([inst.beta if i in prims else inst.link(i).beta_override or inst.beta
                     for i in recv])
    noise = np.array([inst.noise if i in prims or inst.link(i).noise_override is None
                      else inst.link(i).noise_override for i in recv])
    from_prim = np.minimum(powers[:len(prims), None] / inst.sr_matrix(prims, recv) ** inst.alpha,
                           RAW_CAP)
    np.fill_diagonal(from_prim, 0.0)
    hat = noise + from_prim.sum(axis=0)
    signal = powers / lengths ** inst.alpha
    return (signal / (signal / beta - hat))[len(prims):], hat


@pytest.mark.parametrize("power", sorted(POWERS))
@pytest.mark.parametrize("seed,kind", [(0, "plain"), (1, "overrides"), (2, "primaries"),
                                       (3, "both")])
def test_receiver_table_is_what_the_exact_check_reads(seed, kind, power):
    ctx = _kernel_case(seed, kind, POWERS[power])
    inst, k = ctx.instance, ctx.k
    assert ctx.table.shape == (k + ctx.n, 6)
    # the exact check recomputes the interference from geometry and reads
    # the other terms from the table: its budgets are the stored ones
    assert np.array_equal(_exact_budgets(ctx)[1], ctx.table[:, BUDGET])
    # a primary's beta and noise are the instance's; row k + p is the
    # secondary at position p
    assert np.all(ctx.table[:k, BETA] == inst.beta) and np.all(ctx.table[:k, NOISE] == inst.noise)
    assert [float(x) for x in ctx.table[:k, POWER]] == [
        float(p) for p in (ctx.primaries.powers if k else ())]
    assert np.array_equal(ctx.table[k:, POWER], ctx.powers)
    assert np.shares_memory(ctx.powers, ctx.table)
    # c_factor and hat_noise return what they did before the table
    c, hat = _terms_before_the_table(ctx, POWERS[power])
    assert [c_factor(ctx, int(v)) for v in ctx.ids] == c.tolist()
    if ctx.has_primaries:
        assert [hat_noise(ctx, int(u)) for u in ctx.prim_ids + list(ctx.ids)] == hat.tolist()
        assert np.array_equal(ctx.table[:, HAT_NOISE], hat)


def test_context_refuses_a_signal_over_beta_that_is_not_finite():
    # at length 1e-120 and alpha 2.5 the signal P/l**alpha is 1e300, finite,
    # but over a beta of 1e-10 it passes the float range
    tiny = make_link(0, 0.0, 0.0, 1e-120, 0.0)
    far = make_link(1, 50.0, 0.0, 51.0, 0.0)
    message = r"link\(s\) \[0\]: signal P/l\*\*alpha is not finite over beta"
    for inst in (Instance(links=(tiny, far), alpha=2.5, beta=1e-10),
                 Instance(links=(dataclasses.replace(tiny, beta_override=1e-10), far),
                          alpha=2.5)):
        with warnings.catch_warnings(), pytest.raises(ValueError, match=message):
            warnings.simplefilter("error")  # the refusal is the only report
            AffectanceContext(inst, UNIFORM)
    # a primary, whose beta is the instance's, is refused the same way
    prim = PrimarySet(links=(dataclasses.replace(tiny, id=2),), powers=(1.0,))
    inst = Instance(links=(far,), alpha=2.5, beta=1e-10, primaries=prim)
    with warnings.catch_warnings(), pytest.raises(ValueError, match=r"link\(s\) \[2\]: signal"):
        warnings.simplefilter("error")
        AffectanceContext(inst, UNIFORM, primaries=prim)


@pytest.mark.parametrize("noise,sy", [(0.0, 1e-124), (0.9999999, 1e-121)],
                         ids=["distance", "budget"])
def test_nearly_colocated_pair_reads_raw_cap(noise, sy):
    # link 1's sender sits 1e-124 (or 1e-121) from link 0's receiver: its
    # interference there, or that over link 0's budget of about 1e-7,
    # passes the float range without the distance being 0
    inst = Instance(links=(make_link(0, 0.0, 0.0, 1.0, 0.0), make_link(1, 1.0, sy, 1.5, 0.0)),
                    alpha=2.5, noise=noise)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ctx = AffectanceContext(inst, UNIFORM)
        assert not certify(ctx, [0, 1]).exact_sinr_ok and certify(ctx, [0]).verified
    assert ctx.raw[1, 0] == RAW_CAP and affectance(ctx, 1, 0) == 1.0


def test_context_refuses_primaries_other_than_the_instance_own():
    inst = generate_instance(GenConfig(n=12, R=6.0, delta=2.0, primaries=2, seed=3))
    louder = PrimarySet(links=inst.primaries.links,
                        powers=tuple(100 * p for p in inst.primaries.powers))
    assert exact_admission(AffectanceContext(inst, UNIFORM, primaries=inst.primaries)).ids \
        == (3,)
    with pytest.raises(ValueError, match="instance's own"):
        AffectanceContext(inst, UNIFORM, primaries=louder)
    with pytest.raises(ValueError, match="instance's own"):
        AffectanceContext(dataclasses.replace(inst, primaries=None), UNIFORM,
                          primaries=inst.primaries)
    # None and the empty set stay valid on any instance
    empty = PrimarySet(links=(), powers=())
    assert AffectanceContext(inst, UNIFORM, primaries=empty).k == 0
    assert AffectanceContext(inst, UNIFORM).k == 0
