import json
import math
import random
from fractions import Fraction
from importlib import resources
from itertools import product

import pytest

from higgspec import cli, moduli, spectral
from higgspec.errors import (
    DegreeCapExceeded,
    DegreeOrderViolation,
    InconsistentBranchData,
    NilpotentDatum,
    NotApplicable,
    RankCap,
    VerificationFailure,
    ZeroHiggsUnsupported,
)
from higgspec.geometry import NSClass, ProductOfCurves, SurfaceModel
from higgspec.matrix import charpoly_cofactor
from higgspec.moduli import (
    MAX_SL2R_TUPLES,
    LatticeSectionDatum,
    SL2RData,
    SL2RDatum,
    SplitHiggsDescription,
    Stability,
    TopologicalData,
    cstar_scale,
    higher_rank_build,
    higher_rank_charcheck,
    hitchin_section,
    hodge_stability,
    milnor_wood_check,
    real_stability,
    rigidity_verdict,
    sl2r_enumerate,
)
from higgspec.poly import Poly
from higgspec.spectral import (
    OneForm,
    RankOneFactorization,
    SpectralDatum,
    SymDiff,
    hitchin_map,
    spectral_base_check,
)

P = Poly.from_text


@pytest.fixture
def g22():
    return ProductOfCurves(2, 2)


# -- stability ---------------------------------------------------------------------


def test_hodge_stability_table():
    assert hodge_stability(1, -1, True) == Stability.STABLE
    assert hodge_stability(0, 0, True) == Stability.NOT_STABLE
    assert hodge_stability(-1, 0, True) == Stability.NOT_STABLE
    with pytest.raises(ZeroHiggsUnsupported):
        hodge_stability(1, 0, False)


def test_real_stability_cases(g22):
    m = g22.model

    def desc(L1, L2, a, b, prop, iso):
        return SplitHiggsDescription(NSClass(L1), NSClass(L2), m, a, b, prop, iso)

    # deg L1 > deg L2
    assert real_stability(desc((1, 0), (-1, 0), True, False, True, False)) == Stability.STABLE
    assert real_stability(desc((1, 0), (-1, 0), False, True, True, False)) == Stability.NOT_STABLE
    # equal degrees, non-isomorphic
    assert real_stability(desc((1, 0), (0, 1), True, True, False, False)) == Stability.STABLE
    assert real_stability(desc((1, 0), (0, 1), True, False, True, False)) == Stability.NOT_STABLE
    # isomorphic summands
    assert real_stability(desc((1, 0), (1, 0), True, True, False, True)) == Stability.STABLE
    assert real_stability(desc((1, 0), (1, 0), True, True, True, True)) == Stability.POLYSTABLE
    assert real_stability(desc((1, 0), (1, 0), False, False, True, True)) == Stability.POLYSTABLE
    with pytest.raises(DegreeOrderViolation):
        real_stability(desc((-1, 0), (1, 0), True, True, True, False))


def test_real_stability_flag_consistency(g22):
    with pytest.raises(ValueError):
        SplitHiggsDescription(
            NSClass((1, 0)), NSClass((0, 1)), g22.model, True, False, False, False
        )


def test_real_stability_total_over_flag_table(g22):
    m = g22.model
    pairs = [((1, 0), (-1, 0)), ((1, 0), (0, 1)), ((1, 0), (1, 0))]
    for (l1, l2), a, b, prop in product(pairs, (True, False), (True, False), (True, False)):
        iso = l1 == l2
        if (not a or not b) and not prop:
            continue  # inconsistent declaration, rejected at construction
        desc = SplitHiggsDescription(NSClass(l1), NSClass(l2), m, a, b, prop, iso)
        verdict = real_stability(desc)
        assert verdict in (Stability.STABLE, Stability.POLYSTABLE, Stability.NOT_STABLE)
        if iso:
            assert (verdict == Stability.STABLE) == (not prop)
        elif m.pair(NSClass(l1), m.omega) == m.pair(NSClass(l2), m.omega):
            assert (verdict == Stability.STABLE) == (a and b)
        else:
            assert (verdict == Stability.STABLE) == a


# -- Hitchin section ------------------------------------------------------------------


def quarter(s1):
    return SymDiff.outer(s1, s1).scale(Fraction(1, 4))


def test_section_generic_branch():
    alpha = OneForm((P("1 * x1", 2), P("1 * x2", 2)))
    f = RankOneFactorization(alpha, P("1 * x1 + 2", 2))
    s1 = OneForm((P("2 * x2", 2), Poly.zero(2)))
    d = SpectralDatum(s1, quarter(s1).add(f.symdiff()))
    out = hitchin_section(d)
    assert out.branch == "generic"
    assert out.stability == Stability.STABLE
    assert out.real and out.identity_checked
    assert hitchin_map(out.field) == d


def test_section_unit_branch_polystable():
    alpha = OneForm((P("1 * x1", 2), P("1 * x2", 2)))
    f = RankOneFactorization(alpha, Poly.one(2))
    d = SpectralDatum(OneForm((Poly.zero(2),) * 2), f.symdiff())
    out = hitchin_section(d)
    assert out.branch == "unit_branch"
    assert out.stability == Stability.POLYSTABLE
    assert hitchin_map(out.field) == d


def test_section_nilpotent_diagonal():
    s1 = OneForm((P("1 * x1 + 1", 2), P("3 * x2", 2)))
    d = SpectralDatum(s1, quarter(s1))
    out = hitchin_section(d)
    assert out.branch == "nilpotent_diagonal"
    assert out.stability == Stability.POLYSTABLE
    assert hitchin_map(out.field) == d
    # emitted field is diagonal with entry s1/2
    for i, mat in enumerate(out.field.matrices):
        assert mat[0][1].is_zero() and mat[1][0].is_zero()
        assert mat[0][0] == s1[i] * Fraction(1, 2) == mat[1][1]


@pytest.mark.parametrize("branch", ["generic", "nilpotent_diagonal"])
def test_section_identity_failure_is_a_verification_failure(branch, monkeypatch):
    s1 = OneForm((P("1 * x1 + 1", 2), P("3 * x2", 2)))
    s2 = quarter(s1)
    if branch == "generic":
        s2 = s2.add(RankOneFactorization(OneForm((P("1 * x1", 2), P("1 * x2", 2))), P("1 * x1 + 2", 2)).symdiff())
    # moduli reads the chart backend from spectral when it runs
    monkeypatch.setattr(spectral, "hitchin_map", lambda field: SpectralDatum(OneForm((Poly.zero(2),) * 2), SymDiff(((Poly.zero(2),) * 2,) * 2)))
    with pytest.raises(VerificationFailure) as err:
        hitchin_section(SpectralDatum(s1, s2))
    suffix = " on the diagonal branch" if branch == "nilpotent_diagonal" else ""
    assert str(err.value) == "section identity sh(chi(s)) = s failed" + suffix


def test_section_rejects_origin():
    with pytest.raises(NilpotentDatum):
        hitchin_section(SpectralDatum(OneForm((Poly.zero(2),) * 2), SymDiff(((Poly.zero(2),) * 2,) * 2)))


def test_section_lattice_verdicts(g22):
    m = g22.model
    out = hitchin_section(LatticeSectionDatum(NSClass((2, 0)), NSClass((4, 0)), m))
    assert out.stability == Stability.STABLE
    assert out.E_classes == (NSClass((0, 0)), NSClass((-2, 0)))
    assert out.psl2r_condition is True  # (4F1)^2 = 0
    assert out.sl2r_condition is True  # L = 2F1 divisible by two

    odd = hitchin_section(LatticeSectionDatum(NSClass((1, 0)), NSClass((2, 0)), m))
    assert odd.psl2r_condition is True and odd.sl2r_condition is False

    mixed = hitchin_section(LatticeSectionDatum(NSClass((2, 2)), NSClass((4, 4)), m))
    assert mixed.psl2r_condition is False  # (4F1+4F2)^2 = 32

    zero = hitchin_section(LatticeSectionDatum(NSClass((0, 0)), NSClass((0, 0)), m))
    assert zero.stability == Stability.POLYSTABLE

    with pytest.raises(InconsistentBranchData):
        LatticeSectionDatum(NSClass((1, 0)), NSClass((1, 0)), m)


def test_cstar_scale_preserves_verdict():
    alpha = OneForm((P("1 * x1", 2), P("1 * x2", 2)))
    f = RankOneFactorization(alpha, P("1 * x1", 2))
    d = SpectralDatum(OneForm((Poly.zero(2),) * 2), f.symdiff())
    assert cstar_scale(d, 1) == d
    assert cstar_scale(d, 0).s2.is_zero()
    scaled = cstar_scale(d, 2)
    v = spectral_base_check(scaled)
    assert v.kind == "member"
    assert v.factorization.tau == f.tau * 4


# -- SL2(R) enumeration -----------------------------------------------------------------


def test_sl2r_four_fibers(g22):
    m = g22.model
    data = sl2r_enumerate([(g22.F1, 1)] * 4, NSClass((2, 0)), m)
    assert len(data) == 8
    assert sorted(sum(d.tuple_a) for d in data) == [0, 2, 2, 2, 2, 2, 2, 4]
    for d in data:
        assert d.N_class * 2 == d.D1 - NSClass((2, 0))
        assert d.torsion_multiplicity == m.torsion2_count


def test_sl2r_balanced_split_always_passes(g22):
    m = g22.model
    D1 = g22.F1 + g22.F2  # D1^2 = 2 != 0
    data = sl2r_enumerate([(D1, 2)], D1, m)
    assert [d.tuple_a for d in data] == [(1,)]
    assert data[0].N_class.is_zero()


def test_sl2r_empty_branch(g22):
    data = sl2r_enumerate([], NSClass((0, 0)), g22.model)
    assert len(data) == 1
    assert data[0].D1.is_zero() and data[0].D2.is_zero()


def test_sl2r_validates_branch_sum(g22):
    with pytest.raises(InconsistentBranchData):
        sl2r_enumerate([(g22.F1, 1)], NSClass((2, 0)), g22.model)


@pytest.mark.parametrize("bad", [1.9, True])
def test_sl2r_multiplicities_are_ints(g22, bad):
    # int(m) read 1.9 and True as 1: the pair below gave the data of (1, 1)
    with pytest.raises(TypeError, match="multiplicity must be int"):
        sl2r_enumerate([(g22.F1, bad), (g22.F1, 1)], NSClass((1, 0)), g22.model)


def _ref_pair(Q, x, y):
    return sum(x[i] * Q[i][j] * y[j] for i in range(len(Q)) for j in range(len(Q)))


def ref_sl2r(comps, L, Q):
    """Every tuple in product order with (D1 - D2)^2 = 0 and D1 - L even.

    A plain Fraction filter on coordinate lists, written from the definition:
    D1 = sum a_i c_i, D2 = sum (m_i - a_i) c_i, N = (D1 - L) / 2.  Also counts
    the tuples with D1 - L even that only the square test throws out.
    """
    r = len(Q)
    out, square_rejects = [], 0
    for a in product(*[range(m + 1) for _, m in comps]):
        D1 = [sum((ai * c[j] for (c, _), ai in zip(comps, a)), Fraction(0)) for j in range(r)]
        D2 = [sum(((m - ai) * c[j] for (c, m), ai in zip(comps, a)), Fraction(0)) for j in range(r)]
        diff = [x - y for x, y in zip(D1, D2)]
        half = [x - l for x, l in zip(D1, L)]
        if not all(h.denominator == 1 and h.numerator % 2 == 0 for h in half):
            continue
        if _ref_pair(Q, diff, diff) != 0:
            square_rejects += 1
            continue
        out.append((a, tuple(D1), tuple(D2), tuple(h / 2 for h in half)))
    return out, square_rejects


def _random_lattice(rng):
    """Rank 1-4, form entries in -2..2, half and third coordinates, m_i in 0..3.

    Half the lattices of rank >= 2 get the hyperbolic block [[1, 1], [1, 0]]
    and draw most components on its isotropic lines (0, 1) and (-2, 1), whose
    pairing is -2: there (D1 - D2)^2 = 0 holds for D1 != D2 as well.
    """
    r = rng.randint(1, 4)
    Q = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            Q[i][j] = Q[j][i] = rng.randint(-2, 2)
    hyperbolic = r >= 2 and rng.random() < 0.5
    if hyperbolic:
        Q[0][0], Q[0][1], Q[1][0], Q[1][1] = 1, 1, 1, 0
    Q[0][0] = max(Q[0][0], 1)
    model = SurfaceModel(tuple(f"e{i}" for i in range(r)), Q, NSClass((0,) * r), NSClass((1,) + (0,) * (r - 1)))

    def coords():
        if hyperbolic and rng.random() < 0.7:
            k = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3)))
            return [k * x for x in rng.choice(((0, 1), (-2, 1)))] + [Fraction(0)] * (r - 2)
        return [Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(r)]

    comps = [(coords(), rng.randint(0, 3)) for _ in range(rng.randint(0, 4))]
    L = [sum((m * c[j] for c, m in comps), Fraction(0)) / 2 for j in range(r)]
    return model, Q, comps, L


def test_sl2r_matches_brute_force_on_random_lattices():
    rng = random.Random(1)
    seen = {"empty component list": 0, "kept with D1 != D2": 0, "even but (D1 - D2)^2 != 0": 0}
    for _ in range(400):
        model, Q, comps, L = _random_lattice(rng)
        got = sl2r_enumerate([(NSClass(c), m) for c, m in comps], NSClass(L), model)
        want, square_rejects = ref_sl2r(comps, L, Q)
        assert [(d.tuple_a, d.D1.coords, d.D2.coords, d.N_class.coords) for d in got] == want
        assert all(d.torsion_multiplicity == model.torsion2_count for d in got)
        seen["empty component list"] += not comps
        seen["kept with D1 != D2"] += sum(D1 != D2 for _, D1, D2, _ in want)
        seen["even but (D1 - D2)^2 != 0"] += square_rejects
    assert all(seen.values()), seen


def _split_lattice(rng):
    """Rank 2-3, k = 5..8 components with m_i in 1..5, coordinates over 1, 2 and 3.

    prod(m_i + 1) stays at most 600.  The components are drawn from a pool of
    two or three classes, most of them on the isotropic lines (0, 1) and
    (-2, 1) of the hyperbolic block [[1, 1], [1, 0]] (as in _random_lattice),
    so many tuples are kept, many partial sums are equal and one D1 is
    reached from many prefixes.
    """
    r = rng.randint(2, 3)
    Q = [[0] * r for _ in range(r)]
    for i in range(r):
        for j in range(i, r):
            Q[i][j] = Q[j][i] = rng.randint(-2, 2)
    Q[0][0], Q[0][1], Q[1][0], Q[1][1] = 1, 1, 1, 0
    model = SurfaceModel(tuple(f"e{i}" for i in range(r)), Q, NSClass((0,) * r), NSClass((1,) + (0,) * (r - 1)))

    def coords():
        if rng.random() < 0.8:
            k = Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 2, 3)))
            return [k * x for x in rng.choice(((0, 1), (-2, 1)))] + [Fraction(0)] * (r - 2)
        return [Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(r)]

    pool = [coords() for _ in range(rng.randint(2, 3))]
    ms = [rng.randint(1, 5) for _ in range(rng.randint(5, 8))]
    while math.prod(m + 1 for m in ms) > 600:
        i = rng.randrange(len(ms))
        ms[i] = max(1, ms[i] // 2)
    comps = [(rng.choice(pool), m) for m in ms]
    L = [sum((m * c[j] for c, m in comps), Fraction(0)) / 2 for j in range(r)]
    return model, Q, comps, L


def _partial(comps, a, r):
    return tuple(sum((ai * c[j] for (c, _), ai in zip(comps, a)), Fraction(0)) for j in range(r))


def test_sl2r_split_walk_matches_brute_force():
    """The prefix x suffix walk against ref_sl2r, which shares no code with it.

    The walk splits the digits at h = k // 2, so with k >= 5 both halves hold
    at least two.  The draws must cover: a denominator above one (the buckets
    are then mod 2 d with d > 1), a multiplicity of 5, a prefix whose kept
    suffixes come from two or more suffix sums that interleave in product
    order, and one kept D1 reached from three or more prefix sums.
    """
    rng = random.Random(20)
    seen = {"d > 1": 0, "m = 5": 0, "interleaved suffix sums": 0, "D1 from 3+ prefix sums": 0}
    for _ in range(25):
        model, Q, comps, L = _split_lattice(rng)
        got = sl2r_enumerate([(NSClass(c), m) for c, m in comps], NSClass(L), model)
        want, _ = ref_sl2r(comps, L, Q)
        assert [(d.tuple_a, d.D1.coords, d.D2.coords, d.N_class.coords) for d in got] == want
        h, r = len(comps) // 2, len(Q)
        seen["d > 1"] += any(x.denominator > 1 for c, _ in comps for x in c)
        seen["m = 5"] += any(m == 5 for _, m in comps)
        suffix_sums, prefix_sums = {}, {}
        for a, D1, _, _ in want:
            suffix_sums.setdefault(a[:h], []).append(_partial(comps[h:], a[h:], r))
            prefix_sums.setdefault(D1, set()).add(_partial(comps[:h], a[:h], r))
        # a suffix sum that comes back after another one: its group's suffixes are not contiguous
        seen["interleaved suffix sums"] += any(
            sum(x != y for x, y in zip(seq, seq[1:])) >= len(set(seq)) for seq in suffix_sums.values()
        )
        seen["D1 from 3+ prefix sums"] += any(len(ps) >= 3 for ps in prefix_sums.values())
    assert all(seen.values()), seen


def _sl2r_surface_doc(Q, comps, L):
    """An sl2r-enum config on the lattice of Q with K = 0 and omega = e0, as _random_lattice draws it."""
    r = len(Q)
    return {
        "command": "sl2r-enum",
        "model": {
            "kind": "surface", "generators": [f"e{i}" for i in range(r)], "intersection": Q,
            "K": [0] * r, "omega": [1] + [0] * (r - 1),
        },
        "payload": {
            "components": [{"class": [str(x) for x in c], "multiplicity": m} for c, m in comps],
            "L": [str(x) for x in L],
        },
    }


def test_sl2r_enum_block_matches_ref_on_random_lattices():
    """The CLI's values.data against json.dumps of the ref_sl2r rows, which share no code with the writer.

    The writer renders each prefix's rows from the groups of the walk: a head
    per D1, a tail per suffix and the pieces per kept list.  The draws must
    cover k = 0 and k = 1 (an empty prefix, and with k = 0 an empty suffix),
    two prefixes sharing one kept list, an empty kept list between nonempty
    ones and a denominator above 1.
    """
    def tree(coords):
        return [{"num": x.numerator, "den": x.denominator} for x in coords]

    rng = random.Random(27)
    seen = {"k = 0": 0, "k = 1": 0, "shared kept list": 0, "empty kept list inside": 0, "d > 1": 0}
    draws = [_random_lattice(rng) for _ in range(150)] + [_split_lattice(rng) for _ in range(15)]
    for model, Q, comps, L in draws:
        want, _ = ref_sl2r(comps, L, Q)
        rows = [{"D1": tree(D1), "D2": tree(D2), "N": tree(N), "tuple_a": list(a)} for a, D1, D2, N in want]
        report = cli.run(cli.parse_config(json.dumps(_sl2r_surface_doc(Q, comps, L))))
        plain = {k: v for k, v in report.items() if not k.startswith("_")}
        assert cli.machine_block(report) == json.dumps(
            {**plain, "values": {"data": rows}}, sort_keys=True, separators=(",", ":")
        ) + "\n"
        groups = sl2r_enumerate([(NSClass(c), m) for c, m in comps], NSClass(L), model).groups
        kept_ids = [id(kept) for _, kept in groups if kept]
        filled = [bool(kept) for _, kept in groups]
        seen["k = 0"] += not comps
        seen["k = 1"] += len(comps) == 1 and bool(want)
        seen["shared kept list"] += len(set(kept_ids)) < len(kept_ids)
        seen["empty kept list inside"] += any(
            not f and any(filled[:i]) and any(filled[i + 1:]) for i, f in enumerate(filled)
        )
        seen["d > 1"] += bool(want) and any(x.denominator > 1 for c, _ in comps for x in c)
    assert all(seen.values()), seen


def test_sl2r_data_is_a_lazy_sequence_in_product_order(g22):
    data = sl2r_enumerate([(g22.F1, 1)] * 4, NSClass((2, 0)), g22.model)
    assert isinstance(data, SL2RData) and data._rows is None
    assert len(data) == 8 and data._rows is None  # len builds no rows
    want = [a for a in product(range(2), repeat=4) if sum(a) % 2 == 0]
    rows = list(data)
    assert [d.tuple_a for d in rows] == want
    assert [d.tuple_a for d in data] == want
    assert [data[i] for i in range(len(data))] == rows
    assert data[-1] is rows[-1] and data[-1].tuple_a == (1, 1, 1, 1)
    assert all(x is y for x, y in zip(data, rows))  # a second read gives the same objects
    assert all(type(d) is SL2RDatum for d in rows)
    with pytest.raises(IndexError):
        data[8]
    with pytest.raises(TypeError):
        data[0] = rows[1]


def test_sl2r_datum_is_an_immutable_named_tuple(g22):
    d = sl2r_enumerate([(g22.F1, 1)] * 2, g22.F1, g22.model)[0]
    assert SL2RDatum._fields == ("D1", "D2", "N_class", "torsion_multiplicity", "tuple_a")
    assert tuple(d) == (d.D1, d.D2, d.N_class, d.torsion_multiplicity, d.tuple_a)
    with pytest.raises(AttributeError):
        d.D1 = d.D2


def test_sl2r_tuple_cap_checked_before_enumeration(g22):
    with pytest.raises(DegreeCapExceeded):  # 2^40 tuples
        sl2r_enumerate([(g22.F1, 1)] * 40, NSClass((20, 0)), g22.model)
    assert MAX_SL2R_TUPLES == 2**16
    # exactly 2^16 tuples is allowed; D1 - D2 = (2 (a1 + a2) - 510)(F1 + F2)
    c = g22.F1 + g22.F2
    data = sl2r_enumerate([(c, 255), (c, 255)], c * 255, g22.model)
    assert [d.tuple_a for d in data] == [(a, 255 - a) for a in range(256)]


def test_sl2r_validation_precedes_cap(g22):
    with pytest.raises(InconsistentBranchData):
        sl2r_enumerate([(g22.F1, 1)] * 40, NSClass((19, 0)), g22.model)


# -- Milnor-Wood --------------------------------------------------------------------------


def test_milnor_wood_examples(g22):
    m = g22.model
    rep = milnor_wood_check(g22.F1, g22.F1 + g22.F2, m, True)
    assert rep.toledo == 1 and rep.bound == 2 and rep.holds

    neg = milnor_wood_check(NSClass((3, 0)), g22.F2, m, True)
    assert neg.toledo == 3 and neg.bound == 1 and not neg.holds

    assert milnor_wood_check(NSClass((0, 0)), g22.F1, m, True).holds
    with pytest.raises(NotApplicable):
        milnor_wood_check(g22.F1, g22.F1, m, False)


def test_milnor_wood_on_enumerated_data(g22):
    m = g22.model
    for d in sl2r_enumerate([(g22.F1, 1)] * 4, NSClass((2, 0)), m):
        for gamma in (g22.F1, g22.F2, g22.F1 + g22.F2):
            rep = milnor_wood_check(d.N_class, gamma, m, True)
            assert rep.holds
            assert rep.bound == m.pair(m.K, gamma) / 2


# -- rigidity ------------------------------------------------------------------------------


def test_rigidity_verdicts():
    assert rigidity_verdict(TopologicalData(True, 0, (0, 0, 0))).status == "rigid"
    v = rigidity_verdict(TopologicalData(True, 2))
    assert v.status == "not_rigid" and "b1" in v.reason
    assert rigidity_verdict(TopologicalData(False, 2)).status == "not_rigid"
    assert rigidity_verdict(TopologicalData(False, 0)).status == "undecided"
    v2 = rigidity_verdict(TopologicalData(True, 0, (0, 4)))
    assert v2.status == "not_rigid" and "double cover" in v2.reason


# -- higher rank ----------------------------------------------------------------------------


def test_companion_shape():
    c = [Poly.constant(1, k) for k in (2, 3, 4)]
    m = higher_rank_build(4, c)
    assert m[0] == (Poly.zero(1), c[0], c[1], c[2])
    for i in range(1, 4):
        for j in range(4):
            expected = Poly.one(1) if j == i - 1 else Poly.zero(1)
            assert m[i][j] == expected


def test_charpoly_convention_frozen():
    convention = json.loads(
        resources.files("higgspec.data").joinpath("charpoly_convention.json").read_text()
    )
    c2 = Poly.variable(1, 0)
    assert charpoly_cofactor(higher_rank_build(2, [c2])).to_text() == convention["n2"]
    c2, c3 = Poly.variable(2, 0), Poly.variable(2, 1)
    assert charpoly_cofactor(higher_rank_build(3, [c2, c3])).to_text() == convention["n3"]


def test_charcheck_examples():
    c2 = Poly.variable(1, 0)
    assert higher_rank_charcheck(higher_rank_build(2, [c2]))
    # nilpotent companion: charpoly is lambda^n
    z = Poly.zero(1)
    m = higher_rank_build(4, [z, z, z])
    assert higher_rank_charcheck(m)
    lam = Poly.variable(2, 1)
    assert charpoly_cofactor(m) == lam**4


def test_charcheck_rank5_and_cap():
    cs = [Poly.constant(1, k) for k in (1, -2, 3, -4)]
    assert higher_rank_charcheck(higher_rank_build(5, cs))
    with pytest.raises(RankCap):
        higher_rank_build(6, cs + [Poly.one(1)])
    with pytest.raises(RankCap):
        higher_rank_build(1, [])


def test_expected_charpoly_matches_spelled_out_sign():
    # n = 3: lambda^3 - c2 lambda - c3 with symbolic coefficients
    c2, c3 = Poly.variable(2, 0), Poly.variable(2, 1)
    lam = Poly.variable(3, 2)
    assert charpoly_cofactor(higher_rank_build(3, [c2, c3])) == lam**3 - c2.lift() * lam - c3.lift()
