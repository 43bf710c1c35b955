import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from higgspec import spectral
from higgspec.errors import (
    CayleyHamiltonViolation,
    DegreeCapExceeded,
    FactorizationMismatch,
    HiggspecError,
    NotRankOne,
    ZeroInput,
    ZeroPolynomial,
)
from higgspec.matrix import mat_mul
from higgspec.poly import Poly, is_squarefree
from higgspec.spectral import (
    MAX_TOWER_COVERS,
    CoverModule,
    HiggsField,
    Member,
    Nilpotent,
    NotMember,
    OneForm,
    RankOneFactorization,
    SpectralDatum,
    SymDiff,
    annihilator_distribution,
    build_cover,
    canonical_module,
    factor_rank_one,
    first_nonzero_minor,
    higgs_integrable,
    hitchin_map,
    is_normal,
    module_from_higgs,
    pushforward,
    spectral_base_check,
    tower_enumerate,
)

P = Poly.from_text


def sym(nvars, rows):
    return SymDiff(tuple(tuple(P(t, nvars) for t in row) for row in rows))


def consts(nvars, rows):
    return tuple(tuple(Poly.constant(nvars, c) for c in row) for row in rows)


@pytest.fixture
def alpha_xy():
    return OneForm((P("1 * x1", 2), P("1 * x2", 2)))


def canonical_field(f):
    """B_i = [[0, -a_i tau], [a_i, 0]] directly, bypassing the cover machinery."""
    n = f.dim
    z = Poly.zero(n)
    return HiggsField(
        tuple(((z, -f.alpha[i] * f.tau), (f.alpha[i], z)) for i in range(n))
    )


# -- rank tests -----------------------------------------------------------------


def test_rank_le_one_examples(alpha_xy):
    assert first_nonzero_minor(sym(2, [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]])) is None
    assert first_nonzero_minor(sym(2, [["1", "0"], ["0", "1"]])) is not None
    s = sym(2, [["1 * x1", "1 * x2"], ["1 * x2", "1 * x1"]])
    assert first_nonzero_minor(s) is not None
    with pytest.raises(NotRankOne) as err:
        factor_rank_one(s)
    assert err.value.minor == P("1 * x1^2 + -1 * x2^2", 2)


# -- first_nonzero_minor against a brute-force oracle ----------------------------
#
# Matrices are built and scanned as dicts {exponent tuple: Fraction} with their
# own arithmetic; the oracle shares no code with spectral or poly.


def _ref_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return {e: c for e, c in out.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_first_minor(S):
    """Every 2x2 minor, rows i < j and columns k < l in loop order: the first nonzero one."""
    n = len(S)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    m = _ref_add(_ref_mul(S[i][k], S[j][l]), _ref_mul(S[i][l], S[j][k]), -1)
                    if m:
                        return (i, j, k, l), m
    return None


def _ref_poly(rng, n, degree, nterms):
    t = {}
    for _ in range(nterms):
        e = [0] * n
        for _ in range(rng.randint(0, degree)):
            e[rng.randrange(n)] += 1
        t = _ref_add(t, {tuple(e): Fraction(rng.choice((1, -1, 2, -3)), rng.choice((1, 1, 2)))})
    return t


def _ref_sum_of_squares(n, parts):
    """sum_k tau_k v_k v_k^T for parts [(tau_k, v_k)]."""
    S = [[{} for _ in range(n)] for _ in range(n)]
    for tau, v in parts:
        for i in range(n):
            for j in range(n):
                S[i][j] = _ref_add(S[i][j], _ref_mul(tau, _ref_mul(v[i], v[j])))
    return S


def _rank_test_cases(seed, count=60):
    """Seeded symmetric matrices, n = 1-4, as (label, term-dict matrix)."""
    rng = random.Random(seed)

    def vec(n, support):
        return [_ref_poly(rng, n, 1, 2) if i in support else {} for i in range(n)]

    for c in range(count):
        n = 1 + c % 4
        kind = c % 5
        tau = lambda: _ref_poly(rng, n, 1, rng.randint(1, 2))
        if kind == 0:
            # rank one with zero rows: the pivot p is past them
            support = set(rng.sample(range(n), rng.randint(1, n)))
            yield "rank one, zero rows", _ref_sum_of_squares(n, [(tau(), vec(n, support))])
        elif kind == 1 and n > 1:
            # a b^T + b a^T with disjoint supports: zero diagonal, rank two
            cut = rng.randint(1, n - 1)
            a, b = vec(n, set(range(cut))), vec(n, set(range(cut, n)))
            S = [[_ref_add(_ref_mul(a[i], b[j]), _ref_mul(b[i], a[j])) for j in range(n)] for i in range(n)]
            yield "zero diagonal", S
        elif kind == 2:
            # tau1 alpha alpha^T + tau2 beta beta^T, alpha on coordinates >= q, beta on >= p:
            # the pivot identities hold for several (i, j) before one fails
            q, p = rng.randrange(n), rng.randrange(n)
            parts = [(tau(), vec(n, set(range(q, n)))), (tau(), vec(n, set(range(p, n))))]
            yield f"rank two q={q} p={p}", _ref_sum_of_squares(n, parts)
        elif kind == 3:
            parts = [(tau(), vec(n, set(range(n)))) for _ in range(rng.randint(0, 3))]
            yield f"rank <= {len(parts)}", _ref_sum_of_squares(n, parts)
        else:
            S = [[None] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    S[i][j] = S[j][i] = _ref_poly(rng, n, 2, rng.randint(0, 3))
            yield "random symmetric", S


def _as_symdiff(S):
    n = len(S)
    return SymDiff(tuple(tuple(Poly(n, t) for t in row) for row in S))


FIXED_RANK_TEST_CASES = [
    [[{}, {(1, 0): Fraction(1)}], [{(1, 0): Fraction(1)}, {}]],
    [[{}, {}, {}], [{}, {(0, 0, 0): Fraction(1)}, {}], [{}, {}, {(0, 1, 0): Fraction(2)}]],
    [[{}, {}], [{}, {(0, 1): Fraction(3)}]],
    [[{}, {}], [{}, {}]],
    [[{(2,): Fraction(-1, 2)}]],
]


@pytest.mark.parametrize("seed", range(5))
def test_first_nonzero_minor_matches_brute_force(seed):
    cases = list(_rank_test_cases(seed)) + [("fixed", S) for S in FIXED_RANK_TEST_CASES]
    seen = set()
    for label, S in cases:
        want = _ref_first_minor(S)
        got = first_nonzero_minor(_as_symdiff(S))
        if want is None:
            assert got is None, (label, S)
        else:
            assert got is not None and got[0] == want[0] and got[1].terms == want[1], (label, S)
        seen.add((label.split(" q=")[0], want is None))
    # both answers occur for the planted kinds
    assert {("rank one, zero rows", True), ("zero diagonal", False), ("rank two", False)} <= seen


def _symmetric_objects(T):
    """SymDiff with one Poly object per symmetric position."""
    n = len(T)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = Poly(n, T[i][j])
    return SymDiff(rows)


def _product_key(a, b):
    return tuple(sorted((id(a), id(b))))


def _minor_record(S, i, j, k, l):
    """The record of the det2 call that forms minor (i, j, k, l) of S."""
    return tuple(sorted([_product_key(S[i][k], S[j][l]), _product_key(S[i][l], S[j][k])]))


def _count_products(monkeypatch):
    """Record every kernel call that forms a product: Poly.__mul__ and spectral.det2.

    A call is recorded as the sorted tuple of its products, each the sorted
    ids of its two operands: a det2 minor on a SymDiff of one object per
    symmetric position has the same record as its transpose.
    """
    calls = []
    mul, det2 = Poly.__mul__, spectral.det2

    def counting_mul(a, b):
        calls.append((_product_key(a, b),))
        return mul(a, b)

    def counting_det2(a, b, c, d):
        calls.append(tuple(sorted([_product_key(a, b), _product_key(c, d)])))
        return det2(a, b, c, d)

    monkeypatch.setattr(Poly, "__mul__", counting_mul)
    monkeypatch.setattr(spectral, "det2", counting_det2)
    return calls


def _entry_products(calls, entries):
    """The products, over every recorded call, of two S entries."""
    return [pair for call in calls for pair in call if set(pair) <= entries]


@pytest.mark.parametrize("q, p", [(0, 0), (1, 2), (2, 3), (1, 1)])
def test_rank_test_computes_each_product_once(q, p, monkeypatch):
    # a repeated record is the same minor (or product) formed twice
    n = 4
    rng = random.Random(f"{q} {p}")
    vec = lambda lo: [_ref_poly(rng, n, 1, 2) if i >= lo else {} for i in range(n)]
    T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), vec(q)), (_ref_poly(rng, n, 1, 2), vec(p))])
    S = _symmetric_objects(T)
    calls = _count_products(monkeypatch)
    got = first_nonzero_minor(S)
    assert got is not None and got[0] == _ref_first_minor(T)[0]
    assert calls and len(calls) == len(set(calls))


def test_rank_one_member_forms_no_entry_product(monkeypatch):
    # a member is proved by its construction, tau * alpha alpha^T == S, so no
    # product or minor of two S entries is formed, by factor_rank_one or by
    # first_nonzero_minor; a witness forms each minor at most once
    n = 4
    rng = random.Random(11)
    T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), [_ref_poly(rng, n, 1, 2) for _ in range(n)])])
    S = _symmetric_objects(T)
    entries = {id(p) for row in S.S for p in row}
    calls = _count_products(monkeypatch)
    f = factor_rank_one(S)
    assert not _entry_products(calls, entries)
    assert f.symdiff() == S
    calls.clear()
    assert first_nonzero_minor(S) is None
    assert not _entry_products(calls, entries)

    T2 = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), [_ref_poly(rng, n, 1, 2) for _ in range(n)])
                                 for _ in range(2)])
    S2 = _symmetric_objects(T2)
    entries = {id(p) for row in S2.S for p in row}
    calls.clear()
    with pytest.raises(NotRankOne) as err:
        factor_rank_one(S2)
    assert (err.value.indices, err.value.minor.terms) == _ref_first_minor(T2)
    minors = [c for c in calls if len(c) == 2 and all(set(pair) <= entries for pair in c)]
    assert minors and len(minors) == len(set(minors))


def _record_pair_gcds(monkeypatch):
    """Every two-operand spectral.poly_gcd call as (operands, cofactors)."""
    gcds = []
    gcd = spectral.poly_gcd

    def recording_gcd(*polys):
        out = gcd(*polys)
        if len(polys) == 2:
            gcds.append((polys, out[1:]))
        return out

    monkeypatch.setattr(spectral, "poly_gcd", recording_gcd)
    return gcds


@pytest.mark.parametrize("n", [3, 4])
def test_proportional_row_pair_is_proved_once(n, monkeypatch):
    # S = tau1 a a^T + tau2 b b^T with b zero on rows 0 and 1: rows 0 and 1 are
    # proportional, and one cofactor test of at most n - 1 det2 calls, each
    # pairing an entry with a gcd cofactor, proves every minor on them zero
    # (and minor (0, 2, 0, 1), on those columns); no minor on rows (0, 1) is formed
    calls = _count_products(monkeypatch)
    gcds = _record_pair_gcds(monkeypatch)
    proved = 0
    for seed in range(6):
        rng = random.Random(seed)
        a = [_ref_poly(rng, n, 1, 2) for _ in range(n)]
        b = [{}, {}] + [_ref_poly(rng, n, 1, 2) for _ in range(n - 2)]
        T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), a), (_ref_poly(rng, n, 1, 2), b)])
        want = _ref_first_minor(T)
        if want is None:
            continue
        assert want[0][:2] != (0, 1)
        S = _symmetric_objects(T)
        entries = {id(p) for row in S.S for p in row}
        calls.clear()
        gcds.clear()
        got = first_nonzero_minor(S)
        assert got[0] == want[0] and got[1].terms == want[1]
        assert calls and len(calls) == len(set(calls))
        for _, cofactors in gcds:
            mine = {id(x) for x in cofactors}
            proof = [c for c in calls if any(mine & set(pair) for pair in c)]
            assert len(proof) <= n - 1
            assert not _entry_products(proof, entries)
        assert not {_minor_record(S, 0, 1, k, l) for k in range(n) for l in range(k + 1, n)} & set(calls)
        proved += any(x is S[0][c] and y is S[1][c] for (x, y), _ in gcds for c in range(n))
    assert proved >= 3


@pytest.mark.parametrize("seed", range(4))
def test_proportional_pairs_beside_pairs_that_vanish_only_at_the_point(seed):
    # tau1 a a^T + tau2 b b^T, b zero on the rows below q, tau2 = x1 - ROUTE_POINT[0]:
    # every minor vanishes at the point, the rows below q are proportional
    # and the other row pairs fail their pivot tests
    for n in (2, 3, 4):
        rng = random.Random(100 * seed + n)
        q = rng.randrange(n)
        tau2 = _ref_add({(1,) + (0,) * (n - 1): Fraction(1)}, {(0,) * n: Fraction(-spectral.ROUTE_POINT[0])})
        a = [_ref_poly(rng, n, 1, 2) for _ in range(n)]
        b = [_ref_poly(rng, n, 1, 2) if i >= q else {} for i in range(n)]
        T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), a), (tau2, b)])
        S = _as_symdiff(T)
        got = _outcome(S)
        _check_against_oracle(T, got)
        if got[0] == "witness":
            assert first_nonzero_minor(S) == (got[1], got[2])


def test_failed_cofactor_test_leaves_the_minors_to_the_exact_comparison(monkeypatch):
    # tau1 a a^T + tau2 b b^T with tau2 = x1 - ROUTE_POINT[0]: every minor
    # vanishes at the point, so rows 0 and 1 go to the cofactor test, which
    # fails (they are not proportional); their minors are then formed exactly
    calls = _count_products(monkeypatch)
    gcds = _record_pair_gcds(monkeypatch)
    for n in (2, 3, 4):
        rng = random.Random(40 + n)
        tau2 = _ref_add({(1,) + (0,) * (n - 1): Fraction(1)}, {(0,) * n: Fraction(-spectral.ROUTE_POINT[0])})
        vec = lambda: [_ref_poly(rng, n, 1, 2) for _ in range(n)]
        T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), vec()), (tau2, vec())])
        want = _ref_first_minor(T)
        assert want is not None and want[0][:2] == (0, 1)
        S = _symmetric_objects(T)
        calls.clear()
        gcds.clear()
        got = first_nonzero_minor(S)
        assert (got[0], got[1].terms) == want
        assert any(x is S[0][c] and y is S[1][c] for (x, y), _ in gcds for c in range(n))
        assert _minor_record(S, *want[0]) in calls


def test_gcd_give_up_in_the_cofactor_test_gives_the_witness(monkeypatch):
    # rows (p^2, p q) and (p q, q^2 + x2), p = x1^300 + 3^1262: at (1, 0) the
    # one minor p^2 x2 vanishes, so the construction runs and fails, and the
    # cofactor test of rows 0 and 1 needs gcd(p^2, p q), past the GCDHEU image
    # cap; the pair is left to the exact comparison and nothing is raised
    monkeypatch.setattr(spectral, "ROUTE_POINT", (1, 0, 0, 0))
    p, q = {(300, 0): Fraction(1), (0, 0): Fraction(3**1262)}, {(300, 0): Fraction(1), (0, 0): Fraction(1)}
    T = [[_ref_mul(p, p), _ref_mul(p, q)], [_ref_mul(p, q), _ref_add(_ref_mul(q, q), {(0, 1): Fraction(1)})]]
    raised = []
    gcd = spectral.poly_gcd

    def recording_gcd(*polys):
        try:
            return gcd(*polys)
        except DegreeCapExceeded as exc:
            raised.append((len(polys), str(exc)))
            raise

    monkeypatch.setattr(spectral, "poly_gcd", recording_gcd)
    got = first_nonzero_minor(_as_symdiff(T))
    assert (got[0], got[1].terms) == _ref_first_minor(T)
    assert (2, "gcd: evaluation image past the cap of 1048576 bits") in raised


@pytest.mark.parametrize("seed", range(3))
def test_every_proof_gcd_giving_up_changes_no_witness(seed, monkeypatch):
    # a cofactor test whose gcd raises DegreeCapExceeded proves nothing: every
    # minor is then compared exactly, and the witnesses are the oracle's
    gcd = spectral.poly_gcd

    def giving_up(*polys):
        if len(polys) == 2:
            raise DegreeCapExceeded("gcd: evaluation image past the cap of 1048576 bits")
        return gcd(*polys)

    monkeypatch.setattr(spectral, "poly_gcd", giving_up)
    for label, T in _rank_test_cases(200 + seed, count=40):
        want = _ref_first_minor(T)
        got = first_nonzero_minor(_as_symdiff(T))
        if want is None:
            assert got is None, label
        else:
            assert (got[0], got[1].terms) == want, label


# -- the route point cannot change an answer --------------------------------------


def _outcome(S):
    """What factor_rank_one answers: the factorization, the witness, or the error and its message."""
    try:
        f = factor_rank_one(S)
    except NotRankOne as exc:
        return "witness", exc.indices, exc.minor
    except HiggspecError as exc:
        return type(exc).__name__, str(exc)
    return "member", f.alpha, f.tau


def _check_against_oracle(T, outcome):
    want = _ref_first_minor(T)
    if want is None:
        assert outcome[0] == "member"
        assert RankOneFactorization(outcome[1], outcome[2]).symdiff() == _as_symdiff(T)
    else:
        assert outcome[0] == "witness" and (outcome[1], outcome[2].terms) == want


def test_rank_two_whose_minors_vanish_at_the_point():
    # tau1 alpha alpha^T + tau2 beta beta^T with tau2 = x1 - ROUTE_POINT[0]: rank one at the point
    for n in (2, 3, 4):
        rng = random.Random(n)
        tau2 = _ref_add({(1,) + (0,) * (n - 1): Fraction(1)}, {(0,) * n: Fraction(-spectral.ROUTE_POINT[0])})
        vec = lambda: [_ref_poly(rng, n, 1, 2) for _ in range(n)]
        T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), vec()), (tau2, vec())])
        S = _as_symdiff(T)
        M = [[p.evaluate(spectral.ROUTE_POINT[:n]) for p in row] for row in S.S]
        assert all(M[i][k] * M[j][l] == M[i][l] * M[j][k] for i, j, k, l in spectral._MINORS[n])
        got = _outcome(S)
        _check_against_oracle(T, got)
        assert first_nonzero_minor(S)[0] == got[1]


def test_witness_at_the_first_minor_evaluates_three_entries(monkeypatch):
    # the entries are evaluated at the point on demand, in minor order: the
    # minor (0, 1, 0, 1) needs S[0][0], S[1][1] and S[0][1] only
    n = 4
    rng = random.Random(5)
    T = _ref_sum_of_squares(n, [(_ref_poly(rng, n, 1, 2), [_ref_poly(rng, n, 1, 2) for _ in range(n)])
                                for _ in range(2)])
    assert _ref_first_minor(T)[0] == (0, 1, 0, 1)
    S = _as_symdiff(T)
    evaluated = []
    evaluate = Poly.evaluate
    monkeypatch.setattr(Poly, "evaluate", lambda p, point: evaluated.append(p) or evaluate(p, point))
    assert first_nonzero_minor(S)[0] == (0, 1, 0, 1)
    assert sorted(map(id, evaluated)) == sorted({id(S[0][0]), id(S[1][1]), id(S[0][1])})


def test_rank_one_whose_entries_vanish_at_the_point():
    # S = tau alpha alpha^T with tau = x_n - ROUTE_POINT[n - 1]: every entry is zero at the point
    for n in (1, 2, 3, 4):
        rng = random.Random(10 + n)
        tau = _ref_add({(0,) * (n - 1) + (1,): Fraction(1)}, {(0,) * n: Fraction(-spectral.ROUTE_POINT[n - 1])})
        T = _ref_sum_of_squares(n, [(tau, [_ref_poly(rng, n, 1, 2) for _ in range(n)])])
        if not any(T[i][i] for i in range(n)):
            continue
        S = _as_symdiff(T)
        assert not any(p.evaluate(spectral.ROUTE_POINT[:n]) for row in S.S for p in row)
        _check_against_oracle(T, _outcome(S))
        assert first_nonzero_minor(S) is None


def test_zero_diagonal_goes_to_the_witness_scan():
    x1 = {(1, 0): Fraction(1)}
    T = [[{}, x1], [x1, {}]]
    got = _outcome(_as_symdiff(T))
    _check_against_oracle(T, got)
    assert got[2] == P("-1 * x1^2", 2)


def test_failed_construction_on_rank_two_gives_the_witness(monkeypatch):
    # at (1, 1) the minor x1 x2 - 1 vanishes: tau = x1 / x1^2 fails to divide, and the scan decides
    monkeypatch.setattr(spectral, "ROUTE_POINT", (1, 1, 1, 1))
    T = [[{(1, 0): Fraction(1)}, {(0, 0): Fraction(1)}], [{(0, 0): Fraction(1)}, {(0, 1): Fraction(1)}]]
    got = _outcome(_as_symdiff(T))
    _check_against_oracle(T, got)


def test_gcd_cap_in_the_construction(monkeypatch):
    # row 0 is (p^2, p q): its gcd passes the GCDHEU image cap.  On rank one the
    # cap is the answer; on rank two (x2 added to S[1][1], so the minor p^2 x2
    # vanishes at the patched point) the scan finds the witness
    monkeypatch.setattr(spectral, "ROUTE_POINT", (1, 0, 0, 0))
    p, q = P("1 * x1^300", 2) + 3**1262, P("1 * x1^300 + 1", 2)
    one = SymDiff(((p * p, p * q), (p * q, q * q)))
    two = SymDiff(((p * p, p * q), (p * q, q * q + P("1 * x2", 2))))
    assert _outcome(one) == ("DegreeCapExceeded", "gcd: evaluation image past the cap of 1048576 bits")
    assert _outcome(two) == ("witness", (0, 1, 0, 1), p * p * P("1 * x2", 2))


@pytest.mark.parametrize("seed", range(3))
def test_route_point_changes_no_answer(seed, monkeypatch):
    # the same answers at the default point and at points that are roots of the
    # seeded entries (they have small coefficients and low degree)
    cases = list(_rank_test_cases(100 + seed)) + [("fixed", S) for S in FIXED_RANK_TEST_CASES]
    cases = [(label, T) for label, T in cases if any(T[i][j] for i in range(len(T)) for j in range(len(T)))]
    answers = [_outcome(_as_symdiff(T)) for _, T in cases]
    for (_, T), got in zip(cases, answers):
        _check_against_oracle(T, got)
    for point in [(0, 0, 0, 0), (1, 1, 1, 1), (-1, 1, 2, -2), (1, -1, 0, 1)]:
        monkeypatch.setattr(spectral, "ROUTE_POINT", point)
        assert [_outcome(_as_symdiff(T)) for _, T in cases] == answers, point


# -- factorization ----------------------------------------------------------------


def test_factor_examples(alpha_xy):
    f = factor_rank_one(sym(2, [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]))
    assert f.alpha == alpha_xy and f.tau == Poly.one(2)

    f2 = factor_rank_one(sym(2, [["1 * x1^3", "1 * x1^2 * x2"], ["1 * x1^2 * x2", "1 * x1 * x2^2"]]))
    assert f2.alpha == alpha_xy and f2.tau == P("1 * x1", 2)
    # oracle: expand tau * alpha alpha^T
    assert f2.symdiff() == sym(2, [["1 * x1^3", "1 * x1^2 * x2"], ["1 * x1^2 * x2", "1 * x1 * x2^2"]])

    f3 = factor_rank_one(sym(2, [["1", "2"], ["2", "4"]]))
    assert f3.alpha == OneForm((Poly.one(2), Poly.constant(2, 2)))
    assert f3.tau == Poly.one(2)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_symdiff_is_every_product(n):
    # symdiff forms tau * alpha_i once and the entries i <= j; the oracle forms all n^2
    rng = random.Random(n)

    def rand_poly():
        terms = {tuple(rng.randint(0, 2) for _ in range(n)): Fraction(rng.randint(1, 9), rng.randint(1, 3))
                 for _ in range(3)}
        return Poly(n, terms)

    alpha, tau = OneForm(tuple(rand_poly() for _ in range(n))), rand_poly()
    S = RankOneFactorization(alpha, tau).symdiff()
    assert all(S[i][j] == tau * alpha[i] * alpha[j] for i in range(n) for j in range(n))


def test_factor_zero_rejected():
    with pytest.raises(ZeroInput):
        factor_rank_one(sym(2, [["0", "0"], ["0", "0"]]))


def test_factor_normalization_unique(alpha_xy):
    base = RankOneFactorization(alpha_xy, P("2 * x1 + -3", 2))
    expected = factor_rank_one(base.symdiff())
    for c in (1, -1, 2, -2, 3, -3):
        scaled = RankOneFactorization(alpha_xy.scale(Fraction(c)), base.tau * Fraction(1, c * c))
        assert scaled.symdiff() == base.symdiff()
        again = factor_rank_one(scaled.symdiff())
        assert again.alpha == expected.alpha and again.tau == expected.tau


def test_factor_pulls_common_content():
    # S = (1/2) alpha alpha^T keeps alpha primitive; tau absorbs the scalar
    f = factor_rank_one(
        sym(2, [["1/2 * x1^2", "1/2 * x1 * x2"], ["1/2 * x1 * x2", "1/2 * x2^2"]])
    )
    assert f.tau == Poly.constant(2, Fraction(1, 2))


def test_factor_alpha_has_content_one_past_a_unit_gcd():
    # the entries' gcd reaches one at the second entry, yet alpha still has
    # rational content 1/2: alpha = (2, 2 x1 + 2, x3) and tau = 1/4
    x1, x3 = Poly.variable(3, 0), Poly.variable(3, 2)
    S = RankOneFactorization(OneForm((Poly.one(3), x1 + 1, x3 * Fraction(1, 2))), Poly.one(3)).symdiff()
    f = factor_rank_one(S)
    assert f.alpha == OneForm((Poly.constant(3, 2), 2 * x1 + 2, x3))
    assert f.tau == Poly.constant(3, Fraction(1, 4))
    assert f.symdiff() == S


# -- spectral base ------------------------------------------------------------------


def test_base_check_member(alpha_xy):
    d = SpectralDatum(OneForm((Poly.zero(2),) * 2), sym(2, [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]))
    v = spectral_base_check(d)
    assert isinstance(v, Member)
    assert v.factorization.alpha == alpha_xy and v.factorization.tau == Poly.one(2)


def test_base_check_nilpotent():
    s1 = OneForm((P("2 * x1", 2), P("2 * x2", 2)))
    s2 = sym(2, [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]])
    assert isinstance(spectral_base_check(SpectralDatum(s1, s2)), Nilpotent)


def test_base_check_not_member():
    d = SpectralDatum(OneForm((Poly.zero(2),) * 2), sym(2, [["1", "0"], ["0", "1"]]))
    v = spectral_base_check(d)
    assert isinstance(v, NotMember)
    # witness is a minor of 4 s2 - s1 s1^T = 4 Id
    assert v.minor == Poly.constant(2, 16)


# -- Higgs fields ---------------------------------------------------------------------


def test_integrable_examples():
    z = Poly.zero(2)
    one = Poly.one(2)
    prop_nil = HiggsField((((z, z), (one, z)), ((z, z), (Poly.constant(2, 5), z))))
    assert higgs_integrable(prop_nil)
    bad = HiggsField(
        (((one, z), (z, -one)), ((z, one), (z, z)))
    )
    assert not higgs_integrable(bad)
    single = HiggsField((((Poly.variable(1, 0), Poly.zero(1)), (Poly.zero(1), Poly.one(1))),))
    assert higgs_integrable(single)


def _ref_scale(a, c):
    return {e: v * c for e, v in a.items() if v * c}


@pytest.mark.parametrize("seed", range(3))
def test_hitchin_map_matches_reference(seed):
    # random rank-two fields, not section fields (no trace-free or integrability
    # condition): s1 = tr B_i and S[i][j] = (tr B_i tr B_j - tr(B_i B_j)) / 2,
    # on the dict reference; some B have equal entries, for the squaring path
    rng = random.Random(f"hitchin {seed}")
    for n in (1, 2, 3, 4):
        for shape in range(3):
            B = [[[_ref_poly(rng, n, 2, rng.randint(0, 3)) for _ in range(2)] for _ in range(2)] for _ in range(n)]
            if shape == 1:
                for m in B:
                    m[1][1], m[1][0] = m[0][0], m[0][1]
            phi = HiggsField(tuple(tuple(tuple(Poly(n, t) for t in row) for row in m) for m in B))
            d = hitchin_map(phi)
            tr = [_ref_add(m[0][0], m[1][1]) for m in B]
            assert [p.terms for p in d.s1] == tr
            for i in range(n):
                for j in range(n):
                    tr_ij = {}
                    for k in range(2):
                        for l in range(2):
                            tr_ij = _ref_add(tr_ij, _ref_mul(B[i][k][l], B[j][l][k]))
                    want = _ref_scale(_ref_add(_ref_mul(tr[i], tr[j]), tr_ij, -1), Fraction(1, 2))
                    assert d.s2.S[i][j].terms == want, (n, i, j)


def test_hitchin_map_diag_constants():
    z = Poly.zero(2)
    b1 = consts(2, [[1, 0], [0, -1]])
    b2 = consts(2, [[2, 0], [0, -2]])
    d = hitchin_map(HiggsField((b1, b2)))
    assert d.s1.is_zero()
    assert d.s2 == sym(2, [["-1", "-2"], ["-2", "-4"]])


def test_hitchin_map_canonical_field(alpha_xy):
    f = RankOneFactorization(alpha_xy, P("1 * x1 + 3", 2))
    d = hitchin_map(canonical_field(f))
    assert d.s1.is_zero() and d.s2 == f.symdiff()


def test_hitchin_map_zero_field():
    z = Poly.zero(2)
    d = hitchin_map(HiggsField((((z, z), (z, z)), ((z, z), (z, z)))))
    assert d.s1.is_zero() and d.s2.is_zero()


def test_hitchin_map_needs_rank_two():
    from higgspec.errors import RankUnsupported

    one = Poly.one(1)
    with pytest.raises(RankUnsupported):
        hitchin_map(HiggsField((((one,),),)))


# -- the correspondence, field to module -------------------------------------------------


def test_module_from_higgs_canonical(alpha_xy):
    f = RankOneFactorization(alpha_xy, P("1 * x1", 2))
    phi0 = module_from_higgs(canonical_field(f), f).eta_action
    assert phi0 == ((Poly.zero(2), -f.tau), (Poly.one(2), Poly.zero(2)))


def test_module_from_higgs_diagonal_sign():
    # B_i = a_i diag(w, -w): phi0 = diag(w, -w), tau = -w^2
    w = Fraction(3)
    alpha = OneForm((P("1 * x1", 2), P("1 * x2", 2)))
    diag = consts(2, [[w, 0], [0, -w]])
    mats = tuple(
        tuple(tuple(p * alpha[i] for p in row) for row in diag) for i in range(2)
    )
    phi = HiggsField(mats)
    f = RankOneFactorization(alpha, Poly.constant(2, -w * w))
    phi0 = module_from_higgs(phi, f).eta_action
    assert phi0 == diag


def test_module_from_higgs_mismatch(alpha_xy):
    f = RankOneFactorization(OneForm((Poly.zero(2), Poly.one(2))), Poly.one(2))
    field = canonical_field(RankOneFactorization(alpha_xy, Poly.one(2)))
    with pytest.raises(FactorizationMismatch):
        module_from_higgs(field, f)


# -- covers, towers, modules ----------------------------------------------------------


def test_build_cover_examples(alpha_xy):
    c = build_cover(RankOneFactorization(alpha_xy, P("1 * x1^2 * x2", 2)))
    assert sorted(c.branch.multiplicities()) == [1, 2]
    assert c.tuple_a == (0, 0)
    assert c.effective_tau == P("1 * x1^2 * x2", 2)
    assert not is_normal(c)

    etale = build_cover(RankOneFactorization(alpha_xy, Poly.constant(2, -4)))
    assert etale.branch.factors == ()
    assert etale.splits_over_base() is True  # -tau = 4 is a rational square
    nonsplit = build_cover(RankOneFactorization(alpha_xy, Poly.constant(2, 2)))
    assert nonsplit.splits_over_base() is False
    assert is_normal(etale)

    simple = build_cover(RankOneFactorization(alpha_xy, P("1 * x1", 2)))
    assert simple.branch.factors == ((P("1 * x1", 2), 1),)
    assert simple.splits_over_base() is None


def test_tower_counts(alpha_xy):
    tau = P("1 * x1", 3) ** 2 * P("1 * x2", 3) ** 3 * P("1 * x3", 3)
    alpha = OneForm((Poly.one(3), Poly.zero(3), Poly.zero(3)))
    t = tower_enumerate(build_cover(RankOneFactorization(alpha, tau)))
    assert len(t.covers) == 4
    top = t.covers[t.normalization_index]
    assert is_squarefree(top.effective_tau)
    assert sum(1 for c in t.covers if is_normal(c)) == 1

    sf = tower_enumerate(build_cover(RankOneFactorization(alpha_xy, P("1 * x1 * x2", 2))))
    assert len(sf.covers) == 1 and is_normal(sf.covers[0])

    chain = tower_enumerate(
        build_cover(RankOneFactorization(alpha_xy, P("1 * x1", 2) ** 4))
    )
    assert len(chain.covers) == 3
    assert len(chain.edges) == 2


def test_tower_cap_checked_before_enumeration(alpha_xy):
    forms = [P(f"1 * x1 + {k} * x2", 2) for k in range(1, 41)]
    tau = Poly.one(2)
    for f in forms:
        tau = tau * f**2
    cover = build_cover(RankOneFactorization(alpha_xy, tau), components=[(f, 2) for f in forms])
    with pytest.raises(DegreeCapExceeded):  # 2^40 covers
        tower_enumerate(cover)
    assert MAX_TOWER_COVERS == 4096
    # exactly 4096 covers is allowed: x1^8190 has floor(8190 / 2) + 1 of them
    # (built, not parsed: parsed text is capped at total degree MAX_PARSED_DEGREE)
    tau = Poly.variable(2, 0) ** 8190
    chain = tower_enumerate(build_cover(RankOneFactorization(alpha_xy, tau)))
    assert len(chain.covers) == 4096


def test_is_normal_agrees_with_squarefree_test(alpha_xy):
    """The multiplicity rule against the gcd-based test, on every cover of
    seeded towers with inferred and with declared branch data."""
    rng = random.Random(5)
    covers = []
    for _ in range(12):
        forms, k = {}, rng.randint(1, 3)
        while len(forms) < k:
            # primitive linear forms with positive leading coefficient: pairwise coprime when distinct
            a, b, c = rng.randint(1, 3), rng.randint(-3, 3), rng.choice([-2, -1, 1, 3])
            _, f = Poly(2, {(1, 0): a, (0, 1): b, (0, 0): Fraction(c, 3)}).primitive()
            forms[f] = rng.randint(1, 5)
        content = Poly.constant(2, Fraction(rng.choice([-5, 2, 7]), rng.choice([1, 3])))
        tau = content
        for f, m in forms.items():
            tau = tau * f**m
        fac = RankOneFactorization(alpha_xy, tau)
        covers += tower_enumerate(build_cover(fac)).covers
        covers += tower_enumerate(build_cover(fac, components=list(forms.items()))).covers
    assert sum(map(is_normal, covers)) < len(covers)
    for c in covers:
        assert is_normal(c) == is_squarefree(c.effective_tau)


def test_declared_components(alpha_xy):
    from higgspec.errors import InconsistentBranchData

    x, y = P("1 * x1", 2), P("1 * x2", 2)
    f = RankOneFactorization(alpha_xy, x**2 * y**2)
    c = build_cover(f, components=[(x, 2), (y, 2)])
    assert len(c.branch.factors) == 2
    with pytest.raises(InconsistentBranchData):
        build_cover(f, components=[(x, 2)])  # misses y^2
    with pytest.raises(InconsistentBranchData):
        build_cover(f, components=[(x * y, 2), (x, 0)])


def test_declared_multiplicities_are_ints(alpha_xy):
    # int(m) read 2.7 as 2 and built the cover of (x1 + 1)^2
    f = RankOneFactorization(alpha_xy, P("1 * x1^2 + 2 * x1 + 1", 2))
    assert build_cover(f, components=[(P("1 * x1 + 1", 2), 2)]).branch.multiplicities() == (2,)
    with pytest.raises(TypeError, match="multiplicity must be int"):
        build_cover(f, components=[(P("1 * x1 + 1", 2), 2.7)])


@pytest.mark.parametrize("case", ["factor", "twisted", "declared"])
def test_kernel_bug_in_division_is_not_a_domain_error(case, alpha_xy, monkeypatch):
    # Only DivisionFailure means "does not divide"; any other exception from
    # exact_div is a bug and must reach the caller unchanged.
    x, y = P("1 * x1", 2), P("1 * x2", 2)
    real = spectral.exact_div
    if case == "factor":
        trigger, run = x * x, lambda: factor_rank_one(sym(2, [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]))
    elif case == "twisted":
        f = RankOneFactorization(alpha_xy, x)
        trigger, run = x, lambda: module_from_higgs(canonical_field(f), f)
    else:
        f = RankOneFactorization(alpha_xy, x**2 * y**2)
        trigger, run = x**2 * y**2, lambda: build_cover(f, components=[(x, 2), (y, 2)])

    def buggy(a, b):
        if b == trigger:
            raise TypeError("kernel bug")
        return real(a, b)

    monkeypatch.setattr(spectral, "exact_div", buggy)
    with pytest.raises(TypeError, match="kernel bug"):
        run()


def test_canonical_module_and_pushforward():
    alpha = OneForm((Poly.one(2), Poly.zero(2)))
    f = RankOneFactorization(alpha, P("1 * x1", 2))
    m = canonical_module(build_cover(f))
    assert m.eta_action == ((Poly.zero(2), -P("1 * x1", 2)), (Poly.one(2), Poly.zero(2)))
    phi = pushforward(m, f)
    assert phi.matrices[0] == m.eta_action
    assert all(p.is_zero() for row in phi.matrices[1] for p in row)


def test_cover_module_rejects_bad_action():
    with pytest.raises(CayleyHamiltonViolation):
        CoverModule(P("1 * x1", 2), consts(2, [[1, 0], [0, 1]]))
    # the Cayley-Hamilton check comes before the refusal of tau = 0
    with pytest.raises(CayleyHamiltonViolation):
        CoverModule(Poly.zero(2), consts(2, [[1, 0], [0, 1]]))
    with pytest.raises(ZeroPolynomial):
        CoverModule(Poly.zero(2), consts(2, [[0, 1], [0, 0]]))
    # the square [[1, 2], [0, 1]] has the diagonal -tau = 1 and a nonzero off-diagonal entry
    with pytest.raises(CayleyHamiltonViolation):
        CoverModule(Poly.constant(1, -1), consts(1, [[1, 1], [0, 1]]))


def test_roundtrip_with_conjugation(alpha_xy):
    f = RankOneFactorization(alpha_xy, P("1 * x1 + 5", 2))
    cover = build_cover(f)
    g = consts(2, [[1, 2], [1, 3]])
    ginv = consts(2, [[3, -2], [-1, 1]])
    phi0 = mat_mul(mat_mul(g, canonical_module(cover).eta_action), ginv)
    m = CoverModule(f.tau, phi0)
    back = module_from_higgs(pushforward(m, f), f)
    assert back.eta_action == phi0


def test_module_from_higgs_requires_traceless(alpha_xy):
    f = RankOneFactorization(alpha_xy, Poly.one(2))
    one = Poly.one(2)
    z = Poly.zero(2)
    phi = HiggsField((((one, z), (z, one)), ((z, z), (z, z))))
    with pytest.raises(FactorizationMismatch):
        module_from_higgs(phi, f)


# -- annihilator --------------------------------------------------------------------


def test_annihilator_examples():
    a = OneForm((Poly.one(2), Poly.zero(2)))
    gens = annihilator_distribution(a)
    assert gens == [(Poly.zero(2), -Poly.one(2))]

    axy = OneForm((P("1 * x1", 2), P("1 * x2", 2)))
    assert annihilator_distribution(axy) == [(P("1 * x2", 2), P("-1 * x1", 2))]

    a3 = OneForm((P("1 * x1", 3), P("1 * x2", 3), P("1 * x3", 3)))
    gens3 = annihilator_distribution(a3)
    assert len(gens3) == 3
    for v in gens3:
        dot = Poly.zero(3)
        for ai, vi in zip(a3, v):
            dot = dot + ai * vi
        assert dot.is_zero()


def test_annihilator_rejects_zero():
    with pytest.raises(ZeroInput):
        annihilator_distribution(OneForm((Poly.zero(2),) * 2))


# -- the rank-one theorem as a property ------------------------------------------------


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_integrable_fields_land_in_spectral_base(data):
    n = data.draw(st.integers(1, 2))
    fam = data.draw(st.sampled_from(["diag", "nilpotent"]))
    coeff = st.integers(-3, 3)

    def rand_poly():
        terms = {}
        for _ in range(data.draw(st.integers(1, 2))):
            e = tuple(data.draw(st.integers(0, 2)) for _ in range(n))
            terms[e] = terms.get(e, 0) + data.draw(coeff)
        return Poly(n, terms)

    if fam == "diag":
        a, b, c, d = (data.draw(coeff) for _ in range(4))
        det = a * d - b * c
        if det == 0:
            return
        g = consts(n, [[a, b], [c, d]])
        ginv = tuple(
            tuple(Poly.constant(n, Fraction(v, det)) for v in row)
            for row in [[d, -b], [-c, a]]
        )
        mats = []
        for _ in range(n):
            diag = ((rand_poly(), Poly.zero(n)), (Poly.zero(n), rand_poly()))
            mats.append(mat_mul(mat_mul(g, diag), ginv))
    else:
        a, b = data.draw(coeff), data.draw(st.integers(1, 3))
        nil = consts(n, [[a * b, -a * a], [b * b, -a * b]])
        mats = []
        for _ in range(n):
            scalar = rand_poly()
            mats.append(tuple(tuple(p * scalar for p in row) for row in nil))
    phi = HiggsField(tuple(mats))
    assert higgs_integrable(phi)
    assert isinstance(spectral_base_check(hitchin_map(phi)), (Nilpotent, Member))
