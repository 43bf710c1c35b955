"""Seeded property suites behind the `selftest` command and the acceptance tests.

Each suite draws from its own ``random.Random`` stream, so runs with equal
seeds are reproducible case by case.  Oracles are kept independent of the
code paths they check: reconstruction by direct expansion, brute-force
enumeration, frozen tables, and the cofactor route for characteristic
polynomials.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from itertools import product as _iproduct

from .geometry import (
    CoverMap,
    NSClass,
    ProductOfCurves,
    SurfaceModel,
    bx_decomposition,
    discriminant,
    h0_curve,
    pushforward_c1,
    pushforward_c2,
)
from .matrix import charpoly, charpoly_cofactor, charpoly_from_coeffs, mat_mul
from .moduli import (
    LatticeSectionDatum,
    Stability,
    cstar_scale,
    higher_rank_build,
    higher_rank_charcheck,
    hitchin_section,
    milnor_wood_check,
    sl2r_enumerate,
)
from .poly import (
    Poly,
    exact_div,
    frac_gcd,
    is_squarefree,
    poly_gcd,
    squarefree_decompose,
)
from .spectral import (
    CoverModule,
    annihilator_distribution,
    HiggsField,
    Member,
    Nilpotent,
    OneForm,
    RankOneFactorization,
    SpectralDatum,
    SymDiff,
    build_cover,
    canonical_module,
    factor_rank_one,
    higgs_integrable,
    hitchin_map,
    is_normal,
    module_from_higgs,
    pushforward,
    spectral_base_check,
    tower_enumerate,
)


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: int = 0
    notes: list = field(default_factory=list)
    elapsed: float = 0.0

    def check(self, ok, message):
        self.cases += 1
        if not ok:
            self.failures += 1
            if len(self.notes) < 5:
                self.notes.append(message)

    @property
    def passed(self):
        return self.failures == 0

    def machine_block(self):
        # elapsed deliberately excluded: machine output must be byte-stable
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "notes": self.notes,
        }


# -- random generators -----------------------------------------------------------


def _rand_poly(rng, nvars, max_deg=3, max_terms=4, lo=-5, hi=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        c = rng.randint(lo, hi)
        e = tuple(e)
        terms[e] = terms.get(e, 0) + c
    return Poly(nvars, terms)


def _rand_nonzero_poly(rng, nvars, **kw):
    for _ in range(20):
        p = _rand_poly(rng, nvars, **kw)
        if not p.is_zero():
            return p
    return Poly.constant(nvars, rng.randint(1, 5))


def _primitive_pool(nvars):
    """Pairwise-coprime primitive polynomials used as declared branch factors."""
    xs = [Poly.variable(nvars, i) for i in range(nvars)]
    pool = list(xs)
    pool.append(xs[0] + 1)
    if nvars >= 2:
        pool.append(xs[1] - 2)
        pool.append(xs[0] + xs[1] + 1)
        pool.append(xs[0] - xs[1] + 3)
        pool.append(xs[0] * xs[0] + xs[1] + 1)
    if nvars >= 3:
        pool.append(xs[2] + 5)
        pool.append(xs[0] + xs[2])
    return pool


def _rand_alpha(rng, nvars):
    """A normalized covector: entry gcd one, content one, positive first lead."""
    pool = _primitive_pool(nvars)
    while True:
        entries = [Poly.zero(nvars) for _ in range(nvars)]
        k = rng.randint(1, nvars)
        idxs = rng.sample(range(nvars), k)
        for i in idxs:
            entries[i] = pool[rng.randrange(len(pool))] * rng.randint(1, 3)
        one_slot = rng.randrange(nvars)
        if rng.random() < 0.4:
            entries[one_slot] = Poly.constant(nvars, rng.randint(1, 3))
        if not poly_gcd(*entries)[0].is_constant():
            continue
        content = Fraction(0)
        for p in entries:
            content = frac_gcd(content, p.content())
        if content != 1:
            entries = [p * Fraction(1, content) for p in entries]
        lead = next(p for p in entries if not p.is_zero())
        if lead.leading_coefficient() < 0:
            entries = [-p for p in entries]
        return OneForm(tuple(entries))


def _rand_tau(rng, nvars, squarefree=False):
    pool = _primitive_pool(nvars)
    if squarefree:
        while True:
            k = rng.randint(1, 2)
            t = Poly.constant(nvars, rng.choice([1, -1, 2, -3]))
            for f in rng.sample(pool, k):
                t = t * f
            if is_squarefree(t):
                return t
    t = Poly.constant(nvars, rng.choice([1, -1, 2, -2, 3, Fraction(1, 2)]))
    for _ in range(rng.randint(0, 2)):
        t = t * pool[rng.randrange(len(pool))]
    return t


def _rand_glq(rng):
    """A constant invertible 2x2 over Q, with its inverse."""
    while True:
        a, b, c, d = (rng.randint(-3, 3) for _ in range(4))
        det = a * d - b * c
        if det:
            inv = [
                [Fraction(d, det), Fraction(-b, det)],
                [Fraction(-c, det), Fraction(a, det)],
            ]
            return (a, b, c, d), inv


def _const_matrix(nvars, entries):
    return tuple(tuple(Poly.constant(nvars, c) for c in row) for row in entries)


# -- suites -----------------------------------------------------------------------


def suite_poly_rings(seed, cases=200) -> SuiteResult:
    """Canonical-form idempotence and ring axioms on random triples."""
    rng = random.Random(seed ^ 0x01)
    res = SuiteResult("poly-rings")
    for _ in range(cases):
        nvars = rng.randint(1, 3)
        a = _rand_poly(rng, nvars)
        b = _rand_poly(rng, nvars)
        c = _rand_poly(rng, nvars)
        res.check(Poly(nvars, a.terms) == a, "re-normalization changed a canonical value")
        res.check((a + b) + c == a + (b + c), "associativity of + failed")
        res.check((a * b) * c == a * (b * c), "associativity of * failed")
        res.check(a * (b + c) == a * b + a * c, "distributivity failed")
        res.check(a * b == b * a, "commutativity failed")
        res.check(a + (-a) == Poly.zero(nvars), "additive inverse failed")
    return res


def suite_serialization(seed, cases=200) -> SuiteResult:
    """Bit-exact text and JSON round trips."""
    rng = random.Random(seed ^ 0x02)
    res = SuiteResult("serialization")
    for _ in range(cases):
        nvars = rng.randint(1, 4)
        p = _rand_poly(rng, nvars)
        if rng.random() < 0.3:
            p = p * Fraction(rng.randint(1, 7), rng.randint(1, 7))
        text = p.to_text()
        res.check(Poly.from_text(text, nvars) == p, f"text roundtrip failed for {text}")
        res.check(Poly.from_text(text, nvars).to_text() == text, "text not canonical")
        tree = p.to_tree()
        res.check(Poly.from_tree(tree) == p, "tree roundtrip failed")
        res.check(
            json.dumps(Poly.from_tree(tree).to_tree(), sort_keys=True)
            == json.dumps(tree, sort_keys=True),
            "tree not byte-stable",
        )
    return res


def suite_squarefree(seed, cases=500) -> SuiteResult:
    """Reconstruction exactness of the multiplicity decomposition."""
    rng = random.Random(seed ^ 0x03)
    res = SuiteResult("squarefree")
    for _ in range(cases):
        nvars = rng.randint(1, 3)
        pool = _primitive_pool(nvars)
        k = rng.randint(1, min(3, len(pool)))
        picks = rng.sample(pool, k)
        mults = [rng.randint(1, 3) for _ in picks]
        f = Poly.constant(nvars, rng.choice([1, -1, 2, -6, Fraction(3, 2)]))
        for p, m in zip(picks, mults):
            f = f * p**m
        d = squarefree_decompose(f)
        res.check(d.reconstruct(nvars) == f, "reconstruction not exact")
        res.check(
            len(set(d.multiplicities())) == len(d.multiplicities()),
            "multiplicity classes not distinct",
        )
        for fac, _ in d.factors:
            res.check(is_squarefree(fac), "class factor not squarefree")
            res.check(fac.content() == 1 and fac.leading_coefficient() > 0, "factor not primitive")
        for i in range(len(d.factors)):
            for j in range(i + 1, len(d.factors)):
                g = poly_gcd(d.factors[i][0], d.factors[j][0])[0]
                res.check(g.is_constant(), "class factors not coprime")
    return res


def suite_gcd(seed, cases=500) -> SuiteResult:
    """gcd output divides both inputs exactly."""
    rng = random.Random(seed ^ 0x04)
    res = SuiteResult("gcd-divides")
    for _ in range(cases):
        nvars = rng.randint(1, 3)
        g = _rand_nonzero_poly(rng, nvars, max_deg=2, max_terms=3)
        a = g * _rand_nonzero_poly(rng, nvars, max_deg=2, max_terms=3)
        b = g * _rand_nonzero_poly(rng, nvars, max_deg=2, max_terms=3)
        d = poly_gcd(a, b)[0]
        res.check(not d.is_zero(), "gcd of nonzero inputs is zero")
        try:
            exact_div(a, d)
            exact_div(b, d)
            ok = True
        except Exception:
            ok = False
        res.check(ok, f"gcd does not divide inputs: {a!r}, {b!r}")
        try:
            exact_div(d, g)
            ok = True
        except Exception:
            ok = False
        res.check(ok, "gcd misses a known common factor")
        res.check(d.leading_coefficient() > 0, "gcd not sign-normalized")
    return res


def suite_rank_one_theorem(seed, cases=200) -> SuiteResult:
    """Integrable rank-two fields land in the spectral base (or its nilpotent locus)."""
    rng = random.Random(seed ^ 0x05)
    res = SuiteResult("rank-one-theorem")
    per = cases // 3 + 1
    fams = (
        ["diag"] * per + ["nilpotent"] * per + ["scalar_mixed"] * (cases - 2 * per)
    )
    for fam in fams:
        nvars = rng.randint(1, 3)
        n = nvars
        if fam == "diag":
            (a, b, c, d), inv = _rand_glq(rng)
            g = _const_matrix(nvars, [[a, b], [c, d]])
            ginv = _const_matrix(nvars, inv)
            mats = []
            for _ in range(n):
                p = _rand_poly(rng, nvars, max_deg=3, max_terms=3)
                q = _rand_poly(rng, nvars, max_deg=3, max_terms=3)
                diag = ((p, Poly.zero(nvars)), (Poly.zero(nvars), q))
                mats.append(mat_mul(mat_mul(g, diag), ginv))
        elif fam == "nilpotent":
            a, b = rng.randint(-3, 3), rng.randint(1, 3)
            nil = _const_matrix(nvars, [[a * b, -a * a], [b * b, -a * b]])
            mats = [
                tuple(tuple(p * pi for p in row) for row in nil)
                for pi in (_rand_poly(rng, nvars, max_deg=3, max_terms=3) for _ in range(n))
            ]
        else:
            (a, b, c, d) = (rng.randint(-3, 3) for _ in range(4))
            tless = _const_matrix(nvars, [[a, b], [c, -a]])
            mats = []
            for _ in range(n):
                p = _rand_poly(rng, nvars, max_deg=3, max_terms=3)
                q = _rand_poly(rng, nvars, max_deg=3, max_terms=3)
                rows = tuple(
                    tuple(
                        (p if i == j else Poly.zero(nvars)) + tless[i][j] * q
                        for j in range(2)
                    )
                    for i in range(2)
                )
                mats.append(rows)
        phi = HiggsField(tuple(mats))
        res.check(higgs_integrable(phi), f"{fam} family produced a non-integrable field")
        verdict = spectral_base_check(hitchin_map(phi))
        res.check(
            isinstance(verdict, (Nilpotent, Member)),
            f"{fam} field escaped the spectral base: {verdict}",
        )
    return res


def suite_factorization(seed, cases=500) -> SuiteResult:
    """Recovery and normalization invariance of the rank-one factorization."""
    rng = random.Random(seed ^ 0x06)
    res = SuiteResult("factorization")
    rescale_pool = [Fraction(c) for c in (1, -1, 2, -2, 3, -3)]
    for idx in range(cases):
        nvars = rng.randint(2, 3)
        alpha = _rand_alpha(rng, nvars)
        tau = _rand_tau(rng, nvars)
        f = RankOneFactorization(alpha, tau)
        S = f.symdiff()
        got = factor_rank_one(S)
        res.check(got.alpha == alpha and got.tau == tau, "normalized pair not recovered")
        res.check(got.symdiff() == S, "output identity S = tau a a^T failed")
        g = poly_gcd(*got.alpha)[0]
        res.check(g.is_constant() and g.constant_value() == 1, "alpha not primitive")
        for c in rescale_pool if idx % 5 == 0 else rescale_pool[:2]:
            scaled = RankOneFactorization(alpha.scale(c), tau * (1 / c**2))
            S2 = scaled.symdiff()
            res.check(S2 == S, "unit rescaling changed the differential")
            again = factor_rank_one(S2)
            res.check(
                again.alpha == got.alpha and again.tau == got.tau,
                "rescaled input broke normalization uniqueness",
            )
    return res


def suite_canonical_cover(seed, cases=100) -> SuiteResult:
    """Spectral data of the pushed-forward structure sheaf is (0, tau a a^T)."""
    rng = random.Random(seed ^ 0x07)
    res = SuiteResult("canonical-cover")
    for _ in range(cases):
        nvars = rng.randint(1, 3)
        f = RankOneFactorization(_rand_alpha(rng, nvars), _rand_tau(rng, nvars))
        phi = pushforward(canonical_module(build_cover(f)), f)
        d = hitchin_map(phi)
        expected = SymDiff(
            tuple(
                tuple(f.tau * f.alpha[i] * f.alpha[j] for j in range(nvars))
                for i in range(nvars)
            )
        )
        res.check(d.s1.is_zero(), "trace of the canonical field is nonzero")
        res.check(d.s2 == expected, "determinant identity failed")
        res.check(higgs_integrable(phi), "canonical field not integrable")
        for v in annihilator_distribution(f.alpha):
            dot = Poly.zero(nvars)
            for ai, vi in zip(f.alpha, v):
                dot = dot + ai * vi
            res.check(dot.is_zero(), "Koszul generator not annihilated")
    return res


def suite_correspondence(seed, cases=100) -> SuiteResult:
    """module -> Higgs -> module is the identity on conjugated modules."""
    rng = random.Random(seed ^ 0x08)
    res = SuiteResult("correspondence")
    for _ in range(cases):
        nvars = rng.randint(1, 3)
        f = RankOneFactorization(_rand_alpha(rng, nvars), _rand_tau(rng, nvars, squarefree=True))
        cover = build_cover(f)
        (a, b, c, d), inv = _rand_glq(rng)
        g = _const_matrix(nvars, [[a, b], [c, d]])
        ginv = _const_matrix(nvars, inv)
        phi0 = mat_mul(mat_mul(g, canonical_module(cover).eta_action), ginv)
        try:
            mod = CoverModule(cover.effective_tau, phi0)
        except Exception as exc:
            res.check(False, f"conjugated eta action rejected: {exc}")
            continue
        phi = pushforward(mod, f)
        back = module_from_higgs(phi, f)
        res.check(back.eta_action == mod.eta_action, "roundtrip not the identity")
        sq = mat_mul(back.eta_action, back.eta_action)
        ok = all(
            (sq[i][j] + (f.tau if i == j else Poly.zero(nvars))).is_zero()
            for i in range(2)
            for j in range(2)
        )
        res.check(ok, "Cayley-Hamilton identity failed on the roundtrip")
    return res


def suite_hitchin_section(seed, cases=100) -> SuiteResult:
    """sh(chi(s)) = s on all three branches; lattice stability verdicts."""
    rng = random.Random(seed ^ 0x09)
    res = SuiteResult("hitchin-section")
    for idx in range(cases):
        nvars = rng.randint(1, 3)
        kind = ("generic", "unit_branch", "nilpotent_diagonal")[idx % 3]
        s1 = OneForm(
            tuple(_rand_poly(rng, nvars, max_deg=2, max_terms=2) for _ in range(nvars))
        )
        quarter = SymDiff.outer(s1, s1).scale(Fraction(1, 4))
        if kind == "generic":
            f = RankOneFactorization(_rand_alpha(rng, nvars), _rand_tau(rng, nvars))
            while f.tau.is_constant():
                f = RankOneFactorization(f.alpha, f.tau * _primitive_pool(nvars)[0])
            d = SpectralDatum(s1, quarter.add(f.symdiff()))
            out = hitchin_section(d)
            res.check(out.branch == "generic", f"wrong branch {out.branch}")
            res.check(out.stability == Stability.STABLE, "generic section not stable")
        elif kind == "unit_branch":
            f = RankOneFactorization(_rand_alpha(rng, nvars), Poly.constant(nvars, rng.choice([1, -1, 2])))
            d = SpectralDatum(s1, quarter.add(f.symdiff()))
            out = hitchin_section(d)
            res.check(out.branch == "unit_branch", f"wrong branch {out.branch}")
            res.check(out.stability == Stability.POLYSTABLE, "unit branch not polystable")
        else:
            if s1.is_zero():
                s1 = OneForm(
                    tuple(
                        Poly.constant(nvars, 1) if i == 0 else Poly.zero(nvars)
                        for i in range(nvars)
                    )
                )
                quarter = SymDiff.outer(s1, s1).scale(Fraction(1, 4))
            d = SpectralDatum(s1, quarter)
            out = hitchin_section(d)
            res.check(out.branch == "nilpotent_diagonal", f"wrong branch {out.branch}")
            res.check(out.stability == Stability.POLYSTABLE, "diagonal branch not polystable")
        res.check(out.identity_checked, "identity not verified")
        res.check(hitchin_map(out.field) == d, "independent roundtrip failed")
        scaled = cstar_scale(d, Fraction(rng.randint(1, 5), rng.randint(1, 3)))
        res.check(
            spectral_base_check(scaled).kind == spectral_base_check(d).kind,
            "scaling changed the membership verdict",
        )
    X = ProductOfCurves(2, 2)
    m = X.model
    lat = hitchin_section(LatticeSectionDatum(NSClass((1, 1)), NSClass((2, 2)), m))
    res.check(lat.stability == Stability.STABLE, "lattice D != 0 should be stable")
    lat0 = hitchin_section(LatticeSectionDatum(NSClass((0, 0)), NSClass((0, 0)), m))
    res.check(lat0.stability == Stability.POLYSTABLE, "lattice D = 0 should be polystable")
    return res


_BX_EXPECTED = {
    # (g1, g2) with g1 >= g2: [(label, kind, dim)], {(pair): dim}
    (0, 0): ([], {}),
    (1, 0): ([("O", "both", 1)], {}),
    (2, 0): ([("L1", "L", 3)], {}),
    (3, 0): ([("L1", "L", 6)], {}),
    (1, 1): ([("O", "V", 2)], {}),
    (2, 1): ([("O", "V", 3), ("L1", "L", 3)], {("O", "L1"): 2}),
    (3, 1): ([("O", "V", 4), ("L1", "L", 6)], {("O", "L1"): 3}),
    (2, 2): (
        [("O", "V", 4), ("L1", "L", 3), ("L2", "L", 3)],
        {("O", "L1"): 2, ("O", "L2"): 2, ("L1", "L2"): 0},
    ),
    (3, 2): (
        [("O", "V", 5), ("L1", "L", 6), ("L2", "L", 3)],
        {("O", "L1"): 3, ("O", "L2"): 2, ("L1", "L2"): 0},
    ),
    (3, 3): (
        [("O", "V", 6), ("L1", "L", 6), ("L2", "L", 6)],
        {("O", "L1"): 3, ("O", "L2"): 3, ("L1", "L2"): 0},
    ),
}


def suite_bx_table(seed) -> SuiteResult:
    """Component table over products of curves against the frozen values."""
    res = SuiteResult("bx-table")
    for g1 in range(4):
        for g2 in range(4):
            table = bx_decomposition(ProductOfCurves(g1, g2))
            key = (max(g1, g2), min(g1, g2))
            exp_comps, exp_inters = _BX_EXPECTED[key]
            got = [(c.label, c.kind, c.dim) for c in table.components]
            res.check(got == exp_comps, f"({g1},{g2}): components {got} != {exp_comps}")
            res.check(
                dict(table.intersections) == exp_inters,
                f"({g1},{g2}): intersections {dict(table.intersections)}",
            )
            for c in table.components:
                if c.kind in ("V", "both"):
                    res.check(c.h0_Lsq == 1, "V-type h0(L^2) != 1")
                if c.kind in ("L", "both"):
                    res.check(c.h0_omega_twist == 1, "L-type h0(Omega x L^-1) != 1")
                if c.kind == "both":
                    res.check(c.dim == 1, "both-type component not one dimensional")
    res.check(h0_curve(2, 2) == 3, "h0(omega^2) wrong at genus 2")
    return res


def suite_tower(seed, cases=50) -> SuiteResult:
    """Tower size, edges, and normality of the maximal cover."""
    rng = random.Random(seed ^ 0x0B)
    res = SuiteResult("tower")

    def run_case(f, mults, components=None):
        cover = build_cover(f, components=components)
        got_mults = sorted(cover.branch.multiplicities())
        res.check(got_mults == sorted(mults), f"branch multiplicities {got_mults} != {mults}")
        tower = tower_enumerate(cover)
        expect = 1
        for m in cover.branch.multiplicities():
            expect *= m // 2 + 1
        res.check(len(tower.covers) == expect, f"tower size {len(tower.covers)} != {expect}")
        top = tower.covers[tower.normalization_index]
        res.check(
            all(a == m // 2 for a, m in zip(top.tuple_a, top.branch.multiplicities())),
            "normalization is not the maximal tuple",
        )
        res.check(is_normal(top), "maximal cover not normal")
        normal_count = sum(1 for c in tower.covers if is_normal(c))
        res.check(normal_count == 1, f"expected a unique normal cover, got {normal_count}")
        ms = cover.branch.multiplicities()
        expected_edges = sum(
            sum(1 for i in range(len(ms)) if t[i] < ms[i] // 2)
            for t in (c.tuple_a for c in tower.covers)
        )
        res.check(len(tower.edges) == expected_edges, "edge count off")
        for i, j in tower.edges:
            diff = [
                abs(a - b)
                for a, b in zip(tower.covers[i].tuple_a, tower.covers[j].tuple_a)
            ]
            res.check(sum(diff) == 1, "edge does not differ by one in one slot")
        for c in tower.covers:
            rebuilt = Poly.constant(f.tau.nvars, c.branch.content)
            for (fac, m), a in zip(c.branch.factors, c.tuple_a):
                rebuilt = rebuilt * fac ** (m - 2 * a)
            res.check(rebuilt == c.effective_tau, "effective tau mismatch")

    for _ in range(cases):
        length = rng.randint(1, 4)
        mults = [rng.randint(1, 6) for _ in range(length)]
        nvars = max(2, length)
        components = [(Poly.variable(nvars, i), m) for i, m in enumerate(mults)]
        tau = Poly.one(nvars)
        for i, m in enumerate(mults):
            tau = tau * Poly.variable(nvars, i) ** m
        alpha = OneForm(
            tuple(Poly.one(nvars) if i == 0 else Poly.zero(nvars) for i in range(nvars))
        )
        run_case(RankOneFactorization(alpha, tau), mults, components=components)
    # undeclared route: equal multiplicities merge into one class
    for _ in range(8):
        nvars = 2
        pool = _primitive_pool(nvars)
        length = rng.randint(1, 3)
        picks = rng.sample(pool, length)
        mults = [rng.randint(1, 4) for _ in range(length)]
        tau = Poly.constant(nvars, rng.choice([1, 2, -1]))
        for p, m in zip(picks, mults):
            tau = tau * p**m
        alpha = OneForm((Poly.one(nvars), Poly.zero(nvars)))
        run_case(RankOneFactorization(alpha, tau), sorted(set(mults)))
    # the (2, 3, 1) regression
    tau = (
        Poly.variable(3, 0) ** 2
        * Poly.variable(3, 1) ** 3
        * Poly.variable(3, 2)
    )
    alpha = OneForm((Poly.one(3), Poly.zero(3), Poly.zero(3)))
    tower = tower_enumerate(build_cover(RankOneFactorization(alpha, tau)))
    res.check(len(tower.covers) == 4, f"m=(2,3,1) gave {len(tower.covers)} covers, want 4")
    return res


def suite_chern(seed, cases=200) -> SuiteResult:
    """Twist invariance of the discriminant and push-forward identities."""
    rng = random.Random(seed ^ 0x0C)
    res = SuiteResult("chern")
    for _ in range(cases):
        n = rng.randint(2, 3)
        Q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                Q[i][j] = Q[j][i] = rng.randint(-3, 3)
        Q[0][0] = abs(Q[0][0]) + 1
        model = SurfaceModel(
            generators=tuple(f"e{i}" for i in range(n)),
            Q=tuple(tuple(r) for r in Q),
            K=NSClass(tuple(rng.randint(-3, 3) for _ in range(n))),
            omega=NSClass(tuple(1 if i == 0 else 0 for i in range(n))),
        )
        c1 = NSClass(tuple(rng.randint(-5, 5) for _ in range(n)))
        ell = NSClass(tuple(rng.randint(-5, 5) for _ in range(n)))
        c2 = Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2]))
        lhs = discriminant(
            c1 + 2 * ell, c2 + model.pair(c1, ell) + model.pair(ell, ell), model
        )
        res.check(lhs == discriminant(c1, c2, model), "twist invariance failed")
    base = ProductOfCurves(2, 2).model
    for L in (NSClass((0, 0)), NSClass((2, 0)), NSClass((1, 3))):
        cm = CoverMap(
            P=((1, 0), (0, 2)),
            cover_Q=((0, 1), (1, 0)),
            pullback=((2, 0), (0, 1)),
            L_class=L,
            base=base,
        )
        zero = NSClass.zero(2)
        res.check(pushforward_c1(zero, cm) == -L, "c1 of the trivial module is not -L")
        res.check(pushforward_c2(zero, cm) == 0, "c2 of the trivial module is not 0")
        m = NSClass((rng.randint(-3, 3), rng.randint(-3, 3)))
        pm = cm.push(m)
        want = (base.pair(pm, pm) - cm.cover_pair(m, m) - base.pair(pm, L)) / 2
        res.check(pushforward_c2(m, cm) == want, "c2 formula mismatch")
    return res


def _sl2r_brute_force(components, L, model):
    """Direct filter over all prod(m_i + 1) tuples, no shared code with the op."""
    kept = []
    total = [Fraction(0)] * model.rank
    for cls, m in components:
        for i, c in enumerate(cls.coords):
            total[i] += m * c
    for bits in _iproduct(*[range(m + 1) for _, m in components]):
        d1 = [Fraction(0)] * model.rank
        for (cls, _), a in zip(components, bits):
            for i, c in enumerate(cls.coords):
                d1[i] += a * c
        diff = [2 * x - t for x, t in zip(d1, total)]
        sq = sum(
            diff[i] * model.Q[i][j] * diff[j]
            for i in range(model.rank)
            for j in range(model.rank)
        )
        half = [x - l for x, l in zip(d1, L.coords)]
        if sq == 0 and all(h.denominator == 1 and h.numerator % 2 == 0 for h in half):
            kept.append(bits)
    return kept


def suite_sl2r_milnor_wood(seed) -> SuiteResult:
    """Enumeration against brute force on every instance, plus the degree bound."""
    rng = random.Random(seed ^ 0x0D)
    res = SuiteResult("sl2r-milnor-wood")
    X = ProductOfCurves(2, 2)
    model = X.model
    F1, F2 = X.F1, X.F2

    def cross_check(components, L):
        data = sl2r_enumerate(components, L, model)
        brute = _sl2r_brute_force(components, L, model)
        res.check(
            sorted(d.tuple_a for d in data) == sorted(brute),
            "enumeration disagrees with brute force",
        )
        total = NSClass.zero(model.rank)
        for cls, m in components:
            total = total + cls * m
        for d in data:
            res.check(d.D1 + d.D2 == total, "splitting does not sum to D")
            res.check(d.N_class * 2 == d.D1 - L, "2N != D1 - L")
            res.check(d.torsion_multiplicity == model.torsion2_count, "torsion multiplier off")
        return data

    L = NSClass((2, 0))
    data = cross_check([(F1, 1)] * 4, L)
    res.check(len(data) == 8, f"expected 8 data, got {len(data)}")
    res.check(
        sorted(sum(d.tuple_a) for d in data) == [0, 2, 2, 2, 2, 2, 2, 4],
        "kept subsets are not exactly the even-size ones",
    )
    for d in data:
        for gamma in (F1, F2, F1 + F2):
            rep = milnor_wood_check(d.N_class, gamma, model, K_pseff=True)
            res.check(rep.holds, f"degree bound failed for W={d.N_class.coords}")
            res.check(
                rep.bound == model.pair(model.K, gamma) / 2,
                "bound is not half the canonical degree",
            )
    # single component of multiplicity two with nonzero square: balanced split only
    data2 = cross_check([(F1 + F2, 2)], F1 + F2)
    res.check(
        [d.tuple_a for d in data2] == [(1,)],
        f"balanced split expected, got {[d.tuple_a for d in data2]}",
    )
    # empty branch: only the trivial datum, iff -L is divisible
    data3 = cross_check([], NSClass((0, 0)))
    res.check(len(data3) == 1 and data3[0].N_class.is_zero(), "empty branch datum wrong")
    # random fiber-class instances on products of higher genus
    for _ in range(6):
        Y = ProductOfCurves(rng.randint(2, 3), rng.randint(2, 3))
        ymodel = Y.model
        a = rng.randint(0, 2)
        b = rng.randint(0, 2)
        comps = [(Y.F1, 1)] * (2 * a) + [(Y.F2, 2)] * b
        Lr = NSClass((a, b))
        got = sl2r_enumerate(comps, Lr, ymodel)
        brute = _sl2r_brute_force(comps, Lr, ymodel)
        res.check(
            sorted(d.tuple_a for d in got) == sorted(brute),
            "random instance disagrees with brute force",
        )
        for d in got:
            for gamma in (Y.F1, Y.F2, Y.F1 + Y.F2):
                rep = milnor_wood_check(d.N_class, gamma, ymodel, K_pseff=True)
                res.check(rep.holds, "degree bound failed on random instance")
    return res


def suite_higher_rank(seed, cases=50) -> SuiteResult:
    """Characteristic coefficients of companion fields at every rank."""
    rng = random.Random(seed ^ 0x0E)
    res = SuiteResult("higher-rank")
    convention = json.loads(
        resources.files("higgspec.data").joinpath("charpoly_convention.json").read_text()
    )
    c2 = Poly.variable(1, 0)
    res.check(
        charpoly_cofactor(higher_rank_build(2, [c2])).to_text() == convention["n2"],
        "frozen n=2 convention drifted",
    )
    c2, c3 = Poly.variable(2, 0), Poly.variable(2, 1)
    res.check(
        charpoly_cofactor(higher_rank_build(3, [c2, c3])).to_text() == convention["n3"],
        "frozen n=3 convention drifted",
    )
    for n in (2, 3, 4, 5):
        for _ in range(cases):
            nvars = rng.randint(1, 2)
            coeffs = [
                _rand_poly(rng, nvars, max_deg=2, max_terms=2) for _ in range(n - 1)
            ]
            mat = higher_rank_build(n, coeffs)
            res.check(higher_rank_charcheck(mat), f"charcheck failed at n={n}")
            if n <= 3:
                fl = charpoly_from_coeffs(charpoly(mat), nvars)
                res.check(
                    fl == charpoly_cofactor(mat),
                    "Faddeev-LeVerrier and cofactor routes disagree",
                )
    return res


ALL_SUITES = (
    suite_poly_rings,
    suite_serialization,
    suite_squarefree,
    suite_gcd,
    suite_rank_one_theorem,
    suite_factorization,
    suite_canonical_cover,
    suite_correspondence,
    suite_hitchin_section,
    suite_bx_table,
    suite_tower,
    suite_chern,
    suite_sl2r_milnor_wood,
    suite_higher_rank,
)


def run_selftest(seed: int = 0):
    """Run every suite with streams derived from the seed, timing each."""
    results = []
    for fn in ALL_SUITES:
        t0 = time.perf_counter()
        res = fn(seed)
        res.elapsed = time.perf_counter() - t0
        results.append(res)
    return results
