"""Seeded job generators with planted answers, one per workload.

Each generator returns one round: a list of jobs.  A job is the JSON config
text the program receives, plus the answer planted when the input was built,
computed with ``refpoly`` and plain Fractions only.  The round's shape
(commands, chart dimensions, degree ladder, witness positions, multiplicities,
sl2r tuple counts) is fixed; the seed draws coefficients, linear forms and
lattice entries, so two seeds cost about the same.

    python3 perfbench/gen.py --workload rank-test --seed 1 --out DIR

writes every job config and its expected answer to DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import random
from fractions import Fraction
from itertools import product as iproduct

import refpoly as R

WORKLOADS = ("rank-test", "cover-tower", "lattice")

# Independent draws of every ladder cell in one round.  p50 and p90 are order
# statistics of the round's job costs; two draws per cell put more jobs near
# each of them, so one job's timing noise moves them less.
DRAWS = 2


class Job:
    """One config the program receives, and the answer planted in it.

    ``known_fault`` marks the fixed jobs that fail on a fault the program is
    known to have; any other failing job makes the run incorrect.
    """

    __slots__ = ("label", "config", "expect", "known_fault")

    def __init__(self, label, doc, expect, known_fault=False):
        self.label = label
        self.config = json.dumps(doc, sort_keys=True)
        self.expect = expect
        self.known_fault = known_fault


def _frac_tree(x):
    x = Fraction(x)
    return {"num": x.numerator, "den": x.denominator}


def _chart(n):
    return {"kind": "chart", "nvars": n}


def _texts(polys):
    return [R.to_text(p) for p in polys]


def _trees(polys, n):
    return [R.to_tree(p, n) for p in polys]


# -- polynomial material --------------------------------------------------------


def _linear_pool(rng, n, k):
    """k dense linear forms in n variables, pairwise non-proportional.

    Every coefficient is nonzero, so products of a given number of forms
    have the same term support on every seed and the cost of a job depends
    on its ladder cell, not on the draw.
    """
    pool = []
    while len(pool) < k:
        v = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(n + 1)]
        if any(all(v[i] * w[j] == v[j] * w[i] for i in range(n + 1) for j in range(n + 1)) for w in pool):
            continue
        pool.append(v)
    out = []
    for v in pool:
        p = R.const(n, v[n])
        for i in range(n):
            p = R.add(p, R.scale(R.var(n, i), v[i]))
        out.append(p)
    return out


def _covector(rng, n, d, forms):
    """n entries, each a small integer times a product of d pool forms.

    No pool form divides every entry, so the entry gcd is a constant and the
    normalized covector is known exactly.
    """
    while True:
        picks = [rng.sample(range(len(forms)), d) for _ in range(n)]
        if d == 0 or not set.intersection(*map(set, picks)):
            break
    return [
        R.scale(R.product([forms[i] for i in pick], n), rng.choice((1, -1, 2, -2, 3)))
        for pick in picks
    ]


def _normalize(alpha, tau):
    """The factorization s = tau * alpha alpha^T with alpha primitive.

    alpha is divided by its collective rational content, signed so that its
    first nonzero entry has a positive grlex-leading coefficient; tau absorbs
    the square of that scalar.
    """
    k = R.content_of(c for p in alpha for c in p.values())
    if R.leading_coeff(next(p for p in alpha if p)) < 0:
        k = -k
    return [R.scale(p, 1 / k) for p in alpha], R.scale(tau, k * k)


def _outer(a, b, n):
    return [[R.mul(a[i], b[j]) for j in range(n)] for i in range(n)]


def _symdiff_texts(S):
    return [_texts(row) for row in S]


def _datum(s1, s2):
    return {"s1": _texts(s1), "s2": _symdiff_texts(s2)}


def _shifted(S, s1, n):
    """s2 = Q + s1 s1^T / 4, so that the quarter defect is exactly Q."""
    quarter = _outer(s1, s1, n)
    return [[R.add(S[i][j], R.scale(quarter[i][j], Fraction(1, 4))) for j in range(n)] for i in range(n)]


# -- rank-one -------------------------------------------------------------------

# (n, d, t): chart dimension, linear forms per alpha entry, linear forms in tau.
# Capped where a single factor job passes about 0.2 s: one more form at n = 3
# or n = 4 costs 0.45-0.65 s per job, and (4, 3, 0) about 19 s.
RANK_ONE_LADDER = (
    (2, 1, 0), (2, 1, 1), (2, 1, 2),
    (2, 2, 0), (2, 2, 1), (2, 2, 2),
    (2, 3, 0), (2, 3, 1), (2, 3, 2),
    (3, 1, 0), (3, 1, 1), (3, 1, 2), (3, 2, 0),
    (4, 1, 0),
)
TAU_CONSTANTS = (1, 2, -3, Fraction(3, 2), Fraction(-2, 5))


def _planted_rank_one(rng, n, d, t):
    forms = _linear_pool(rng, n, n * d + t + 1)
    alpha0 = _covector(rng, n, d, forms[: len(forms) - t])
    tau0 = R.scale(R.product(forms[len(forms) - t :], n), rng.choice(TAU_CONSTANTS))
    S = [[R.mul(tau0, R.mul(alpha0[i], alpha0[j])) for j in range(n)] for i in range(n)]
    alpha, tau = _normalize(alpha0, tau0)
    return S, alpha, tau


def rank_one(seed):
    rng = random.Random(f"rank-one/{seed}")
    jobs = []
    for (n, d, t), draw in iproduct(RANK_ONE_LADDER, range(DRAWS)):
        cell = f"n={n} d={d} t={t} #{draw}"
        S, alpha, tau = _planted_rank_one(rng, n, d, t)
        fac = {"alpha": _trees(alpha, n), "tau": R.to_tree(tau, n)}
        jobs.append(Job(f"factor {cell}", {"command": "factor", "model": _chart(n), "payload": {"s": _symdiff_texts(S)}},
                        {"n": n, "rank_le_one": True, "factorization": fac}))

        S, alpha, tau = _planted_rank_one(rng, n, d, t)
        s1 = _linear_pool(rng, n, n)
        fac = {"alpha": _trees(alpha, n), "tau": R.to_tree(tau, n)}
        jobs.append(Job(f"base-check {cell}", {"command": "base-check", "model": _chart(n), "payload": {"datum": _datum(s1, _shifted(S, s1, n))}},
                        {"n": n, "membership": "member", "factorization": fac}))

        S, alpha, tau = _planted_rank_one(rng, n, d, t)
        s1 = _linear_pool(rng, n, n)
        s2 = _shifted(S, s1, n)
        fac = {"alpha": _trees(alpha, n), "tau": R.to_tree(tau, n)}
        branch = "unit_branch" if t == 0 else "generic"
        jobs.append(Job(f"hitchin-section {cell}", {"command": "hitchin-section", "model": _chart(n), "payload": {"datum": _datum(s1, s2)}},
                        {"n": n, "branch": branch, "stability": "polystable" if t == 0 else "stable",
                         "factorization": fac, "s1": _trees(s1, n), "s2": [_trees(r, n) for r in s2]}))
    # nilpotent points: s2 = s1 s1^T / 4, so the quarter defect vanishes
    for n in (2, 3, 4):
        s1 = _linear_pool(rng, n, n)
        s2 = _shifted([[{}] * n for _ in range(n)], s1, n)
        jobs.append(Job(f"base-check nilpotent n={n}", {"command": "base-check", "model": _chart(n), "payload": {"datum": _datum(s1, s2)}},
                        {"n": n, "membership": "nilpotent"}))
        s1 = _linear_pool(rng, n, n)
        s2 = _shifted([[{}] * n for _ in range(n)], s1, n)
        jobs.append(Job(f"hitchin-section nilpotent n={n}", {"command": "hitchin-section", "model": _chart(n), "payload": {"datum": _datum(s1, s2)}},
                        {"n": n, "branch": "nilpotent_diagonal", "stability": "polystable", "factorization": None,
                         "s1": _trees(s1, n), "s2": [_trees(r, n) for r in s2]}))
    return jobs


# -- rank-two -------------------------------------------------------------------

# (n, q, p, d): alpha supported on coordinates >= q, beta on coordinates >= p,
# d linear forms per entry (d = 2 at n = 4 takes 1.7-3.6 s a job, so it is
# left out).  Moving q and p moves the first nonvanishing minor
# along the loop order, so the witness search scans a different number of
# vanishing minors before it stops.
RANK_TWO_CELLS = (
    (2, 0, 0, 1), (2, 0, 1, 1), (2, 0, 1, 2), (2, 1, 0, 2),
    (3, 0, 0, 1), (3, 0, 1, 1), (3, 0, 2, 1), (3, 1, 2, 1), (3, 1, 0, 2), (3, 0, 2, 2),
    (4, 0, 0, 1), (4, 0, 1, 1), (4, 0, 2, 1), (4, 0, 3, 1), (4, 1, 3, 1), (4, 2, 3, 1),
    (4, 1, 0, 1), (4, 2, 0, 1),
)


def _planted_rank_two(rng, n, q, p, d):
    """S = tau1 alpha alpha^T + tau2 beta beta^T and its first nonvanishing minor.

    By Cauchy-Binet the minor on rows (i, j), columns (k, l) is
    tau1 tau2 P_ij P_kl with P_ij = alpha_i beta_j - alpha_j beta_i, so in
    (i < j, k < l) loop order the first one is (i, j, i, j) at the first
    nonzero P_ij, and it equals tau1 tau2 P_ij^2.
    """
    pair = None
    while pair is None:  # redraw in the rare case that alpha and beta come out proportional
        forms = _linear_pool(rng, n, 2 * n * d + 4)
        half = len(forms) // 2
        alpha = [{}] * q + [R.scale(R.product(rng.sample(forms[:half], d), n), rng.choice((1, -2, 3))) for _ in range(n - q)]
        beta = [{}] * p + [R.scale(R.product(rng.sample(forms[half:-2], d), n), rng.choice((1, -1, 2))) for _ in range(n - p)]
        pair = next(((i, j) for i in range(n) for j in range(i + 1, n) if R.minor2([alpha, beta], 0, 1, i, j)), None)
    tau1 = R.scale(forms[-2], rng.choice(TAU_CONSTANTS))
    tau2 = R.scale(forms[-1], rng.choice(TAU_CONSTANTS))
    S = [[R.add(R.mul(tau1, R.mul(alpha[i], alpha[j])), R.mul(tau2, R.mul(beta[i], beta[j]))) for j in range(n)] for i in range(n)]
    i, j = pair
    plucker = R.minor2([alpha, beta], 0, 1, i, j)
    return S, ((i, j, i, j), R.mul(R.mul(tau1, tau2), R.mul(plucker, plucker)))


def rank_two(seed):
    rng = random.Random(f"rank-two/{seed}")
    jobs = []
    for (n, q, p, d), draw in iproduct(RANK_TWO_CELLS, range(DRAWS)):
        cell = f"n={n} q={q} p={p} d={d} #{draw}"
        S, (idx, minor) = _planted_rank_two(rng, n, q, p, d)
        jobs.append(Job(f"factor {cell}", {"command": "factor", "model": _chart(n), "payload": {"s": _symdiff_texts(S)}},
                        {"n": n, "rank_le_one": False, "minor_indices": list(idx), "minor": R.to_tree(minor, n)}))
        S, (idx, minor) = _planted_rank_two(rng, n, q, p, d)
        s1 = _linear_pool(rng, n, n)
        # the witness is the same minor of 4 s2 - s1 s1^T = 4 Q, that is 16 times it
        jobs.append(Job(f"base-check {cell}", {"command": "base-check", "model": _chart(n), "payload": {"datum": _datum(s1, _shifted(S, s1, n))}},
                        {"n": n, "membership": "not_member", "minor_indices": list(idx), "minor": R.to_tree(R.scale(minor, 16), n)}))
    return jobs


# -- cover-tower ----------------------------------------------------------------

# (n, multiplicities, forms per component): tau = c * prod f_i^m_i with
# distinct m_i, so each multiplicity class of the squarefree decomposition is
# exactly one planted f_i.
COVER_CELLS = (
    (2, (3,), 1), (2, (2, 5), 1), (2, (1, 4), 2), (2, (3, 6), 1),
    (2, (2, 3, 1), 1), (2, (4, 5, 6), 1), (3, (2, 3), 1), (3, (1, 2, 4), 1),
)
# Three draws of each cell: the middle of the round is a run of costs from
# 30 to 60 ms, and one more draw of every cell there makes its median less
# dependent on the single draws the seed makes.
COVER_DRAWS = 3
# |numerator| >= 2: with a unit numerator the content of tau can be misread
# (see the fixed jobs below), which would make a job fail on some seeds only.
COVER_CONSTANTS = (2, -3, Fraction(3, 2), Fraction(-2, 5), Fraction(5, 3), Fraction(-7, 4))


def _planted_branch(rng, n, mults, k):
    forms = _linear_pool(rng, n, k * len(mults) + n)
    comps = []
    for i, m in enumerate(mults):
        comps.append((R.product(forms[k * i : k * (i + 1)], n), m))
    c = rng.choice(COVER_CONSTANTS)
    tau = R.scale(R.product([R.power(f, m, n) for f, m in comps], n), c)
    alpha = forms[len(forms) - n :]
    return tau, alpha, comps


def _branch_expect(tau, comps, n):
    """content and primitive components, as a correct decomposition reports them."""
    prims = [(R.primitive(f)[1], m) for f, m in comps]
    rest = R.product([R.power(f, m, n) for f, m in prims], n)
    content = next(iter(tau.values())) / rest[next(iter(tau))]
    return content, prims


def _cover_expect(alpha, tau, content, prims, n, a):
    eff = R.scale(R.product([R.power(f, m - 2 * ai, n) for (f, m), ai in zip(prims, a)], n), content)
    return {
        "factorization": {"alpha": _trees(alpha, n), "tau": R.to_tree(tau, n)},
        "content": _frac_tree(content),
        "components": [{"factor": R.to_tree(f, n), "multiplicity": m} for f, m in prims],
        "tuple_a": list(a),
        "effective_tau": R.to_tree(eff, n),
        "normal": all(m - 2 * ai <= 1 for (_, m), ai in zip(prims, a)),
    }


def _tower_expect(alpha, tau, content, prims, n):
    ms = [m for _, m in prims]
    tuples = list(iproduct(*[range(m // 2 + 1) for m in ms]))
    index = {t: i for i, t in enumerate(tuples)}
    edges = []
    for t in tuples:
        for i, m in enumerate(ms):
            if t[i] < m // 2:
                edges.append([index[t], index[t[:i] + (t[i] + 1,) + t[i + 1 :]]])
    return {
        "count": len(tuples),
        "normalization_index": index[tuple(m // 2 for m in ms)],
        "edges": edges,
        "covers": [_cover_expect(alpha, tau, content, prims, n, t) for t in tuples],
    }


def _higgs(alpha, tau, shift, n):
    """B_i = alpha_i * Phi with Phi = [[p, -tau - p^2], [1, -p]], so Phi^2 = -tau Id."""
    phi = [[shift, R.sub(R.scale(tau, -1), R.mul(shift, shift))], [R.const(n, 1), R.scale(shift, -1)]]
    mats = [[[R.to_text(R.mul(a, e)) for e in row] for row in phi] for a in alpha]
    return mats, [_trees(row, n) for row in phi]


def _cover_jobs(rng, n, mults, k, cell):
    jobs = []
    tau, alpha, comps = _planted_branch(rng, n, mults, k)
    content, prims = _branch_expect(tau, comps, n)
    sorted_prims = sorted(prims, key=lambda fm: fm[1])
    fac = {"alpha": _texts(alpha), "tau": R.to_text(tau)}
    jobs.append(Job(f"cover inferred {cell}", {"command": "cover", "model": _chart(n), "payload": {"factorization": fac}},
                    {"n": n, "cover": _cover_expect(alpha, tau, content, sorted_prims, n, (0,) * len(prims))}))

    tau, alpha, comps = _planted_branch(rng, n, mults, k)
    content, prims = _branch_expect(tau, comps, n)
    # declared factors carry a nonunit scalar, which the program divides out
    declared = [{"factor": R.to_text(R.scale(f, rng.choice((2, -1, 3)))), "multiplicity": m} for f, m in comps]
    fac = {"alpha": _texts(alpha), "tau": R.to_text(tau)}
    jobs.append(Job(f"cover declared {cell}", {"command": "cover", "model": _chart(n), "payload": {"factorization": fac, "components": declared}},
                    {"n": n, "cover": _cover_expect(alpha, tau, content, prims, n, (0,) * len(prims))}))

    tau, alpha, comps = _planted_branch(rng, n, mults, k)
    content, prims = _branch_expect(tau, comps, n)
    fac = {"alpha": _texts(alpha), "tau": R.to_text(tau)}
    jobs.append(Job(f"tower {cell}", {"command": "tower", "model": _chart(n), "payload": {"factorization": fac}},
                    {"n": n, "tower": _tower_expect(alpha, tau, content, sorted(prims, key=lambda fm: fm[1]), n)}))

    tau, alpha, comps = _planted_branch(rng, n, mults, k)
    shift = _linear_pool(rng, n, 1)[0]
    mats, eta = _higgs(alpha, tau, shift, n)
    fac = {"alpha": _texts(alpha), "tau": R.to_text(tau)}
    jobs.append(Job(f"correspondence {cell}", {"command": "correspondence", "model": _chart(n), "payload": {"higgs": {"matrices": mats}, "factorization": fac}},
                    {"n": n, "eta_action": eta}))
    return jobs


# Seed-independent inputs on which Poly.content() stops early: the running
# gcd reaches 1 at the first coefficient of x1 + x2/3 - 2/3, although the
# content is 1/3.  These jobs fail until that fault is mended, in every round
# and on every seed.
FAULT_FORM = "1 * x1 + 1/3 * x2 + -2/3"


def _fault_jobs():
    n = 2
    x1, x2 = R.var(n, 0), R.var(n, 1)
    f = R.add(R.add(x1, R.scale(x2, Fraction(1, 3))), R.const(n, Fraction(-2, 3)))
    g = R.add(R.sub(x1, x2), R.const(n, 2))
    alpha = [R.add(x1, R.const(n, 1)), R.sub(x2, R.const(n, 3))]
    jobs = []
    # (1, 2) reports the component f itself, which is not primitive; (3, 2)
    # also loses tau, and the correspondence then rejects a valid module
    for command, m_f in (("cover", 1), ("tower", 1), ("cover", 3), ("tower", 3), ("correspondence", 3)):
        comps = [(f, m_f), (g, 2)]
        tau = R.product([R.power(p, m, n) for p, m in comps], n)
        content, prims = _branch_expect(tau, comps, n)
        prims = sorted(prims, key=lambda fm: fm[1])
        payload = {"factorization": {"alpha": _texts(alpha), "tau": R.to_text(tau)}}
        if command == "cover":
            want = {"n": n, "cover": _cover_expect(alpha, tau, content, prims, n, (0, 0))}
        elif command == "tower":
            want = {"n": n, "tower": _tower_expect(alpha, tau, content, prims, n)}
        else:
            mats, eta = _higgs(alpha, tau, x1, n)
            payload["higgs"] = {"matrices": mats}
            want = {"n": n, "eta_action": eta}
        jobs.append(Job(f"{command} fault m=({m_f},2)", {"command": command, "model": _chart(n), "payload": payload}, want, True))
    tau = R.mul(f, R.power(g, 2, n))
    content, prims = _branch_expect(tau, [(f, 1), (g, 2)], n)
    fac = {"alpha": _texts(alpha), "tau": R.to_text(tau)}
    declared = [{"factor": FAULT_FORM, "multiplicity": 1}, {"factor": R.to_text(g), "multiplicity": 2}]
    jobs.append(Job("cover declared fault", {"command": "cover", "model": _chart(n), "payload": {"factorization": fac, "components": declared}},
                    {"n": n, "cover": _cover_expect(alpha, tau, content, prims, n, (0, 0))}, True))
    return jobs


def cover_tower(seed):
    rng = random.Random(f"cover-tower/{seed}")
    jobs = []
    for (n, mults, k), draw in iproduct(COVER_CELLS, range(COVER_DRAWS)):
        jobs.extend(_cover_jobs(rng, n, mults, k, f"n={n} m={','.join(map(str, mults))} k={k} #{draw}"))
    return jobs + _fault_jobs()


# -- lattice ----------------------------------------------------------------------


def _rand_model(rng, r):
    """A declared lattice of rank r with a polarization of positive square."""
    while True:
        Q = [[0] * r for _ in range(r)]
        for i in range(r):
            for j in range(i, r):
                Q[i][j] = Q[j][i] = rng.randint(-2, 3)
        omega = [rng.randint(0, 2) for _ in range(r)]
        if _pair(Q, omega, omega) > 0:
            break
    K = [rng.randint(-3, 4) for _ in range(r)]
    return Q, K, omega


def _pair(Q, x, y):
    return sum(x[i] * Q[i][j] * y[j] for i in range(len(Q)) for j in range(len(Q)))


def _surface_doc(Q, K, omega, b1=0, torsion2=1):
    r = len(Q)
    return {
        "kind": "surface",
        "generators": [f"e{i}" for i in range(r)],
        "intersection": [Q[i][j] for i in range(r) for j in range(r)],
        "K": [str(Fraction(c)) for c in K],
        "omega": [str(Fraction(c)) for c in omega],
        "b1": b1,
        "torsion2": torsion2,
    }


def _cls(v):
    return [str(Fraction(c)) for c in v]


def _cls_tree(v):
    return [_frac_tree(c) for c in v]


def _rand_class(rng, r, lo=-4, hi=4):
    return [rng.randint(lo, hi) for _ in range(r)]


# sl2r multiplicity vectors; prod(m_i + 1) runs 48, 96, 192, 384, 768, 1536
# and 2304 tuples.  A tuple costs 0.07-0.15 ms, more with more components, so
# the top rung already takes 0.3-0.7 s a job.
SL2R_LADDER = ((3, 3, 2), (3, 3, 5), (3, 3, 3, 2), (3, 3, 3, 5), (3, 3, 3, 3, 2), (2, 3, 3, 3, 3, 1), (2, 3, 3, 3, 3, 2))
# Three draws of each rung: the round then has 111 jobs, and its 90th
# percentile falls in the middle of the three 384-tuple jobs, not in the gap
# between two rungs, where it would jump with each job's timing noise.
SL2R_DRAWS = 3


def _sl2r_brute(comps, Q):
    """Every tuple 0 <= a_i <= m_i with (D1 - D2)^2 = 0 and D1 - L even.

    Integer classes and L = (sum m_i c_i) / 2, so D1 - D2 = 2 D1 - 2L and
    D1 - L = (2 D1 - 2L) / 2 are read off the integer vector 2 D1 - 2L.
    """
    r = len(Q)
    total = [sum(c[i] * m for c, m in comps) for i in range(r)]
    out = []
    for a in iproduct(*[range(m + 1) for _, m in comps]):
        diff = [2 * sum(c[i] * ai for (c, _), ai in zip(comps, a)) - total[i] for i in range(r)]
        if _pair(Q, diff, diff) != 0 or any(x % 4 for x in diff):
            continue
        D1 = [Fraction(x + t, 2) for x, t in zip(diff, total)]
        D2 = [Fraction(t - x, 2) for x, t in zip(diff, total)]
        out.append({"tuple_a": list(a), "D1": _cls_tree(D1), "D2": _cls_tree(D2), "N": _cls_tree([Fraction(x, 4) for x in diff])})
    return out


def _sl2r_job(rng, mults):
    """Fibre classes k_i F1 on a product of curves, so every splitting is isotropic.

    Then a tuple is kept iff x = sum (2 a_i - m_i) k_i is 0 mod 4.  The first
    component with m = 3 gets an odd k, so stepping its a_i flips x by 2 mod 4
    and exactly half of all tuples are kept; the second one with m = 3 fixes
    the parity of sum m_i k_i, which keeps L integral.
    """
    g1, g2 = rng.randint(1, 3), rng.randint(1, 3)
    Q = [[0, 1], [1, 0]]
    ks = [rng.randint(1, 3) for _ in mults]
    i0, i1 = [i for i, m in enumerate(mults) if m == 3][:2]
    ks[i0] = rng.choice((1, 3))
    if sum(m * k for m, k in zip(mults, ks)) % 2:
        ks[i1] += 1
    comps = [([k, 0], m) for k, m in zip(ks, mults)]
    L = [sum(m * k for m, k in zip(mults, ks)) // 2, 0]
    doc = {
        "command": "sl2r-enum",
        "model": {"kind": "product_curves", "g1": g1, "g2": g2},
        "payload": {"components": [{"class": _cls(c), "multiplicity": m} for c, m in comps], "L": _cls(L)},
    }
    data = _sl2r_brute(comps, Q)
    return doc, {"count": len(data), "torsion_multiplicity": 2 ** (2 * g1 + 2 * g2), "data": data}


def _chern_job(rng, r):
    """Double cover data: pulled-back classes with form 2Q, exceptional classes orthogonal."""
    Q, K, omega = _rand_model(rng, r)
    e = rng.randint(1, 2)
    nc = r + e
    cover_Q = [[0] * nc for _ in range(nc)]
    for i in range(r):
        for j in range(r):
            cover_Q[i][j] = 2 * Q[i][j]
    for i in range(r, nc):
        cover_Q[i][i] = -rng.randint(1, 2)
    P = [[2 if i == j else 0 for j in range(nc)] for i in range(r)]
    pull = [[1 if i == j else 0 for j in range(r)] for i in range(nc)]
    L = _rand_class(rng, r)
    m = _rand_class(rng, nc)
    pm = [sum(Fraction(P[i][j]) * m[j] for j in range(nc)) for i in range(r)]
    c1 = [x - l for x, l in zip(pm, L)]
    c2 = (_pair(Q, pm, pm) - _pair(cover_Q, m, m) - _pair(Q, pm, L)) / 2
    disc = 4 * c2 - _pair(Q, c1, c1)
    doc = {
        "command": "chern",
        "model": _surface_doc(Q, K, omega),
        "payload": {"cover_map": {"P": P, "cover_intersection": cover_Q, "pullback": pull, "L": _cls(L)}, "M_c1": _cls(m)},
    }
    return doc, {"c1": _cls_tree(c1), "c2": _frac_tree(c2), "discriminant": _frac_tree(disc)}


def _stability_job(rng, r):
    Q, K, omega = _rand_model(rng, r)
    if rng.random() < 0.3:
        d1, d2 = Fraction(rng.randint(-6, 6), rng.choice((1, 2))), Fraction(rng.randint(-6, 6), rng.choice((1, 3)))
        doc = {"command": "stability", "model": _surface_doc(Q, K, omega),
               "payload": {"kind": "hodge", "d1": str(d1), "d2": str(d2), "alpha_nonzero": True}}
        return doc, {"stability": "stable" if d1 > d2 else "not_stable"}
    while True:
        L1, L2 = _rand_class(rng, r), _rand_class(rng, r)
        iso = rng.random() < 0.3
        if iso:
            L2 = list(L1)
        d1, d2 = _pair(Q, L1, omega), _pair(Q, L2, omega)
        if d1 < d2:
            L1, L2, d1, d2 = L2, L1, d2, d1
        a_nz, b_nz = rng.random() < 0.8, rng.random() < 0.8
        prop = True if not (a_nz and b_nz) else rng.random() < 0.5
        if not iso or d1 == d2:
            break
    if d1 > d2:
        want = "stable" if a_nz else "not_stable"
    elif not iso:
        want = "stable" if (a_nz and b_nz) else "not_stable"
    else:
        want = "polystable" if prop else "stable"
    doc = {"command": "stability", "model": _surface_doc(Q, K, omega),
           "payload": {"kind": "real", "L1": _cls(L1), "L2": _cls(L2), "alpha_nonzero": a_nz, "beta_nonzero": b_nz,
                       "alpha_beta_proportional": prop, "L1_iso_L2": iso}}
    return doc, {"stability": want}


def _milnor_wood_job(rng, r):
    Q, K, omega = _rand_model(rng, r)
    W, gamma = _rand_class(rng, r), _rand_class(rng, r, 0, 3)
    toledo = _pair(Q, W, gamma)
    bound = Fraction(_pair(Q, K, gamma), 2)
    doc = {"command": "milnor-wood", "model": _surface_doc(Q, K, omega), "payload": {"W": _cls(W), "gamma": _cls(gamma)}}
    return doc, {"holds": abs(toledo) <= bound, "toledo": _frac_tree(toledo), "bound": _frac_tree(bound)}


def _rigidity_job(rng):
    pic1 = rng.random() < 0.6
    b1 = rng.choice((0, 0, 0, 2, 4))
    covers = [rng.choice((0, 0, 0, 2)) for _ in range(rng.randint(0, 4))]
    if b1:
        want = ("not_rigid", f"b1 = {b1} != 0")
    elif not pic1:
        want = ("undecided", "criterion needs Picard number one when b1 = 0")
    elif any(covers):
        i = next(i for i, b in enumerate(covers) if b)
        want = ("not_rigid", f"double cover {i} has b1 = {covers[i]}")
    else:
        want = ("rigid", None)
    doc = {"command": "rigidity", "payload": {"picard_number_one": pic1, "b1": b1, "double_cover_b1s": covers}}
    return doc, {"status": want[0], "reason": want[1]}


def _section_job(rng, r):
    Q, K, omega = _rand_model(rng, r)
    L = _rand_class(rng, r)
    if rng.random() < 0.15:
        L = [0] * r
    D = [2 * x for x in L]
    psl2r = _pair(Q, D, D) == 0
    doc = {"command": "hitchin-section", "model": _surface_doc(Q, K, omega),
           "payload": {"L": _cls(L), "D": _cls(D), "s1_nonzero": rng.random() < 0.5}}
    return doc, {"stability": "stable" if any(D) else "polystable", "real": True,
                 "psl2r_condition": psl2r, "sl2r_condition": psl2r and all(x % 2 == 0 for x in L),
                 "E_classes": [_cls_tree([0] * r), _cls_tree([-x for x in L])]}


def lattice(seed):
    rng = random.Random(f"lattice/{seed}")
    jobs = []
    for mults, draw in iproduct(SL2R_LADDER, range(SL2R_DRAWS)):
        doc, want = _sl2r_job(rng, mults)
        jobs.append(Job(f"sl2r-enum m={','.join(map(str, mults))} #{draw}", doc, want))
    for r in (2, 3, 4) * 6:
        for make, name in ((_chern_job, "chern"), (_stability_job, "stability"), (_milnor_wood_job, "milnor-wood"), (_section_job, "hitchin-section")):
            doc, want = make(rng, r)
            jobs.append(Job(f"{name} rank={r}", doc, want))
        doc, want = _rigidity_job(rng)
        jobs.append(Job("rigidity", doc, want))
    return jobs


def rank_test(seed):
    """Both paths of the rank test in one round: rank-one members, then rank-two witnesses."""
    return rank_one(seed) + rank_two(seed)


GENERATORS = {"rank-test": rank_test, "cover-tower": cover_tower, "lattice": lattice}


def generate(workload, seed):
    return GENERATORS[workload](seed)


def main(argv=None):
    ap = argparse.ArgumentParser(description="write one round of a workload's jobs and planted answers")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, help="directory for job-NNN.json and expect-NNN.json")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    for i, job in enumerate(generate(args.workload, args.seed)):
        with open(os.path.join(args.out, f"job-{i:03d}.json"), "w", encoding="utf-8") as fh:
            fh.write(job.config)
        with open(os.path.join(args.out, f"expect-{i:03d}.json"), "w", encoding="utf-8") as fh:
            json.dump({"label": job.label, "expect": job.expect}, fh, sort_keys=True)


if __name__ == "__main__":
    main()
