"""Checks one machine block against the answer planted by ``gen``.

``check(job, out)`` returns None when the output is right and a one-line
reason otherwise.  Polynomials are compared after ``refpoly.from_tree`` has
insisted on their canonical form; covers and sections are also checked for
the identities the method must satisfy, computed with ``refpoly`` alone.
"""

from __future__ import annotations

import json
from fractions import Fraction

import refpoly as R


def check(job, out):
    if not out.startswith("{"):
        return f"job raised: {out.strip()[:200]}"
    doc = json.loads(out)
    command = json.loads(job.config)["command"]
    if doc.get("command") != command:
        return f"command {doc.get('command')!r} != {command!r}"
    fn = _CHECKS[command]
    if command == "hitchin-section" and "psl2r_condition" in job.expect:
        fn = _lattice_section
    return fn(job.expect, doc.get("verdicts", {}), doc.get("values", {}), doc.get("witnesses", {}))


def _poly(tree, n, what):
    p = R.from_tree(tree, n)
    if p is None:
        raise _Wrong(f"{what} is not a canonical polynomial tree")
    return p


class _Wrong(Exception):
    pass


def _same(got, want, what):
    if got != want:
        raise _Wrong(f"{what}: got {json.dumps(got)[:160]}, want {json.dumps(want)[:160]}")


def _same_poly(got, want, n, what):
    got, want = _poly(got, n, what), _poly(want, n, f"planted {what}")
    if got != want:
        raise _Wrong(f"{what}: got {R.to_text(got)[:160]}, want {R.to_text(want)[:160]}")


def _reasons(fn):
    def wrapped(*args):
        try:
            fn(*args)
        except _Wrong as exc:
            return str(exc)
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            return f"malformed output: {type(exc).__name__}: {exc}"
        return None

    return wrapped


def _factorization(got, want, n):
    _same(len(got["alpha"]), n, "alpha length")
    for i, (g, w) in enumerate(zip(got["alpha"], want["alpha"])):
        _same_poly(g, w, n, f"alpha[{i}]")
    _same_poly(got["tau"], want["tau"], n, "tau")


@_reasons
def _factor(want, verdicts, values, witnesses):
    n = want["n"]
    _same(verdicts["rank_le_one"], want["rank_le_one"], "rank_le_one")
    if want["rank_le_one"]:
        _factorization(values["factorization"], want["factorization"], n)
    else:
        _witness(witnesses, want, n)


def _witness(witnesses, want, n):
    _same(witnesses["minor_indices"], want["minor_indices"], "minor_indices")
    _same_poly(witnesses["minor"], want["minor"], n, "minor")


@_reasons
def _base_check(want, verdicts, values, witnesses):
    n = want["n"]
    _same(verdicts["membership"], want["membership"], "membership")
    if want["membership"] == "member":
        _factorization(values["factorization"], want["factorization"], n)
    elif want["membership"] == "not_member":
        _witness(witnesses, want, n)
    else:
        _same(values, {}, "values of a nilpotent point")


def _trace(m):
    return R.add(m[0][0], m[1][1])


def _matmul2(a, b):
    return [[R.add(R.mul(a[i][0], b[0][j]), R.mul(a[i][1], b[1][j])) for j in range(2)] for i in range(2)]


@_reasons
def _chart_section(want, verdicts, values, witnesses):
    n = want["n"]
    _same(verdicts["branch"], want["branch"], "branch")
    _same(verdicts["stability"], want["stability"], "stability")
    _same(verdicts["real"], True, "real")
    _same(verdicts["identity_checked"], True, "identity_checked")
    if want["factorization"] is None:
        _same("factorization" in values, False, "factorization on the diagonal branch")
    else:
        _factorization(values["factorization"], want["factorization"], n)
    field = values["field"]
    _same(field["rank"], 2, "field rank")
    mats = [[[_poly(p, n, "field entry") for p in row] for row in m] for m in field["matrices"]]
    _same(len(mats), n, "field matrices")
    s1 = [_poly(p, n, "s1") for p in want["s1"]]
    s2 = [[_poly(p, n, "s2") for p in row] for row in want["s2"]]
    traces = [_trace(m) for m in mats]
    for i in range(n):
        if traces[i] != s1[i]:
            raise _Wrong(f"tr B_{i} != s1_{i}")
    for i in range(n):
        for j in range(n):
            det_form = R.scale(R.sub(R.mul(traces[i], traces[j]), _trace(_matmul2(mats[i], mats[j]))), Fraction(1, 2))
            if det_form != s2[i][j]:
                raise _Wrong(f"(tr B_{i} tr B_{j} - tr B_{i}B_{j})/2 != s2_{i}{j}")


@_reasons
def _lattice_section(want, verdicts, values, witnesses):
    for key in ("stability", "real", "psl2r_condition", "sl2r_condition"):
        _same(verdicts[key], want[key], key)
    _same(values["E_classes"], want["E_classes"], "E_classes")


def _cover(got, want, n):
    """One cover tree: planted values, then the identities it must satisfy."""
    _factorization(got["factorization"], want["factorization"], n)
    _same(got["tuple_a"], want["tuple_a"], "tuple_a")
    content = Fraction(got["content"]["num"], got["content"]["den"])
    comps = [(_poly(c["factor"], n, "component"), c["multiplicity"]) for c in got["components"]]
    for f, _ in comps:
        if R.content(f) != 1 or R.leading_coeff(f) < 0:
            raise _Wrong(f"component {R.to_text(f)} is not primitive")
    tau = _poly(got["factorization"]["tau"], n, "tau")
    rebuilt = R.scale(R.product([R.power(f, m, n) for f, m in comps], n), content)
    if rebuilt != tau:
        raise _Wrong("content * prod f_i^m_i != tau")
    eff = R.scale(R.product([R.power(f, m - 2 * a, n) for (f, m), a in zip(comps, got["tuple_a"])], n), content)
    if _poly(got["effective_tau"], n, "effective_tau") != eff:
        raise _Wrong("effective_tau != content * prod f_i^(m_i - 2 a_i)")
    _same(got["content"], want["content"], "content")
    _same(got["components"], want["components"], "components")
    _same(got["normal"], want["normal"], "normal")
    _same("splits_over_base_field" in got, not comps, "splits_over_base_field present")


@_reasons
def _cover_cmd(want, verdicts, values, witnesses):
    _cover(values["cover"], want["cover"], want["n"])


@_reasons
def _tower(want, verdicts, values, witnesses):
    n, tower = want["n"], want["tower"]
    _same(verdicts["count"], tower["count"], "count")
    _same(len(values["covers"]), tower["count"], "number of covers")
    _same(verdicts["normalization_index"], tower["normalization_index"], "normalization_index")
    _same(values["edges"], tower["edges"], "edges")
    normal = [i for i, c in enumerate(values["covers"]) if c["normal"]]
    _same(normal, [tower["normalization_index"]], "normal covers")
    for got, w in zip(values["covers"], tower["covers"]):
        _cover(got, w, n)


@_reasons
def _correspondence(want, verdicts, values, witnesses):
    n = want["n"]
    _same(verdicts, {"cayley_hamilton": True, "roundtrip_identity": True}, "verdicts")
    got = values["eta_action"]
    for i in range(2):
        for j in range(2):
            _same_poly(got[i][j], want["eta_action"][i][j], n, f"eta_action[{i}][{j}]")


@_reasons
def _sl2r(want, verdicts, values, witnesses):
    _same(verdicts["count"], want["count"], "count")
    _same(verdicts["torsion_multiplicity"], want["torsion_multiplicity"], "torsion_multiplicity")
    _same(values["data"], want["data"], "data")


@_reasons
def _milnor_wood(want, verdicts, values, witnesses):
    _same(verdicts["holds"], want["holds"], "holds")
    _same(values["toledo"], want["toledo"], "toledo")
    _same(values["bound"], want["bound"], "bound")


@_reasons
def _chern(want, verdicts, values, witnesses):
    for key in ("c1", "c2", "discriminant"):
        _same(values[key], want[key], key)


@_reasons
def _stability(want, verdicts, values, witnesses):
    _same(verdicts["stability"], want["stability"], "stability")


@_reasons
def _rigidity(want, verdicts, values, witnesses):
    _same(verdicts["status"], want["status"], "status")
    _same(verdicts["reason"], want["reason"], "reason")


_CHECKS = {
    "factor": _factor,
    "base-check": _base_check,
    "hitchin-section": _chart_section,
    "cover": _cover_cmd,
    "tower": _tower,
    "correspondence": _correspondence,
    "sl2r-enum": _sl2r,
    "milnor-wood": _milnor_wood,
    "chern": _chern,
    "stability": _stability,
    "rigidity": _rigidity,
}
