import hashlib
import itertools
import json
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from higgspec import cli, moduli, spectral
from higgspec.cli import machine_block, main, parse_config, run
from higgspec.errors import ParseError, SchemaError
from higgspec.geometry import MAX_GENUS, NSClass
from higgspec.poly import MAX_PARSED_DEGREE, Poly

DATA = Path(__file__).parent / "data"


def write_job(tmp_path, doc, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_machine(capsys, tmp_path, doc, seed=None):
    argv = ["--config", write_job(tmp_path, doc), "--format", "machine"]
    if seed is not None:
        argv += ["--seed", str(seed)]
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, out


# -- parsing -----------------------------------------------------------------


def test_missing_command_is_schema_error():
    with pytest.raises(SchemaError):
        parse_config(json.dumps({"model": {"kind": "chart", "nvars": 2}}))


def test_unknown_key_rejected():
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps({"command": "selftest", "bogus": 1}))
    assert "bogus" in str(err.value)


def test_unknown_command_rejected():
    with pytest.raises(SchemaError):
        parse_config(json.dumps({"command": "frobnicate"}))


def test_invalid_json_is_parse_error():
    with pytest.raises(ParseError):
        parse_config("{not json")


def test_payload_schema_path_reported():
    doc = {
        "command": "base-check",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {"datum": {"s1": ["1 * x9", "0"], "s2": [["0", "0"], ["0", "0"]]}},
    }
    with pytest.raises(SchemaError) as err:
        run(parse_config(json.dumps(doc)))
    assert "s1" in str(err.value)


def _parse_counting(monkeypatch):
    texts = []
    parse = Poly.from_text.__func__

    def counting(cls, text, nvars, **kw):
        texts.append((text, nvars))
        return parse(cls, text, nvars, **kw)

    monkeypatch.setattr(Poly, "from_text", classmethod(counting))
    return texts


def test_symmetric_texts_are_parsed_once(monkeypatch):
    s = [["1 * x1^2", "2 * x1 * x2 + 1"], ["2 * x1 * x2 + 1", "1 * x2^2"]]
    texts = _parse_counting(monkeypatch)
    job = parse_config(json.dumps({"command": "factor", "model": {"kind": "chart", "nvars": 2}, "payload": {"s": s}}))
    assert sorted(texts) == sorted({(t, 2) for row in s for t in row})
    S = job.payload["s"]
    assert S[0][1] is S[1][0]
    assert S[0][1] == Poly.from_text("2 * x1 * x2 + 1", 2)


def test_repeated_bad_text_reports_its_first_path():
    s = [["1", "1 * y1"], ["1 * y1", "1"]]
    with pytest.raises(SchemaError) as err:
        parse_config(json.dumps({"command": "factor", "model": {"kind": "chart", "nvars": 2}, "payload": {"s": s}}))
    assert err.value.path == "$.payload.s[0][1]"
    assert "bad rational 'y1'" in str(err.value)


def test_parse_memo_is_keyed_on_nvars():
    # a text or a piece parsed in one chart dimension is parsed again in another
    ctx = {cli._PARSED: {}, "nvars": 3}
    p3 = cli._poly("1 * x2 + 1", ctx)
    assert p3.nvars == 3
    ctx["nvars"] = 2
    p2 = cli._poly("1 * x2 + 1", ctx)
    assert p2 == Poly.from_text("1 * x2 + 1", 2) and p2.nvars == 2
    ctx["nvars"] = 1
    with pytest.raises(cli._Reject, match="x2 out of range for nvars=1"):
        cli._poly("3 * x2", ctx)
    assert set(ctx[cli._PARSED]) == {1, 2, 3}


# -- commands ------------------------------------------------------------------


def test_base_check_member(capsys, tmp_path):
    # the README example; its machine block is pinned by a recorded sha256
    doc = {
        "command": "base-check",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {
            "datum": {
                "s1": ["0", "0"],
                "s2": [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]],
            }
        },
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    want = (DATA / "readme-base-check.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == want
    report = json.loads(out)
    assert report["verdicts"]["membership"] == "member"
    alpha = [Poly.from_tree(t) for t in report["values"]["factorization"]["alpha"]]
    assert [p.to_text() for p in alpha] == ["1 * x1", "1 * x2"]


def _ascending_text(terms):
    """Text of {exponents: int coefficient}, terms in ascending exponent order."""
    return " + ".join(
        f"{c}" + "".join(f" * x{i + 1}^{k}" for i, k in enumerate(e) if k) for e, c in sorted(terms.items())
    )


def _dense(rng, n, deg):
    """Dense of total degree deg, coefficients 1..9 drawn in ascending exponent order."""
    exps = (e for e in itertools.product(range(deg + 1), repeat=n) if sum(e) <= deg)
    return Poly.from_text(_ascending_text({e: rng.randint(1, 9) for e in exps}), n)


def _dense_factor(n, deg):
    """(S, factor config): S = tau alpha alpha^T, alpha_i dense of degree deg, entries in ascending exponent order."""
    rng = random.Random(1)
    alpha = [_dense(rng, n, deg) for _ in range(n)]
    tau = _dense(rng, n, rng.randint(1, 2))
    S = [[tau * alpha[i] * alpha[j] for j in range(n)] for i in range(n)]
    rows = [[_ascending_text({e: int(c) for e, c in p.terms.items()}) for p in row] for row in S]
    return S, {"command": "factor", "model": {"kind": "chart", "nvars": n}, "payload": {"s": rows}}


def test_factor_dense_four_variables_within_budget():
    # S = tau alpha alpha^T in 4 variables, alpha_i dense of degree 3, written
    # term by term in ascending exponent order.  GCDHEU needs a 66,608-bit
    # image for the covector gcd (8,326 bits times degree 8); a gcd fallback
    # with no bound ran past 60 s of CPU on this input.
    n = 4
    S, doc = _dense_factor(n, 3)
    t0 = time.process_time()
    report = json.loads(machine_block(run(parse_config(json.dumps(doc)))))
    assert time.process_time() - t0 < 20
    assert report["verdicts"] == {"rank_le_one": True}
    fac = report["values"]["factorization"]
    got_alpha = [Poly.from_tree(t) for t in fac["alpha"]]
    got_tau = Poly.from_tree(fac["tau"])
    assert all(got_tau * got_alpha[i] * got_alpha[j] == S[i][j] for i in range(n) for j in range(n))


def test_factor_dense_degree_four_bytes(capsys, tmp_path):
    # the same recipe at degree 4; its machine block is pinned by a sha256
    # recorded with the pivot rank test, which spent 4.4 s on its products
    rc, out = run_machine(capsys, tmp_path, _dense_factor(4, 4)[1])
    assert rc == 0
    want = (DATA / "factor-dense-n4-d4.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == want


@pytest.mark.parametrize("name", ["factor-n3", "base-check-n3", "factor-n4", "base-check-n4"])
def test_rank_two_witness_bytes(name, capsys, tmp_path):
    # rank-two inputs tau1 alpha alpha^T + tau2 beta beta^T; at n = 4 rows 0
    # vanish and the witness is minor (1, 3, 1, 3), past the first one.  The
    # machine blocks, witness included, are pinned by recorded sha256s.
    doc = json.loads((DATA / "witness-jobs.json").read_text())[name]
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    want = (DATA / f"witness-{name}.sha256").read_text().strip()
    assert hashlib.sha256(out.encode()).hexdigest() == want
    report = json.loads(out)
    assert report["verdicts"] in ({"rank_le_one": False}, {"membership": "not_member"})
    assert report["witnesses"]["minor_indices"] == ([0, 1, 0, 1] if name.endswith("n3") else [1, 3, 1, 3])


def test_bx_table_dims(capsys, tmp_path):
    doc = {"command": "bx-table", "model": {"kind": "product_curves", "g1": 2, "g2": 3}}
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert [c["dim"] for c in report["values"]["components"]] == [5, 6, 3]


def test_tower_231(capsys, tmp_path):
    doc = {
        "command": "tower",
        "model": {"kind": "chart", "nvars": 3},
        "payload": {
            "factorization": {"alpha": ["1", "0", "0"], "tau": "1 * x1^2 * x2^3 * x3"}
        },
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert report["verdicts"]["count"] == 4
    covers = report["values"]["covers"]
    assert sum(1 for c in covers if c["normal"]) == 1
    assert covers[report["verdicts"]["normalization_index"]]["normal"]


def test_correspondence_roundtrip(capsys, tmp_path):
    doc = {
        "command": "correspondence",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {
            "higgs": {
                "matrices": [
                    [["0", "-1 * x1^2"], ["1 * x1", "0"]],
                    [["0", "-1 * x1 * x2"], ["1 * x2", "0"]],
                ]
            },
            "factorization": {"alpha": ["1 * x1", "1 * x2"], "tau": "1 * x1"},
        },
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert report["verdicts"] == {"cayley_hamilton": True, "roundtrip_identity": True}


def test_stability_real(capsys, tmp_path):
    doc = {
        "command": "stability",
        "model": {"kind": "product_curves", "g1": 2, "g2": 2},
        "payload": {
            "kind": "real",
            "L1": [1, 0],
            "L2": [-1, 0],
            "alpha_nonzero": True,
            "beta_nonzero": False,
            "alpha_beta_proportional": True,
            "L1_iso_L2": False,
        },
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    assert json.loads(out)["verdicts"]["stability"] == "stable"


def test_hitchin_section_chart(capsys, tmp_path):
    doc = {
        "command": "hitchin-section",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {
            "datum": {
                "s1": ["0", "0"],
                "s2": [["1 * x1^3", "1 * x1^2 * x2"], ["1 * x1^2 * x2", "1 * x1 * x2^2"]],
            }
        },
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert report["verdicts"]["identity_checked"] is True
    assert report["verdicts"]["stability"] == "stable"


def test_sl2r_enum_counts(capsys, tmp_path):
    doc = {
        "command": "sl2r-enum",
        "model": {"kind": "product_curves", "g1": 2, "g2": 2, "torsion2": 1},
        "payload": {
            "components": [{"class": [1, 0], "multiplicity": 1}] * 4,
            "L": [2, 0],
        },
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert report["verdicts"]["count"] == 8


def test_milnor_wood(capsys, tmp_path):
    doc = {
        "command": "milnor-wood",
        "model": {"kind": "product_curves", "g1": 2, "g2": 2},
        "payload": {"W": [1, 0], "gamma": [1, 1], "K_pseff": True},
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert report["values"]["toledo"] == {"num": 1, "den": 1}
    assert report["values"]["bound"] == {"num": 2, "den": 1}
    assert report["verdicts"]["holds"] is True


def test_rigidity(capsys, tmp_path):
    doc = {
        "command": "rigidity",
        "payload": {"picard_number_one": True, "b1": 0, "double_cover_b1s": [0, 0]},
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    assert json.loads(out)["verdicts"]["status"] == "rigid"


def test_higher_rank(capsys, tmp_path):
    doc = {
        "command": "higher-rank",
        "payload": {"rank": 3, "nvars": 1, "coefficients": ["1 * x1", "2"]},
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    assert json.loads(out)["verdicts"]["charcheck"] is True


def test_surface_model_roundtrip(capsys, tmp_path):
    doc = {
        "command": "milnor-wood",
        "model": {
            "kind": "surface",
            "generators": ["H"],
            "intersection": [1],
            "K": [-3],
            "omega": [1],
        },
        "payload": {"W": [1], "gamma": [1], "K_pseff": True},
    }
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    report = json.loads(out)
    assert report["verdicts"]["holds"] is False  # |1| > -3/2


# -- exit codes -------------------------------------------------------------------


def test_exit_code_schema(tmp_path, capsys):
    rc = main(["--config", write_job(tmp_path, {"command": "nope"})])
    assert rc == 2


def test_exit_code_domain(tmp_path, capsys):
    doc = {
        "command": "milnor-wood",
        "model": {"kind": "product_curves", "g1": 2, "g2": 2},
        "payload": {"W": [1, 0], "gamma": [1, 1], "K_pseff": False},
    }
    rc = main(["--config", write_job(tmp_path, doc)])
    assert rc == 1


def test_exit_code_missing_file(capsys):
    assert main(["--config", "/nonexistent/job.json"]) == 2


def _sl2r_doc(components, L):
    return {
        "command": "sl2r-enum",
        "model": {"kind": "product_curves", "g1": 2, "g2": 2},
        "payload": {"components": components, "L": L},
    }


def _factor_doc(entry):
    return {
        "command": "factor",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {"s": [[entry, "0"], ["0", "0"]]},
    }


def _tower_cap_doc():
    forms = [Poly.from_text(f"1 * x1 + {k} * x2", 2) for k in range(1, 14)]
    tau = Poly.one(2)
    for f in forms:
        tau = tau * f**2
    return {
        "command": "tower",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {
            "factorization": {"alpha": ["1 * x1", "1 * x2"], "tau": tau.to_text()},
            "components": [{"factor": f.to_text(), "multiplicity": 2} for f in forms],
        },
    }


def _cover_doc(command, tau="1 * x1", **extra):
    doc = {
        "command": command,
        "model": {"kind": "chart", "nvars": 2},
        "payload": {"factorization": {"alpha": ["1 * x1", "1 * x2"], "tau": tau}, **extra},
    }
    if command == "correspondence":
        doc["payload"]["higgs"] = {"matrices": [[["0", "0"], ["0", "0"]]] * 2}
    return doc


def _higher_rank_doc(coefficients, nvars=1):
    return {"command": "higher-rank", "payload": {"rank": 2, "nvars": nvars, "coefficients": coefficients}}


def _tree_doc(**term):
    term = {"exps": [2], "num": 1, "den": 1, **term}
    return {
        "command": "factor",
        "model": {"kind": "chart", "nvars": 1},
        "payload": {"s": [[{"nvars": 1, "terms": [term]}]]},
    }


def _rigidity_doc(**payload):
    return {"command": "rigidity", "payload": {"picard_number_one": True, "b1": 0, **payload}}


UNIT = {"class": [1, 0], "multiplicity": 1}
TOO_HIGH = f"1 * x1^{MAX_PARSED_DEGREE} * x2"
RAGGED_SURFACE = {"kind": "surface", "generators": ["a", "b"], "intersection": [[1], 2], "K": [0, 0], "omega": [1, 0]}

REJECTED_INPUTS = {
    "decimal rational": (_sl2r_doc([], ["1.5", "0"]), 2, "$.payload.L[0]"),
    "exponent rational": (_sl2r_doc([], ["1e3", "0"]), 2, "$.payload.L[0]"),
    "zero denominator string": (_sl2r_doc([], ["1/0", "0"]), 2, "$.payload.L[0]"),
    "zero denominator tree": (_sl2r_doc([], [{"num": 1, "den": 0}, "0"]), 2, "$.payload.L[0].den"),
    "decimal coefficient": (_factor_doc("1.5 * x1^2"), 2, "$.payload.s[0][0]"),
    "exponent coefficient": (_factor_doc("1e3 * x1^2"), 2, "$.payload.s[0][0]"),
    "zero denominator coefficient": (_factor_doc("1/0 * x1^2"), 2, "$.payload.s[0][0]"),
    "components not a list": (_sl2r_doc(5, ["0", "0"]), 2, "$.payload.components"),
    "negative g1": ({"command": "bx-table", "model": {"kind": "product_curves", "g1": -1, "g2": 2}}, 2, "$.model.g1"),
    "negative g2": ({"command": "bx-table", "model": {"kind": "product_curves", "g1": 2, "g2": -1}}, 2, "$.model.g2"),
    "negative torsion2": (
        {"command": "bx-table", "model": {"kind": "product_curves", "g1": 2, "g2": 2, "torsion2": -1}},
        2,
        "$.model.torsion2",
    ),
    "sl2r tuple cap": (_sl2r_doc([UNIT] * 40, [20, 0]), 1, "$.payload.components"),
    "tower cover cap": (_tower_cap_doc(), 1, "$.payload.components"),
    "cover components not a list": (_cover_doc("cover", components=5), 2, "$.payload.components"),
    "tower components not a list": (_cover_doc("tower", components=5), 2, "$.payload.components"),
    "correspondence components": (_cover_doc("correspondence", components=5), 2, "$.payload.components"),
    "higher-rank coefficients not a list": (_higher_rank_doc(5), 2, "$.payload.coefficients"),
    "higher-rank no coefficients": (_higher_rank_doc([]), 2, "$.payload.coefficients"),
    "higher-rank nvars cap": (_higher_rank_doc(["1"], nvars=10**9), 2, "$.payload.nvars"),
    "rigidity double covers not a list": (
        {"command": "rigidity", "payload": {"picard_number_one": False, "b1": 3, "double_cover_b1s": 5}},
        2,
        "$.payload.double_cover_b1s",
    ),
    "g1 above genus cap": (_sl2r_doc([], [0, 0]) | {"model": {"kind": "product_curves", "g1": 10000, "g2": 0}}, 2, "$.model.g1"),
    "g2 above genus cap": (
        {"command": "bx-table", "model": {"kind": "product_curves", "g1": 0, "g2": MAX_GENUS + 1}},
        2,
        "$.model.g2",
    ),
    "degree cap on tau": (_cover_doc("cover", tau="1 * x1^8000"), 1, "$.payload.factorization.tau"),
    "degree cap on a component": (
        _cover_doc("tower", components=[{"factor": TOO_HIGH, "multiplicity": 1}]),
        1,
        "$.payload.components[0].factor",
    ),
    "degree cap on a tree": (
        _factor_doc({"nvars": 2, "terms": [{"exps": [MAX_PARSED_DEGREE, 1], "num": 1, "den": 1}]}),
        1,
        "$.payload.s[0][0]",
    ),
    "negative b1": (_rigidity_doc(b1=-2), 2, "$.payload.b1"),
    "negative double-cover b1": (_rigidity_doc(double_cover_b1s=[-1]), 2, "$.payload.double_cover_b1s[0]"),
    "symdiff row not a list": (
        {"command": "factor", "model": {"kind": "chart", "nvars": 2}, "payload": {"s": [5, 6]}},
        2,
        "$.payload.s[0]",
    ),
    "s2 row not a list": (
        {
            "command": "base-check",
            "model": {"kind": "chart", "nvars": 1},
            "payload": {"datum": {"s1": ["0"], "s2": [7]}},
        },
        2,
        "$.payload.datum.s2[0]",
    ),
    "higgs matrix row not a list": (
        {
            "command": "correspondence",
            "model": {"kind": "chart", "nvars": 1},
            "payload": {"higgs": {"matrices": [[5, 6]]}, "factorization": {"alpha": ["1"], "tau": "1 * x1"}},
        },
        2,
        "$.payload.higgs.matrices[0][0]",
    ),
    "intersection row not a list": (
        {"command": "milnor-wood", "model": RAGGED_SURFACE, "payload": {"W": [1, 0], "gamma": [1, 0]}},
        2,
        "$.model.intersection[1]",
    ),
    "boolean tree coefficient": (_tree_doc(num=True), 2, "$.payload.s[0][0].terms[0].num"),
    "unknown key in a tree term": (_tree_doc(junk=0), 2, "$.payload.s[0][0].terms[0].junk"),
    "zero denominator in a tree term": (_tree_doc(den=0), 2, "$.payload.s[0][0].terms[0].den"),
    "model on a modelless command": (_rigidity_doc() | {"model": {"kind": "chart", "nvars": 1}}, 2, "$.model"),
    "payload on bx-table": (
        {"command": "bx-table", "model": {"kind": "product_curves", "g1": 1, "g2": 1}, "payload": {"s": 1}},
        2,
        "$.payload.s",
    ),
}


@pytest.mark.parametrize("name", list(REJECTED_INPUTS))
def test_rejected_input_exits_cleanly(name, tmp_path, capsys):
    doc, code, path = REJECTED_INPUTS[name]
    rc = main(["--config", write_job(tmp_path, doc), "--format", "machine"])
    err = capsys.readouterr().err
    assert rc == code
    assert f"{path}:" in err
    assert "Traceback" not in err
    if code == 1:
        assert "DegreeCapExceeded" in err


def _big_gcd_doc(command):
    """S = alpha alpha^T for alpha = (p, x1^300 + 1), p = x1^300 + 3^1262; a cover's tau is p^2."""
    p, q = Poly.from_text("1 * x1^300", 2) + 3**1262, Poly.from_text("1 * x1^300 + 1", 2)
    rows = [[(p * p).to_text(), (p * q).to_text()], [(p * q).to_text(), (q * q).to_text()]]
    payload = {
        "factor": {"s": rows},
        "base-check": {"datum": {"s1": ["0", "0"], "s2": rows}},
        "hitchin-section": {"datum": {"s1": ["0", "0"], "s2": rows}},
        "cover": {"factorization": {"alpha": ["1", "0"], "tau": (p * p).to_text()}},
    }[command]
    return {"command": command, "model": {"kind": "chart", "nvars": 2}, "payload": payload}


DOMAIN_ERRORS = {
    # every check on the field passes, since Phi0 = [[0, 1], [0, 0]] squares to
    # 0 = -tau * Id; the base cover then refuses tau = 0
    "correspondence with zero tau": (
        {
            "command": "correspondence",
            "model": {"kind": "chart", "nvars": 2},
            "payload": {
                "factorization": {"alpha": ["1", "0"], "tau": "0"},
                "higgs": {"matrices": [[["0", "1"], ["0", "0"]], [["0", "0"], ["0", "0"]]]},
            },
        },
        "ZeroPolynomial: tau must be nonzero to define a double cover",
    ),
    # refused on degrees, before the millionth power of the component is formed
    "declared multiplicity past deg tau": (
        _cover_doc("cover", tau="1 * x1 + 1", components=[{"factor": "1 * x1 + 1 * x2 + 1", "multiplicity": 10**6}]),
        "InconsistentBranchData: declared components do not divide tau: "
        "their product has total degree 1000000, tau has 1",
    ),
    # rank one, but the covector gcd needs an image of 2,002 bits times degree
    # 600, past the 2^20-bit cap of GCDHEU; the message names the payload entry
    "factor whose gcd passes the image cap": (
        _big_gcd_doc("factor"),
        "DegreeCapExceeded: $.payload.s: gcd: evaluation image past the cap of 1048576 bits",
    ),
    "base-check whose gcd passes the image cap": (
        _big_gcd_doc("base-check"),
        "DegreeCapExceeded: $.payload.datum: gcd: evaluation image past the cap of 1048576 bits",
    ),
    "section whose gcd passes the image cap": (
        _big_gcd_doc("hitchin-section"),
        "DegreeCapExceeded: $.payload.datum: gcd: evaluation image past the cap of 1048576 bits",
    ),
    # the squarefree gcd of tau = p^2 and its derivative
    "cover whose squarefree gcd passes the image cap": (
        _big_gcd_doc("cover"),
        "DegreeCapExceeded: $.payload.factorization.tau: gcd: evaluation image past the cap of 1048576 bits",
    ),
}


@pytest.mark.parametrize("name", list(DOMAIN_ERRORS))
def test_domain_error_exits_1_with_its_message(name, tmp_path, capsys):
    doc, message = DOMAIN_ERRORS[name]
    t0 = time.process_time()
    rc = main(["--config", write_job(tmp_path, doc), "--format", "machine"])
    assert time.process_time() - t0 < 10
    err = capsys.readouterr().err
    assert rc == 1
    assert f"error: {message}" in err
    assert "Traceback" not in err


def test_route_point_changes_no_output(tmp_path, capsys, monkeypatch):
    # machine blocks, errors and exit codes at the default route point and at
    # the origin, where the homogeneous entries below all vanish
    chart = {"kind": "chart", "nvars": 2}
    docs = [
        *json.loads((DATA / "witness-jobs.json").read_text()).values(),
        *(DOMAIN_ERRORS[f"{c} whose gcd passes the image cap"][0] for c in ("factor", "base-check", "section")),
        {"command": "factor", "model": chart, "payload": {"s": [["1 * x1", "1 * x2"], ["1 * x2", "1 * x1"]]}},
        {"command": "factor", "model": chart, "payload": {"s": [["0", "1 * x1"], ["1 * x1", "0"]]}},
        {"command": "base-check", "model": chart, "payload": {"datum": {
            "s1": ["2 * x1", "0"], "s2": [["2 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]}}},
        {"command": "selftest"},
    ]

    def outcomes():
        out = []
        for doc in docs:
            rc = main(["--config", write_job(tmp_path, doc), "--format", "machine", "--seed", "42"])
            cap = capsys.readouterr()
            out.append((rc, cap.out, cap.err))
        return out

    want = outcomes()
    assert [rc for rc, _, _ in want] == [0] * 4 + [1] * 3 + [0] * 4
    selftest = (DATA / "selftest-seed42.sha256").read_text().strip()
    assert hashlib.sha256(want[-1][1].encode()).hexdigest() == selftest
    monkeypatch.setattr(spectral, "ROUTE_POINT", (0, 0, 0, 0))
    assert outcomes() == want


def test_integer_past_digit_limit_is_parse_error(tmp_path, capsys):
    # valid JSON, but past the interpreter's 4300-digit limit for int literals
    path = tmp_path / "job.json"
    path.write_text('{"command": "rigidity", "payload": {"picard_number_one": false, "b1": ' + "9" * 5000 + "}}")
    rc = main(["--config", str(path), "--format", "machine"])
    err = capsys.readouterr().err
    assert rc == 2
    assert "$: invalid JSON" in err and "Traceback" not in err


def test_genus_cap_is_inclusive(capsys, tmp_path):
    doc = {"command": "bx-table", "model": {"kind": "product_curves", "g1": MAX_GENUS, "g2": MAX_GENUS}}
    rc, out = run_machine(capsys, tmp_path, doc)
    assert rc == 0 and json.loads(out)["verdicts"]["component_count"] > 0


def test_section_identity_failure_exits_1(capsys, tmp_path, monkeypatch):
    doc = {
        "command": "hitchin-section",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {"datum": {"s1": ["0", "0"], "s2": [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]}},
    }
    monkeypatch.setattr(moduli, "hitchin_map", lambda field: None)
    rc = main(["--config", write_job(tmp_path, doc), "--format", "machine"])
    err = capsys.readouterr().err
    assert rc == 1
    assert "VerificationFailure: section identity sh(chi(s)) = s failed" in err
    assert "Traceback" not in err


def test_rank_two_section_prints_the_witness(tmp_path, capsys):
    # NotRankOne renders its message lazily; the stderr line stays the same
    doc = {
        "command": "hitchin-section",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {"datum": {"s1": ["0", "0"], "s2": [["1 * x1^2", "0"], ["0", "1 * x2^2"]]}},
    }
    rc = main(["--config", write_job(tmp_path, doc), "--format", "machine"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err == "error: NotRankOne: 2x2 minor (rows 0,1 / cols 0,1) is nonzero: Poly(2, '1 * x1^2 * x2^2')\n"


@pytest.mark.parametrize(
    "doc, key",
    [
        (
            {
                "command": "hitchin-section",
                "model": {"kind": "product_curves", "g1": 2, "g2": 2},
                "payload": {"L": [1, 0], "D": [2, 0]},
            },
            "s1_nonzero",
        ),
        (
            {
                "command": "stability",
                "model": {"kind": "product_curves", "g1": 2, "g2": 2},
                "payload": {
                    "L1": [1, 0],
                    "L2": [-1, 0],
                    "alpha_nonzero": True,
                    "beta_nonzero": False,
                    "alpha_beta_proportional": True,
                    "L1_iso_L2": False,
                },
            },
            "omega_diag_nonzero",
        ),
    ],
)
def test_ignored_flags_do_not_change_the_output(doc, key, capsys, tmp_path):
    rc, plain = run_machine(capsys, tmp_path, doc)
    assert rc == 0
    for flag in (True, False):
        rc, out = run_machine(capsys, tmp_path, doc | {"payload": doc["payload"] | {key: flag}})
        assert rc == 0 and out == plain
    rc = main(["--config", write_job(tmp_path, doc | {"payload": doc["payload"] | {key: 1}}), "--format", "machine"])
    assert rc == 2 and f"$.payload.{key}:" in capsys.readouterr().err


# -- determinism and roundtrip -------------------------------------------------------


def test_machine_block_deterministic_and_reparses(capsys, tmp_path):
    doc = {
        "command": "factor",
        "model": {"kind": "chart", "nvars": 2},
        "payload": {"s": [["1 * x1^2", "1 * x1 * x2"], ["1 * x1 * x2", "1 * x2^2"]]},
        "seed": 7,
    }
    _, out1 = run_machine(capsys, tmp_path, doc)
    _, out2 = run_machine(capsys, tmp_path, doc)
    assert out1 == out2
    report = json.loads(out1)
    assert machine_block(report) == out1
    tau = Poly.from_tree(report["values"]["factorization"]["tau"])
    assert tau == Poly.one(2)


# -- the canonical writer against json.dumps -----------------------------------------


def _as_json_data(x):
    """x with its Poly, NSClass and Fraction leaves replaced by their JSON trees, built here."""
    if isinstance(x, Poly):
        terms = sorted(x.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
        return {"nvars": x.nvars, "terms": [
            {"exps": list(e), "num": c.numerator, "den": c.denominator} for e, c in terms
        ]}
    if isinstance(x, NSClass):
        return [{"num": c.numerator, "den": c.denominator} for c in x.coords]
    if isinstance(x, Fraction):
        return {"num": x.numerator, "den": x.denominator}
    if isinstance(x, dict):
        return {k: _as_json_data(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_as_json_data(v) for v in x]
    return x


_FRACTIONS = st.fractions(max_denominator=10**4)
_POLYS = st.integers(1, 3).flatmap(lambda n: st.dictionaries(
    st.tuples(*[st.integers(0, 4)] * n), _FRACTIONS, max_size=5,
).map(lambda terms: Poly(n, terms)))
_CLASSES = st.lists(_FRACTIONS, min_size=1, max_size=4).map(NSClass)
_TEXT = st.text(st.sampled_from('a"\\\x00\n\x1f\x7f\u00e9\u2028\U0001f600') | st.characters(), max_size=6)
_PLAIN = st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _TEXT


def _reports(pool):
    leaf = _PLAIN | st.sampled_from(pool)
    tree = st.recursive(leaf, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(_TEXT, kids, max_size=4),
                        max_leaves=20)
    return st.fixed_dictionaries({
        "command": _TEXT, "seed": st.integers(), "verdicts": st.dictionaries(_TEXT, _PLAIN, max_size=3),
        "values": st.dictionaries(_TEXT, tree, max_size=4), "witnesses": st.dictionaries(_TEXT, tree, max_size=2),
        "_human_extra": st.just(["not written"]),
    })


_REPORTS = st.lists(_POLYS | _CLASSES | _FRACTIONS, min_size=1, max_size=4).flatmap(_reports)


@settings(max_examples=100, deadline=None)
@given(_REPORTS)
@example({"command": "c", "seed": 0, "verdicts": {}, "values": {"a": [True, 1, False, 0, None, {}, []]},
          "witnesses": {}})
def test_machine_block_is_json_dumps_of_the_trees(report):
    # the leaves are written from their objects, each repeated object once
    plain = {k: _as_json_data(v) for k, v in report.items() if not k.startswith("_")}
    assert machine_block(report) == json.dumps(plain, sort_keys=True, separators=(",", ":")) + "\n"


def test_human_block_prints_the_witness(tmp_path, capsys):
    # json.dumps spacing, as in the human block before witnesses held Poly objects
    doc = {"command": "factor", "model": {"kind": "chart", "nvars": 2},
           "payload": {"s": [["1 * x1^2", "0"], ["0", "1 * x2^2"]]}}
    rc = main(["--config", write_job(tmp_path, doc)])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[2] == (
        '  witnesses: {"minor": {"nvars": 2, "terms": [{"den": 1, "exps": [2, 2], "num": 1}]}, '
        '"minor_indices": [0, 1, 0, 1]}'
    )
    assert out.endswith(machine_block(run(parse_config(json.dumps(doc)))))


def test_out_file_written(tmp_path, capsys):
    doc = {"command": "rigidity", "payload": {"picard_number_one": False, "b1": 3}}
    out_path = tmp_path / "report.json"
    rc = main(
        ["--config", write_job(tmp_path, doc), "--format", "machine", "--out", str(out_path)]
    )
    assert rc == 0
    assert json.loads(out_path.read_text())["verdicts"]["status"] == "not_rigid"
