import contextlib
import copy
import hashlib
import io
import json
import math
import os
import random
import runpy
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from killingtensors import (
    DERIVATION_DIM_CAP,
    AlmostAbelianAlgebra,
    Certificate,
    DerivationField,
    Endomorphism,
    LeftInvariant,
    Metric,
    RightInvariant,
    SkewDerivation,
    SymTensor,
    decompose,
    metric_obstruction,
    omega_generator,
    sum_of_squares,
)
import killingtensors
from killingtensors import LimitError, cli
from killingtensors.cli import main
from killingtensors import exactlinalg, fileformats as ff
from conftest import random_tensor, rotation_type, wide_algebras

ROT = {"n": 2, "D": [["0", "-1"], ["1", "0"]]}
DIAG = {"n": 2, "D": [["1", "0"], ["0", "-1"]]}
HYP = {"n": 2, "D": [["1", "0"], ["0", "1"]]}
HEISENBERG = {"dim": 3, "structure": [[0, 1, 2, "1"]]}
DIAG12 = {"n": 2, "D": [["1", "0"], ["0", "2"]]}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFileFormats:
    def test_rational_round_trip(self):
        for text in ("1", "-3/2", "0", "7/3"):
            q = ff.parse_rational(text)
            assert ff.format_rational(q) == text

    def test_zero_denominator_has_position(self):
        with pytest.raises(ff.ParseError, match=r"D\[0\]\[1\]"):
            ff.parse_rational("1/0", "D[0][1]")

    def test_malformed_rational(self):
        with pytest.raises(ff.ParseError):
            ff.parse_rational("1.5", "x")

    # a value past 40 characters shows its first 40 and "..."; shorter ones in full
    @pytest.mark.parametrize("value, detail", [
        ("1.5", "x: expected a rational 'p/q' string, got '1.5'"),
        ("y" * 40, f"x: expected a rational 'p/q' string, got '{'y' * 40}'"),
        ("y" * 41, f"x: expected a rational 'p/q' string, got '{'y' * 40}'..."),
        ([1] * 30, f"x: expected a rational 'p/q' string, got {str([1] * 30)[:40]}..."),
        ("1/" + "0" * 50, f"x: zero denominator in '1/{'0' * 38}'..."),
        (True, "x: expected a rational 'p/q' string, got True"),
        (False, "x: expected a rational 'p/q' string, got False"),
    ])
    def test_parse_error_shows_at_most_40_characters(self, value, detail):
        with pytest.raises(ff.ParseError) as exc:
            ff.parse_rational(value, "x")
        assert str(exc.value) == detail

    # JSON true/false read as the int subclass bool; none stands for an integer
    @pytest.mark.parametrize("doc, where", [
        ({"n": True, "D": [["2"]]}, "n"),
        ({"dim": True, "structure": []}, "dim"),
        ({"dim": 3, "structure": [[0, True, 2, "1"], [True, 2, 0, "1"], [2, 0, True, "1"]]},
         "structure[0]"),
        ({"n": 1, "D": [[True]]}, "D[0][0]"),
        ({"degree": True, "terms": [{"monomial": [True], "coeff": "1"}]}, "tensor.degree"),
        ({"degree": 1, "terms": [{"monomial": [True], "coeff": "1"}]},
         "tensor.terms[0].monomial"),
        ({"degree": 1, "terms": [{"monomial": [1], "coeff": True}]}, "tensor.terms[0].coeff"),
    ], ids=["n", "dim", "structure index", "D entry", "degree", "monomial index", "coeff"])
    def test_json_booleans_are_not_integers(self, doc, where):
        with pytest.raises(ff.ParseError) as exc:
            ff.algebra_from_dict(doc) if where[0] != "t" else ff.tensor_from_dict(doc, 3)
        assert str(exc.value).startswith(f"{where}: ")

    # so(3) with one index written otherwise: a non-integer is a type fault,
    # an integer outside 0..dim-1 a range fault
    @pytest.mark.parametrize("index, detail", [
        (True, "expected integer indices, got True"),
        ("1", "expected integer indices, got '1'"),
        (1.0, "expected integer indices, got 1.0"),
        (5, "indices out of range for dim 3"),
        (-1, "indices out of range for dim 3"),
    ])
    def test_structure_index_detail(self, index, detail):
        doc = {"dim": 3, "structure": [[0, index, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]]}
        with pytest.raises(ff.ParseError) as exc:
            ff.algebra_from_dict(doc)
        assert str(exc.value) == f"structure[0]: {detail}"

    def test_algebra_round_trip_almost_abelian(self):
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([["1/2", 0], [-2, 1]]))
        doc = ff.algebra_to_dict(alg)
        again = ff.algebra_from_dict(doc)
        assert isinstance(again, AlmostAbelianAlgebra)
        assert again.derivation == alg.derivation

    def test_algebra_round_trip_general(self):
        alg = ff.algebra_from_dict(HEISENBERG)
        doc = ff.algebra_to_dict(alg)
        assert ff.algebra_from_dict(doc).structure == alg.structure

    @pytest.mark.parametrize("alg, text", [
        (rotation_type(1, 1, 1),
         '{"dim": 3, "structure": [[0, 1, 2, "1"], [0, 2, 1, "-1"], [1, 2, 0, "1"]]}'),
        (ff.algebra_from_dict(HEISENBERG), '{"dim": 3, "structure": [[0, 1, 2, "1"]]}'),
        (wide_algebras()[0],
         '{"dim": 3, "structure": [[0, 1, 2, "1000000000000000000000000000000000000001/2"], '
         '[0, 2, 1, "-7000000000000000000000000000000000000005/7"], '
         '[1, 2, 0, "-4000000000000000000000000000000000000003/3"]]}'),
    ], ids=["so3", "heisenberg", "wide rotation type"])
    def test_general_algebra_bytes(self, alg, text):
        assert json.dumps(ff.algebra_to_dict(alg), sort_keys=True) == text

    @pytest.mark.parametrize("entries, detail", [
        ([[0, 1, 2, "1"], [1, 0, 2, "1"]], "structure[1]: conflicts with antisymmetry of (0,1,2)"),
        ([[1, 1, 0, "1"]], "structure[0]: conflicts with antisymmetry of (1,1,0)"),
        ([[0, 1, 2, "1"], [1, 0, 2, "-1"], [0, 1, 2, "1"]],
         "structure[2]: duplicate entry (0,1,2)"),
    ])
    def test_general_form_entry_details(self, entries, detail):
        with pytest.raises(ff.ParseError) as exc:
            ff.algebra_from_dict({"dim": 3, "structure": entries})
        assert str(exc.value) == detail

    def test_general_form_takes_a_zero_diagonal_and_a_mirrored_pair(self):
        doc = {"dim": 3, "structure": [[1, 1, 0, "0"], [1, 0, 2, "-1"], [0, 1, 2, "1"]]}
        assert ff.algebra_to_dict(ff.algebra_from_dict(doc)) == HEISENBERG

    def test_general_form_rejects_jacobi_violation(self):
        bad = {"dim": 3, "structure": [[0, 1, 2, "1"], [1, 2, 1, "1"]]}
        with pytest.raises(ff.ParseError, match="Jacobi"):
            ff.algebra_from_dict(bad)

    def test_general_form_rejects_antisymmetry_conflict(self):
        bad = {"dim": 3, "structure": [[0, 1, 2, "1"], [1, 0, 2, "1"]]}
        with pytest.raises(ff.ParseError, match="antisymmetry"):
            ff.algebra_from_dict(bad)

    def test_tensor_round_trip(self):
        rng = random.Random(5)
        t = random_tensor(rng, 3, 3, nterms=5)
        assert ff.tensor_from_dict(ff.tensor_to_dict(t), 3) == t

    def test_tensor_rejects_unsorted_monomial(self):
        with pytest.raises(ff.ParseError, match="sorted"):
            ff.tensor_from_dict({"degree": 2, "terms": [{"monomial": [2, 1], "coeff": "1"}]}, 3)

    def test_tensor_rejects_out_of_range(self):
        with pytest.raises(ff.ParseError, match="range"):
            ff.tensor_from_dict({"degree": 1, "terms": [{"monomial": [5], "coeff": "1"}]}, 3)

    @pytest.mark.parametrize("coeffs", [("0", "1"), ("1", "0")])
    def test_duplicate_monomial_in_either_order(self, coeffs):
        # a zero coefficient is not stored, but its monomial still counts
        tensor = {"degree": 1, "terms": [{"monomial": [1], "coeff": c} for c in coeffs]}
        with pytest.raises(ff.ParseError) as exc:
            ff.tensor_from_dict(tensor, 3)
        assert str(exc.value) == "tensor.terms[1].monomial: duplicate monomial"
        with pytest.raises(ff.ParseError) as exc:
            ff.certificate_from_dict({"target": tensor, "terms": []}, 3)
        assert str(exc.value) == "certificate.target.terms[1].monomial: duplicate monomial"

    def test_certificate_round_trip(self):
        alg = AlmostAbelianAlgebra(Endomorphism.from_rows([[0, 1], [0, 0]]))
        target = SymTensor.monomial(3, (1, 1))
        t = SkewDerivation((Fraction(0), Fraction(1)), Endomorphism.zero(2))
        cert = Certificate(target=target, terms=(
            (Fraction(1, 2), (Metric(),)),
            (Fraction(-2), (LeftInvariant((Fraction(1), Fraction(0), Fraction(0))),
                            RightInvariant((Fraction(0), Fraction(1), Fraction(0))))),
            (Fraction(3), (DerivationField(t), DerivationField(t))),
        ))
        doc = ff.certificate_to_dict(cert)
        assert ff.certificate_from_dict(doc, 3) == cert

    def test_each_distinct_generator_document_is_read_once(self):
        right = {"kind": "right", "vector": ["0", "1", "0"]}
        cert = ff.certificate_from_dict({"target": {"degree": 2, "terms": []}, "terms": [
            {"coeff": "1", "factors": [right, dict(right)]},
            {"coeff": "2", "factors": [{"kind": "metric"}]},
            {"coeff": "3", "factors": [{"kind": "metric"}]}]}, 3)
        (_, (a, b)), (_, (m,)), (_, (n,)) = cert.terms
        assert a is b and m is n

    def test_an_int_past_the_string_conversion_limit_is_read(self):
        # only a caller in Python can pass one; it has no repr to key it by
        right = {"kind": "right", "vector": [10 ** 5000, 0, 0]}
        cert = ff.certificate_from_dict({"target": {"degree": 2, "terms": []}, "terms": [
            {"coeff": "1", "factors": [right, right]}]}, 3)
        (_, (a, b)), = cert.terms
        assert a == b and a.vector[0] == 10 ** 5000

    @pytest.mark.parametrize("other", [[True, 0, 0], [1.0, 0, 0]], ids=["bool", "float"])
    def test_a_generator_document_is_matched_with_its_types(self, other):
        # [1, 0, 0] is read, and a later factor equal to it in Python but not
        # in JSON is still refused
        doc = {"target": {"degree": 2, "terms": []}, "terms": [{"coeff": "1", "factors": [
            {"kind": "right", "vector": [1, 0, 0]}, {"kind": "right", "vector": other}]}]}
        with pytest.raises(ff.ParseError) as exc:
            ff.certificate_from_dict(doc, 3)
        assert str(exc.value).startswith("certificate.terms[0].factors[1].vector[0]: ")


class TestKillingBasisCommand:
    def test_both_methods_agree(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, _ = run(capsys, ["killing-basis", "--algebra", alg,
                                    "--degree", "2", "--method", "both"])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["dimension"] == 2
        assert doc["result"]["agree"] is True

    def test_abelian_degree_one(self, tmp_path, capsys):
        alg = write(tmp_path, "ab.json", {"n": 2, "D": [["0", "0"], ["0", "0"]]})
        code, out, _ = run(capsys, ["killing-basis", "--algebra", alg, "--degree", "1"])
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 3

    def test_general_algebra_brute(self, tmp_path, capsys):
        alg = write(tmp_path, "heis.json", HEISENBERG)
        code, out, _ = run(capsys, ["killing-basis", "--algebra", alg, "--degree", "1"])
        assert code == 0
        assert json.loads(out)["result"]["method"] == "brute"

    def test_negative_degree_exits_2(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        with pytest.raises(SystemExit) as exc:
            main(["killing-basis", "--algebra", alg, "--degree", "-1"])
        assert exc.value.code == 2
        assert "--degree: expected an integer >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, degree, method", [
        ({"n": 2, "D": [["1", "0"], ["0", "2"]]}, "40", []),
        ({"n": 6, "D": [["0"] * 6 for _ in range(6)]}, "1", []),
        ({"n": 2, "D": [["1", "0"], ["0", "2"]]}, "9", ["--method", "brute"]),
    ])
    def test_past_the_brute_force_caps_exits_2(self, tmp_path, capsys, doc, degree, method):
        alg = write(tmp_path, "alg.json", doc)
        code, out, err = run(capsys, ["killing-basis", "--algebra", alg,
                                      "--degree", degree] + method)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "limit exceeded"
        assert "exceed the brute-force caps (degree 8, dimension 6)" in error["detail"]

    # argparse prints usage and the error; the value shows through ff.shown
    @pytest.mark.parametrize("option", ["--degree", "--seed", "--tol", "--samples",
                                        "--order-floor"])
    def test_long_option_value_gives_a_short_error(self, tmp_path, capsys, option):
        argv = ["killing-basis", "--algebra", write(tmp_path, "diag.json", DIAG), "--degree", "1"]
        with pytest.raises(SystemExit) as exc:
            main(argv + [option, "x" * 3000])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {option}: " in err and len(err.encode()) < 600

    def test_structured_on_general_exits_3(self, tmp_path, capsys):
        alg = write(tmp_path, "heis.json", HEISENBERG)
        code, _, err = run(capsys, ["killing-basis", "--algebra", alg,
                                    "--degree", "1", "--method", "structured"])
        assert code == 3
        assert "almost abelian" in err

    def test_malformed_rational_exits_2_with_position(self, tmp_path, capsys):
        alg = write(tmp_path, "bad.json", {"n": 2, "D": [["1/0", "0"], ["0", "1"]]})
        code, _, err = run(capsys, ["killing-basis", "--algebra", alg, "--degree", "1"])
        assert code == 2
        assert "D[0][0]" in err

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, ["killing-basis", "--algebra", str(path), "--degree", "1"])
        assert code == 2
        assert "line" in err


class TestDecomposeCommand:
    def test_ideal_monomial(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        tensor = write(tmp_path, "t.json",
                       {"degree": 2, "terms": [{"monomial": [1, 2], "coeff": "1"}]})
        out_path = str(tmp_path / "cert.json")
        code, out, _ = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor,
                                    "--certificate-out", out_path])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verification"]["passed"] is True
        assert doc["result"]["verification"]["max_deviation"] < 1e-9
        cert_doc = json.loads((tmp_path / "cert.json").read_text())
        kinds = [f["kind"] for t in cert_doc["terms"] for f in t["factors"]]
        assert kinds == ["right", "right"]

    def test_basis_squares_give_double_metric(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        tensor = write(tmp_path, "L.json", ff.tensor_to_dict(sum_of_squares(3)))
        code, out, _ = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor,
                                    "--certificate-out", str(tmp_path / "c.json")])
        assert code == 0
        doc = json.loads(out)
        assert doc["result"]["verification"]["max_deviation"] == 0.0
        terms = doc["result"]["certificate"]["terms"]
        assert terms == [{"coeff": "2", "factors": [{"kind": "metric"}]}]

    def test_general_algebra_exits_3(self, tmp_path, capsys):
        alg = write(tmp_path, "heis.json", HEISENBERG)
        tensor = write(tmp_path, "t.json",
                       {"degree": 1, "terms": [{"monomial": [2], "coeff": "1"}]})
        code, _, _ = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor])
        assert code == 3

    def test_non_killing_exits_4_with_diagnosis(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        tensor = write(tmp_path, "bh.json",
                       {"degree": 2, "terms": [{"monomial": [0, 1], "coeff": "1"}]})
        code, _, err = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor,
                                    "--certificate-out", str(tmp_path / "c.json")])
        assert code == 4
        doc = json.loads(err)
        assert doc["error"] == "not a Killing tensor"
        assert any("odd part nonzero" in d for d in doc["diagnosis"])


    @pytest.mark.parametrize("where", ["directory", "missing parent"])
    def test_unwritable_certificate_out_exits_2(self, tmp_path, capsys, where):
        alg = write(tmp_path, "diag.json", DIAG)
        tensor = write(tmp_path, "t.json", MIXED)
        out_path = str(tmp_path if where == "directory" else tmp_path / "missing" / "c.json")
        code, out, err = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor,
                                      "--certificate-out", out_path])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "parse error" and out_path in doc["detail"]


# a literal past the interpreter's limit on int-string conversion (4300 digits
# by default); a Python without the limit reads it as a number
LONG = "1" * 5000
_HAS_INT_LIMIT = hasattr(sys, "get_int_max_str_digits")


@pytest.mark.skipif(not _HAS_INT_LIMIT, reason="no int-string conversion limit")
class TestLongLiterals:
    @pytest.mark.parametrize("text", [
        json.dumps({"n": 2, "D": [["0", "-" + LONG], [LONG, "0"]]}),
        '{"n": 2, "D": [["0", -%s], [%s, "0"]]}' % (LONG, LONG),
    ], ids=["string", "json integer"])
    def test_algebra_entry_exits_2_with_position(self, tmp_path, capsys, text):
        path = tmp_path / "long.json"
        path.write_text(text)
        code, out, err = run(capsys, ["killing-basis", "--algebra", str(path), "--degree", "1"])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "parse error" and doc["detail"].startswith("D[0][1]: ")
        assert len(line.encode()) < 200

    def test_truncated_file_with_long_integer_exits_2_as_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "cut.json"
        path.write_text('{"n": 2, "D": [[%s, ' % LONG)
        code, out, err = run(capsys, ["killing-basis", "--algebra", str(path), "--degree", "1"])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        doc = json.loads(line)
        assert doc["error"] == "parse error" and "invalid JSON" in doc["detail"]

    @pytest.mark.parametrize("coeff", ['"%s"' % LONG, LONG, '"%s"' % ("x" * 3000),
                                       '"1/%s"' % ("0" * 3000)],
                             ids=["string", "json integer", "not a rational", "zero denominator"])
    def test_tensor_coefficient_exits_2_with_position(self, tmp_path, capsys, coeff):
        alg = write(tmp_path, "rot.json", ROT)
        path = tmp_path / "t.json"
        path.write_text('{"degree": 2, "terms": [{"monomial": [1, 1], "coeff": %s}]}' % coeff)
        code, out, err = run(capsys, ["decompose", "--algebra", alg, "--tensor", str(path),
                                      "--certificate-out", str(tmp_path / "c.json")])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)["detail"].startswith("tensor.terms[0].coeff: ")
        assert len(line.encode()) < 200

    def test_json_integer_where_an_index_belongs_exits_2_with_position(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        path = tmp_path / "t.json"
        path.write_text('{"degree": 1, "terms": [{"monomial": [%s], "coeff": "1"}]}' % LONG)
        code, _, err = run(capsys, ["decompose", "--algebra", alg, "--tensor", str(path)])
        assert code == 2
        assert json.loads(err)["detail"].startswith("tensor.terms[0].monomial: ")

    @pytest.mark.parametrize("entry", [LONG, "1/" + LONG, "x" * 5000],
                             ids=["integer", "denominator", "not a number"])
    def test_point_entry_exits_2_with_position(self, tmp_path, capsys, entry):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, err = run(capsys, ["omega-sample", "--algebra", alg, "--generator", "right:1",
                                      "--at", "1,0," + entry])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)["detail"].startswith("--at[2]: ")
        assert len(line.encode()) < 200

    def test_generator_index_exits_2_with_a_short_line(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, err = run(capsys, ["omega-sample", "--algebra", alg, "--generator",
                                      "right:" + "x" * 5000, "--at", "1,0,0"])
        assert code == 2 and out == ""
        [line] = err.splitlines()
        assert json.loads(line)["detail"].startswith("--generator: ")
        assert len(line.encode()) < 200


class TestVerifyCommand:
    def test_round_trip_of_written_certificate(self, tmp_path, capsys):
        alg_path = write(tmp_path, "diag.json", DIAG)
        alg = ff.algebra_from_dict(DIAG)
        cert = decompose(alg, SymTensor.monomial(3, (1, 2)) + sum_of_squares(3))
        cert_path = tmp_path / "cert.json"
        cert_path.write_text(json.dumps(ff.certificate_to_dict(cert)))
        code, out, _ = run(capsys, ["verify", "--algebra", alg_path,
                                    "--certificate", str(cert_path)])
        assert code == 0
        assert json.loads(out)["result"]["passed"] is True

    # target e1^2 against right:1^2 on D = diag(1, 2): exact at the origin, wrong elsewhere
    RIGHT1 = {"kind": "right", "vector": ["0", "1", "0"]}

    def _e1_squared(self, tmp_path, factors):
        alg = write(tmp_path, "diag12.json", DIAG12)
        cert = write(tmp_path, "e1sq.cert.json", {
            "target": {"degree": 2, "terms": [{"monomial": [1, 1], "coeff": "1"}]},
            "terms": [{"coeff": "1", "factors": factors}]})
        return ["verify", "--algebra", alg, "--certificate", cert]

    def test_degree_mismatch_exits_2_with_position(self, tmp_path, capsys):
        code, out, err = run(capsys, self._e1_squared(tmp_path, [self.RIGHT1]))
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "parse error"
        assert doc["detail"].startswith("certificate.terms[0].factors: term has degree 1")

    def test_wrong_away_from_origin_fails(self, tmp_path, capsys):
        code, out, _ = run(capsys, self._e1_squared(tmp_path, [self.RIGHT1, self.RIGHT1]))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["passed"] is False
        assert result["verification"]["exact_at_zero"] is True

    LEFT1 = {"kind": "left", "vector": ["0", "1", "0"]}
    # b -> e1, e1 -> -b: skew, but T[b,e1] = -b while [Tb,e1] + [b,Te1] = 0
    NOT_A_DERIVATION = {"kind": "deriv", "b_image": ["1", "0"],
                        "ideal_block": [["0", "0"], ["0", "0"]]}
    E0 = {"degree": 1, "terms": [{"monomial": [0], "coeff": "1"}]}
    # on the abelian algebra of dimension 2 every matrix is a derivation:
    # only the skewness check refuses this one
    ZERO1 = {"n": 1, "D": [["0"]]}
    NOT_SKEW = {"kind": "deriv", "b_image": ["0"], "ideal_block": [["1"]]}

    @pytest.mark.parametrize("algebra, target, factors, fault", [
        (DIAG12, None, [LEFT1, LEFT1], "ad is not skew"),
        (HEISENBERG, E0, [{"kind": "left", "vector": ["1", "0", "0"]}], "ad is not skew"),
        (DIAG12, {"degree": 1, "terms": []}, [NOT_A_DERIVATION], "not a derivation"),
        (ZERO1, {"degree": 1, "terms": []}, [NOT_SKEW], "derivation matrix is not skew"),
    ], ids=["left-e1-squared-diag12", "left-e0-heisenberg", "skew-non-derivation",
            "derivation-not-skew"])
    def test_non_killing_generator_exits_2(self, tmp_path, capsys, algebra, target, factors,
                                           fault):
        target = target or {"degree": 2, "terms": [{"monomial": [1, 1], "coeff": "1"}]}
        argv = ["verify", "--algebra", write(tmp_path, "alg.json", algebra), "--certificate",
                write(tmp_path, "cert.json", {"target": target,
                                              "terms": [{"coeff": "1", "factors": factors}]})]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "parse error"
        assert doc["detail"].startswith("certificate.terms[0].factors[0]: ")
        assert fault in doc["detail"]

    def test_huge_coefficients_get_a_verdict(self, tmp_path, capsys):
        big = str(10 ** 400)
        cert = {"target": {"degree": 2, "terms": [{"monomial": [1, 1], "coeff": big}]},
                "terms": [{"coeff": big, "factors": [self.RIGHT1, self.RIGHT1]}]}
        code, out, err = run(capsys, ["verify", "--algebra", write(tmp_path, "rot.json", ROT),
                                      "--certificate", write(tmp_path, "big.json", cert),
                                      "--samples", "3"])
        assert code == 0 and err == ""
        result = json.loads(out)["result"]
        assert result["passed"] is False
        assert result["verification"]["exact_at_zero"] is True
        assert result["verification"]["precision_digits"] > 400

    @pytest.mark.parametrize("flag", [["--samples", "0"], ["--samples", "-3"],
                                      ["--tol", "inf"], ["--tol", "nan"], ["--tol", "0"],
                                      ["--order-floor", "-3"]])
    def test_vacuous_parameters_exit_2(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(self._e1_squared(tmp_path, [self.RIGHT1, self.RIGHT1]) + flag)
        assert exc.value.code == 2
        assert flag[0] in capsys.readouterr().err

    # subnormal tolerances at which tol / 10 underflows to 0
    @pytest.mark.parametrize("tol", ["5e-324", "2.5e-323"])
    @pytest.mark.parametrize("command", ["verify", "decompose"])
    def test_subnormal_tolerances_get_one_report(self, tmp_path, capsys, command, tol):
        if command == "verify":
            argv = self._e1_squared(tmp_path, [self.RIGHT1, self.RIGHT1])
        else:
            argv = ["decompose", "--algebra", write(tmp_path, "diag.json", DIAG), "--tensor",
                    write(tmp_path, "t.json", {"degree": 2, "terms": [
                        {"monomial": [1, 2], "coeff": "1"}]}),
                    "--certificate-out", str(tmp_path / "cert.json")]
        code, out, err = run(capsys, argv + ["--tol", tol])
        assert code == 0 and err == "" and len(out.splitlines()) == 1
        assert json.loads(out)["parameters"]["tol"] == float(tol)


class TestCurvatureCommand:
    def test_constant_negative_report(self, tmp_path, capsys):
        alg = write(tmp_path, "hyp.json", HYP)
        code, out, _ = run(capsys, ["curvature", "--algebra", alg])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["class"] == "constant_negative"
        assert result["lambda"] == "1"
        assert result["D_Lh_eigen"] == "2"
        assert result["left_invariant_killing_dimension"] == 0
        assert result["obstruction"]["obstructed"] is True

    def test_flat_report_attaches_certificate(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, _ = run(capsys, ["curvature", "--algebra", alg])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["class"] == "flat"
        assert result["verification"]["passed"] is True
        kinds = {f["kind"] for t in result["certificate"]["terms"] for f in t["factors"]}
        assert kinds == {"left", "right"}

    def test_not_constant(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        code, out, _ = run(capsys, ["curvature", "--algebra", alg])
        assert code == 0
        assert json.loads(out)["result"] == {"class": "not_constant"}

    def test_general_algebra_exits_3(self, tmp_path, capsys):
        alg = write(tmp_path, "heis.json", HEISENBERG)
        code, _, _ = run(capsys, ["curvature", "--algebra", alg])
        assert code == 3


class TestDerivationsCommand:
    def test_rotation(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, _ = run(capsys, ["derivations", "--algebra", alg])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["dimension"] == 1
        assert result["basis"][0]["b_image"] == ["0", "0"]

    def test_general_algebra_matrices(self, tmp_path, capsys):
        alg = write(tmp_path, "heis.json", HEISENBERG)
        code, out, _ = run(capsys, ["derivations", "--algebra", alg])
        assert code == 0
        result = json.loads(out)["result"]
        assert all("matrix" in item for item in result["basis"])

    @pytest.mark.parametrize("doc", [
        {"dim": DERIVATION_DIM_CAP + 1, "structure": []},
        {"n": DERIVATION_DIM_CAP, "D": [["0"] * DERIVATION_DIM_CAP] * DERIVATION_DIM_CAP},
    ], ids=["general", "almost-abelian"])
    def test_past_the_cap_exits_2_before_any_elimination(self, tmp_path, capsys,
                                                         monkeypatch, doc):
        def no_elimination(*args):
            raise AssertionError("elimination ran past the cap")

        monkeypatch.setattr(exactlinalg, "_echelon", no_elimination)
        code, out, err = run(capsys, ["derivations", "--algebra", write(tmp_path, "a.json", doc)])
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "limit exceeded"
        assert f"dimension {DERIVATION_DIM_CAP + 1} exceeds" in error["detail"]

    def test_at_the_cap_solves(self, tmp_path, capsys):
        doc = {"dim": DERIVATION_DIM_CAP, "structure": []}
        code, out, _ = run(capsys, ["derivations", "--algebra", write(tmp_path, "a.json", doc)])
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == math.comb(DERIVATION_DIM_CAP, 2)


class TestInputBytes:
    """Each input file is read once, as bytes: decoded as UTF-8, where a
    file that is not exits 2 naming the byte, and hashed for the report."""

    @pytest.mark.parametrize("command, flag", [
        ("derivations", "--algebra"), ("decompose", "--tensor"), ("verify", "--certificate")])
    def test_file_not_utf8_exits_2_naming_the_byte(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"n": 1, "D": [["1\xff"]]}')
        argv = [command, "--algebra", write(tmp_path, "rot.json", ROT), flag, str(bad)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "parse error",
                                   "detail": f"{bad}: not UTF-8 at byte 18: invalid start byte"}

    def test_report_hashes_the_bytes_it_parsed(self, tmp_path, capsys, monkeypatch):
        alg = write(tmp_path, "rot.json", ROT)
        tensor = write(tmp_path, "t.json", {"degree": 2, "terms": [
            {"coeff": "1", "monomial": [1, 1]}, {"coeff": "1", "monomial": [2, 2]}]})
        real, reads = Path.read_bytes, []

        def counting(path):
            reads.append(str(path))
            return real(path)

        monkeypatch.setattr(Path, "read_bytes", counting)
        code, out, _ = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor,
                                    "--certificate-out", str(tmp_path / "t.cert.json")])
        assert code == 0 and sorted(reads) == sorted([alg, tensor])
        inputs = json.loads(out)["inputs"]
        assert inputs == {name: {"path": path,
                                 "sha256": hashlib.sha256(real(Path(path))).hexdigest()}
                          for name, path in (("algebra", alg), ("tensor", tensor))}


class TestInputErrors:
    """An unknown generator kind, however long, and an algebra path that
    cannot be read each exit 2 with one short parse-error line."""

    @pytest.mark.parametrize("case", ["kind-up", "kind-100000", "missing", "directory"])
    def test_exits_2_with_one_short_line(self, tmp_path, capsys, case):
        kind = {"kind-up": "up", "kind-100000": "x" * 100000}.get(case, "metric")
        cert = write(tmp_path, "cert.json", {
            "target": {"degree": 2, "terms": []},
            "terms": [{"coeff": "1", "factors": [{"kind": kind}]}]})
        alg = {"missing": str(tmp_path / "missing.json"),
               "directory": str(tmp_path)}.get(case) or write(tmp_path, "rot.json", ROT)
        code, out, err = run(capsys, ["verify", "--algebra", alg, "--certificate", cert])
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and len(err) < 300 and "Traceback" not in err
        doc = json.loads(err)
        assert doc["error"] == "parse error"
        if case == "kind-up":
            assert doc["detail"] == ("certificate.terms[0].factors[0].kind: "
                                     "expected metric|left|right|deriv, got 'up'")
        elif case == "kind-100000":
            assert doc["detail"] == ("certificate.terms[0].factors[0].kind: "
                                     f"expected metric|left|right|deriv, got '{'x' * 40}'...")
        else:
            reason = {"missing": "No such file or directory", "directory": "Is a directory"}[case]
            assert doc["detail"] == f"{alg}: {reason}" and err.count(alg) == 1


def test_main_calls_a_command_wrapped_after_the_parser_is_built(tmp_path, capsys, monkeypatch):
    # a tracer wraps cli.cmd_* once the parser exists; the wrapper must run
    argv = ["derivations", "--algebra", write(tmp_path, "rot.json", ROT)]
    assert run(capsys, argv)[0] == 0 and cli._parser.cache_info().currsize == 1
    real, calls = cli.cmd_derivations, []

    def wrapper(args):
        calls.append(args.command)
        return real(args)

    monkeypatch.setattr(cli, "cmd_derivations", wrapper)
    assert run(capsys, argv)[0] == 0 and calls == ["derivations"]


class TestOmegaSampleCommand:
    def test_rotation_cosine(self, tmp_path, capsys):
        import math
        alg = write(tmp_path, "rot.json", ROT)
        code, out, _ = run(capsys, ["omega-sample", "--algebra", alg,
                                    "--generator", "right:1", "--at", "1,0,0"])
        assert code == 0
        value = json.loads(out)["result"]["value"]
        coeffs = {tuple(t["monomial"]): t["coeff"] for t in value["terms"]}
        assert abs(coeffs[(1,)] - math.cos(1)) < 1e-12
        assert abs(coeffs[(2,)] + math.sin(1)) < 1e-12

    def test_metric_generator(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, _ = run(capsys, ["omega-sample", "--algebra", alg,
                                    "--generator", "metric", "--at", "1,1,1"])
        assert code == 0
        value = json.loads(out)["result"]["value"]
        assert all(t["coeff"] == 0.5 for t in value["terms"])

    def test_bad_generator_spec(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, _, _ = run(capsys, ["omega-sample", "--algebra", alg,
                                  "--generator", "bogus", "--at", "1,0,0"])
        assert code == 2

    @pytest.mark.parametrize("at", ["inf,0,0", "1,nan,0", "1,0,x",
                                    pytest.param("1" + "0" * 400 + ",0,0", id="past-float")])
    def test_non_finite_point_exits_2(self, tmp_path, capsys, at):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, err = run(capsys, ["omega-sample", "--algebra", alg,
                                      "--generator", "right:1", "--at", at])
        assert code == 2 and out == ""
        assert "as a finite rational or float" in json.loads(err)["detail"]

    def test_negative_order_exits_2(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", {"n": 2, "D": [["1", "0"], ["0", "2"]]})
        with pytest.raises(SystemExit) as exc:
            main(["omega-sample", "--algebra", alg, "--generator", "right:1",
                  "--at", "1,0,0", "--order", "-2"])
        assert exc.value.code == 2
        assert "--order" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["right:x", "left:x", "deriv:x"])
    def test_non_integer_generator_index_exits_2(self, tmp_path, capsys, spec):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, err = run(capsys, ["omega-sample", "--algebra", alg,
                                      "--generator", spec, "--at", "1,0,0"])
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "parse error"
        assert "must be an integer, got 'x'" in error["detail"]


_COMMANDS_IN_TURN = """
import contextlib, io, json, sys
from killingtensors.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""


def in_one_process(commands):
    """``main`` on each argv in turn in one fresh interpreter: the exit code,
    stdout and stderr of each."""
    env = dict(os.environ, PYTHONPATH=str(Path(killingtensors.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _COMMANDS_IN_TURN, json.dumps(commands)],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


class TestDeterminism:
    def test_commands_in_one_process_print_what_they_print_alone(self, tmp_path):
        # the parser is built once per process; a usage error must not leave
        # anything behind for the commands after it
        alg = write(tmp_path, "diag.json", DIAG)
        metric = {"degree": 2, "terms": [{"monomial": [i, i], "coeff": "1"} for i in range(3)]}
        terms = [{"coeff": "2", "factors": [{"kind": "metric"}]}]
        cert = write(tmp_path, "c.json", {"target": metric, "terms": terms})
        commands = [["killing-basis", "--algebra", alg, "--degree", "-1"],
                    ["verify", "--algebra", alg, "--certificate", cert, "--samples", "2"],
                    ["killing-basis", "--algebra", alg, "--degree", "2", "--method", "both"]]
        together = in_one_process(commands)
        assert [code for code, _, _ in together] == [2, 0, 0]
        assert "--degree" in together[0][2] and together[0][1] == ""
        assert together == [in_one_process([argv])[0] for argv in commands]

    def test_reports_beside_a_53_bit_evaluation_in_another_thread(self, monkeypatch):
        # omega-sample and the obstruction work at 60 digits in one thread
        # (stdout is the process's), three others at 53 bits: none may see
        # another's precision
        root = Path(__file__).parents[1]
        monkeypatch.chdir(root)
        argv = ["omega-sample", "--algebra", "tests/data/cneg4.json",
                "--generator", "deriv:0", "--at=0.3,-1/3,1e-75,2"]
        alg = ff.algebra_from_dict(json.loads((root / "tests/data/cneg4.json").read_text()))
        gen = RightInvariant((Fraction(0), Fraction(1), Fraction(0), Fraction(0)))
        w = (Fraction(1, 3), Fraction(-2, 7), 0.1, Fraction(5, 11))

        def reports():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(argv) == 0
            return out.getvalue(), metric_obstruction(alg).residual_coefficients

        def values():
            return omega_generator(alg, gen, w, prec=53)

        want = [reports(), values()]
        got = [[] for _ in range(4)]

        def loop(i, f):
            got[i].extend(f() for _ in range(20))

        threads = [threading.Thread(target=loop, args=(i, f))
                   for i, f in enumerate([reports] + [values] * 3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[want[0]] * 20] + [[want[1]] * 20] * 3
        assert want[0][0] == (root / "tests/data/cneg4.omega-sample.out").read_text()

    def test_reports_byte_identical(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        argv = ["killing-basis", "--algebra", alg, "--degree", "2", "--method", "both"]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2

    def test_decompose_reports_byte_identical(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        tensor = write(tmp_path, "t.json",
                       {"degree": 2, "terms": [{"monomial": [1, 2], "coeff": "1"}]})
        argv = ["decompose", "--algebra", alg, "--tensor", tensor,
                "--certificate-out", str(tmp_path / "c.json")]
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestEdgeCases:
    def test_decompose_degree_zero(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        tensor = write(tmp_path, "c.json",
                       {"degree": 0, "terms": [{"monomial": [], "coeff": "5"}]})
        code, out, _ = run(capsys, ["decompose", "--algebra", alg, "--tensor", tensor,
                                    "--certificate-out", str(tmp_path / "cc.json")])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["certificate"]["terms"] == [{"coeff": "5", "factors": []}]
        assert result["verification"]["max_deviation"] == 0.0

    def test_killing_basis_degree_zero(self, tmp_path, capsys):
        alg = write(tmp_path, "diag.json", DIAG)
        code, out, _ = run(capsys, ["killing-basis", "--algebra", alg, "--degree", "0"])
        assert code == 0
        assert json.loads(out)["result"]["dimension"] == 1

    def test_one_dimensional_ideal(self, tmp_path, capsys):
        alg = write(tmp_path, "line.json", {"n": 1, "D": [["2"]]})
        code, out, _ = run(capsys, ["curvature", "--algebra", alg])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["class"] == "constant_negative"
        assert result["lambda"] == "2"
        assert result["D_Lh_eigen"] == "4"

    def test_omega_sample_left_generator_constant(self, tmp_path, capsys):
        alg = write(tmp_path, "rot.json", ROT)
        code, out, _ = run(capsys, ["omega-sample", "--algebra", alg,
                                    "--generator", "left:0", "--at", "1.5,-0.5,2"])
        assert code == 0
        value = json.loads(out)["result"]["value"]
        assert value["terms"] == [{"monomial": [0], "coeff": 1.0}]

    @pytest.mark.parametrize("degree, head", [(6, 10), (0, 0)], ids=["after-10-bytes", "before"])
    def test_closed_stdout_exits_141_without_a_traceback(self, degree, head):
        # the 159 KB degree-6 report overflows the pipe buffer, so a reader
        # that closes the pipe after 10 bytes always meets an unfinished
        # write; the short degree-0 report goes to a pipe closed before the
        # command starts, so it meets a closed pipe at the flush (stdout
        # block-buffered, as it is on a pipe unless PYTHONUNBUFFERED is set)
        root = Path(__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(Path(killingtensors.__file__).resolve().parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        argv = [sys.executable, "-W", "error", "-m", "killingtensors.cli", "killing-basis",
                "--algebra", "tests/data/aa6.json", "--degree", str(degree), "--method", "both"]
        read, write = os.pipe()
        if not head:
            os.close(read)
        with subprocess.Popen(argv, cwd=root, env=env, stdout=write,
                              stderr=subprocess.PIPE) as proc:
            os.close(write)
            if head:
                with os.fdopen(read, "rb") as out:
                    assert out.read(head) == b'{"command"'
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (cli.EXIT_CLOSED_STDOUT, b"") and code == 141


BIG = {"n": 2, "D": [["2000", "0"], ["0", "-2000"]]}
MIXED = {"degree": 2, "terms": [{"monomial": [1, 2], "coeff": "1"}]}
RIGHT_1, RIGHT_2 = ({"kind": "right", "vector": ["0", "1", "0"]},
                    {"kind": "right", "vector": ["0", "0", "1"]})
MIXED_CERT = {"target": MIXED, "terms": [{"coeff": "1", "factors": [RIGHT_1, RIGHT_2]}]}


HUGE = {"n": 2, "D": [["100000000", "0"], ["0", "-100000000"]]}
NILPOTENT_HUGE = {"n": 2, "D": [["0", "100000000"], ["0", "0"]]}
NILPOTENT_BIG = {"n": 2, "D": [["0", "2000"], ["0", "0"]]}
E1_SQUARED = {"degree": 2, "terms": [{"monomial": [1, 1], "coeff": "1"}]}
# a rotation by 10^400, written out in digits: no structure constant is a float
PAST_FLOAT = {"n": 2, "D": [["0", "-1" + "0" * 400], ["1" + "0" * 400, "0"]]}
IDEAL_SQUARES = {"degree": 2, "terms": [{"monomial": [i, i], "coeff": "1"} for i in (1, 2)]}


def _strict_json(text):
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


class TestStrictJson:
    # values past the float range are written as the strings "inf" and "-inf"
    def test_deviation_past_the_float_range(self, tmp_path, capsys):
        big = str(10 ** 400)
        cert = {"target": {"degree": 2, "terms": [{"monomial": [1, 1], "coeff": big}]},
                "terms": [{"coeff": big, "factors": [_RIGHT[1], _RIGHT[1]]}]}
        for style in ([], ["--pretty"]):
            code, out, err = run(capsys, ["verify", "--algebra", write(tmp_path, "a.json", DIAG12),
                                          "--certificate", write(tmp_path, "c.json", cert)]
                                 + style)
            assert code == 0 and err == ""
            result = _strict_json(out)["result"]
            assert result["verification"]["max_deviation"] == "inf"
            assert result["passed"] is False

    def test_sampled_value_past_the_float_range(self, tmp_path, capsys):
        code, out, err = run(capsys, ["omega-sample",
                                      "--algebra", write(tmp_path, "a.json", PAST_FLOAT),
                                      "--generator", "right:1", "--at", "1,0,0", "--order", "2"])
        assert code == 0 and err == ""
        coeffs = [t["coeff"] for t in _strict_json(out)["result"]["value"]["terms"]]
        assert "-inf" in coeffs

    def test_finite_reports_keep_their_numbers(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["omega-sample", "--algebra", write(tmp_path, "a.json", ROT),
                                    "--generator", "right:1", "--at", "1,0,0"])
        assert code == 0
        coeffs = [t["coeff"] for t in _strict_json(out)["result"]["value"]["terms"]]
        assert coeffs and all(isinstance(c, float) for c in coeffs)


class TestSeriesTermCap:
    # on D = diag(2000, -2000) the pullback series need more than 5000 terms;
    # one sample keeps the failing run short.  On D = diag(10^8, -10^8) every
    # hump is past the cap, so the series fail within n + 1 terms at a working
    # precision of tens of digits, not the ~10^8 digits that e^||ad_w|| asks for
    @pytest.mark.parametrize("algebra", [BIG, HUGE], ids=["diag-2000", "diag-1e8"])
    @pytest.mark.parametrize("command, files, extra", [
        ("decompose", {"--tensor": MIXED}, ["--samples", "1"]),
        ("verify", {"--certificate": MIXED_CERT}, ["--samples", "1"]),
        ("omega-sample", {}, ["--generator", "right:1", "--at", "3,0,0"]),
        # at ||ad_w||_1 in the thousands no series order fits under the cap, so
        # each series fails within n + 1 terms and all 20 samples stay short too
        ("verify", {"--certificate": MIXED_CERT}, []),
    ])
    def test_exits_2_limit_exceeded(self, tmp_path, capsys, algebra, command, files, extra):
        argv = [command, "--algebra", write(tmp_path, "big.json", algebra)] + extra
        for flag, doc in files.items():
            argv += [flag, write(tmp_path, "doc.json", doc)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "limit exceeded"
        assert "5000-term cap" in error["detail"]

    @pytest.mark.parametrize("command, files, extra", [
        ("decompose", {"--tensor": IDEAL_SQUARES}, []),
        ("verify", {"--certificate": MIXED_CERT}, []),
        ("curvature", {}, []),
        ("omega-sample", {}, ["--generator", "right:1", "--at", "1,0,0"]),
    ])
    def test_structure_constants_past_the_float_range(self, tmp_path, capsys, command, files,
                                                       extra):
        algebra = write(tmp_path, "past-float.json", PAST_FLOAT)
        argv = [command, "--algebra", algebra] + extra
        for flag, doc in files.items():
            argv += [flag, write(tmp_path, "doc.json", doc)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "limit exceeded"
        assert "5000-term cap" in error["detail"] and "e+400" in error["detail"]
        code, out, _ = run(capsys, ["killing-basis", "--algebra", algebra, "--degree", "2"])
        assert code == 0 and json.loads(out)["result"]["dimension"] == 2

    def test_explicit_order_past_the_cap_exits_at_once(self, tmp_path, capsys):
        argv = ["omega-sample", "--algebra", write(tmp_path, "rot.json", ROT),
                "--generator", "right:1", "--at", "1e30,0,0", "--order", "6000"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "limit exceeded", "detail": (
            "omega series failed to converge within the 5000-term cap (||ad_w||_1 = 1e+30)")}

    def test_nilpotent_with_the_same_norm_verifies(self, tmp_path, capsys):
        code, out, _ = run(capsys, ["decompose",
                                    "--algebra", write(tmp_path, "a.json", NILPOTENT_BIG),
                                    "--tensor", write(tmp_path, "t.json", E1_SQUARED)])
        assert code == 0
        assert json.loads(out)["result"]["verification"]["passed"]

    def test_nilpotent_with_huge_entries_verifies(self, tmp_path, capsys):
        # the series vanish within n terms, so the gain is polynomial in ||ad_w||
        code, out, _ = run(capsys, ["decompose",
                                    "--algebra", write(tmp_path, "a.json", NILPOTENT_HUGE),
                                    "--tensor", write(tmp_path, "t.json", E1_SQUARED)])
        assert code == 0
        check = json.loads(out)["result"]["verification"]
        assert check["passed"] and check["precision_digits"] < 300


class TestEvaluationCap:
    """A certificate of degree 3000 on three dimensions has 1.4e10 monomial
    indices: refused at once, exit 2, before its values are allocated.
    ``decompose`` refuses the tensor before its layers are built, so a
    40-byte file of degree 10^7 costs no more than one of degree 3000."""

    BIG = {"degree": 3000, "terms": []}
    DETAIL = "degree 3000 in dimension 3 needs 13513503000 monomial indices (cap 1000000)"
    HUGE_DETAIL = ("degree 10000000 in dimension 3 needs 500000150000010000000 monomial "
                   "indices (cap 1000000)")

    @staticmethod
    def _decompose_exits_2_at_once(tmp_path, capsys, tensor, detail):
        cert = tmp_path / "big.cert.json"
        argv = ["decompose", "--algebra", write(tmp_path, "rot.json", ROT),
                "--tensor", write(tmp_path, "big.json", tensor), "--certificate-out", str(cert)]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == "" and not cert.exists()
        assert json.loads(err) == {"error": "limit exceeded", "detail": detail}

    def test_decompose_exits_2_at_once(self, tmp_path, capsys):
        self._decompose_exits_2_at_once(tmp_path, capsys, self.BIG, self.DETAIL)

    def test_decompose_of_degree_10_7_exits_2_at_once(self, tmp_path, capsys):
        self._decompose_exits_2_at_once(tmp_path, capsys, {"degree": 10 ** 7, "terms": []},
                                        self.HUGE_DETAIL)

    def test_zero_tensor_of_degree_999999_builds_no_layer(self, tmp_path, capsys):
        # within every bound on one dimension; only nonzero layers are built
        # and tested, so none of the 10^6 empty ones costs anything
        cert = tmp_path / "zero.cert.json"
        argv = ["decompose", "--algebra", write(tmp_path, "one.json", {"n": 0, "D": []}),
                "--tensor", write(tmp_path, "zero.json", {"degree": 999999, "terms": []}),
                "--certificate-out", str(cert)]
        start = time.perf_counter()
        code, out, _ = run(capsys, argv)
        assert time.perf_counter() - start < 0.5
        assert code == 0 and json.loads(out)["result"]["verification"]["passed"] is True
        assert cert.read_text() == ('{\n  "target": {\n    "degree": 999999,\n    "terms": []\n'
                                    '  },\n  "terms": []\n}\n')

    def test_verify_exits_2(self, tmp_path, capsys):
        argv = ["verify", "--algebra", write(tmp_path, "rot.json", ROT), "--certificate",
                write(tmp_path, "c.json", {"target": self.BIG, "terms": []})]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "limit exceeded", "detail": self.DETAIL}


class TestDeepCertificates:
    """One term of 900 right-invariant factors on a dimension-2 algebra (a
    37 KB file), and the decomposition of ``e0^1000`` on the one-dimensional
    algebra (2 KB), passed every size bound and ended in a RecursionError
    traceback.  In a fresh interpreter each now finishes within 2 s with one
    JSON line: the first is refused past ``MAX_LEVEL_INDICES``, the second
    decomposes into 2^500 times the 500th power of the metric and verifies."""

    @staticmethod
    def _cli(argv):
        env = dict(os.environ, PYTHONPATH=str(Path(killingtensors.__file__).resolve().parents[1]))
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "killingtensors.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=20)
        assert time.perf_counter() - start < 2
        assert "Traceback" not in done.stderr
        lines = (done.stdout + done.stderr).splitlines()
        assert len(lines) == 1
        return done.returncode, json.loads(lines[0])

    def test_900_factors_exit_2(self, tmp_path):
        factors = [{"kind": "right", "vector": ["0", "1"]}] * 900
        cert = {"target": {"degree": 900, "terms": []},
                "terms": [{"coeff": "1", "factors": factors}]}
        code, doc = self._cli(["verify",
                               "--algebra", write(tmp_path, "a.json", {"n": 1, "D": [["1"]]}),
                               "--certificate", write(tmp_path, "c.json", cert)])
        assert code == 2 and doc == {"error": "limit exceeded", "detail": (
            "degree 900 in dimension 2 needs 243810600 monomial indices over 900 trie levels "
            "(cap 2000000)")}

    def test_e0_to_the_1000_decomposes_and_verifies(self, tmp_path):
        tensor = {"degree": 1000, "terms": [{"coeff": "1", "monomial": [0] * 1000}]}
        out = tmp_path / "t.cert.json"
        code, doc = self._cli(["decompose",
                               "--algebra", write(tmp_path, "a.json", {"n": 0, "D": []}),
                               "--tensor", write(tmp_path, "t.json", tensor),
                               "--certificate-out", str(out)])
        assert code == 0 and doc["result"]["verification"]["passed"] is True
        assert json.loads(out.read_text())["terms"] == [
            {"coeff": str(2 ** 500), "factors": [{"kind": "metric"}] * 500}]


class TestDeepWork:
    """Requests within every other bound that ran for seconds before
    exiting 2 or passing: ``decompose`` of ``e0^124`` on the rotation
    algebra built its layers for 1 s before its certificate was refused;
    one term of 61 right-invariant factors on the rotation algebra verified
    in 8 s at 2000 samples; one of 80 right-invariant fields of ``(1, 1)``
    on ``{"n": 1, "D": [["100"]]}`` needed 5310 working digits and 17 s,
    one of 30 such fields verified in 21 s at 200 samples (2640 digits) and
    one of 61 in 10 s at 20 samples (4060 digits).  Each now exits 2 at
    once, in a fresh interpreter as in process."""

    RIGHT_1 = {"kind": "right", "vector": ["0", "1", "0"]}
    RIGHT_11 = {"kind": "right", "vector": ["1", "1"]}

    @staticmethod
    def _chain(factor, p):
        return {"target": {"degree": p, "terms": []},
                "terms": [{"coeff": "1", "factors": [factor] * p}]}

    def _requests(self, tmp_path):
        tensor = {"degree": 124, "terms": [{"coeff": "1", "monomial": [0] * 124}]}
        rot = write(tmp_path, "rot.json", ROT)
        steep = write(tmp_path, "d.json", {"n": 1, "D": [["100"]]})
        return {
            "decompose": (["decompose", "--algebra", rot,
                           "--tensor", write(tmp_path, "t.json", tensor),
                           "--certificate-out", str(tmp_path / "t.cert.json")],
                          "degree 124 in dimension 3 needs 15748992 monomial indices over "
                          "62 trie levels (cap 2000000)"),
            "samples": (["verify", "--algebra", rot, "--samples", "2000", "--certificate",
                         write(tmp_path, "c61.json", self._chain(self.RIGHT_1, 61))],
                        "2000 samples of 1906128 trie-level indices need 3812256000 "
                        "(sampled-check cap 400000000)"),
            "digits": (["verify", "--algebra", steep, "--certificate",
                        write(tmp_path, "c80.json", self._chain(self.RIGHT_11, 80))],
                       "the sampled check needs 5310 working digits (cap 4100)"),
            "work": (["verify", "--algebra", steep, "--samples", "200", "--certificate",
                      write(tmp_path, "c30.json", self._chain(self.RIGHT_11, 30))],
                     "200 samples at 2640 digits of 31 factors and series need 16368000 "
                     "(sampled-check cap 3000000)"),
            "work61": (["verify", "--algebra", steep, "--certificate",
                        write(tmp_path, "steep61.json", self._chain(self.RIGHT_11, 61))],
                       "20 samples at 4060 digits of 62 factors and series need 5034400 "
                       "(sampled-check cap 3000000)")}

    @pytest.mark.parametrize("name", ["decompose", "samples", "digits", "work", "work61"])
    def test_exits_2_in_a_fresh_interpreter(self, tmp_path, name):
        argv, detail = self._requests(tmp_path)[name]
        code, doc = TestDeepCertificates._cli(argv)
        assert code == 2 and doc == {"error": "limit exceeded", "detail": detail}

    @pytest.mark.parametrize("name, budget", [("decompose", 0.3), ("samples", 2), ("digits", 2),
                                              ("work", 2), ("work61", 2)])
    def test_exits_2_in_process(self, tmp_path, capsys, name, budget):
        argv, detail = self._requests(tmp_path)[name]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < budget
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "limit exceeded", "detail": detail}


class TestSampleAndSolverCaps:
    """``--samples`` past ``MAX_SAMPLES`` and a structured solve past
    ``MAX_STRUCTURED_MONOMIALS`` exit 2 at once, "limit exceeded"."""

    ZERO_CERT = {"target": {"degree": 1, "terms": []}, "terms": []}

    @pytest.mark.parametrize("samples", [killingtensors.MAX_SAMPLES + 1, 10 ** 9])
    def test_samples_past_the_cap(self, tmp_path, capsys, samples):
        argv = ["verify", "--algebra", write(tmp_path, "rot.json", ROT), "--certificate",
                write(tmp_path, "c.json", self.ZERO_CERT), "--samples", str(samples)]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "limit exceeded", "detail": (
            f"{samples} samples exceed the sampled-check cap ({killingtensors.MAX_SAMPLES})")}

    @pytest.mark.parametrize("samples, code", [(100, 0), (101, 2), (10 ** 4, 2)])
    def test_samples_times_dimension_at_and_past_the_cap(self, tmp_path, capsys, samples, code):
        # 10^4 points on the abelian algebra of dimension 10^4 would draw
        # 10^8 floats; 100 of them draw 10^6
        wide = write(tmp_path, "wide.json", {"dim": 10 ** 4, "structure": []})
        argv = ["verify", "--algebra", wide, "--certificate",
                write(tmp_path, "c.json", self.ZERO_CERT), "--samples", str(samples)]
        start = time.perf_counter()
        got, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 2 and got == code
        if code:
            assert json.loads(err) == {"error": "limit exceeded", "detail": (
                f"{samples} samples of dimension 10000 have {samples * 10 ** 4} coordinates "
                f"(sampled-check cap {killingtensors.MAX_SAMPLE_COORDINATES})")}
        else:
            assert json.loads(out)["result"]["passed"]

    def test_samples_at_the_cap(self, tmp_path, capsys):
        argv = ["verify", "--algebra", write(tmp_path, "rot.json", ROT), "--certificate",
                write(tmp_path, "c.json", self.ZERO_CERT),
                "--samples", str(killingtensors.MAX_SAMPLES)]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["result"]["passed"]

    @pytest.mark.parametrize("method", ["structured", "both"])
    def test_structured_degree_past_the_budget(self, tmp_path, capsys, method):
        argv = ["killing-basis", "--algebra", write(tmp_path, "rot.json", ROT),
                "--degree", "3000", "--method", method]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        # --method both meets the brute-force caps first
        assert json.loads(err)["error"] == "limit exceeded"
        if method == "structured":
            assert json.loads(err)["detail"] == ("degree 3000 in dimension 3 has 4504501 "
                                                 "monomials (structured solver cap 10000)")


# one instance of each limit error, with arguments as the code that raises it passes
LIMIT_EXAMPLES = {
    killingtensors.DimensionCapError: (10 ** 8,),
    killingtensors.SolverCapError: (9, 3),
    killingtensors.StructuredCapError: (3, 3000, 4504501),
    killingtensors.DerivationCapError: (25,),
    killingtensors.EvaluationCapError: (3, 3000, 3000 * 4504501),
    killingtensors.LevelCapError: (2, 900, 900, 243810600),
    killingtensors.SampleCapError: (10 ** 9,),
    killingtensors.SampleCoordinateCapError: (10 ** 4, 10 ** 4),
    killingtensors.SampledLevelCapError: (2000, 1906128),
    killingtensors.PrecisionCapError: (5310,),
    killingtensors.SampledWorkCapError: (200, 2640, 31),
    killingtensors.SeriesCapError: (Fraction(6000),),
}


class TestLimits:
    @pytest.mark.parametrize("cls", LimitError.__subclasses__(), ids=lambda c: c.__name__)
    def test_every_limit_error_exits_2(self, capsys, monkeypatch, cls):
        exc = cls(*LIMIT_EXAMPLES[cls])

        def refuse(path):
            raise exc

        monkeypatch.setattr(cli, "_load_algebra", refuse)
        code, out, err = run(capsys, ["killing-basis", "--algebra", "a.json", "--degree", "1"])
        assert code == 2 and out == "" and str(exc) == exc.limits
        assert json.loads(err) == {"error": "limit exceeded", "detail": exc.limits}

    def test_small_file_past_the_dimension_bound_exits_2_at_once(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 100000000, "structure": []}')
        start = time.perf_counter()
        code, out, err = run(capsys, ["killing-basis", "--algebra", str(path), "--degree", "0"])
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "limit exceeded", "detail": (
            f"dimension 100000000 exceeds the algebra cap "
            f"(dimension {killingtensors.MAX_DIMENSION})")}

    def test_verify_at_the_dimension_bound(self, tmp_path, capsys):
        argv = ["verify", "--samples", "1", "--algebra",
                write(tmp_path, "a.json", {"dim": killingtensors.MAX_DIMENSION, "structure": []}),
                "--certificate", write(tmp_path, "c.json", TestSampleAndSolverCaps.ZERO_CERT)]
        code, out, _ = run(capsys, argv)
        assert code == 0 and json.loads(out)["result"]["passed"]


class TestJsonShapes:
    @pytest.mark.parametrize("command, flag, doc, where, expected", [
        ("decompose", "--tensor", {"degree": 2, "terms": [5]}, "tensor.terms[0]",
         "a JSON object"),
        ("decompose", "--tensor", {"degree": 2, "terms": 7}, "tensor.terms", "a JSON list"),
        ("decompose", "--tensor", {"degree": 2, "terms": None}, "tensor.terms", "a JSON list"),
        ("verify", "--certificate", {"target": MIXED, "terms": [5]}, "certificate.terms[0]",
         "a JSON object"),
        ("verify", "--certificate", {"target": MIXED, "terms": [{"coeff": "1", "factors": [5]}]},
         "certificate.terms[0].factors[0]", "a JSON object"),
        ("verify", "--certificate", {"target": MIXED, "terms": [{"coeff": "1", "factors": 7}]},
         "certificate.terms[0].factors", "a JSON list"),
        ("killing-basis", "--algebra", {"dim": 3, "structure": 5}, "structure", "a JSON list"),
        ("killing-basis", "--algebra", {"dim": 3, "structure": None}, "structure",
         "a JSON list"),
        ("killing-basis", "--algebra", {"n": True, "D": [["2"]]}, "n", "a nonnegative integer"),
        ("decompose", "--tensor", {"degree": True, "terms": []}, "tensor.degree",
         "a nonnegative integer"),
        ("decompose", "--tensor", {"degree": 1, "terms": [{"monomial": [True], "coeff": "1"}]},
         "tensor.terms[0].monomial", "1 integer indices"),
    ])
    def test_wrong_shape_exits_2_with_position(self, tmp_path, capsys, command, flag, doc,
                                               where, expected):
        argv = [command] + (["--degree", "1"] if command == "killing-basis" else [])
        for name, value in {"--algebra": DIAG, flag: doc}.items():
            argv += [name, write(tmp_path, name[2:] + ".json", value)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert json.loads(err)["detail"] == f"{where}: expected {expected}"


_KEYS = ["n", "D", "dim", "structure", "degree", "terms", "monomial", "coeff", "target",
         "factors", "kind", "vector", "b_image", "ideal_block"]
# numbers, strings, null, lists and objects, with small ints only
_WRONG = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-3, 3)
    | st.sampled_from(["", "x", "1", "-1/2", "metric", "left", "right", "deriv"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=3),
    max_leaves=8)


def _container_paths(doc, path=()):
    """Paths to every object and list in a JSON document, the root included."""
    if isinstance(doc, (dict, list)):
        yield path
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _container_paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


class TestJsonShapeFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(["decompose", "verify"]), st.booleans(), st.data(), _WRONG)
    def test_exit_code_and_no_traceback(self, tmp_path_factory, command, on_algebra, data,
                                        value):
        flag, doc = ("--tensor", MIXED) if command == "decompose" \
            else ("--certificate", MIXED_CERT)
        files = {"--algebra": DIAG, flag: doc}
        name = "--algebra" if on_algebra else flag
        path = data.draw(st.sampled_from(list(_container_paths(files[name]))))
        files[name] = _replaced(files[name], path, value)
        tmp = tmp_path_factory.mktemp("shape")
        argv = [command, "--samples", "2"]
        for option, content in files.items():
            argv += [option, str(tmp / (option[2:] + ".json"))]
            (tmp / (option[2:] + ".json")).write_text(json.dumps(content))
        code = main(argv)
        assert code in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# every command on a pool of small files, including the certificates that
# must be turned away and one whose coefficients overflow a float
# ---------------------------------------------------------------------------

def _cert_doc(target, *terms):
    return {"target": target,
            "terms": [{"coeff": c, "factors": list(factors)} for c, factors in terms]}


def _square(i, coeff="1"):
    return {"degree": 2, "terms": [{"monomial": [i, i], "coeff": coeff}]}


_LEFT = [{"kind": "left", "vector": v} for v in (["0", "1", "0"], ["1", "0", "0"])]
_RIGHT = [{"kind": "right", "vector": ["1" if t == i else "0" for t in range(3)]}
          for i in range(3)]
_POOL_ALGEBRAS = {
    "rot": ROT, "diag": DIAG, "diag12": DIAG12, "hyp": HYP, "heisenberg": HEISENBERG,
    "so3": {"dim": 3, "structure": [[0, 1, 2, "1"], [1, 2, 0, "1"], [2, 0, 1, "1"]]},
    "abelian4": {"dim": 4, "structure": []},
    "mixed3": {"n": 3, "D": [["2", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]]},
    "rot3": {"n": 3, "D": [["0", "-1", "0"], ["1", "0", "0"], ["0", "0", "0"]]},
    "not-jacobi": {"dim": 3, "structure": [[0, 1, 2, "1"], [1, 2, 1, "1"]]},
    "past-float": PAST_FLOAT,
    "bool-n": {"n": True, "D": [["2"]]},
    "bool-index": {"dim": 3, "structure": [[0, True, 2, "1"], [True, 2, 0, "1"],
                                           [2, 0, True, "1"]]},
}
_POOL_TENSORS = {
    "e1sq": _square(1), "e3sq": _square(3), "e0": {"degree": 1, "terms": [
        {"monomial": [0], "coeff": "1"}]},
    "metric": {"degree": 2, "terms": [{"monomial": [i, i], "coeff": "1"} for i in range(3)]},
    "mixed": MIXED, "cubic": {"degree": 3, "terms": [{"monomial": [0, 1, 2], "coeff": "-1/2"}]},
    "bool-degree": {"degree": True, "terms": [{"monomial": [True], "coeff": "1"}]},
    "bool-coeff": _square(1, True),
}
_POOL_CERTS = {
    "left-e1sq": _cert_doc(_square(1), ("1", [_LEFT[0], _LEFT[0]])),
    "left-e0": _cert_doc(_POOL_TENSORS["e0"], ("1", [_LEFT[1]])),
    "not-derivation": _cert_doc({"degree": 1, "terms": []}, ("1", [
        {"kind": "deriv", "b_image": ["1", "0"], "ideal_block": [["0", "0"], ["0", "0"]]}])),
    "lone-deriv": _cert_doc({"degree": 1, "terms": []}, ("1", [
        {"kind": "deriv", "b_image": ["0", "0"], "ideal_block": [["0", "-1"], ["1", "0"]]}])),
    "right-e1sq": _cert_doc(_square(1), ("1", [_RIGHT[1], _RIGHT[1]])),
    "right-squares": _cert_doc(_POOL_TENSORS["metric"],
                               *[("1", [r, r]) for r in _RIGHT]),
    "huge": _cert_doc(_square(1, str(10 ** 400)), (str(10 ** 400), [_RIGHT[1], _RIGHT[1]])),
    "metric": _cert_doc(_POOL_TENSORS["metric"], ("2", [{"kind": "metric"}])),
    "bool-coeff": _cert_doc(_square(1), (True, [_RIGHT[1], _RIGHT[1]])),
}
_POOL_ALGEBRAS["long"] = {"n": 2, "D": [["0", "-" + LONG], [LONG, "0"]]}
_POOL_TENSORS["long"] = _square(1, LONG)
_POOL_TENSORS["long-text"] = _square(1, "x" * 3000)
_POINT_ENTRIES = ["0", "1", "-1/2", "0.25", "-2", "1e300", "1" + "0" * 400, "x", LONG,
                  "x" * 3000]


@pytest.fixture(scope="module")
def argv_pool(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    pool = {kind: {name: write(tmp, f"{kind}-{name}.json", doc) for name, doc in docs.items()}
            for kind, docs in (("algebra", _POOL_ALGEBRAS), ("tensor", _POOL_TENSORS),
                               ("certificate", _POOL_CERTS))}
    pool["algebra"]["broken"] = str(tmp / "broken.json")
    (tmp / "broken.json").write_text("{")
    pool["algebra"]["long-int"] = str(tmp / "long-int.json")
    (tmp / "long-int.json").write_text('{"n": 2, "D": [["0", -%s], [%s, "0"]]}' % (LONG, LONG))
    # writable, a directory, and a path under a missing directory
    pool["out"] = [str(tmp / "out.cert.json"), str(tmp), str(tmp / "missing" / "out.cert.json")]
    return pool


class TestArgvFuzz:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_exit_code_and_one_json_error_line(self, argv_pool, data):
        draw = data.draw
        command = draw(st.sampled_from(["killing-basis", "decompose", "verify", "curvature",
                                        "derivations", "omega-sample"]))
        argv = [command, "--algebra", draw(st.sampled_from(sorted(argv_pool["algebra"].values()))),
                "--samples", str(draw(st.integers(1, 3))), "--seed", str(draw(st.integers(0, 9))),
                # subnormal tolerances too, and tolerances near the largest float
                "--tol", draw(st.sampled_from(["1e-9", "1e-3", "5e-324", "2.5e-323", "3e-323",
                                               "2.2e-308", "1.7e308", "1.79e308"]))]
        if command == "killing-basis":
            argv += ["--degree", str(draw(st.integers(0, 3)))]
            method = draw(st.sampled_from([None, "structured", "brute", "both"]))
            argv += ["--method", method] if method else []
        elif command == "decompose":
            argv += ["--tensor", draw(st.sampled_from(sorted(argv_pool["tensor"].values()))),
                     "--certificate-out", draw(st.sampled_from(argv_pool["out"]))]
        elif command == "verify":
            argv += ["--certificate",
                     draw(st.sampled_from(sorted(argv_pool["certificate"].values())))]
        elif command == "omega-sample":
            kind = draw(st.sampled_from(["metric", "left:", "right:", "deriv:", "bogus:",
                                         "right:" + "x" * 3000]))
            argv += ["--generator", kind + (str(draw(st.integers(0, 4))) if ":" in kind else "")]
            point = draw(st.lists(st.sampled_from(_POINT_ENTRIES), min_size=2, max_size=4))
            argv += ["--at=" + ",".join(point)]
            if draw(st.booleans()):
                argv += ["--order", str(draw(st.integers(0, 5)))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 2, 3, 4)
        if code == 0:
            assert err.getvalue() == "" and json.loads(out.getvalue())["command"] == command
        else:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and set(json.loads(lines[0])) >= {"error", "detail"}
            if code == 2:  # a short excerpt of the input, beside the file path it may name
                named = max((len(a) for a in argv if a in lines[0]), default=0)
                assert len(lines[0].encode()) < 200 + named


# ---------------------------------------------------------------------------
# whole reports, byte for byte: one digest over every report of a session on
# the scripts/dimension_table.py gallery, recorded before the integer point
# walk and the integer structured assembly replaced their predecessors
# ---------------------------------------------------------------------------

_GALLERY = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "dimension_table.py"))
REPORT_DIGEST = "7adf01e10662ca53ff6df70e2d443603bd9922206ebdf084a7c988565803f519"


def _session_digest():
    """Run the session in the working directory, with relative paths, and
    return the sha256 of every call's exit code, stdout and stderr."""
    digest = hashlib.sha256()

    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}".encode())
        return code, out.getvalue()

    for a, (_, deriv) in enumerate(_GALLERY["GALLERY"]):
        alg = AlmostAbelianAlgebra(deriv)
        n = alg.dim
        algebra = f"a{a}.json"
        Path(algebra).write_text(json.dumps(ff.algebra_to_dict(alg)))
        for p in (2, 3):
            code, out = call(["killing-basis", "--algebra", algebra, "--degree", str(p)])
            assert code == 0
            for t, doc in enumerate(json.loads(out)["result"]["basis"]):
                tensor = f"a{a}-p{p}-t{t}.json"
                Path(tensor).write_text(json.dumps(doc))
                assert call(["decompose", "--algebra", algebra, "--tensor", tensor])[0] == 0
                call(["verify", "--algebra", algebra, "--certificate", f"a{a}-p{p}-t{t}.cert.json"])
        # e1^2 against right:1^2, constant only where e1 is fixed by the flow
        right1 = {"kind": "right", "vector": ["1" if i == 1 else "0" for i in range(n)]}
        moved = f"a{a}-moved.json"
        Path(moved).write_text(json.dumps(_cert_doc(_square(1), ("1", [right1, right1]))))
        call(["verify", "--algebra", algebra, "--certificate", moved])
        at = ",".join(["0.75", "-1.25", "0.5", "2"][:n])
        for generator in ("right:1", "deriv:0"):
            call(["omega-sample", "--algebra", algebra, "--generator", generator, "--at", at])
    return digest.hexdigest()


# the curvature reports of the gallery and its omega-sample reports at
# explicit orders, which _session_digest never reaches; recorded when each
# series was summed by a per-row loop
SERIES_REPORT_DIGEST = "255991ad904310feb517286541ceb489474647cdf5289a72aaefc5fc621ad7c2"


def _series_session_digest():
    digest = hashlib.sha256()
    for a, (_, deriv) in enumerate(_GALLERY["GALLERY"]):
        alg = AlmostAbelianAlgebra(deriv)
        algebra = f"a{a}.json"
        Path(algebra).write_text(json.dumps(ff.algebra_to_dict(alg)))
        calls = [["curvature", "--algebra", algebra]]
        at = ",".join(["0.75", "-1.25", "0.5", "2"][:alg.dim])
        for order in ("0", "3", "40"):
            for generator in ("right:1", "deriv:0"):
                calls.append(["omega-sample", "--algebra", algebra, "--generator", generator,
                              "--at", at, "--order", order])
        for argv in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            digest.update(f"{code}\n{out.getvalue()}{err.getvalue()}".encode())
    return digest.hexdigest()


# omega-sample reports on the dimension-6 algebra at points with entries
# below the fixed-point scale (1e-80) and rationals whose numerators pass the
# 203 working bits: each entry is rounded at 203 bits and then truncated
# toward zero, as when the points were converted through mpmath, in which
# form these reports were recorded
_LONG = ("123456789012345678901234567890123456789012345678901234567890123456789/"
         "987654321098765432109876543210987654321098765432109876543210987654321")
TINY_POINTS = ["-1e-80,0,0,0,0,0", "-1e-80,2.5e-75,-3e-72,0,1/3,-7/5",
               f"{_LONG},0,-1e-78,0,0,-1/3", f"0.3,-{_LONG},0,1/7,0,5e-90"]
TINY_GENERATORS = ["metric", "left:0", "right:0", "right:1", "right:2", "right:3", "right:4",
                   "right:5", "deriv:0", "deriv:1"]


class TestRecordedReports:
    def test_points_rounded_as_recorded(self, monkeypatch):
        root = Path(__file__).parents[1]
        monkeypatch.chdir(root)
        calls = []
        for at in TINY_POINTS:
            calls += [["--generator", g, f"--at={at}"] for g in TINY_GENERATORS]
            calls.append(["--generator", "right:1", f"--at={at}", "--order", "3"])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            for argv in calls:
                assert main(["omega-sample", "--algebra", "tests/data/aa6.json", *argv]) == 0
        assert out.getvalue() == (root / "tests/data/aa6.omega-tiny.out").read_text()

    @pytest.mark.parametrize("name, argv", [
        ("curvature", []),
        ("omega-sample", ["--generator", "deriv:0", "--at=0.3,-1/3,1e-75,2"])])
    def test_constant_negative_reports(self, monkeypatch, capsys, name, argv):
        # the residual's entries of 1e-68 and 5e-58 are roundings at 203 bits
        root = Path(__file__).parents[1]
        monkeypatch.chdir(root)
        code, out, _ = run(capsys, [name, "--algebra", "tests/data/cneg4.json", *argv])
        assert code == 0
        assert out == (root / f"tests/data/cneg4.{name}.out").read_text()


    @pytest.mark.parametrize("name, argv", [
        ("aa6.killing-basis6", ["killing-basis", "--algebra", "tests/data/aa6.json",
                                "--degree", "6", "--method", "both"]),
        ("aa16.derivations", ["derivations", "--algebra", "tests/data/aa16.json"]),
        ("gen6.killing-basis5", ["killing-basis", "--algebra", "tests/data/gen6.json",
                                 "--degree", "5", "--method", "both"]),
        ("nil6.killing-basis6", ["killing-basis", "--algebra", "tests/data/nil6.json",
                                 "--degree", "6", "--method", "both"])])
    def test_solver_reports(self, monkeypatch, capsys, name, argv):
        # both exact solvers at the brute-force cap, the skew derivations of
        # a dimension-16 algebra, both solvers on a generic dimension-6
        # algebra whose every kernel at degree 5 is {0}, and both on a
        # nilpotent dimension-6 algebra at degree 6: the canonical bases,
        # recorded before the elimination queued its rows by leading column
        # (gen6: before nullspace stopped at the forward phase; nil6: before
        # the kernels stayed on ints), keep every byte
        root = Path(__file__).parents[1]
        monkeypatch.chdir(root)
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert out == (root / f"tests/data/{name}.out").read_text()


    @pytest.mark.parametrize("name, argv", [
        ("heis.central.verify", ["--algebra", "tests/data/heis.json",
                                 "--certificate", "tests/data/heis.central.cert.json"]),
        ("heis.mixed.verify", ["--algebra", "tests/data/heis.json",
                               "--certificate", "tests/data/heis.mixed.cert.json"]),
        ("aa6.series-free.verify100", ["--algebra", "tests/data/aa6.json",
                                       "--certificate", "tests/data/aa6.series-free.cert.json",
                                       "--samples", "100"]),
        ("skew3.verify100", ["--algebra", "tests/data/skew3.json",
                             "--certificate", "tests/data/skew3.cert.json", "--samples", "100"])])
    def test_verify_routes(self, monkeypatch, capsys, name, argv):
        # on the Heisenberg algebra e2 is central, so right:2 is constant:
        # alone it passes, beside right:0 and right:1 (series) it fails; on
        # the dimension-6 algebra the metric and left:0 with coefficients
        # near 1e30 need no series and 70 digits.  Recorded when every
        # right-invariant field was summed as a series at every sample
        # point.  skew3: the certificate of test_decompose_report_thirds,
        # whose right fields all vary, on a skew D of thirds, where each
        # entry of ad_w is floored and the points strip little or nothing;
        # recorded before the points were stripped and before Horner's rule
        # summed lane-uniform values once
        root = Path(__file__).parents[1]
        monkeypatch.chdir(root)
        code, out, _ = run(capsys, ["verify", *argv])
        assert code == 0
        assert out == (root / f"tests/data/{name}.out").read_text()

    def test_decompose_report(self, tmp_path, monkeypatch, capsys):
        # a degree-4 Killing tensor with 35 distinct denominators, its layers
        # and its 126 certificate terms: recorded when decompose worked in
        # Fraction arithmetic
        data = Path(__file__).parent / "data"
        for name in ("aa6.json", "aa6.k4.json"):
            (tmp_path / name).write_bytes((data / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["decompose", "--algebra", "aa6.json",
                                    "--tensor", "aa6.k4.json"])
        assert code == 0
        assert out == (data / "aa6.decompose4.out").read_text()

    def test_decompose_report_thirds(self, tmp_path, monkeypatch, capsys):
        # a degree-3 Killing tensor on the dimension-5 algebra of a skew D
        # with denominators 3, decomposed into the metric, left:0 and right
        # fields and verified: recorded before the points were stripped and
        # before Horner's rule summed lane-uniform values once
        data = Path(__file__).parent / "data"
        for name in ("skew3.json", "skew3.k3.json"):
            (tmp_path / name).write_bytes((data / name).read_bytes())
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, ["decompose", "--algebra", "skew3.json",
                                    "--tensor", "skew3.k3.json"])
        assert code == 0
        assert out == (data / "skew3.decompose3.out").read_text()
        assert (tmp_path / "skew3.k3.cert.json").read_bytes() == (
            data / "skew3.cert.json").read_bytes()


class TestReportDigest:
    def test_gallery_session_is_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _session_digest() == REPORT_DIGEST

    def test_curvature_and_ordered_series_reports_are_byte_identical(self, tmp_path,
                                                                     monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert _series_session_digest() == SERIES_REPORT_DIGEST

    def test_sampled_check_across_blocks_is_byte_identical(self, capsys, monkeypatch):
        # 100 samples are four blocks of points, the last of four; the report
        # was recorded when each point was summed on its own
        root = Path(__file__).parents[1]
        monkeypatch.chdir(root)
        code, out, _ = run(capsys, ["verify", "--algebra", "tests/data/aa6.json",
                                    "--certificate", "tests/data/aa6.cert.json",
                                    "--samples", "100"])
        assert code == 0
        assert out == (root / "tests/data/aa6.verify100.out").read_text()
