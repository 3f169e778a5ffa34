import contextlib
import copy
import io
import json
import math
import os
import random
import subprocess
import sys
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
    sum_of_squares,
)
import killingtensors
from killingtensors.cli import main
from killingtensors import exactlinalg, fileformats as ff
from conftest import random_tensor

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

    @pytest.mark.parametrize("algebra, target, factors, fault", [
        (DIAG12, None, [LEFT1, LEFT1], "ad is not skew"),
        (HEISENBERG, E0, [{"kind": "left", "vector": ["1", "0", "0"]}], "ad is not skew"),
        (DIAG12, {"degree": 1, "terms": []}, [NOT_A_DERIVATION], "not a derivation"),
    ], ids=["left-e1-squared-diag12", "left-e0-heisenberg", "skew-non-derivation"])
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

        monkeypatch.setattr(exactlinalg, "_sparse_rref", no_elimination)
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
}
_POOL_TENSORS = {
    "e1sq": _square(1), "e3sq": _square(3), "e0": {"degree": 1, "terms": [
        {"monomial": [0], "coeff": "1"}]},
    "metric": {"degree": 2, "terms": [{"monomial": [i, i], "coeff": "1"} for i in range(3)]},
    "mixed": MIXED, "cubic": {"degree": 3, "terms": [{"monomial": [0, 1, 2], "coeff": "-1/2"}]},
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
}
_POINT_ENTRIES = ["0", "1", "-1/2", "0.25", "-2", "1e300", "1" + "0" * 400, "x"]


@pytest.fixture(scope="module")
def argv_pool(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    pool = {kind: {name: write(tmp, f"{kind}-{name}.json", doc) for name, doc in docs.items()}
            for kind, docs in (("algebra", _POOL_ALGEBRAS), ("tensor", _POOL_TENSORS),
                               ("certificate", _POOL_CERTS))}
    pool["algebra"]["broken"] = str(tmp / "broken.json")
    (tmp / "broken.json").write_text("{")
    pool["out"] = str(tmp / "out.cert.json")
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
                "--tol", draw(st.sampled_from(["1e-9", "1e-3"]))]
        if command == "killing-basis":
            argv += ["--degree", str(draw(st.integers(0, 3)))]
            method = draw(st.sampled_from([None, "structured", "brute", "both"]))
            argv += ["--method", method] if method else []
        elif command == "decompose":
            argv += ["--tensor", draw(st.sampled_from(sorted(argv_pool["tensor"].values()))),
                     "--certificate-out", argv_pool["out"]]
        elif command == "verify":
            argv += ["--certificate",
                     draw(st.sampled_from(sorted(argv_pool["certificate"].values())))]
        elif command == "omega-sample":
            kind = draw(st.sampled_from(["metric", "left:", "right:", "deriv:", "bogus:"]))
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
