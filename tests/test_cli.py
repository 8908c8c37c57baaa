import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from schurkit import cli, transforms
from schurkit.circuits import Formula, const, inp, prod_node
from schurkit.cli import main
from schurkit.errors import (
    GridExhausted,
    InvalidWitness,
    NoNonvanishingPoint,
    NotDivisible,
    ReductionMismatch,
    VerificationFailed,
)
from schurkit.poly import Poly

from helpers import counted


ROOT = Path(__file__).resolve().parent.parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSchurCommand:
    def test_all_routes_agree(self, capsys):
        code, out, _ = run(capsys, "schur", "--route", "all", "--lambda", "2,1", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["agree"] is True
        assert set(payload["routes"]) == {"bialternant", "jt-h", "jt-e", "ssyt"}

    def test_ssyt_vanishes(self, capsys):
        code, out, _ = run(capsys, "schur", "--route", "ssyt", "--lambda", "1,1,1", "--n", "2")
        assert code == 0
        assert out.strip() == "0"

    def test_bialternant_column(self, capsys):
        code, out, _ = run(capsys, "schur", "--route", "bialternant", "--lambda", "1,1", "--n", "2")
        assert code == 0
        assert out.strip() == "1*x1*x2"

    def test_skew_form(self, capsys):
        code, out, _ = run(capsys, "schur", "--lambda", "2/1", "--n", "2")
        assert code == 0
        assert out.strip() == "1*x1 + 1*x2"

    def test_skew_via_mu_flag(self, capsys):
        code, out, _ = run(capsys, "schur", "--lambda", "1,1", "--mu", "1", "--n", "2")
        assert code == 0
        assert out.strip() == "1*x1 + 1*x2"

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys,
            "schur", "--route", "jt-h", "--lambda", "2", "--n", "2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["polynomial"] == "1*x1^2 + 1*x1*x2 + 1*x2^2"
        assert payload["terms"][0] == {"exps": [2, 0], "coeff": "1"}

    @pytest.mark.parametrize("lam, n", [("4,2,1", 5), ("5,3,1", 6), ("7", 3)])
    def test_bialternant_json_is_pinned(self, capsys, tmp_path, lam, n):
        out_file = tmp_path / "s.json"
        code, _, _ = run(
            capsys,
            "schur", "--route", "bialternant", "--format", "json",
            "--lambda", lam, "--n", str(n), "--out", str(out_file),
        )
        assert code == 0
        assert sha256(out_file) == BIALTERNANT_DIGESTS[f"{lam}/{n}"]

    def test_thousand_rows_of_jt_e_do_not_recurse(self, capsys):
        # jt-e takes the 1000 x 1000 determinant over the conjugate (1^1000)
        code, out, err = run(capsys, "schur", "--route", "all", "--lambda", "1000", "--n", "1")
        assert code == 0, err
        payload = json.loads(out)
        assert payload["agree"] is True
        assert payload["routes"]["ssyt"] == "1*x1^1000"

    def test_tableau_route_on_long_rows(self, capsys):
        code, out, _ = run(capsys, "schur", "--route", "ssyt", "--lambda", "500,500", "--n", "2")
        assert code == 0
        assert out.strip() == "1*x1^500*x2^500"

    def test_tableau_route_on_a_huge_part_answers_at_once(self):
        # a subprocess, so that a route that enumerates cells fails by timeout
        result = subprocess.run(
            [
                sys.executable, "-m", "schurkit",
                "schur", "--route", "ssyt", "--lambda", "99999999999999999999", "--n", "1",
            ],
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=10,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "1*x1^99999999999999999999"

    def test_non_monotone_partition_rejected(self, capsys):
        code, _, err = run(capsys, "schur", "--route", "ssyt", "--lambda", "1,2", "--n", "3")
        assert code == 1
        assert "non-increasing" in err


class TestReduceCommand:
    def test_valid_instance(self, capsys, tmp_path):
        out_file = tmp_path / "det.json"
        report_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "reduce", "--lambda", "3,2", "--n", "5",
            "--out", str(out_file), "--report-out", str(report_file),
        )
        assert code == 0
        report = json.loads(report_file.read_text())
        assert report["verified_against_determinant"] is True
        assert report["depth_increase"] == 4
        formula = json.loads(out_file.read_text())
        assert formula["arity"] == 4
        assert sha256(out_file) == README_DIGESTS["reduce-det"]
        assert sha256(report_file) == README_DIGESTS["reduce-report"]

    def test_larger_instance_is_pinned(self, capsys, tmp_path):
        out_file = tmp_path / "det.json"
        report_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "reduce", "--lambda", "4,2", "--n", "6",
            "--out", str(out_file), "--report-out", str(report_file),
        )
        assert code == 0
        assert sha256(out_file) == README_DIGESTS["reduce-det-4,2/6"]
        assert sha256(report_file) == README_DIGESTS["reduce-report-4,2/6"]

    def test_skew_shape_is_bad_input(self, capsys, tmp_path):
        # the inner partition was once dropped, writing the s_(5,3) reduction
        out_file = tmp_path / "det.json"
        code, out, err = run(capsys, "reduce", "--lambda", "5,3/1", "--n", "7", "--out", str(out_file))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "5,3/1" in err and "skew" in err
        assert not out_file.exists()

    def test_budget_covers_the_pipeline_expansions(self, capsys):
        # the input formula alone expands to 101 terms
        code, out, err = run(capsys, "reduce", "--lambda", "3,2", "--n", "5", "--budget", "100")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "100 terms" in err

    def test_budget_trips_before_the_build(self, capsys, monkeypatch):
        # s_(500,2) on 502 variables has at least 502 * 501 terms; building
        # its input formula took seconds before the budget tripped
        def build(lam, n):
            raise AssertionError("input formula built")

        monkeypatch.setattr(transforms, "jacobi_trudi_formula", build)
        code, out, err = run(capsys, "reduce", "--lambda", "500,2", "--n", "502", "--budget", "1000")
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "exceeded 1000 terms" in err

    def test_output_that_is_not_the_determinant_exits_3(self, capsys, monkeypatch, tmp_path):
        out_file = tmp_path / "det.json"
        monkeypatch.setattr(transforms, "det_poly", lambda ell: Poly.zero(ell * ell))
        code, out, err = run(capsys, "reduce", "--lambda", "3,2", "--n", "5", "--out", str(out_file))
        assert code == 3
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "determinant" in err
        assert not out_file.exists()

    def test_formula_file_that_is_not_schur_exits_1(self, capsys, tmp_path):
        # one term, under the budget of 10, where s_(3,2) has at least 20:
        # the input check, not the budget, rejects it
        path = tmp_path / "one.json"
        path.write_text(json.dumps(Formula(const(1), 5).to_json()))
        code, out, err = run(
            capsys,
            "reduce", "--lambda", "3,2", "--n", "5", "--formula-in", str(path), "--budget", "10",
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Schur polynomial" in err

    def test_input_and_output_are_expanded_once(self, capsys, monkeypatch, tmp_path):
        expansions = counted(monkeypatch, Formula, "expand")
        report_file = tmp_path / "report.json"
        code, _, _ = run(
            capsys,
            "reduce", "--lambda", "3,2", "--n", "5",
            "--out", str(tmp_path / "det.json"), "--report-out", str(report_file),
        )
        assert code == 0
        # the input, on n = 5 variables, and the output, on l^2 = 4
        assert [f.arity for f in expansions] == [5, 4]
        assert json.loads(report_file.read_text())["verified_against_determinant"] is True

    @pytest.mark.parametrize(
        "text",
        [
            '{"arity": 5}',
            "[1]",
            '{"arity": "5", "root": {"kind": "input", "var": 0}}',
            '{"arity": 5, "root": {"kind": "input", "var": 5}}',
            '{"arity": 5, "root": {"kind": "product", "children": [3]}}',
            '{"arity": 5, "root": {"kind": "sum", "children": []}}',
            '{"arity": 5, "root": {"kind": "const", "value": {"order": 8}}}',
        ],
    )
    def test_wrong_shape_formula_file_is_bad_input(self, capsys, tmp_path, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(
            capsys,
            "reduce", "--lambda", "3,2", "--n", "5", "--formula-in", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_hypothesis_failure_exit_code(self, capsys):
        code, _, err = run(capsys, "reduce", "--lambda", "2,2", "--n", "5")
        assert code == 2
        assert "gap hypothesis" in err

    def test_hypothesis_is_checked_before_the_formula_is_built(self, capsys):
        # the last part 1 is below l = 2: the hypothesis fails before the input
        # formula, about 2000 h-states per variable, is built
        code, out, err = run(capsys, "reduce", "--lambda", "2000,1", "--n", "5")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_too_deep_formula_file_is_bad_input(self, capsys, tmp_path):
        # 600 nested product gates: past what the stdlib JSON parser can read
        depth = 600
        root = (
            '{"kind": "product", "children": [' * depth
            + '{"kind": "input", "var": 0}'
            + "]}" * depth
        )
        path = tmp_path / "deep.json"
        path.write_text('{"arity": 5, "root": ' + root + "}")
        code, out, err = run(
            capsys,
            "reduce", "--lambda", "3,2", "--n", "5", "--formula-in", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "nested too deeply" in err


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


#: SHA-256 of the README commands' --out files, recorded before the scalar
#: representation changed, and of the (4,2)/6 reduction, recorded before the
#: JSON writer stopped calling `json.dumps` on the whole payload; the outputs
#: must stay byte-identical
README_DIGESTS = {
    "reduce-det": "432ca6f014d2612f3b873dcebe509a0c3bce8641690c53944012d47f252ac600",
    "reduce-report": "fe3914b00ab354cb31d1b617d08c6d502ba487c61c564beca05a89bb70a149b8",
    "reduce-det-4,2/6": "bc9837bf0dafbfa56fa51d221323a6f5da1e89f816136f143df1a3b1b5b053bd",
    "reduce-report-4,2/6": "abcc932d77ec2e87a8de93f2ceebf90f159adfc3d1485c3d210ed9e6ec095e97",
    "witness-h-6": "8b15693abb9bb66f832c8089b9e53578861333279cdb2e1ddc16126f18d026ae",
    "witness-shifted-4": "728e5da5d13a707cd27fe74ded000b352c7b3c2ea4e1f198776efebc16763693",
}

#: SHA-256 of `witness --family F --n N --out` for F = e, h, p and
#: N = 2..8, recorded before root-of-unity evaluation moved to exponent
#: arithmetic; the outputs must stay byte-identical
WITNESS_DIGESTS = {
    "witness-e-2": "d6703951d7c165144277eaf361cd6415c7cb58e0f375730783130cf69d5889cb",
    "witness-e-3": "f7fbc12b86b6e482fa53586710f3580a22f0488094356dd2796a166c7287c64e",
    "witness-e-4": "4b0a013721b7bdebd4769c64d87923a06ac8806e153313fd6030f2cfa5018578",
    "witness-e-5": "b95e963536bf57438ba29a46291ed6f94bff6b24b76ea1ac14185272289af170",
    "witness-e-6": "9f7b7049e6e1c89db7dba46bf723700777b43ca67d1c27c4809293f85f8ce5d8",
    "witness-e-7": "aab64d8072d059d232c75ccc168f56eeb49e1ee66e0078294dd2922d528615bf",
    "witness-e-8": "66f5d4f21ad93900168640b34650656463068eef7bcf038b825129468f3d059d",
    "witness-h-2": "ea1c6f70c996b8cc583497097280f82c6651ad2b95edd1a66151b52fa8e7b1b9",
    "witness-h-3": "8bb48a9894f40ef498de90cc9408e3d90c7c2589a13c311b40504863829a0257",
    "witness-h-4": "e4dd9c7b0d2a06a75f39b35f344f6474d3b96ec8e00671c89b3fc89ecc68f636",
    "witness-h-5": "3530f0edca6d43a31cd02f5284506056dcbbf5fae845015ebc8e3003bd3520c1",
    "witness-h-6": "8b15693abb9bb66f832c8089b9e53578861333279cdb2e1ddc16126f18d026ae",
    "witness-h-7": "98d322966ee17e0db158855b996339be32ab404b7ce7bf3de5e75bf66195e7a3",
    "witness-h-8": "207e97be0571cbf65cb144fa281ba3e211f7555b6681e4cc2df608063997a56c",
    "witness-p-2": "e81d66aad9e6e954d186a25ecddf523ad0056c8460358158e86a82d29c574954",
    "witness-p-3": "26e63808af07ede1c0470a56994df53a5b474236ac9aa2ca3ac9fcc67070712a",
    "witness-p-4": "8ed4d50c88c119f2fdd4233113b74782baddc77a6c2ecfb9f7ff87fdb2525ead",
    "witness-p-5": "3bb11b179dcd8975daee3163bfe984a8d0184d259d89b99a1e2dc7e69bace0d1",
    "witness-p-6": "dd4c27819c8bef91467af642aa2bd8931d9f40190ce7ee9b07f1282d2a0ced29",
    "witness-p-7": "89fa5d35a68917650fca8f48bad699f30fbd1a33be8ea9f0b61b5ed2aff3a2be",
    "witness-p-8": "ed12d97f74000835e309be44d011784997adb0df43e2ac1ef948de9fcce2445a",
}

#: SHA-256 of `convert` outputs, recorded before the basis conversions moved
#: from truncated generating series and a linear solve to the classical
#: recurrences; the outputs must stay byte-identical
CONVERT_DIGESTS = {
    "e-to-h-1-text": "4b7c29d8ae43f7c969b1e0e68bd7a7e54d90f92227b93c91d757a3556d481229",
    "e-to-h-1-json": "24612347844d7cfea526dc32d78b3e95c5c6970026d2545e6d7feba605d81881",
    "e-to-h-2-text": "cb78da4fe6f18b62ecd4f660502cc57a18b5e68b7279da6fa4efe2bf22e8e2c5",
    "e-to-h-2-json": "e1dd6e37c37e15f2131527e675a4951006450f7cde8380321a72745f8226fc83",
    "e-to-h-3-text": "759244f6f0956e5e2034d2bd581b7e75ed1239a954d750bb35389a401476ba22",
    "e-to-h-3-json": "b7427904775ede239572dd988ce5f1f0fdbcfd3c7be81f373f385ed5f54b723c",
    "e-to-h-4-text": "d34e0088a19e2bcf8d9860cf8ef58b33f24db829657dd714658c8d41c7aa42fc",
    "e-to-h-4-json": "1df5431569b13b73a6a19197b6391a45d2a03fa92f4db3317bbc5212f0308b93",
    "e-to-h-5-text": "61351b884ebc44795597ac88f70394179881ec645ec1b5aa4e179fd212e39fab",
    "e-to-h-5-json": "d51fee192780053ed692ece9b48e2e678bd4cc6c1c15b03d3ba7bbf881c0598f",
    "e-to-h-6-text": "16c3031db62791f4c84b5209309936bc56272abf831148f91979327d2f8662c3",
    "e-to-h-6-json": "480504756defbf3383efa69503e1b235f021cf4ca2ef578360d64d5c9fa94545",
    "e-to-p-1-text": "142010ec57121927d4923c3f36a4dd41fa9f6d335da837e03657b671a7f9139e",
    "e-to-p-1-json": "24612347844d7cfea526dc32d78b3e95c5c6970026d2545e6d7feba605d81881",
    "e-to-p-2-text": "6b8ad8bd87aeaff5e26b541299ab209b16130ce8824a053c9f2d82c1ce2c7acc",
    "e-to-p-2-json": "78eb502bd446cd59d83fbdb06737198e7aadbb30477d94d05175414b2360860d",
    "e-to-p-3-text": "ae1c0421d89bd7a32443cdbfffac5175f553f016afde4aad18ec9579708d0f0c",
    "e-to-p-3-json": "9068634fd6519593b07ae988d25e2cf1fddc592b5471d39aa3e8a6a0b8c3c2a1",
    "e-to-p-4-text": "782dbb614e756b66389860e749fb43e021a9a9e338cb53d388c3e8834526b562",
    "e-to-p-4-json": "c7a23da54515dc3528c35fd053488ee143a1700ccbceeed17210e8bf0eee6837",
    "e-to-p-5-text": "e919df056cdc26a149bdcf86a17bd35a977b7a9a51a1ff6ca4d8b83d05de5619",
    "e-to-p-5-json": "0502e92c66f63336510ba12cb22a6676673c3a33acd64a2acd25d6cde3969b4a",
    "e-to-p-6-text": "4d805ea81dcfa3481272df4557f4d0a5d97076d997f1552d8d906ac1296d016c",
    "e-to-p-6-json": "197abdea348364e76a04221d9aed4e2a0fb94a3e6f104a122d458a219f0baf1c",
    "to-e-basis-rational-text": "8946b1cf1a160eddf27cc6327d8c8c8bd2aea00e679aae0ef50d6fd76d014275",
    "to-e-basis-rational-json": "958c270ac782cad9b4f1b06214655e66a7c1dd47824e4e851e7f9e6962ad8a0a",
    "to-e-basis-cyclotomic-text": "ea6c61080a1a39ab3ef85f315a635fb0c16bb6ae24cf744d0e95870096520efb",
    "to-e-basis-cyclotomic-json": "53313794779d8a8314670b2a7a6049f6d34285df4711bd09de226f1375d510fe",
}


#: SHA-256 of `schur --route bialternant --format json --out`, recorded
#: before exact division moved from scalar to fraction-free integer
#: arithmetic and the alternants to a Leibniz expansion; the outputs must
#: stay byte-identical
BIALTERNANT_DIGESTS = {
    "4,2,1/5": "1fc861a44712527c21c7cdcb1be4911d69c3800927cd40563971ca2ebdb9d873",
    "5,3,1/6": "676d69ef13e56b063208bacf562ca8c240f0e441a66ee05f7d38c5708772a583",
    "7/3": "6594a89be83e9e1d00f7552fee59429b0e1d15c368b16d15b9736ee2f992c835",
}


#: SHA-256 of `pdc --out` for --monomial 1..5 and for the two --input
#: files of `TestPdcCommand` (given by relative path, which the output
#: echoes), recorded before the span moved from rational to integer
#: elimination; the outputs must stay byte-identical
PDC_DIGESTS = {
    "monomial-1": "6ad6ad2c847531062374e8ae34dccaa9d3073bb39097d2ee71682745bc3a55c5",
    "monomial-2": "bde6c10032cec46a968f6de47d4a5158b758e3262916be39fe820cc0fabb115c",
    "monomial-3": "537af198a405465d56f1a275a052bc91f2e28dafc1b92f562a30337b73e0ce5e",
    "monomial-4": "22c0378a8bc3bb0d4ff3a80a0ab28298e17636cbf8ab36903543dca9d7e36d9d",
    "monomial-5": "f140e8bbc62e40ffc37b34bb05c68a0776a6de7ae0e06f4d23451cb3e3e16815",
    "p.txt": "74226eda347c86f85ce0b96b3d05d629693d38d40521a3fe459700ed442210b0",
    "p8.json": "f5f65b07dfb209ff35f696ac2cc446929ceda2a97787592e7f50d5b1a3cd0b9f",
}

#: the --input files of `TestPdcCommand`: x1^2 + x2, and x1^2*x2 + w*x2^3
#: with w a primitive 8th root of unity
PDC_INPUTS = {
    "p.txt": "1*x1^2 + 1*x2",
    "p8.json": json.dumps({"arity": 2, "terms": [
        {"exps": [2, 1], "coeff": "1"},
        {"exps": [0, 3], "coeff": {"order": 8, "value": "1*w"}},
    ]}),
}


def _monomial_symmetric(arity, parts, coeff):
    """The JSON terms of coeff * m_parts, the sum of all distinct
    permutations of x^parts."""
    exps = tuple(parts) + (0,) * (arity - len(parts))
    return [{"exps": list(e), "coeff": coeff} for e in sorted(set(itertools.permutations(exps)))]


#: symmetric polynomials in 3 variables, one rational and one with
#: coefficients in the order-3 cyclotomic field
E_BASIS_INPUTS = {
    "rational": {"arity": 3, "terms": [
        *_monomial_symmetric(3, (2, 2), "7/3"),
        *_monomial_symmetric(3, (3,), "2"),
        *_monomial_symmetric(3, (2, 1), "3"),
        *_monomial_symmetric(3, (1, 1, 1), "-1/2"),
        *_monomial_symmetric(3, (), "5"),
    ]},
    "cyclotomic": {"arity": 3, "terms": [
        *_monomial_symmetric(3, (2,), {"order": 3, "value": "1*w"}),
        *_monomial_symmetric(3, (1, 1), {"order": 3, "value": "1 + -2*w"}),
        *_monomial_symmetric(3, (1,), "1/3"),
    ]},
}


class TestWitnessCommand:
    @pytest.mark.parametrize(
        "name, argv",
        [
            ("witness-h-6", ("--family", "h", "--n", "6")),
            ("witness-shifted-4", ("--family", "shifted", "--n", "4", "--seed", "7")),
        ],
    )
    def test_readme_outputs_are_pinned(self, capsys, tmp_path, name, argv):
        out_file = tmp_path / "witness.json"
        code, _, _ = run(capsys, "witness", *argv, "--out", str(out_file))
        assert code == 0
        assert sha256(out_file) == README_DIGESTS[name]

    @pytest.mark.parametrize("name", WITNESS_DIGESTS)
    def test_family_outputs_are_pinned(self, capsys, tmp_path, name):
        _, family, n = name.split("-")
        out_file = tmp_path / "witness.json"
        code, _, _ = run(capsys, "witness", "--family", family, "--n", n, "--out", str(out_file))
        assert code == 0
        assert sha256(out_file) == WITNESS_DIGESTS[name]

    def test_elementary(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "e", "--n", "4")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified_rank"] == 3
        assert payload["residuals"] == ["0", "0", "0"]

    def test_h_family(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "h", "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["residuals"] == ["0", "0"]

    def test_shifted(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "shifted", "--n", "3", "--seed", "7")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified_rank"] == 3
        assert all(r == "0" for r in payload["residuals"])


class TestPdcCommand:
    def test_monomial(self, capsys):
        code, out, _ = run(capsys, "pdc", "--monomial", "3")
        assert code == 0
        assert json.loads(out)["dimension"] == 8

    def test_budget_exit_code(self, capsys):
        code, _, _ = run(capsys, "pdc", "--monomial", "6", "--budget", "8")
        assert code == 4

    def test_default_budget_is_the_derivative_budget(self, capsys):
        # 2^14 multi-indices: past the 8192 default, though far below the
        # term budget of reduce
        code, _, err = run(capsys, "pdc", "--monomial", "14")
        assert code == 4
        assert "8192" in err

    def test_input_file(self, capsys, tmp_path):
        poly_file = tmp_path / "p.txt"
        poly_file.write_text(PDC_INPUTS["p.txt"])
        code, out, _ = run(capsys, "pdc", "--input", str(poly_file))
        assert code == 0
        assert json.loads(out)["dimension"] == 3

    def test_order_8_input_file(self, capsys, tmp_path):
        # the span of x1^2*x2 + w*x2^3 over Q(w): the polynomial, x1*x2,
        # x1^2 + 3w*x2^2, x1, x2 and 1
        poly_file = tmp_path / "p8.json"
        poly_file.write_text(PDC_INPUTS["p8.json"])
        code, out, _ = run(capsys, "pdc", "--input", str(poly_file))
        assert code == 0
        assert json.loads(out)["dimension"] == 6

    @pytest.mark.parametrize("name", PDC_DIGESTS)
    def test_outputs_are_pinned(self, capsys, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        if name.startswith("monomial-"):
            source = ("--monomial", name.split("-")[1])
        else:
            (tmp_path / name).write_text(PDC_INPUTS[name])
            source = ("--input", name)
        code, _, _ = run(capsys, "pdc", *source, "--out", "pdc.json")
        assert code == 0
        assert sha256(tmp_path / "pdc.json") == PDC_DIGESTS[name]

    def test_mixed_cyclotomic_orders_exit_1(self, capsys, tmp_path):
        poly_file = tmp_path / "p.json"
        poly_file.write_text(json.dumps({"arity": 2, "terms": [
            {"exps": [2, 0], "coeff": {"order": 5, "value": "1*w"}},
            {"exps": [1, 1], "coeff": {"order": 3, "value": "1*w"}},
        ]}))
        code, _, err = run(capsys, "pdc", "--input", str(poly_file))
        assert code == 1
        assert err.startswith("error: cyclotomic orders differ")


#: polynomial JSON documents of the wrong shape, each a bad-input exit
BAD_POLY_JSON = {
    "missing-coeff": {"arity": 2, "terms": [{"exps": [1, 0], "coeff": "1"}, {"exps": [0, 1]}]},
    "missing-arity": {"terms": [{"exps": [1, 0], "coeff": "1"}]},
    "string-arity": {"arity": "2", "terms": []},
    "terms-not-list": {"arity": 2, "terms": {"exps": [1, 0]}},
    "term-not-object": {"arity": 2, "terms": [[1, 0]]},
    "exps-not-list": {"arity": 1, "terms": [{"exps": 1, "coeff": "1"}]},
    "short-exps": {"arity": 3, "terms": [{"exps": [1, 0], "coeff": "1"}]},
    "float-exps": {"arity": 2, "terms": [{"exps": [1.5, 0], "coeff": "1"}]},
    "not-object": [1, 2],
}


@pytest.mark.parametrize("command", [("pdc",), ("convert", "--to-e-basis")], ids=["pdc", "convert"])
@pytest.mark.parametrize("name", sorted(BAD_POLY_JSON))
def test_malformed_polynomial_json_exits_1(capsys, tmp_path, command, name):
    poly_file = tmp_path / "p.json"
    poly_file.write_text(json.dumps(BAD_POLY_JSON[name]))
    code, out, err = run(capsys, *command, "--input", str(poly_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [("pdc",), ("convert", "--to-e-basis")], ids=["pdc", "convert"])
def test_too_deep_polynomial_json_is_bad_input(capsys, tmp_path, command):
    poly_file = tmp_path / "p.json"
    poly_file.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, *command, "--input", str(poly_file))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "nested too deeply" in err


class TestConvertCommand:
    def test_e_to_h(self, capsys):
        code, out, _ = run(capsys, "convert", "--e-to-h", "--k", "2")
        assert code == 0
        assert out.strip() == "1*h1^2 + -1*h2"

    def test_e_to_p(self, capsys):
        code, out, _ = run(capsys, "convert", "--e-to-p", "--k", "2")
        assert code == 0
        assert out.strip() == "1/2*p1^2 + -1/2*p2"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("mode", ["e-to-h", "e-to-p"])
    def test_e_conversions_are_pinned(self, capsys, tmp_path, mode, k, fmt):
        out_file = tmp_path / "e.out"
        code, _, _ = run(capsys, "convert", f"--{mode}", "--k", str(k), "--format", fmt, "--out", str(out_file))
        assert code == 0
        assert sha256(out_file) == CONVERT_DIGESTS[f"{mode}-{k}-{fmt}"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("name", sorted(E_BASIS_INPUTS))
    def test_to_e_basis_is_pinned(self, capsys, tmp_path, name, fmt):
        poly_file = tmp_path / "p.json"
        poly_file.write_text(json.dumps(E_BASIS_INPUTS[name]))
        out_file = tmp_path / "e.out"
        code, _, _ = run(
            capsys,
            "convert", "--to-e-basis", "--input", str(poly_file), "--format", fmt, "--out", str(out_file),
        )
        assert code == 0
        assert sha256(out_file) == CONVERT_DIGESTS[f"to-e-basis-{name}-{fmt}"]

    def test_to_e_basis(self, capsys, tmp_path):
        poly_file = tmp_path / "p.txt"
        poly_file.write_text("1*x1^2 + 1*x2^2")
        code, out, _ = run(capsys, "convert", "--to-e-basis", "--input", str(poly_file))
        assert code == 0
        assert out.strip() == "1*e1^2 + -2*e2"


class TestUsageErrors:
    # argparse's own exit code 2 would read as a failed reduction hypothesis
    @pytest.mark.parametrize(
        "argv",
        [
            ("schur", "--lambda", "2", "--n", "3", "--budget", "1"),
            ("schur", "--lambda", "2", "--n", "3", "--seed", "1"),
            ("witness", "--family", "h", "--n", "4", "--budget", "1"),
            ("convert", "--e-to-h", "--k", "2", "--seed", "1"),
            ("convert", "--e-to-h", "--k", "2", "--n", "9"),
        ],
    )
    def test_unread_flag_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("convert", "--e-to-h", "--k", "2", "--input", "missing.txt"), "--input"),
            (("convert", "--to-e-basis", "--input", "p.txt", "--k", "3"), "--k"),
            (("schur", "--lambda", "2/1", "--n", "2", "--route", "ssyt"), "--route"),
            (("schur", "--route", "all", "--lambda", "2,1", "--n", "3", "--format", "text"), "--format"),
            (("schur", "--lambda", "2/1", "--mu", "2", "--n", "2"), "--mu"),
        ],
        ids=["e-to-h-input", "to-e-basis-k", "skew-route", "all-routes-text", "inline-and-mu"],
    )
    def test_flag_the_mode_ignores_is_bad_input(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "p.txt").write_text("1*x1 + 1*x2")
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce", "--lambda", "3,2", "--n", "5", "--budget", "-1"),
            ("pdc", "--monomial", "3", "--budget", "-5"),
        ],
        ids=["reduce", "pdc"],
    )
    def test_negative_budget_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--budget" in err and "negative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("reduce", "--lambda", "3,2", "--n", "5", "--budget", "0"),
            ("pdc", "--monomial", "3", "--budget", "0"),
        ],
        ids=["reduce", "pdc"],
    )
    def test_zero_budget_is_exceeded(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err.startswith("error: ") and " 0 " in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("schur", "--lambda", "99999999999999999999", "--n", "1", "--route", "jt-h"),
            ("witness", "--family", "e", "--n", "99999999999999999999"),
            ("pdc", "--monomial", "99999999999999999999"),
            ("convert", "--e-to-h", "--k", "99999999999999999999"),
        ],
        ids=["schur", "witness", "pdc", "convert"],
    )
    def test_number_too_large_is_bad_input(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bare_pdc_is_bad_input(self, capsys):
        code, out, err = run(capsys, "pdc")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--monomial --input" in err

    def test_bench_is_gone(self, capsys):
        code, out, err = run(capsys, "bench")
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "invalid choice: 'bench'" in err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pdc", "-h"])
        assert exc.value.code == 0
        assert "--monomial" in capsys.readouterr().out


@pytest.mark.parametrize(
    "error",
    [VerificationFailed, InvalidWitness, ReductionMismatch, GridExhausted, NoNonvanishingPoint, NotDivisible],
)
def test_verification_failures_exit_3(capsys, monkeypatch, error):
    def handler(args):
        raise error("check failed")

    monkeypatch.setitem(cli._HANDLERS, "pdc", handler)
    code, out, err = run(capsys, "pdc", "--monomial", "1")
    assert code == 3
    assert out == ""
    assert err == "error: check failed\n"


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ("schur", "--route", "all", "--lambda", "2,1", "--n", "3"),
            ("witness", "--family", "e", "--n", "4"),
            ("witness", "--family", "shifted", "--n", "3", "--seed", "5"),
            ("pdc", "--monomial", "3"),
            ("convert", "--e-to-p", "--k", "3"),
        ],
    )
    def test_identical_runs_are_byte_identical(self, capsys, tmp_path, argv):
        first = tmp_path / "a.out"
        second = tmp_path / "b.out"
        assert main([*argv, "--out", str(first)]) == 0
        assert main([*argv, "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def written(obj) -> str:
    return "".join(cli._json_pieces(obj))


JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text()


@st.composite
def shared_json(draw):
    """Nested dicts, lists and tuples in which a container may occur at
    several depths and several times in one list."""
    pool = []
    for _ in range(draw(st.integers(1, 8))):
        values = st.one_of(JSON_SCALARS, st.sampled_from(pool)) if pool else JSON_SCALARS
        items = draw(st.lists(values, max_size=4))
        kind = draw(st.sampled_from(["dict", "list", "tuple"]))
        if kind == "dict":
            keys = draw(st.lists(st.text(), min_size=len(items), max_size=len(items), unique=True))
            pool.append(dict(zip(keys, items)))
        else:
            pool.append(items if kind == "list" else tuple(items))
    return draw(st.sampled_from(pool))


class TestJsonWriter:
    """`cli._json_pieces` writes the text of `json.dumps(obj, indent=2,
    sort_keys=True)`."""

    @settings(max_examples=300, deadline=None)
    @given(shared_json())
    @example({})
    @example([[], {}, ()])
    @example({"b\"\n\u00e9": ['q"uo\nte', "\u2603", 1.5, -0.0, math.inf, None, True, False, 10**30]})
    def test_matches_json_dumps(self, obj):
        assert written(obj) == dumps(obj)

    def test_shared_containers(self):
        leaf = {"kind": "input", "var": 1}
        mid = [leaf, leaf, {"x": leaf}]
        obj = {"a": mid, "b": [mid, [[mid]]], "c": leaf}
        assert written(obj) == dumps(obj)

    @pytest.mark.parametrize("obj", ["s\n", 7, 2.5, None, False])
    def test_scalar_root(self, obj):
        assert written(obj) == dumps(obj)

    @pytest.mark.parametrize(
        "obj",
        [{2: "b", 10: [1], -1: {}}, {1.5: 0, 0.25: 1}, {True: 1, False: 2}, {None: [None]}],
    )
    def test_non_string_keys(self, obj):
        assert written(obj) == dumps(obj)

    def test_unsupported_values_raise_as_json_does(self):
        for obj in ({"k": {1, 2}}, {(1, 2): 3}):
            with pytest.raises(TypeError):
                dumps(obj)
            with pytest.raises(TypeError):
                written(obj)

    def test_cycles_raise_as_json_does(self):
        loop = []
        loop.append(loop)
        inner = [1]
        outer = {"k": [inner]}
        inner.append(outer["k"])
        for obj in (loop, outer):
            with pytest.raises(ValueError, match="Circular reference"):
                dumps(obj)
            with pytest.raises(ValueError, match="Circular reference"):
                written(obj)

    def test_product_chain_deeper_than_the_recursion_limit(self):
        # 1,500 product gates nest 3,002 JSON containers; the input x1 is one
        # dict shared at every level
        x1 = inp(1)
        node = inp(0)
        for _ in range(1500):
            node = prod_node([node, x1])
        obj = Formula(node, 2).to_json()
        assert sys.getrecursionlimit() < 3000
        text = written(obj)
        assert text.count("[") == 1500
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert json.loads(text) == obj
        finally:
            sys.setrecursionlimit(limit)
        # the text of the 60-gate chain inside it is exactly what json.dumps writes
        inner = obj["root"]
        for _ in range(1500 - 60):
            inner = inner["children"][0]
        assert written(inner) == dumps(inner)
