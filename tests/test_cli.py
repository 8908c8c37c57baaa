import hashlib
import json

import pytest

from schurkit.cli import main


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

    def test_budget_covers_the_pipeline_expansions(self, capsys):
        # the input formula alone expands to 101 terms
        code, out, err = run(capsys, "reduce", "--lambda", "3,2", "--n", "5", "--budget", "100")
        assert code == 4
        assert out == ""
        assert err.startswith("error:") and "100 terms" in err

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
#: representation changed; the outputs must stay byte-identical
README_DIGESTS = {
    "reduce-det": "432ca6f014d2612f3b873dcebe509a0c3bce8641690c53944012d47f252ac600",
    "reduce-report": "fe3914b00ab354cb31d1b617d08c6d502ba487c61c564beca05a89bb70a149b8",
    "witness-h-6": "8b15693abb9bb66f832c8089b9e53578861333279cdb2e1ddc16126f18d026ae",
    "witness-shifted-4": "728e5da5d13a707cd27fe74ded000b352c7b3c2ea4e1f198776efebc16763693",
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
        poly_file.write_text("1*x1^2 + 1*x2")
        code, out, _ = run(capsys, "pdc", "--input", str(poly_file))
        assert code == 0
        assert json.loads(out)["dimension"] >= 3

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


class TestConvertCommand:
    def test_e_to_h(self, capsys):
        code, out, _ = run(capsys, "convert", "--e-to-h", "--k", "2")
        assert code == 0
        assert out.strip() == "1*h1^2 + -1*h2"

    def test_e_to_p(self, capsys):
        code, out, _ = run(capsys, "convert", "--e-to-p", "--k", "2")
        assert code == 0
        assert out.strip() == "1/2*p1^2 + -1/2*p2"

    def test_to_e_basis(self, capsys, tmp_path):
        poly_file = tmp_path / "p.txt"
        poly_file.write_text("1*x1^2 + 1*x2^2")
        code, out, _ = run(capsys, "convert", "--to-e-basis", "--input", str(poly_file))
        assert code == 0
        assert out.strip() == "1*e1^2 + -2*e2"


class TestBenchCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--suite", "schur-routes", "--max-weight", "2", "--n", "3")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda,n,route,size,depth,millis"
        # 3 partitions of weight <= 2, 4 routes each
        assert len(lines) == 1 + 3 * 4

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "bench", "--suite", "nope")
        assert code == 1
        assert "unknown suite" in err


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
