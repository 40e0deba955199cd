import io
import json
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import arbitrary_graphs
from safesets.cli import main
from safesets.graph import Graph
from safesets.graph6 import to_graph6


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    return code, json.loads(out)


class TestSolve:
    def test_c4_unit(self, capsys):
        code, obj = run_json(capsys, "solve", "--graph6", "Cl",
                             "--weights", "[1, 1, 1, 1]")
        assert code == 0
        assert obj["s"] == "2" and obj["cs"] == "2"
        assert obj["minimumSafeSet"] == [0, 1]

    def test_weight_dict_and_fractions(self, capsys):
        weights = json.dumps(
            {"weights": ["1/2", "1/2", "1/3", "1/3", "1/3"]})
        code, obj = run_json(capsys, "solve", "--graph6", "D]o",
                             "--weights", weights)
        assert code == 0
        assert obj["s"] == "1"

    def test_all_minima(self, capsys):
        code, obj = run_json(capsys, "solve", "--graph6", "Cl",
                             "--weights", "[1, 1, 1, 1]", "--all-minima")
        assert code == 0
        assert obj["allMinimumSafeSets"] == [
            [0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]
        assert obj["allMinimumConnectedSafeSets"] == [
            [0, 1], [0, 3], [1, 2], [2, 3]]

    def test_weights_file(self, capsys, tmp_path):
        path = tmp_path / "w.json"
        path.write_text("[3, 3, 1, 2, 2]")
        code, obj = run_json(capsys, "solve", "--graph6", "DhC",
                             "--weights-file", str(path))
        assert code == 0
        assert obj["s"] == "4" and obj["cs"] == "4"

    def test_missing_weights(self, capsys):
        code, _, err = run(capsys, "solve", "--graph6", "Cl")
        assert code == 2
        assert "error:" in err and "weights" in err

    def test_wrong_weight_count(self, capsys):
        code, _, err = run(capsys, "solve", "--graph6", "Cl",
                           "--weights", "[1, 1]")
        assert code == 2
        assert "4" in err

    def test_bad_graph6(self, capsys):
        code, _, err = run(capsys, "solve", "--graph6", "Cé",
                           "--weights", "[1, 1, 1, 1]")
        assert code == 2
        assert "error:" in err

    def test_bad_json(self, capsys):
        code, _, err = run(capsys, "solve", "--graph6", "Cl",
                           "--weights", "[1, 1, 1")
        assert code == 2
        assert "line 1" in err

    @pytest.mark.parametrize("bad", ["0.1", "true", "null", "{}"])
    def test_inexact_or_malformed_weight(self, capsys, bad):
        code, out, err = run(capsys, "solve", "--graph6", "Cl",
                             "--weights", f"[{bad}, 1, 1, 1]")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestRecognize:
    def test_k33_minus_edge(self, capsys):
        code, obj = run_json(capsys, "recognize", "--graph6", "EBz_")
        assert code == 0
        assert obj["verdict"] == "MEMBER"
        assert obj["family"] == "K33_MINUS_EDGE"

    def test_undecided(self, capsys):
        # Petersen graph
        code, obj = run_json(capsys, "recognize", "--graph6", "IheA@GUAo")
        assert code == 0
        assert obj["verdict"] == "UNDECIDED"

    def test_complete_62(self, capsys):
        code, obj = run_json(capsys, "recognize", "--graph6",
                             to_graph6(Graph.complete(62)))
        assert code == 0
        assert obj["reason"] == "dominating-clique"


class TestWitnessAndVerify:
    def test_member_reports_unknown(self, capsys):
        code, obj = run_json(capsys, "witness", "--graph6", "EhEG")
        assert code == 0
        assert obj == {"schemaVersion": 1, "graph6": "EhEG",
                       "result": "unknown"}

    def test_witness_roundtrips_through_verify(self, capsys, tmp_path):
        code, cert = run_json(capsys, "witness", "--graph6", "D]o")
        assert code == 0
        assert cert["pattern"] == "KMN"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, obj = run_json(capsys, "verify-certificate", "--input",
                             str(path))
        assert code == 0
        assert obj["ok"] is True and obj["problems"] == []

    def test_tampered_certificate_fails(self, capsys, tmp_path):
        code, cert = run_json(capsys, "witness", "--graph6", "D]o")
        assert code == 0
        cert["s"] = "1"
        path = tmp_path / "cert.json"
        path.write_text(json.dumps(cert))
        code, obj = run_json(capsys, "verify-certificate", "--input",
                             str(path))
        assert code == 1
        assert obj["ok"] is False and obj["problems"]

    def test_witness_order_limit(self, capsys):
        code, out, err = run(capsys, "witness", "--graph6",
                             to_graph6(Graph.path(21)))
        assert (code, out) == (2, "")
        assert err == "error: certification limited to order 20\n"

    def test_malformed_certificate(self, capsys, tmp_path):
        path = tmp_path / "cert.json"
        path.write_text("{\"graph6\": \"Cl\"}")
        code, _, err = run(capsys, "verify-certificate", "--input", str(path))
        assert code == 2
        assert "error:" in err


class TestContract:
    def test_vertex_set_form(self, capsys):
        code, obj = run_json(capsys, "contract", "--graph6", "DhC",
                             "--json", '{"s": [1, 3]}')
        assert code == 0
        assert obj["bags"] == [[1], [3], [0], [2], [4]]
        assert obj["inS"] == [True, True, False, False, False]

    def test_bags_form_with_lift(self, capsys):
        code, obj = run_json(
            capsys, "contract", "--graph6", "EhEG",
            "--json", '{"bags": [[0], [3], [1, 2], [4, 5]]}',
            "--weights", "[1, 2, 3, 4, 5, 6]")
        assert code == 0
        # the quotient joins 0 and 1 to both merged parts: C4 relabeled
        assert obj["quotientGraph6"] == "C]"
        assert obj["inS"] is None
        assert obj["liftedWeights"] == ["1", "4", "5", "11"]

    def test_needs_s_or_bags(self, capsys):
        code, _, err = run(capsys, "contract", "--graph6", "Cl",
                           "--json", "{}")
        assert code == 2
        assert "'s' or a 'bags'" in err


class TestCampaign:
    def test_input_file_with_outputs(self, capsys, tmp_path):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text("DhC\nCl\n")
        out = tmp_path / "report.json"
        csv_path = tmp_path / "report.csv"
        code, _, err = run(capsys, "campaign", "--input", str(graphs),
                           "--out", str(out), "--csv", str(csv_path),
                           "--samples", "5")
        assert code == 0
        assert "campaign: 2 graphs, 0 failures" in err
        report = json.loads(out.read_text())
        assert report["counts"] == {
            "graphs": 2, "members": 1, "nonMembers": 1, "undecided": 0,
            "certificates": 1, "failures": 0,
            "bipartite": 2, "chordal": 1, "triangleFree": 2}
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 3

    def test_stdout_report(self, capsys, tmp_path):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text("Cl\n")
        code, out, _ = run(capsys, "campaign", "--input", str(graphs),
                           "--samples", "2")
        assert code == 0
        assert json.loads(out)["counts"]["graphs"] == 1

    def test_unreadable_input(self, capsys, tmp_path):
        code, _, err = run(capsys, "campaign", "--input",
                           str(tmp_path / "missing.g6"))
        assert code == 2
        assert "cannot read" in err

    def test_bad_order(self, capsys):
        code, _, err = run(capsys, "campaign", "--max-order", "99")
        assert code == 2
        assert "between 1 and 8" in err

    def test_input_above_solver_limit(self, capsys, tmp_path):
        graphs = tmp_path / "graphs.g6"
        graphs.write_text(f"Cl\n{to_graph6(Graph.complete(30))}\n")
        code, out, err = run(capsys, "campaign", "--input", str(graphs),
                             "--samples", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: input graph ") and err.count("\n") == 1
        assert "order 30, above the solver limit 24" in err

    def test_zero_jobs(self, capsys):
        code, _, err = run(capsys, "campaign", "--max-order", "3",
                           "--jobs", "0")
        assert code == 2
        assert "jobs must be at least 1" in err


def _certificate(**changes) -> str:
    cert = {"schemaVersion": 1, "graph6": "D]o", "pattern": "KMN",
            "params": None, "weights": ["1"] * 5, "s": "2", "cs": "3",
            "minimumSafeSet": [0, 1],
            "match": {"pattern": "KMN",
                      "bags": [[0], [1], [2], [3], [4]],
                      "params": {"m": 2, "n": 3, "z_index": None}}}
    cert.update(changes)
    return json.dumps(cert)


class TestMalformedShapes:
    """Malformed vertex sets and certificate fields: exit 2, one error line."""

    @pytest.mark.parametrize("request_json", [
        '{"s": ["a"]}',
        '{"s": 3}',
        '{"s": [1.5]}',
        '{"s": [true]}',
        '{"s": [62]}',
        '{"bags": [[0, 1], "x"]}',
        '{"bags": [[0, 1], [2, 3.0]]}',
    ])
    def test_contract(self, capsys, request_json):
        self._check(run(capsys, "contract", "--graph6", "Cl",
                        "--json", request_json))

    @pytest.mark.parametrize("field,value", [
        ("weights", 5),
        ("graph6", 5),
        ("params", 5),
        ("minimumSafeSet", 5),
        ("minimumSafeSet", ["a"]),
        ("pattern", []),
        ("pattern", 5),
        ("match", {"pattern": "KMN", "bags": [[0], [1], [2], [3], [4]],
                   "params": {"m": "x", "n": 3}}),
    ])
    def test_verify_certificate(self, capsys, monkeypatch, field, value):
        monkeypatch.setattr("sys.stdin", io.StringIO(_certificate(**{field: value})))
        self._check(run(capsys, "verify-certificate"))

    @staticmethod
    def _check(result):
        code, out, err = result
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


_ATOMS = (st.none() | st.booleans() | st.integers() | st.floats()
          | st.text(max_size=6) | st.from_regex(r" ?-?\d{1,3}(/\d{1,2})?", fullmatch=True))
_JSON = st.recursive(
    _ATOMS,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=3)),
    max_leaves=8,
)
# graph6 strings of order 0-7, connected or not, and arbitrary bytes
_GRAPH6 = (arbitrary_graphs(min_order=0, max_order=7).map(to_graph6)
           | st.binary(max_size=12).map(lambda b: b.decode("latin-1")))
_VERTICES = st.lists(st.integers(-1, 4), max_size=5)
_CERT_FIELDS = ("schemaVersion", "graph6", "pattern", "params", "weights", "s",
                "cs", "minimumSafeSet", "match")


def _run_in_process(argv, stdin=""):
    """main() with captured streams; the exit code must be 0, 1 or 2, and
    exit 2 must write exactly one error line and nothing to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), \
            mock.patch("sys.stdin", io.StringIO(stdin)):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
        assert err.getvalue().count("\n") == 1
    else:
        json.loads(out.getvalue())
    return code


class TestFuzz:
    """Generated input through the in-process CLI: never a traceback."""

    @settings(max_examples=100)
    @given(st.sampled_from(("--weights",) + _CERT_FIELDS),
           _JSON | st.lists(_ATOMS, min_size=4, max_size=5))
    def test_generated_json(self, target, value):
        # solve's weights on C4, or one field of a valid KMN certificate;
        # "--weights=" keeps a value such as -Infinity from reading as a flag
        if target == "--weights":
            _run_in_process(["solve", "--graph6", "Cl",
                             "--weights=" + json.dumps(value)])
        else:
            _run_in_process(["verify-certificate"],
                            _certificate(**{target: value}))

    @settings(max_examples=60)
    @given(_GRAPH6)
    def test_generated_graph6(self, text):
        _run_in_process(["recognize", "--graph6=" + text])

    @settings(max_examples=60)
    @given(_JSON | st.fixed_dictionaries({}, optional={
        "s": _VERTICES | _JSON,
        "bags": st.lists(_VERTICES, max_size=5) | _JSON,
    }))
    def test_generated_contract_request(self, value):
        _run_in_process(["contract", "--graph6", "Cl", "--json=" + json.dumps(value)])

    @settings(max_examples=40)
    @given(_GRAPH6, st.integers(0, 3), st.integers(0, 50))
    def test_generated_witness(self, text, samples, budget):
        _run_in_process(["witness", "--graph6=" + text, "--samples", str(samples),
                         "--budget", str(budget)])

    @pytest.mark.parametrize("argv,stdin", [
        # integers past Python's 4300-digit conversion limit
        (["solve", "--graph6", "Cl", "--weights=[" + "1" * 5000 + ", 1, 1, 1]"], ""),
        (["solve", "--graph6", "Cl", "--weights", '["' + "1" * 5000 + '", 1, 1, 1]'], ""),
        (["verify-certificate"], _certificate(s="1" * 5000)),
    ], ids=["json-integer", "rational-string", "certificate-s"])
    def test_huge_integers(self, argv, stdin):
        assert _run_in_process(argv, stdin) == 2


class TestArgparseErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_graph6(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve"])
        assert exc.value.code == 2
