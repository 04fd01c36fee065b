import json
import subprocess
import sys

import pytest

import zdgraph.cli
import zdgraph.expr
import zdgraph.semigroups
import zdgraph.theorems
from zdgraph.cli import main


def test_analyze_json_stdout(capsys):
    assert main(["analyze", "Z12", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["expr"] == "Z12"
    assert report["girth"] == "inf"
    assert report["directed_diameter"] == 3
    assert report["ring_order"] == 12
    assert [c["status"] for c in report["checks"]].count("fail") == 0


def test_analyze_vacuous_field(capsys):
    assert main(["analyze", "Z5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["vertex_count"] == 0
    assert report["undirected_diameter"] is None


def test_analyze_capacity_error(monkeypatch, capsys):
    # the order is inferred from the expression: no matrix ring, not even
    # the 2401-element M2(Z7), is built before the cap rejects it
    def no_build(*args, **kwargs):
        raise AssertionError("make_matrix_ring called for an over-cap expression")

    monkeypatch.setattr(zdgraph.expr, "make_matrix_ring", no_build)
    monkeypatch.setattr(zdgraph.cli, "make_matrix_ring", no_build)
    assert main(["analyze", "M3(M2(Z7))"]) == 1
    assert "size cap" in capsys.readouterr().err


def test_analyze_cap_applies_to_cyclic_ring(capsys):
    assert main(["analyze", "Z12", "--cap", "10"]) == 1
    assert "size cap" in capsys.readouterr().err


def test_analyze_cap_applies_to_table_file(tmp_path, capsys):
    path = tmp_path / "z2.txt"
    path.write_text("2\n0 1\n1 0\n0 0\n0 1\n")
    assert main(["analyze", f"T({path})", "--cap", "1"]) == 1
    assert "size cap" in capsys.readouterr().err
    assert main(["analyze", f"T({path})", "--cap", "2"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "body",
    [b"\xff\xfe2\n", b"2\n0 1\n1 0\n0 0\n0 99999999999999999999999\n"],
    ids=["not-utf8", "int64-overflow"],
)
def test_bad_table_file_is_a_user_error(tmp_path, capsys, body):
    path = tmp_path / "bad.txt"
    path.write_bytes(body)
    assert main(["analyze", f"T({path})"]) == 1
    assert capsys.readouterr().err.startswith("zdgraph: error:")


@pytest.mark.parametrize(
    "error",
    [
        zdgraph.semigroups.ClosureViolationError("product escapes the collection"),
        zdgraph.semigroups.SemigroupValidationError("associativity", (1, 2, 3), "not associative"),
        ValueError("an unexpected value deep in the pipeline"),
        RuntimeError("internal: tournament test and witness scan disagree"),
    ],
)
def test_internal_invariant_failure_exits_three(monkeypatch, capsys, error):
    def broken_build_ipo(*args, **kwargs):
        raise error

    monkeypatch.setattr(zdgraph.theorems, "build_ipo", broken_build_ipo)
    assert main(["analyze", "Z6"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("zdgraph: internal error:") and str(error) in err
    assert main(["verify", "zn", "--max", "3"]) == 3


def test_analyze_parse_error(capsys):
    assert main(["analyze", "Z2 y Z3"]) == 1
    assert "syntax error" in capsys.readouterr().err


def test_analyze_matrix_runs_matrix_checks(capsys):
    assert main(["analyze", "M2(Z2)", "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    names = [c["check_name"] for c in report["checks"]]
    assert names[-3:] == ["matrix_diam_lower", "matrix_diam_monotone", "matrix_girth"]
    assert all(c["status"] == "pass" for c in report["checks"][-3:])


@pytest.mark.parametrize("expr", ["M2(Z1)", "M100000(Z1)"])
def test_analyze_matrix_over_the_zero_ring(expr, capsys):
    assert main(["analyze", expr, "--json", "-"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ring_order"] == 1
    assert {c["status"] for c in report["checks"][-3:]} == {"not-applicable"}


def test_analyze_writes_files(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    dot_path = tmp_path / "graph.dot"
    code = main(
        ["analyze", "Z6", "--json", str(json_path), "--dot", str(dot_path), "--dot-mode", "undirected"]
    )
    assert code == 0
    report = json.loads(json_path.read_text())
    assert report["complete"] is True
    dot = dot_path.read_text()
    assert dot.startswith("graph zd {") and '"{0,2,4}" -- "{0,3}"' in dot


def test_analyze_deterministic_outputs(tmp_path):
    outputs = []
    dots = []
    for i in range(2):
        json_path = tmp_path / f"r{i}.json"
        dot_path = tmp_path / f"g{i}.dot"
        assert main(["analyze", "Z12", "--json", str(json_path), "--dot", str(dot_path)]) == 0
        outputs.append(json_path.read_bytes())
        dots.append(dot_path.read_bytes())
    assert outputs[0] == outputs[1]
    assert dots[0] == dots[1]


def test_cap_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("ZDGRAPH_CAP", "100")
    assert main(["analyze", "M2(Z4)"]) == 1
    assert "size cap" in capsys.readouterr().err
    # explicit flag wins over the environment
    assert main(["analyze", "M2(Z4)", "--cap", "300", "--json", str(tmp_path / "r.json")]) == 0
    monkeypatch.setenv("ZDGRAPH_CAP", "not-a-number")
    assert main(["analyze", "Z6"]) == 1


def test_verify_zn(capsys):
    assert main(["verify", "zn", "--max", "12"]) == 0
    out = capsys.readouterr().out
    assert "Z12:" in out
    assert "11 instances, 0 failing checks" in out


def test_verify_zn_full_range(capsys):
    assert main(["verify", "zn", "--max", "60"]) == 0
    assert "59 instances, 0 failing checks" in capsys.readouterr().out


def test_verify_zn_usage(capsys):
    assert main(["verify", "zn", "--max", "1"]) == 1


def test_verify_semigroups(capsys):
    assert main(["verify", "semigroups", "--order", "3"]) == 0
    out = capsys.readouterr().out
    assert "20 semigroups with zero, 0 failing checks" in out


def test_verify_semigroups_order_cap(capsys):
    assert main(["verify", "semigroups", "--order", "5"]) == 1


def test_verify_list(tmp_path, capsys):
    listing = tmp_path / "family.txt"
    listing.write_text("Z6\n# comment line\nZ2 x Z2\nM2(Z2)\n")
    assert main(["verify", "list", "--file", str(listing)]) == 0
    out = capsys.readouterr().out
    assert "Z6:" in out and "Z2 x Z2:" in out and "M2(Z2):" in out
    assert "3 instances, 0 failing checks" in out


def test_verify_list_missing_file(capsys):
    assert main(["verify", "list", "--file", "/nonexistent/family.txt"]) == 1


def test_parse_subcommand(capsys):
    assert main(["parse", "M2(Z2 x Z3)"]) == 0
    out = capsys.readouterr().out
    assert out == "Matrix(k=2)\n  Product\n    Cyclic(2)\n    Cyclic(3)\n"


def test_parse_subcommand_error(capsys):
    assert main(["parse", "Z0"]) == 1
    assert "syntax error" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert main(["analyze"]) == 1
    assert main(["frobnicate"]) == 1


def test_check_failure_forces_exit_two(monkeypatch, capsys):
    # no real instance fails a check, so fake one to verify the exit wiring
    real_run_all = zdgraph.cli.run_all

    def failing_run_all(*args, **kwargs):
        report = real_run_all(*args, **kwargs)
        report.checks[0].status = "fail"
        return report

    monkeypatch.setattr(zdgraph.cli, "run_all", failing_run_all)
    assert main(["analyze", "Z6", "--json", "-"]) == 2
    capsys.readouterr()
    assert main(["verify", "zn", "--max", "3"]) == 2
    capsys.readouterr()


def test_determinism_across_processes(tmp_path):
    # separate interpreter runs rule out hash-randomisation leaks
    blobs = []
    for i in range(2):
        json_path = tmp_path / f"p{i}.json"
        dot_path = tmp_path / f"p{i}.dot"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "zdgraph",
                "analyze",
                "Z12",
                "--json",
                str(json_path),
                "--dot",
                str(dot_path),
            ],
            capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        blobs.append((json_path.read_bytes(), dot_path.read_bytes()))
    assert blobs[0] == blobs[1]
