import json
import subprocess
import sys

import pytest

import zdgraph.cli
import zdgraph.expr
import zdgraph.report
import zdgraph.rings
import zdgraph.semigroups
import zdgraph.theorems
from zdgraph.cli import main

from table_rings import draw_permutation, relabelled_table_text, upper_triangular


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
    assert main(["analyze", "M3(M2(Z7))"]) == 1
    assert "size cap" in capsys.readouterr().err


def test_analyze_cap_applies_to_cyclic_ring(capsys):
    assert main(["analyze", "Z12", "--cap", "10"]) == 1
    assert "size cap" in capsys.readouterr().err


def test_verify_zn_checks_the_cap_before_building(monkeypatch, capsys):
    monkeypatch.setenv("ZDGRAPH_CAP", "10")
    assert main(["verify", "zn", "--max", "10"]) == 0
    assert capsys.readouterr().out.endswith("9 instances, 0 failing checks\n")

    def no_build(n):
        raise AssertionError(f"make_cyclic_ring({n}) called for an over-cap --max")

    monkeypatch.setattr(zdgraph.expr, "make_cyclic_ring", no_build)
    assert main(["verify", "zn", "--max", "12"]) == 1
    assert "size cap" in capsys.readouterr().err
    monkeypatch.delenv("ZDGRAPH_CAP")
    assert main(["verify", "zn", "--max", "30000"]) == 1
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
    "body, message",
    [
        ("two\n0 1\n1 0\n0 0\n0 1\n", "non-integer token in table file"),
        ("0\n", "declared order must be a positive integer"),
        ("-2\n0 1\n1 0\n0 0\n0 1\n", "declared order must be a positive integer"),
        ("2\n1 1\n1 1\n0 0\n0 1\n", "no additive identity element found"),
    ],
    ids=["order-not-an-integer", "order-zero", "order-negative", "no-additive-identity"],
)
def test_bad_table_header_or_identity_is_a_user_error(tmp_path, capsys, body, message):
    path = tmp_path / "bad.txt"
    path.write_text(body)
    assert main(["analyze", f"T({path})"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("zdgraph: error:") and message in err


def test_a_split_route_that_fails_on_a_ring_is_an_internal_error(monkeypatch, capsys, tmp_path):
    # Z2 x Z3 from a table file, with a split whose phi sends two pairs to
    # one element: the split route fails, the direct route accepts the ring
    ring = zdgraph.expr.build_ring(zdgraph.expr.parse_ring_expr("Z2 x Z3"))
    path = tmp_path / "z6.txt"
    path.write_text(relabelled_table_text(ring, draw_permutation(ring.order, 5)))
    a, b, phi = zdgraph.rings.load_table_ring(path.read_text()).split
    collapsed = phi.copy()
    collapsed[1] = collapsed[0]
    monkeypatch.setattr(zdgraph.rings.FiniteRing, "split", property(lambda r: (a, b, collapsed)))
    with pytest.raises(RuntimeError, match="failed the split route, yet the direct route accepts it"):
        zdgraph.rings.load_table_ring(path.read_text())
    assert main(["analyze", f"T({path})"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("zdgraph: internal error: RuntimeError: validate_ring: table-ring-6 failed")
    assert err.endswith(" (in rings.validate_ring)\n")


@pytest.mark.parametrize(
    "error",
    [
        zdgraph.semigroups.ClosureViolationError("product escapes the collection"),
        zdgraph.semigroups.SemigroupValidationError("associativity", (1, 2, 3), "not associative"),
        ValueError("an unexpected value deep in the pipeline"),
        RuntimeError("internal: constructed path [1, 2] is degenerate"),
    ],
)
def test_internal_invariant_failure_exits_three(monkeypatch, capsys, error):
    def broken_build_ipo(*args, **kwargs):
        raise error

    monkeypatch.setattr(zdgraph.theorems, "build_ipo", broken_build_ipo)
    assert main(["analyze", "Z6"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"zdgraph: internal error: {type(error).__name__}: {error}")
    # the stage is the innermost zdgraph frame: the caller of the patched-in function
    assert err.endswith(" (in theorems._ideals_and_ipo)\n")
    assert main(["verify", "zn", "--max", "3"]) == 3
    assert capsys.readouterr().err.endswith(" (in theorems._ideals_and_ipo)\n")


def test_ideal_enumeration_without_the_ring_exits_three(monkeypatch, capsys):
    # Z4 without R: build_ipo names the pool member 2Z4, which no pool pair
    # produces, as an internal error
    enumerate_ideals = zdgraph.theorems.enumerate_one_sided_ideals

    def without_ring(r, side):
        return [i for i in enumerate_ideals(r, side) if i.bits != (1 << r.order) - 1]

    monkeypatch.setattr(zdgraph.theorems, "enumerate_one_sided_ideals", without_ring)
    assert main(["analyze", "Z4"]) == 3
    err = capsys.readouterr().err
    message = (
        "the two-sided ideal with right generator 2 and 2 elements is among the enumerated "
        "one-sided ideals, but is not the product of any two of them"
    )
    assert err.startswith(f"zdgraph: internal error: ClosureViolationError: {message}")
    assert err.endswith(" (in semigroups.build_ipo)\n")


@pytest.mark.parametrize(
    "size, two_sided, message",
    [(16, True, "a left first or a right second factor"), (4, False, "a right second factor")],
    ids=["two-sided-L*K", "minimal-right"],
)
def test_incomplete_ideal_enumeration_exits_three(monkeypatch, capsys, tmp_path, size, two_sided, message):
    # M2(Z2) x Z2 without its two-sided ideal M2(Z2) x 0, or without a minimal
    # right ideal: build_ipo's closure check raises, and that is an internal error;
    # the ring is read from a table file that is not split, since a ring that
    # splits is composed from its factors' lists and never enumerated itself
    monkeypatch.setattr(zdgraph.rings.FiniteRing, "split", None)
    enumerate_ideals = zdgraph.theorems.enumerate_one_sided_ideals
    product = zdgraph.expr.build_ring(zdgraph.expr.parse_ring_expr("M2(Z2) x Z2"))
    path = tmp_path / "m2z2xz2.txt"
    path.write_text(relabelled_table_text(product, range(product.order)))
    ring = zdgraph.rings.load_table_ring(path.read_text())
    drop = next(
        i.bits
        for i in enumerate_ideals(ring, "right")
        if len(i.set) == size and i.is_left == two_sided
    )

    def incomplete(r, side):
        return [i for i in enumerate_ideals(r, side) if i.bits != drop]

    monkeypatch.setattr(zdgraph.theorems, "enumerate_one_sided_ideals", incomplete)
    assert main(["analyze", f"T({path})"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("zdgraph: internal error: ClosureViolationError:") and message in err
    assert err.endswith(" (in semigroups.build_ipo)\n")
    # the message names both factors of the witness by generator and size
    with pytest.raises(zdgraph.semigroups.ClosureViolationError) as info:
        zdgraph.semigroups.build_ipo(ring, incomplete(ring, "left"), incomplete(ring, "right"))
    first, second = info.value.witness
    assert len(first.generators) == len(second.generators) == 1
    named = [f" generator {f.generators[0]} and {len(f.set)} elements" for f in (first, second)]
    assert named[0] in err and named[1] in err.split(named[0], 1)[1]


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


def test_analyze_refuses_dot_to_stdout(tmp_path, monkeypatch, capsys):
    # refused before any ring is built, and no file named "-" appears
    def no_build(*args, **kwargs):
        raise AssertionError("build_ring called for a refused --dot")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(zdgraph.cli, "build_ring", no_build)
    assert main(["analyze", "Z6", "--dot", "-"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and "--dot takes a file path" in err
    assert list(tmp_path.iterdir()) == []


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


def test_verify_semigroups_order_4_prints_only_the_summary(capsys):
    assert main(["verify", "semigroups", "--order", "4"]) == 0
    assert capsys.readouterr().out == "order 4: 442 semigroups with zero, 0 failing checks\n"


def test_verify_semigroups_names_a_failing_check(monkeypatch, capsys):
    # no semigroup fails a check, so fake one to verify the failure line
    def failing_checks(g, ann):
        return [zdgraph.report.CheckResult("girth_bound", "fail", {"girth": 5})]

    monkeypatch.setattr(zdgraph.cli, "semigroup_checks", failing_checks)
    assert main(["verify", "semigroups", "--order", "2"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "semigroup #1: girth_bound FAILED: {'girth': 5}"
    assert out[-1] == f"order 2: {len(out) - 1} semigroups with zero, {len(out) - 1} failing checks"


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


@pytest.mark.parametrize("command", ["analyze", "parse"])
def test_an_over_long_literal_is_a_user_error(capsys, command):
    # int() refuses a literal of over 4300 digits: bad input, not a bug
    assert main([command, "Z" + "9" * 5000]) == 1
    assert capsys.readouterr().err.startswith("zdgraph: error: syntax error at offset 1")


def test_ten_thousand_factors_are_a_user_error(capsys):
    # the order is checked factor by factor, not formatted at 4772 digits
    assert main(["analyze", " x ".join(["Z3"] * 10000)]) == 1
    assert capsys.readouterr().err == "zdgraph: error: ring of order 59049 exceeds the size cap of 25000\n"


def test_analyze_does_not_import_numpy_ma(tmp_path):
    # numpy imports numpy.ma lazily, at the first np.unique; the pipeline needs
    # none of it, and a fresh process would pay for the import.  The table
    # rings: U2(Z4), whose ideals are not all principal, so build_ipo takes
    # spans, and Z2 x Z2 x Z7, split at its central idempotents
    probe = [sys.executable, "-c", "import sys, numpy; print('numpy.ma' in sys.modules)"]
    if subprocess.run(probe, capture_output=True, text=True).stdout == "True\n":
        pytest.skip("import numpy alone loads numpy.ma")
    split = zdgraph.expr.build_ring(zdgraph.expr.parse_ring_expr("Z2 x Z2 x Z7"))
    paths = []
    for name, ring in (("u2z4", upper_triangular(4)), ("z2xz2xz7", split)):
        paths.append(tmp_path / f"{name}.tbl")
        paths[-1].write_text(relabelled_table_text(ring, draw_permutation(ring.order, 7)))
    script = (
        "import contextlib, io, sys\n"
        "from zdgraph.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['analyze', e]) for e in sys.argv[1:]]\n"
        "print(codes, 'numpy.ma' in sys.modules)\n"
    )
    args = [sys.executable, "-c", script, *(f"T({path})" for path in paths), "M2(Z6)"]
    proc = subprocess.run(args, capture_output=True, text=True)
    assert proc.stdout == "[0, 0, 0] False\n", proc.stderr
