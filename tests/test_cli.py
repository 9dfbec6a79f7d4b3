import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import a2zeta
from a2zeta import cli
from a2zeta.errors import A2ZetaError
from a2zeta.fileio import (
    parse_complex,
    parse_graph,
    parse_matrix,
    parse_presentation,
    serialize_graph,
)
from a2zeta.gf import GF
from a2zeta.graphs import complete_graph, petersen_graph
from conftest import bundled_text

# The CLI subprocess imports the same package as the tests, installed or not.
PACKAGE_ROOT = str(Path(a2zeta.__file__).resolve().parent.parent)
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "a2zeta.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture(scope="module")
def cx_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("data") / "bundled.cx3"
    p.write_text(bundled_text("bundled_q2.cx3"))
    return str(p)


@pytest.fixture(scope="module")
def corrupted_path(tmp_path_factory, cx_path):
    # drop the last chamber and fix the count so the file still parses
    lines = Path(cx_path).read_text().splitlines()
    assert lines[-1].startswith("chamber ")
    lines = ["chambers 20" if ln.startswith("chambers ") else ln for ln in lines[:-1]]
    p = tmp_path_factory.mktemp("data") / "corrupted.cx3"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_validate_pass(cx_path):
    code, out, _ = run_cli("validate", cx_path)
    assert code == 0
    assert "result: pass" in out


def test_validate_corrupted_exit_1(corrupted_path):
    code, out, _ = run_cli("validate", corrupted_path)
    assert code == 1
    assert "FAIL" in out


def test_check_identity_exit_codes(cx_path):
    code, out, _ = run_cli("check", "identity", cx_path)
    assert code == 0 and "identity: pass" in out


def test_check_identity_corrupted(corrupted_path):
    code, _, err = run_cli("check", "identity", corrupted_path)
    assert code == 1
    assert "validation failure" in err


def test_stdout_deterministic(cx_path):
    a = run_cli("check", "section9", cx_path, "--degree", "9")
    b = run_cli("check", "section9", cx_path, "--degree", "9")
    assert a == b


def test_records_format(cx_path):
    code, out, _ = run_cli("validate", cx_path, "--format", "records")
    assert code == 0
    assert all(":" not in line.split()[0] for line in out.splitlines() if line)


def test_usage_error_exit_2():
    code, _, _ = run_cli("zeta")
    assert code == 2
    code, _, err = run_cli("validate", "/nonexistent/file.cx3")
    assert code == 2


@pytest.mark.parametrize(
    "case",
    [
        "directory",
        "bare_q_line",
        "length_zero",
        "gallery_length_1",
        "gallery_length_2",
        "section9_negative_degree",
        "tamagawa_negative_degree",
        "satake_negative_degree",
        "search_negative_limit",
        "satake_q_0",
        "satake_q_1",
        "jobs_0",
        "jobs_negative",
        "relpos_bad_exponent",
        "lcan_bad_term",
        "graph_tol_zero",
        "graph_tol_negative",
        "graph_tol_nan",
        "graph_tol_inf",
    ],
)
def test_bad_input_exit_2_without_traceback(case, tmp_path, cx_path):
    bare_q = tmp_path / "bare_q.cx3"
    bare_q.write_text("a2complex v1\nq\n")
    bad_exponent = tmp_path / "bad_exponent.mat"
    bad_exponent.write_text("1 0 0\n0 t^ 0\n0 0 1\n")
    bad_term = tmp_path / "bad_term.mat"
    bad_term.write_text("1 0 0\n0 1 0\n0 0 x\n")
    petersen = tmp_path / "petersen.graph"
    petersen.write_text(serialize_graph(petersen_graph()))
    argv = {
        "directory": ["validate", str(tmp_path)],
        "bare_q_line": ["validate", str(bare_q)],
        "length_zero": ["enumerate", "galleries", cx_path, "--length", "0"],
        "gallery_length_1": ["enumerate", "galleries", cx_path, "--length", "1"],
        "gallery_length_2": ["enumerate", "galleries", cx_path, "--length", "2"],
        "section9_negative_degree": ["check", "section9", cx_path, "--degree", "-1"],
        "tamagawa_negative_degree": [
            "building", "tamagawa", "--q", "2", "--degree", "-1", "--radius", "1"
        ],
        "satake_negative_degree": ["satake", "verify", "--q", "2", "--degree", "-1"],
        "search_negative_limit": ["tp", "search", "--q", "2", "--limit", "-1"],
        "satake_q_0": ["satake", "verify", "--q", "0", "--degree", "2"],
        "satake_q_1": ["satake", "verify", "--q", "1", "--degree", "2"],
        "jobs_0": ["enumerate", "geodesics", cx_path, "--length", "3", "--jobs", "0"],
        "jobs_negative": ["enumerate", "geodesics", cx_path, "--length", "3", "--jobs", "-3"],
        "relpos_bad_exponent": [
            "building", "relpos", "--q", "2",
            "--left", str(bad_exponent), "--right", str(bad_exponent),
        ],
        "lcan_bad_term": ["building", "lcan", "--q", "2", "--matrix", str(bad_term)],
        "graph_tol_zero": ["graph", "check", str(petersen), "--tol", "0"],
        "graph_tol_negative": ["graph", "check", str(petersen), "--tol", "-1"],
        "graph_tol_nan": ["graph", "check", str(petersen), "--tol", "nan"],
        "graph_tol_inf": ["graph", "check", str(petersen), "--tol", "inf"],
    }[case]
    code, _, err = run_cli(*argv)
    assert code == 2
    assert "Traceback" not in err


def test_lcan_names_the_bad_term_as_written(tmp_path):
    path = tmp_path / "negative_exponent.mat"
    path.write_text("1 0 0\n0 1+t^-1 0\n0 0 1\n")
    code, _, err = run_cli("building", "lcan", "--q", "2", "--matrix", str(path))
    assert code == 2
    assert "line 2: bad polynomial term 't^-1'" in err
    assert "Traceback" not in err


def test_satake_cli():
    code, out, _ = run_cli("satake", "verify", "--q", "2", "--degree", "4")
    assert code == 0
    assert "recursion: pass" in out and "sigma3: pass" in out


def test_graph_cli(tmp_path):
    gpath = tmp_path / "k4.graph"
    gpath.write_text(serialize_graph(complete_graph(4)))
    code, out, _ = run_cli("graph", "zeta", str(gpath))
    assert code == 0 and "forms_agree: pass" in out
    code, out, _ = run_cli("graph", "check", str(gpath))
    assert code == 0 and "verdict: RAMANUJAN" in out


@pytest.mark.parametrize("vertices", [1, 2])
def test_graph_check_on_edgeless_graph_exits_2(vertices, tmp_path):
    """Valency 0 is bad input: one error line, no nan bound or numpy warning."""
    gpath = tmp_path / "edgeless.graph"
    gpath.write_text(f"graph v1\nvertices {vertices}\n")
    for command in ("check", "zeta"):
        code, out, err = run_cli("graph", command, str(gpath))
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Warning" not in err


def main_in_process(argv):
    """cli.main(argv) in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue()


def test_repeated_main_calls_match_fresh_processes(cx_path, tmp_path):
    """main() calls in one process share one parser, and each prints what a
    fresh process prints: no option value of one call reaches the next."""
    petersen = tmp_path / "petersen.graph"
    petersen.write_text(serialize_graph(petersen_graph()))
    records = ["--format", "records"]
    sequence = [
        ["check", "ramanujan", cx_path, "--tol", "1e-5", *records],
        ["check", "ramanujan", cx_path, *records],
        ["check", "ramanujan", cx_path, "--tol"],
        ["zeta", cx_path, "--which", "edge", *records],
        ["graph", "check", str(petersen), *records],
    ]
    results = [main_in_process(argv) for argv in sequence]
    assert "tol 1e-05" in results[0][1].splitlines()
    assert "tol 1e-06" in results[1][1].splitlines()
    assert [code for code, _ in results] == [0, 0, 2, 0, 0]
    for argv, result in zip(sequence, results):
        assert run_cli(*argv)[:2] == result
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert parser.parse_args(["graph", "check", str(petersen)]).tol == 1e-9
    assert parser.parse_args(["check", "ramanujan", cx_path]).tol == 1e-6


def test_enumerate_cli(cx_path):
    code, out, _ = run_cli("enumerate", "geodesics", cx_path, "--length", "3")
    assert code == 0 and "geodesics: 147" in out
    code, out, _ = run_cli(
        "enumerate", "galleries", cx_path, "--length", "6", "--boundary-check"
    )
    assert code == 0 and "galleries: 189" in out and "boundary_check: pass" in out


@pytest.mark.parametrize(
    "argv",
    [["geodesics"], ["galleries"], ["galleries", "--boundary-check"]],
    ids=["geodesics", "galleries", "boundary_check"],
)
def test_enumerate_over_budget_exits_2(cx_path, argv):
    code, _, err = run_cli("enumerate", argv[0], cx_path, "--length", "20000", *argv[1:])
    assert code == 2
    assert "DFS budget of 10000000 nodes exceeded" in err
    assert "Traceback" not in err


def test_operators_cli(cx_path, tmp_path):
    code, out, _ = run_cli("operators", cx_path, "--out", str(tmp_path / "ops"))
    assert code == 0
    content = (tmp_path / "ops" / "a1.mat").read_text()
    assert content.startswith("sparse 3 3 3")


def test_building_cli_tamagawa():
    code, out, _ = run_cli(
        "building", "tamagawa", "--q", "2", "--degree", "2", "--radius", "3"
    )
    assert code == 0 and "tamagawa: pass" in out


def test_building_cli_ball_adjacency():
    code, out, _ = run_cli(
        "building", "ball", "--q", "2", "--radius", "1", "--adjacency"
    )
    assert code == 0
    assert "sphere.0: 1" in out and "sphere.1: 14" in out
    triplets = [ln for ln in out.splitlines() if ln and ln[0].isdigit()]
    # 15 vertices, only the base expanded: 7 type-1 + 7 type-2 rows
    assert len(triplets) == 14
    assert all(len(ln.split()) == 3 for ln in triplets)


def test_zeta_cli_variants(cx_path):
    code, out, _ = run_cli("zeta", cx_path, "--which", "minus")
    assert code == 0 and "Zminus.num" in out and "Zminus.den" in out
    code, out, _ = run_cli("zeta", cx_path, "--which", "edge")
    assert code == 0 and out.startswith("Z1.den: poly 21:")
    code, out, _ = run_cli("zeta", cx_path, "--which", "gallery")
    assert code == 0 and "Z2.den" in out


def test_tp_build_round_trip(tmp_path):
    code, out, _ = run_cli(
        "tp", "search", "--q", "2", "--limit", "1", "--out", str(tmp_path)
    )
    assert code == 0 and "found: 1" in out
    tp_file = next(tmp_path.glob("*.tp"))
    code, out, _ = run_cli("tp", "build", str(tp_file), "--out", str(tmp_path / "c.cx3"))
    assert code == 0
    assert (tmp_path / "c.cx3").read_text() == bundled_text("bundled_q2.cx3")


@st.composite
def mutated(draw, text):
    """text after one to three line deletions, truncations or token swaps."""
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["delete", "truncate", "swap"]))
        if kind == "delete":
            lines = text.splitlines(keepends=True)
            if lines:
                del lines[draw(st.integers(0, len(lines) - 1))]
            text = "".join(lines)
        elif kind == "truncate":
            text = text[: draw(st.integers(0, len(text)))]
        else:
            toks = re.split(r"(\s+)", text)
            words = [i for i, tok in enumerate(toks) if tok and not tok.isspace()]
            if words:
                i, j = draw(st.sampled_from(words)), draw(st.sampled_from(words))
                toks[i], toks[j] = toks[j], toks[i]
            text = "".join(toks)
    return text


FUZZ_INPUTS = {
    "validate": (["validate"], bundled_text("bundled_q2.cx3"), parse_complex),
    "check_identity": (["check", "identity"], bundled_text("bundled_q2.cx3"), parse_complex),
    "tp_build": (["tp", "build"], bundled_text("bundled_q2.tp"), parse_presentation),
    "graph_zeta": (["graph", "zeta"], serialize_graph(petersen_graph()), parse_graph),
    "building_lcan": (
        ["building", "lcan", "--q", "3", "--matrix"],
        "1+t 2t^2 0\n0 t 1+2t\nt^3 0 1\n",
        lambda text: parse_matrix(text, GF(3)),
    ),
}


def parses(parse, text):
    try:
        parse(text)
    except A2ZetaError:
        return False
    return True


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.mark.parametrize("command", sorted(FUZZ_INPUTS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_input_keeps_exit_code_contract(command, fuzz_dir, data):
    """A damaged input file never escapes cli.main as an exception, always
    exits 0, 1 or 2, and exits 1 (a failed check) only when it parses."""
    argv, text, parse = FUZZ_INPUTS[command]
    text = data.draw(mutated(text))
    path = fuzz_dir / "input"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, str(path)])
    assert code in (0, 1, 2)
    if code == 1:
        assert parses(parse, text)
