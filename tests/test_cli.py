import contextlib
import io
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import a2zeta
from a2zeta import cli, graphs
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
from a2zeta.polyint import IntPoly
from conftest import bundled_text

# The CLI subprocess imports the same package as the tests, installed or not.
PACKAGE_ROOT = str(Path(a2zeta.__file__).resolve().parent.parent)
CLI_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")])),
}


def run_cli(*args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "a2zeta.cli", *args],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        timeout=timeout,
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
        "graph_tol_valid",
        "ramanujan_tol",
        "graph_negative_vertices",
        "complex_negative_vertices",
        "complex_negative_edges",
        "complex_negative_chambers",
        "search_huge_q",
        "build_huge_q",
        "build_triple_id_past_n",
        "build_triple_id_negative",
        "lcan_exponent_1025",
        "lcan_exponent_20_digits",
        "lcan_literal_past_digit_limit",
        "geodesic_past_vertex_cap",
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
    huge_q = tmp_path / "huge_q.tp"
    huge_q.write_text("trianglepres v1\nq 1000003\n")
    # the seed-0 q=2 presentation with point 1 of one rotation class of
    # triples replaced by an id outside 0..6
    bad_id = {}
    for name, x in [("past_n", 99), ("negative", -1)]:
        text = bundled_text("bundled_q2.tp")
        for old, new in [("0 2 1", f"0 2 {x}"), ("2 1 0", f"2 {x} 0"), ("1 0 2", f"{x} 0 2")]:
            assert f"triple {old}\n" in text
            text = text.replace(f"triple {old}\n", f"triple {new}\n")
        bad_id[name] = tmp_path / f"triple_id_{name}.tp"
        bad_id[name].write_text(text)
    long_terms = {
        "exponent_1025": "t^1025",
        "exponent_20_digits": "t^99999999999999999999",
        "literal_past_digit_limit": "1" * 5000,
    }
    for name, term in long_terms.items():
        (tmp_path / f"{name}.mat").write_text(f"1 0 0\n0 {term} 0\n0 0 1\n")
    negative_graph = tmp_path / "negative.graph"
    negative_graph.write_text("graph v1\nvertices -1\n")
    negative = {}
    for name, v, e, c in [("vertices", -1, 0, 0), ("edges", 3, -1, 0), ("chambers", 3, 0, -1)]:
        types = "".join(f"type {i} {i}\n" for i in range(max(v, 0)))
        negative[name] = tmp_path / f"negative_{name}.cx3"
        negative[name].write_text(
            f"a2complex v1\nq 2\nvertices {v}\n{types}edges {e}\nchambers {c}\n"
        )
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
        "graph_tol_valid": ["graph", "check", str(petersen), "--tol", "1e-9"],
        "ramanujan_tol": ["check", "ramanujan", cx_path, "--tol", "1e-6"],
        "graph_negative_vertices": ["graph", "zeta", str(negative_graph)],
        "complex_negative_vertices": ["check", "identity", str(negative["vertices"])],
        "complex_negative_edges": ["check", "identity", str(negative["edges"])],
        "complex_negative_chambers": ["check", "identity", str(negative["chambers"])],
        "search_huge_q": ["tp", "search", "--q", "1000003"],
        "build_huge_q": ["tp", "build", str(huge_q)],
        **{f"build_triple_id_{name}": ["tp", "build", str(path)] for name, path in bad_id.items()},
        **{
            f"lcan_{name}": [
                "building", "lcan", "--q", "2", "--matrix", str(tmp_path / f"{name}.mat")
            ]
            for name in long_terms
        },
        "geodesic_past_vertex_cap": [
            "building", "geodesic", "--q", "2", "--length", "11", "--radius", "11"
        ],
    }[case]
    # a q past GF's bound exits 2 at once, before any plane of q^2+q+1 points
    code, _, err = run_cli(*argv, timeout=60)
    assert code == 2
    assert "Traceback" not in err


def test_lcan_names_the_bad_term_as_written(tmp_path):
    path = tmp_path / "negative_exponent.mat"
    path.write_text("1 0 0\n0 1+t^-1 0\n0 0 1\n")
    code, _, err = run_cli("building", "lcan", "--q", "2", "--matrix", str(path))
    assert code == 2
    assert "line 2: bad polynomial term 't^-1'" in err
    assert "Traceback" not in err
    path.write_text("1 0 0\n0 1 0\n0 0 t^1025+1\n")
    code, _, err = run_cli("building", "lcan", "--q", "2", "--matrix", str(path))
    assert code == 2
    assert "line 3: exponent over 1024 in term 't^1025'" in err


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


def test_graph_zeta_failed_identity_exits_1(tmp_path, monkeypatch, capsys):
    """A Bass determinant off by u^3 is a failed Ihara-Bass check, not bad
    input: forms_agree fail, exit 1, nothing on stderr."""
    pencil = graphs.det_i_minus_pencil

    def bass_plus_u3(blocks):
        # the Bass pencil has two blocks, the Hashimoto one a single block
        det = pencil(blocks)
        return det + IntPoly.monomial(3) if len(blocks) == 2 else det

    monkeypatch.setattr(graphs, "det_i_minus_pencil", bass_plus_u3)
    gpath = tmp_path / "k4.graph"
    gpath.write_text(serialize_graph(complete_graph(4)))
    for fmt, verdict in (("text", "forms_agree: fail"), ("records", "forms_agree fail")):
        code = cli.main(["graph", "zeta", str(gpath), "--format", fmt])
        out, err = capsys.readouterr()
        assert code == 1 and err == ""
        assert out.splitlines()[-1] == verdict


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


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))


@pytest.mark.parametrize(
    "command, edges",
    [
        ("check", [(2 * i, 2 * i + 1) for i in range(30000)]),
        ("zeta", [(i, (i + 1) % 60000) for i in range(60000)]),
    ],
    ids=["check_perfect_matching", "zeta_cycle"],
)
def test_out_of_memory_exits_2_without_traceback(command, edges, tmp_path):
    """A 60000-vertex graph whose dense matrices do not fit in a 3 GB address
    space, set in the child only, so that the kernel cannot overcommit."""
    gpath = tmp_path / "big.graph"
    gpath.write_text("graph v1\nvertices 60000\n" + "".join(f"edge {u} {v}\n" for u, v in edges))
    proc = subprocess.run(
        [sys.executable, "-m", "a2zeta.cli", "graph", command, str(gpath)],
        capture_output=True,
        text=True,
        env=CLI_ENV,
        timeout=120,
        preexec_fn=_limit_address_space,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory: ")
    assert "Traceback" not in proc.stderr


HUGE = 10**21
HUGE_GRAPH = f"graph v1\nvertices {HUGE}\nedge 0 1\nedge 1 2\nedge 2 0\n"


@pytest.mark.parametrize(
    "command, name, text",
    [
        (["validate"], "vertices.cx3", f"a2complex v1\nq 2\nvertices {HUGE}\ntype 0 0\n"),
        (
            ["validate"],
            "edges.cx3",
            f"a2complex v1\nq 2\nvertices 1\ntype 0 0\nedges {HUGE}\nedge 0 0 0\n",
        ),
        (["graph", "check"], "huge.graph", HUGE_GRAPH),
        (["graph", "zeta"], "huge.graph", HUGE_GRAPH),
    ],
    ids=["complex_vertices", "complex_edges", "graph_check", "graph_zeta"],
)
def test_huge_count_exits_2_before_allocating(command, name, text, tmp_path, capsys):
    """A count past what the file holds is bad input, caught before any list of that size."""
    path = tmp_path / name
    path.write_text(text)
    code = cli.main([*command, str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


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
        # the second call's default --which prints chi first, so the first
        # call's value shows if it leaks
        ["zeta", cx_path, "--which", "minus", *records],
        ["zeta", cx_path, *records],
        ["graph", "check", str(petersen), "--tol", "1e-9", *records],
        ["graph", "check", str(petersen), *records],
        ["check", "ramanujan", cx_path, *records],
        ["check", "ramanujan", cx_path, "--tol", "1e-6"],
        ["zeta", cx_path, "--which", "edge", *records],
    ]
    results = [main_in_process(argv) for argv in sequence]
    assert [code for code, _ in results] == [0, 0, 2, 0, 0, 2, 0]
    assert results[0][1].splitlines()[0].startswith("Zminus.num poly ")
    assert results[1][1].splitlines()[0].startswith("chi ")
    assert results[3][1].splitlines()[0] == "verdict RAMANUJAN"
    for argv, result in zip(sequence, results):
        assert run_cli(*argv)[:2] == result
    parser = cli.build_parser()
    assert parser is cli.build_parser()
    assert not hasattr(parser.parse_args(["graph", "check", str(petersen)]), "tol")
    assert not hasattr(parser.parse_args(["check", "ramanujan", cx_path]), "tol")


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
