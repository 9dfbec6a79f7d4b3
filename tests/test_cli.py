import os
import subprocess
import sys
from pathlib import Path

import pytest

import a2zeta
from a2zeta.fileio import serialize_graph
from a2zeta.graphs import complete_graph
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


@pytest.mark.parametrize("case", ["directory", "bare_q_line", "length_zero"])
def test_bad_input_exit_2_without_traceback(case, tmp_path, cx_path):
    bare_q = tmp_path / "bare_q.cx3"
    bare_q.write_text("a2complex v1\nq\n")
    argv = {
        "directory": ["validate", str(tmp_path)],
        "bare_q_line": ["validate", str(bare_q)],
        "length_zero": ["enumerate", "galleries", cx_path, "--length", "0"],
    }[case]
    code, _, err = run_cli(*argv)
    assert code == 2
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


def test_enumerate_cli(cx_path):
    code, out, _ = run_cli("enumerate", "geodesics", cx_path, "--length", "3")
    assert code == 0 and "geodesics: 147" in out
    code, out, _ = run_cli(
        "enumerate", "galleries", cx_path, "--length", "6", "--boundary-check"
    )
    assert code == 0 and "galleries: 189" in out and "boundary_check: pass" in out


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
