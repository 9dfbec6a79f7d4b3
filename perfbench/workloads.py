"""Seeded inputs and the operations each workload runs, one at a time.

Inputs are made with the program's own library (plane, presentation search,
quotient build, graph generators) and written as .cx3 and .graph files; the
program receives only those files, never the seed.

  zeta     check identity and check ramanujan on both q=3 search-built
           complexes, and check identity on one of the six q=4 complexes,
           picked by the seed.  Nearly all the time is the block-reduced PB
           determinant (dimension 52 at q=3, 105 at q=4).  q=5 is left out:
           its zeta bundle did not finish within 9 minutes (the ROADMAP.md
           baseline).
  oracles  DFS gallery and geodesic counts on the first q=3 complex, each
           against the matching trace of LB or LE, then the building and
           Satake checks.  No determinant runs here.
  graphs   seeded random graphs through graph zeta and graph check, and
           closed-walk DFS against traces of the Hashimoto matrix: many
           small determinants, with the dimension <= 12 cross-check active.
  smoke    the bundled q=2 complex and the Petersen graph, for smoke.py.
"""

import contextlib
import hashlib
import io
import random
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

# Operation groups; each one's total per pass is reported.  identity_s and
# ramanujan_s: the check commands (zeta); oracle_s: DFS enumerations with
# their traces and building_s: building and satake commands (oracles);
# graph_s: graph zeta, graph check and closed-walk checks (graphs).
GROUPS = ("identity_s", "ramanujan_s", "oracle_s", "building_s", "graph_s")


class Lib:
    """The current a2zeta modules, looked up at each use.

    The set-up imports the package afresh, and the traced run replaces
    functions in the module namespaces, so nothing is bound early.
    """

    def __getattr__(self, name):
        return sys.modules[f"a2zeta.{name}"]


lib = Lib()


@dataclass
class Op:
    """One measured operation; run() returns None or why the result is wrong."""

    group: str
    label: str
    run: object
    complex_key: str = None  # digest key of the complex a zeta command reads


def content_key(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_cli(argv):
    """cli.main in-process; returns (exit code, stdout lines, stderr text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = lib.cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code
    return code, out.getvalue().splitlines(), err.getvalue()


def _check_output(argv, want_code, expect):
    code, lines, err = run_cli(argv)
    if code != want_code:
        return None, f"exit {code}, want {want_code}: {err.strip()[-300:]}"
    missing = [line for line in expect if line not in lines]
    if missing:
        return None, f"missing output {missing}"
    return lines, None


def cli_op(group, argv, expect, code=0, complex_key=None):
    """A command that must exit with code and print every line in expect."""
    label = " ".join(a.name if isinstance(a, Path) else str(a) for a in argv)
    argv = [str(a) for a in argv] + ["--format", "records", "--jobs", "1"]

    def run():
        return _check_output(argv, code, expect)[1]

    return Op(group, label, run, complex_key)


def enumerate_op(kind, path, length):
    """enumerate galleries|geodesics, compared with Tr LB^n or Tr LE^n."""
    argv = ["enumerate", kind, str(path), "--length", str(length)]
    argv += ["--format", "records", "--jobs", "1"]

    def run():
        lines, error = _check_output(argv, 0, ())
        if error:
            return error
        counts = [line.split()[1] for line in lines if line.split()[:1] == [kind]]
        if len(counts) != 1:
            return f"no '{kind}' line in {lines}"
        cx = lib.fileio.parse_complex(path.read_text())
        op = lib.operators.chamber_operator(cx) if kind == "galleries" else (
            lib.operators.edge_operator(cx)
        )
        trace = op.trace_power(length)
        return None if int(counts[0]) == trace else f"DFS {counts[0]} != trace {trace}"

    return Op("oracle_s", f"enumerate {kind} {path.name} --length {length}", run)


def walks_op(path, length):
    """Closed non-backtracking walks by DFS against Tr Ae^n."""

    def run():
        g = lib.fileio.parse_graph(path.read_text())
        dfs = lib.graphs.count_closed_walks(g, length)
        trace = lib.graphs.edge_adjacency(g).trace_power(length)
        return None if dfs == trace else f"DFS {dfs} != trace {trace}"

    return Op("graph_s", f"walks {path.name} --length {length}", run)


# ----------------------------------------------------------------------
# inputs


def _write_complex(workdir, name, cx):
    text = lib.fileio.serialize_complex(cx)
    path = workdir / f"{name}.cx3"
    path.write_text(text)
    return path, content_key(text)


def _search(q, limit):
    plane = lib.planes.build_plane(q)
    return lib.presentations.search_triangle_presentations(plane, limit, 0)


def _zeta_cmds(path, key, ramanujan=True):
    ops = [cli_op("identity_s", ["check", "identity", path], ["identity pass"], 0, key)]
    if ramanujan:
        ops.append(
            cli_op("ramanujan_s", ["check", "ramanujan", path], ["verdict RAMANUJAN"], 0, key)
        )
    return ops


def zeta_inputs(seed, workdir):
    ops = []
    for i, tp in enumerate(_search(3, 2)):
        cx = lib.presentations.complex_from_presentation(tp)
        ops += _zeta_cmds(*_write_complex(workdir, f"q3_{i}", cx))
    found = _search(4, 6)
    pick = random.Random(seed).randrange(len(found))
    cx = lib.presentations.complex_from_presentation(found[pick])
    ops += _zeta_cmds(*_write_complex(workdir, f"q4_{pick}", cx), ramanujan=False)
    return ops


def oracles_inputs(seed, workdir):
    cx = lib.presentations.complex_from_presentation(_search(3, 1)[0])
    path, _ = _write_complex(workdir, "q3_0", cx)
    ops = [enumerate_op("galleries", path, n) for n in (3, 6, 9)]
    ops += [enumerate_op("geodesics", path, n) for n in (3, 6)]
    for q in (2, 3):
        argv = ["building", "tamagawa", "--q", q, "--degree", 4, "--radius", 5]
        ops.append(cli_op("building_s", argv, ["tamagawa pass"]))
    for n in range(1, 5):
        argv = ["building", "geodesic", "--q", 2, "--length", n, "--radius", 4]
        ops.append(cli_op("building_s", argv, ["geodesic_criterion pass"]))
    for q in (2, 3, 5):
        argv = ["satake", "verify", "--q", q, "--degree", 6]
        ops.append(cli_op("building_s", argv, ["recursion pass", "sigma3 pass"]))
    return ops


def expected_graph_verdict(g):
    """Spectral test, written apart from the program: all adjacency
    eigenvalues other than +-k lie within 2 sqrt(k - 1)."""
    k = g.degrees()[0]
    eig = np.linalg.eigvalsh(np.array(g.adjacency(), dtype=float))
    nontrivial = [x for x in eig if abs(abs(x) - k) > 1e-9]
    ok = all(abs(x) <= 2.0 * np.sqrt(k - 1) + 1e-9 for x in nontrivial)
    return "RAMANUJAN" if ok else "NOT-RAMANUJAN"


def _graph_ops(workdir, name, g, lengths=(4, 6)):
    path = workdir / f"{name}.graph"
    path.write_text(lib.fileio.serialize_graph(g))
    ops = [cli_op("graph_s", ["graph", "zeta", path], ["forms_agree pass"])]
    if len(set(g.degrees())) == 1:
        verdict = expected_graph_verdict(g)
        code = 0 if verdict == "RAMANUJAN" else 1
        ops.append(cli_op("graph_s", ["graph", "check", path], [f"verdict {verdict}"], code))
    ops += [walks_op(path, n) for n in lengths]
    return ops


def graphs_inputs(seed, workdir):
    rng = random.Random(seed)
    graphs = lib.graphs
    ops = []
    for n in range(8, 25, 2):
        g = graphs.random_regular_graph(n, 3, rng.randrange(2**31))
        ops += _graph_ops(workdir, f"r3_{n}", g)
    for n in (10, 14):
        g = graphs.random_regular_graph(n, 4, rng.randrange(2**31))
        ops += _graph_ops(workdir, f"r4_{n}", g)
    for i in range(3):
        g = graphs.random_irregular_graph(9, rng.randrange(2**31))
        ops += _graph_ops(workdir, f"irr9_{i}", g)
    return ops


def bundled_q2_text():
    return (resources.files("a2zeta") / "data" / "bundled_q2.cx3").read_text()


def smoke_inputs(seed, workdir):
    text = bundled_q2_text()
    path = workdir / "bundled_q2.cx3"
    path.write_text(text)
    ops = _zeta_cmds(path, content_key(text))
    ops.append(enumerate_op("galleries", path, 3))
    satake = ["satake", "verify", "--q", "2", "--degree", "3"]
    ops.append(cli_op("building_s", satake, ["recursion pass"]))
    ops += _graph_ops(workdir, "petersen", lib.graphs.petersen_graph(), lengths=(5,))
    return ops


WORKLOADS = {
    "zeta": zeta_inputs,
    "oracles": oracles_inputs,
    "graphs": graphs_inputs,
    "smoke": smoke_inputs,
}


def poly_digest(p):
    return hashlib.sha256(" ".join(map(str, p.coeffs)).encode()).hexdigest()


def bundle_digests(bundle):
    """Digests of the exact coefficients of Dvertex, PE and PB."""
    return {name: poly_digest(getattr(bundle, name)) for name in ("dvertex", "pe", "pb")}
