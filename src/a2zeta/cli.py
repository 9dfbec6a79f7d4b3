"""Command-line entry point.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 input or
usage error.  Output is exact; with --format records every result line is
a plain 'key value' pair.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import fileio
from .building import (
    BuildingVertex,
    LocalBuilding,
    ball,
    canonical_algebraic_length,
    verify_geodesic_criterion,
    verify_tamagawa,
)
from .complexes import validate
from .enumeration import (
    count_galleries,
    count_type1_geodesics,
    enumerate_galleries,
    gallery_boundaries,
)
from .errors import A2ZetaError, IdentityFailure, ValidationFailure
from .gf import GF
from .graphs import ihara_zeta, ramanujan_graph_check
from .operators import chamber_operator, edge_operator, vertex_hecke
from .planes import build_plane
from .presentations import complex_from_presentation, search_triangle_presentations
from .satake import verify_recursion_42, verify_sigma3_identity
from .zeta import (
    check_series_identity,
    ramanujan_check,
    zeta_bundle,
    zeta_minus,
)

PASS, FAIL, USAGE = 0, 1, 2


class Emitter:
    def __init__(self, records):
        self.records = records

    def emit(self, key, value):
        if self.records:
            print(f"{key} {value}")
        else:
            print(f"{key}: {value}")


def _load_complex(path):
    return fileio.parse_complex(Path(path).read_text())


def _load_graph(path):
    return fileio.parse_graph(Path(path).read_text())


def _read_matrix(path, field):
    return fileio.parse_matrix(Path(path).read_text(), field)


# ----------------------------------------------------------------------
# subcommands


def cmd_validate(args, out):
    cx = _load_complex(args.complex)
    report = validate(cx)
    for check in report:
        status = "pass" if check.passed else f"FAIL {check.detail}".rstrip()
        out.emit(f"check.{check.name}", status)
    out.emit("result", "pass" if report.passed else "fail")
    return PASS if report.passed else FAIL


def cmd_operators(args, out):
    cx = _load_complex(args.complex)
    a1, a2 = vertex_hecke(cx)
    ops = {"a1": a1, "a2": a2, "le": edge_operator(cx), "lb": chamber_operator(cx)}
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, op in ops.items():
        path = outdir / f"{name}.mat"
        path.write_text(op.export())
        out.emit(f"wrote.{name}", str(path))
    return PASS


def cmd_zeta(args, out):
    cx = _load_complex(args.complex)
    b = zeta_bundle(cx)
    if args.which == "minus":
        # the one selection that is a rational function to reduce
        z = zeta_minus(b)
        selection = [("Zminus.num", z.num), ("Zminus.den", z.den)]
    else:
        selection = {
            "vertex": [("dvertex", b.dvertex)],
            "edge": [("Z1.den", b.pe)],
            "gallery": [("Z2.den", b.pb.substitute_neg())],
            "full": [
                ("chi", None),
                ("dvertex", b.dvertex),
                ("PB", b.pb),
                ("PE", b.pe),
                ("PE2", b.pe2),
            ],
        }[args.which]
    for key, poly in selection:
        if poly is None:
            out.emit("chi", b.chi)
        else:
            out.emit(key, poly.format())
    return PASS


def cmd_check_identity(args, out):
    cx = _load_complex(args.complex)
    try:
        zeta_bundle(cx)  # proves the identity, or raises IdentityFailure
    except IdentityFailure as exc:
        out.emit("character", f"fail j={exc.j} p={exc.p}")
        out.emit("identity", "fail")
        return FAIL
    out.emit("identity", "pass")
    return PASS


def cmd_check_ramanujan(args, out):
    cx = _load_complex(args.complex)
    report = ramanujan_check(cx)
    out.emit("verdict", report.verdict)
    for name in ("dvertex", "pb", "pe"):
        if name in report.uncertified:
            out.emit(f"root.{name}", f"uncertified degree {report.uncertified[name]}")
        for label, count in getattr(report, name):
            out.emit(f"root.{name}", f"{label} {count}")
    return PASS if report.passed else FAIL


def cmd_check_series(args, out):
    cx = _load_complex(args.complex)
    report = check_series_identity(cx, args.degree)
    out.emit("series_identity", "pass" if report.passed else "fail")
    out.emit("type1_traces", " ".join(str(c) for c in report.type1_traces))
    return PASS if report.passed else FAIL


def cmd_enumerate(args, out):
    cx = _load_complex(args.complex)
    if args.kind == "geodesics":
        out.emit("geodesics", count_type1_geodesics(cx, args.length))
        return PASS
    if not args.boundary_check:
        out.emit("galleries", count_galleries(cx, args.length))
        return PASS
    galleries = enumerate_galleries(cx, args.length)
    out.emit("galleries", len(galleries))
    gallery_boundaries(cx, galleries)  # raises NotAGallery on a broken boundary
    out.emit("boundary_check", "pass")
    return PASS


def cmd_building(args, out):
    if args.building_cmd == "ball":
        bl = ball(LocalBuilding(args.q), args.radius)
        for s, size in enumerate(bl.sphere_sizes()):
            out.emit(f"sphere.{s}", size)
        if args.adjacency:
            lines = []
            for i, (n1, n2) in enumerate(zip(bl.nbr1, bl.nbr2)):
                for j in n1 or ():
                    lines.append((i, j, 1))
                for j in n2 or ():
                    lines.append((i, j, 2))
            out.emit("adjacency", f"sparse {len(bl.vertices)} {len(bl.vertices)} {len(lines)}")
            for i, j, k in lines:
                print(f"{i} {j} {k}")
        return PASS
    if args.building_cmd == "relpos":
        B = LocalBuilding(args.q)
        left = BuildingVertex(_read_matrix(args.left, B.F))
        right = BuildingVertex(_read_matrix(args.right, B.F))
        pos = B.relative_position(left, right)
        out.emit("n", pos.n)
        out.emit("m", pos.m)
        out.emit("lA", pos.lA)
        out.emit("lG", pos.lG)
        return PASS
    if args.building_cmd == "lcan":
        F = GF(args.q)
        value = canonical_algebraic_length(F, _read_matrix(args.matrix, F))
        out.emit("canonical_algebraic_length", value)
        return PASS
    if args.building_cmd == "tamagawa":
        ok = verify_tamagawa(args.q, args.degree, args.radius)
        out.emit("tamagawa", "pass" if ok else "fail")
        return PASS if ok else FAIL
    ok = verify_geodesic_criterion(args.q, args.length, args.radius)
    out.emit("geodesic_criterion", "pass" if ok else "fail")
    return PASS if ok else FAIL


def cmd_satake(args, out):
    ok1, residuals = verify_recursion_42(args.q, args.degree)
    for k, r in enumerate(residuals):
        out.emit(f"residual.{k}", "0" if r.is_zero() else repr(r))
    ok2, _ = verify_sigma3_identity(args.degree)
    out.emit("recursion", "pass" if ok1 else "fail")
    out.emit("sigma3", "pass" if ok2 else "fail")
    return PASS if ok1 and ok2 else FAIL


def cmd_tp(args, out):
    if args.tp_cmd == "search":
        plane = build_plane(args.q)
        found = search_triangle_presentations(plane, args.limit, args.seed)
        out.emit("found", len(found))
        outdir = Path(args.out) if args.out else None
        if outdir:
            outdir.mkdir(parents=True, exist_ok=True)
        for i, tp in enumerate(found):
            if outdir:
                path = outdir / f"q{args.q}_s{args.seed}_{i}.tp"
                path.write_text(fileio.serialize_presentation(tp))
                out.emit(f"wrote.{i}", str(path))
        return PASS if found or args.limit == 0 else FAIL
    tp = fileio.parse_presentation(Path(args.presentation).read_text())
    cx = complex_from_presentation(tp)
    text = fileio.serialize_complex(cx)
    if args.out:
        Path(args.out).write_text(text)
        out.emit("wrote", args.out)
    else:
        sys.stdout.write(text)
    return PASS


def cmd_graph(args, out):
    g = _load_graph(args.graph)
    if args.graph_cmd == "zeta":
        hden, bden, agree = ihara_zeta(g)
        out.emit("edge_form.den", hden.format())
        out.emit("vertex_form.den", bden.format())
        out.emit("forms_agree", "pass" if agree else "fail")
        return PASS if agree else FAIL
    report = ramanujan_graph_check(g)
    out.emit("verdict", report.verdict)
    out.emit("valency", report.valency)
    out.emit("outside", report.outside)
    return PASS if report.passed else FAIL


# ----------------------------------------------------------------------


def _int_at_least(low):
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


@functools.cache
def build_parser():
    """The argument parser, built on the first call and shared by every later one.

    Parsing reads the parser and never changes it, so repeated main() calls
    in one process reuse it.
    """
    positive = _int_at_least(1)
    nonnegative = _int_at_least(0)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "records"], default="text")
    common.add_argument(
        "--jobs", type=positive, default=1, help="accepted for compatibility; no effect"
    )

    p = argparse.ArgumentParser(
        prog="a2zeta",
        description="Exact zeta functions of finite rank-2 building quotients.",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    s = sub.add_parser(
        "validate", parents=[common], help="run all structural checks on a complex"
    )
    s.add_argument("complex")
    s.set_defaults(func=cmd_validate)

    s = sub.add_parser(
        "operators", parents=[common], help="export the four operator matrices"
    )
    s.add_argument("complex")
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_operators)

    s = sub.add_parser(
        "zeta", parents=[common], help="print zeta polynomials for a complex"
    )
    s.add_argument("complex")
    s.add_argument(
        "--which",
        choices=["vertex", "edge", "gallery", "minus", "full"],
        default="full",
    )
    s.set_defaults(func=cmd_zeta)

    s = sub.add_parser("check", help="identity / spectra / series checks")
    chk = s.add_subparsers(dest="check_cmd", required=True)
    c = chk.add_parser("identity", parents=[common])
    c.add_argument("complex")
    c.set_defaults(func=cmd_check_identity)
    c = chk.add_parser("ramanujan", parents=[common])
    c.add_argument("complex")
    c.set_defaults(func=cmd_check_ramanujan)
    c = chk.add_parser("section9", parents=[common])
    c.add_argument("complex")
    c.add_argument("--degree", type=nonnegative, required=True)
    c.set_defaults(func=cmd_check_series)

    s = sub.add_parser(
        "enumerate", parents=[common], help="brute-force cycle and gallery counts"
    )
    s.add_argument("kind", choices=["geodesics", "galleries"])
    s.add_argument("complex")
    s.add_argument("--length", type=positive, required=True)
    s.add_argument("--boundary-check", action="store_true")
    s.set_defaults(func=cmd_enumerate)

    s = sub.add_parser("building", help="local building model computations")
    bld = s.add_subparsers(dest="building_cmd", required=True)
    c = bld.add_parser("ball", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--radius", type=nonnegative, required=True)
    c.add_argument("--adjacency", action="store_true")
    c.set_defaults(func=cmd_building)
    c = bld.add_parser("relpos", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--left", required=True)
    c.add_argument("--right", required=True)
    c.set_defaults(func=cmd_building)
    c = bld.add_parser("lcan", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--matrix", required=True)
    c.set_defaults(func=cmd_building)
    c = bld.add_parser("tamagawa", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--degree", type=nonnegative, required=True)
    c.add_argument(
        "--radius", type=nonnegative, required=True,
        help="only checked as a lower bound (>= degree + 1); the result does not depend on it",
    )
    c.set_defaults(func=cmd_building)
    c = bld.add_parser("geodesic", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--length", type=positive, required=True)
    c.add_argument(
        "--radius", type=nonnegative, required=True,
        help="only checked as a lower bound (>= length); the result does not depend on it",
    )
    c.set_defaults(func=cmd_building)

    s = sub.add_parser("satake", help="symmetric-function recursion checks")
    sat = s.add_subparsers(dest="satake_cmd", required=True)
    c = sat.add_parser("verify", parents=[common])
    c.add_argument("--q", type=_int_at_least(2), required=True)
    c.add_argument("--degree", type=nonnegative, required=True)
    c.set_defaults(func=cmd_satake)

    s = sub.add_parser("tp", help="triangle presentation search and build")
    tps = s.add_subparsers(dest="tp_cmd", required=True)
    c = tps.add_parser("search", parents=[common])
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--limit", type=nonnegative, default=1)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out")
    c.set_defaults(func=cmd_tp)
    c = tps.add_parser("build", parents=[common])
    c.add_argument("presentation")
    c.add_argument("--out")
    c.set_defaults(func=cmd_tp)

    s = sub.add_parser("graph", help="graph baseline: zeta and spectra")
    gph = s.add_subparsers(dest="graph_cmd", required=True)
    c = gph.add_parser("zeta", parents=[common])
    c.add_argument("graph")
    c.set_defaults(func=cmd_graph)
    c = gph.add_parser("check", parents=[common])
    c.add_argument("graph")
    c.set_defaults(func=cmd_graph)

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    out = Emitter(records=args.format == "records")
    try:
        return args.func(args, out)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return FAIL
    except A2ZetaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return USAGE


if __name__ == "__main__":
    sys.exit(main())
