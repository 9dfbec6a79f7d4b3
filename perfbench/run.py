"""a2zeta benchmark: exact-verification time on seeded, fixed workloads.

Run from the repository root:

    python3 perfbench/run.py --workload zeta --seed 0 --seconds 40 --trace 0

One process, closed loop: the benchmark calls a2zeta.cli.main in-process,
one command at a time, with --jobs 1 (workloads.py lists what each
workload runs and why).  A pass runs every operation of the workload once;
passes repeat while another one fits in --seconds, at least one, and times
are medians over the passes.

--trace 0 prints the end-to-end metrics:
  setup_s      time of a fresh import of the a2zeta package plus making
               and writing the inputs; done before every pass and then
               repeatedly for the rest of --seconds, and reported as the
               median over one-second buckets of each bucket's median, so
               that it samples the host over the run as pass_s does
  pass_s       wall time of one pass
  peak_rss_mb  peak resident memory of the process
--trace 1 follows each untraced pass with a traced one and prints the
per-layer metrics: self times and counts of tracing.LAYERS, the group
totals of workloads.GROUPS from the untraced passes, cli.uncovered_s (a
traced pass minus the time inside traced calls: argparse, the Emitter and
the wrappers) and trace.overhead_s (traced minus untraced pass time).

Every operation is checked: a command must exit with its expected code and
print its expected lines, a DFS count must equal its trace, and in the
traced run the exact Dvertex, PE and PB of every zeta bundle must match
digests.json.  A wrong result or an exception escaping the program counts
as a failed operation.  The last line on stdout is the JSON result; the
environment, every pass and the spans go to .perfbench/results/.
"""

import os

# Pin BLAS threads in this process before numpy loads (workloads imports
# it); the program itself is not configured.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGESTS = Path(__file__).resolve().parent / "digests.json"
SETUP_REPS = 7

END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    **tracing.layer_metric_units(),
    **{name: "s" for name in workloads.GROUPS},
    "cli.uncovered_s": "s",
    "trace.overhead_s": "s",
}


@dataclass
class Pass:
    total: float = 0.0
    ops: list = field(default_factory=list)  # (label, seconds)
    groups: dict = field(default_factory=dict)  # group -> seconds
    failures: list = field(default_factory=list)  # (label, why)


def import_program():
    """Import the a2zeta package afresh from SRC; numpy stays loaded."""
    for name in [n for n in sys.modules if n == "a2zeta" or n.startswith("a2zeta.")]:
        del sys.modules[name]
    importlib.import_module("a2zeta.cli")


def run_pass(ops, tracer=None):
    result = Pass()
    start = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.operation = index
        t0 = time.perf_counter()
        try:
            error = op.run()
        except Exception:  # a traceback from the program is one failed operation
            error = traceback.format_exc(limit=-4)
        seconds = time.perf_counter() - t0
        result.ops.append((op.label, seconds))
        result.groups[op.group] = result.groups.get(op.group, 0.0) + seconds
        if error:
            result.failures.append((op.label, error))
    result.total = time.perf_counter() - start
    return result


def check_digests(ops, tracer, table):
    """Every bundle a zeta command computed against its recorded digests."""
    seen = {}
    for index, bundle in tracer.kept["zeta.zeta_bundle"]:
        seen.setdefault(index, []).append(workloads.bundle_digests(bundle))
    attempted, failures = 0, []
    for index, op in enumerate(ops):
        if op.complex_key is None:
            continue
        attempted += 1
        want = table.get(op.complex_key)
        got = seen.get(index, [])
        if want is None:
            failures.append((op.label, f"no recorded digest for input {op.complex_key}"))
        elif not got:
            failures.append((op.label, "no zeta bundle observed"))
        elif any(d != {k: want[k] for k in d} for d in got):
            failures.append((op.label, "Dvertex/PE/PB digests differ from digests.json"))
    return attempted, failures


def measure(workload, seed, seconds, trace, digests):
    """Set up, run passes for the given time, and return the report."""
    workdir = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    make_inputs = workloads.WORKLOADS[workload]
    plain, traced, tracers, failures = [], [], [], []
    attempted = 0
    setup_times = []  # (seconds into the run, duration)
    start = time.perf_counter()

    def set_up():
        t0 = time.perf_counter()
        import_program()
        ops = make_inputs(seed, workdir)
        setup_times.append((t0 - start, time.perf_counter() - t0))
        # Free the replaced modules now, so that repeated set-ups neither
        # raise the peak memory nor leave collections for the timed work.
        gc.collect()
        return ops

    try:
        while True:
            ops = set_up()
            plain.append(run_pass(ops))
            attempted += len(ops)
            failures += plain[-1].failures
            if trace:
                tracer = tracing.Tracer(keep=("zeta.zeta_bundle",))
                undo = tracing.install(tracer)
                try:
                    traced.append(run_pass(ops, tracer))
                finally:
                    tracing.uninstall(undo)
                tracers.append(tracer)
                attempted += len(ops)
                failures += traced[-1].failures
                n, bad = check_digests(ops, tracer, digests)
                attempted += n
                failures += bad
            rounds = len(plain)
            if (time.perf_counter() - start) * (rounds + 1) / rounds > seconds:
                break
        while time.perf_counter() - start < seconds or len(setup_times) < SETUP_REPS:
            set_up()
        setup_tracer = None
        if trace:
            setup_tracer = tracing.Tracer()
            undo = tracing.install(setup_tracer)
            try:
                make_inputs(seed, workdir)
            finally:
                tracing.uninstall(undo)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    med = statistics.median
    groups = {g: med(p.groups.get(g, 0.0) for p in plain) for g in workloads.GROUPS}
    if trace:
        metrics = {}
        for name, unit in tracing.layer_metric_units().items():
            span = name.removesuffix(".self_s")
            if unit == "count":
                metrics[name] = tracers[-1].counts.get(name, 0)
            elif span in tracing.SETUP_LAYERS:
                metrics[name] = setup_tracer.self_s.get(span, 0.0)
            else:
                metrics[name] = med(t.self_s.get(span, 0.0) for t in tracers)
        metrics.update(groups)
        metrics["cli.uncovered_s"] = med(
            p.total - t.traced_total() for p, t in zip(traced, tracers)
        )
        metrics["trace.overhead_s"] = med(p.total for p in traced) - med(
            p.total for p in plain
        )
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_median(setup_times),
            "pass_s": med(p.total for p in plain),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        "groups": groups,
        "setup_times": setup_times,
        "passes": [vars(p) for p in plain],
        "traced_passes": [vars(p) for p in traced],
        "span_totals": [t.traced_total() for t in tracers],
        "spans": _spans(tracers[-1]) if tracers else [],
        "setup_spans": _spans(setup_tracer) if setup_tracer else [],
    }


def setup_median(setup_times):
    """Median over one-second buckets of the median set-up time in each."""
    buckets = {}
    for at, seconds in setup_times:
        buckets.setdefault(int(at), []).append(seconds)
    return statistics.median(statistics.median(v) for v in buckets.values())


def _spans(tracer):
    """Spans as [name, start, end, parent, operation], times from the first start."""
    if not tracer.spans:
        return []
    t0 = tracer.spans[0][1]
    return [[n, s - t0, e - t0, parent, op] for n, s, e, parent, op in tracer.spans]


def _git_revision():
    """HEAD of the repository, read from .git; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    source = hashlib.sha256()
    for path in sorted((SRC / "a2zeta").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
            source.update(path.read_bytes())
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": _git_revision(),
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "jobs": 1,
    }


def load_program():
    """Put SRC first on sys.path and check a2zeta loads from there."""
    if not (SRC / "a2zeta" / "__init__.py").is_file():
        sys.exit(f"perfbench: no a2zeta sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import_program()
    loaded = Path(sys.modules["a2zeta"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        sys.exit(f"perfbench: a2zeta loaded from {loaded}, not from {SRC}")


def print_report(report, env):
    print("env " + json.dumps(env))
    for label, why in report["failures"][:20]:
        print(f"FAILED {label}: {why}", file=sys.stderr)
    for name, m in report["metrics"].items():
        print(f"metric {name} {m['value']} {m['unit']}")
    if report["trace"]:
        self_times = {k: m["value"] for k, m in report["metrics"].items() if k.endswith(".self_s")}
        top = max(self_times, key=self_times.get)
        print(f"largest self time: {top} {self_times[top]} s")
        med = statistics.median
        print(
            f"pass medians: spans {med(report['span_totals']):.4f} s, traced "
            f"{med(p['total'] for p in report['traced_passes']):.4f} s, untraced "
            f"{med(p['total'] for p in report['passes']):.4f} s"
        )
    else:
        for name, value in report["groups"].items():
            if value:
                print(f"metric {name} {value} s")
    print(f"metric fail_frac {report['failed'] / report['attempted']} ratio")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    env = environment()
    digests = json.loads(DIGESTS.read_text())
    report = measure(args.workload, args.seed, args.seconds, args.trace, digests)
    report["environment"] = env
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(report, indent=1) + "\n")
    print_report(report, env)
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
