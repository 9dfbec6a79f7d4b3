"""Fast self-check of the benchmark on the bundled q=2 complex and the
Petersen graph.  Run from the repository root (a few seconds):

    python3 perfbench/smoke.py

It runs the smoke workload untraced and traced, prints every metric with
its unit, checks that the metric names and units are exactly those listed in
BENCHMARK.json, that nothing failed, and that a wrong expected digest is
reported as failed operations (failed > 0) rather than a crash, and so is
an exception escaping cli.main on a truncated input.  Exit code 0 means
all of this held.
"""

import json
import sys

import run
import workloads


def main():
    run.load_program()
    digests = json.loads(run.DIGESTS.read_text())
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        report = run.measure("smoke", 0, 1.0, trace, digests)
        for name, m in report["metrics"].items():
            print(f"trace={trace} {name} {m['value']} {m['unit']}")
        listed = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in report["metrics"].items()}
        if printed != listed:
            problems.append(f"trace={trace}: metrics differ from BENCHMARK.json {key}")
        if report["failed"]:
            problems.append(f"trace={trace}: {report['failed']} failed: {report['failures']}")

    # A truncated .cx3 file: the program may raise out of cli.main on it,
    # which must come back as one failed operation, not a crash.
    bad = run.OUT / "smoke-truncated.cx3"
    bad.parent.mkdir(parents=True, exist_ok=True)
    bad.write_text("a2complex v1\nq 2\nvertices 3\ntype 1\n")
    op = workloads.cli_op("identity_s", ["check", "identity", bad], ["identity pass"])
    result = run.run_pass([op])
    bad.unlink()
    print(f"truncated input: failed {len(result.failures)} of 1")
    if len(result.failures) != 1:
        problems.append("a failing command was not counted as one failed operation")

    wrong = {k: {**v, "pb": "0" * 64} for k, v in digests.items()}
    report = run.measure("smoke", 0, 1.0, 1, wrong)
    print(f"wrong digests: attempted {report['attempted']} failed {report['failed']}")
    if report["failed"] == 0:
        problems.append("a wrong expected digest was not reported as a failure")

    for p in problems:
        print("SMOKE FAILED:", p, file=sys.stderr)
    print("smoke ok" if not problems else "smoke failed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
