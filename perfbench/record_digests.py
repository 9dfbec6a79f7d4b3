"""Record digests.json: the exact Dvertex, PE and PB of every input complex.

The benchmark's traced run checks each zeta bundle against this table, so
a determinant rewrite must reproduce the polynomials bit for bit.  Keys are
content digests of the .cx3 text.  The table covers the bundled q=2
complex, both q=3 and all six q=4 search-built complexes, so it holds for
every seed.  Run from the repository root (about three minutes):

    python3 perfbench/record_digests.py
"""

import json

import run
import workloads
from workloads import lib


def main():
    run.load_program()
    inputs = [("q2 bundled", workloads.bundled_q2_text())]
    for q, limit in ((3, 2), (4, 6)):
        plane = lib.planes.build_plane(q)
        found = lib.presentations.search_triangle_presentations(plane, limit, 0)
        for i, tp in enumerate(found):
            cx = lib.presentations.complex_from_presentation(tp)
            inputs.append((f"q{q} search seed 0 #{i}", lib.fileio.serialize_complex(cx)))
    table = {}
    for name, text in inputs:
        bundle = lib.zeta.zeta_bundle(lib.fileio.parse_complex(text))
        table[workloads.content_key(text)] = {"input": name, **workloads.bundle_digests(bundle)}
        print(name, flush=True)
    run.DIGESTS.write_text(json.dumps(table, indent=1) + "\n")


if __name__ == "__main__":
    main()
