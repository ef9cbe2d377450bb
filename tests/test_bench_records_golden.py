"""The records of the benchmark's seed-1 workloads, pinned byte for byte.

The golden file holds the `execute_query` record of every query of
`bench/gen.generate("orbit-search", 1)` and `("abelian-lattice", 1)` at
default bounds, one compact JSON line per query:
`[workload, scenario index, query index, record]`.  A change that keeps
verdicts, certificates and printed values keeps this file.

After an intended change to the records, regenerate the file with

    PYTHONPATH=src python tests/test_bench_records_golden.py
"""

import json
import pathlib
import sys

import selflink.indeterminacy as I
import selflink.scenario as SC

BENCH = pathlib.Path(__file__).parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

GOLDEN = pathlib.Path(__file__).with_name("data") / "bench_records.json"
WORKLOADS = ("orbit-search", "abelian-lattice")
SEED = 1


def bench_record_lines():
    lines = []
    for workload in WORKLOADS:
        for s, spec in enumerate(gen.generate(workload, SEED)):
            scn = SC.parse_scenario(spec["text"])
            for q, tokens in enumerate(scn.queries):
                rec = SC.execute_query(scn, tokens, I.Bounds())
                lines.append(json.dumps([workload, s, q, rec], sort_keys=True,
                                        separators=(",", ":")))
    return "\n".join(lines) + "\n"


def test_bench_records_match_golden():
    assert bench_record_lines() == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.write_text(bench_record_lines(), encoding="utf-8")
