"""The records of the benchmark's seed-1 workloads, pinned byte for byte.

The golden file holds the `execute_query` record of every query of
`bench/gen.generate("orbit-search", 1)` and `("abelian-lattice", 1)` at
default bounds, one compact JSON line per query:
`[workload, scenario index, query index, record]`.  A change that keeps
verdicts, certificates and printed values keeps this file.

After an intended change to the records, regenerate the file with

    PYTHONPATH=src python tests/test_bench_records_golden.py

To compare two trees on more records than the golden file holds, print the
SHA-256 of the records of seeds 0-7 of both workloads (1 520 queries), per
workload and in total, with

    PYTHONPATH=src python tests/test_bench_records_golden.py --fingerprint
"""

import hashlib
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


def record_lines(workload, seed):
    """One compact JSON line per query of one generated workload."""
    lines = []
    for s, spec in enumerate(gen.generate(workload, seed)):
        scn = SC.parse_scenario(spec["text"])
        for q, tokens in enumerate(scn.queries):
            rec = SC.execute_query(scn, tokens, I.Bounds())
            lines.append(json.dumps([workload, s, q, rec], sort_keys=True,
                                    separators=(",", ":")))
    return lines


def bench_record_lines():
    return "".join(line + "\n" for workload in WORKLOADS
                   for line in record_lines(workload, SEED))


def fingerprint(seeds=range(8)):
    """(label, queries, SHA-256) of the record lines of the seeds, in seed
    order, per workload and then in total."""
    rows, total, count = [], hashlib.sha256(), 0
    for workload in WORKLOADS:
        digest, n = hashlib.sha256(), 0
        for seed in seeds:
            for line in record_lines(workload, seed):
                data = (line + "\n").encode()
                digest.update(data)
                total.update(data)
                n += 1
        rows.append((workload, n, digest.hexdigest()))
        count += n
    return rows + [("total", count, total.hexdigest())]


def test_bench_records_match_golden():
    assert bench_record_lines() == GOLDEN.read_text(encoding="utf-8")


def test_fingerprint_of_the_golden_seed_hashes_the_golden_file():
    *_, total = fingerprint(seeds=(SEED,))
    data = GOLDEN.read_bytes()
    assert total == ("total", data.count(b"\n"), hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    if sys.argv[1:] == ["--fingerprint"]:
        for row in fingerprint():
            print(*row)
    else:
        GOLDEN.write_text(bench_record_lines(), encoding="utf-8")
