"""Self-tests of the benchmark itself (not of selflink).

    python3 bench/selftest.py

Checks that
  * the same seed gives byte-identical scenario text and another seed
    gives different text, for every seeded workload;
  * the reference lattice check agrees with brute force on small inputs;
  * a traced and an untraced pass give identical verdicts;
  * verdicts do not depend on PYTHONHASHSEED (the timed runs use
    run.HASH_SEED).
The trace and hash-seed checks run on a few scenarios of each seeded
workload, one from each family, to keep the run short.
"""

from __future__ import annotations

import itertools
import json
import random
import sys

import gen
import run

SEEDED = ("orbit-search", "abelian-lattice")


def check_seeding():
    for workload in SEEDED:
        a = json.dumps(gen.generate(workload, 7))
        b = json.dumps(gen.generate(workload, 7))
        c = json.dumps(gen.generate(workload, 8))
        assert a == b, f"{workload}: seed 7 is not reproducible"
        assert a != c, f"{workload}: seeds 7 and 8 give the same text"


def check_reference():
    # with at most two rows of entries in [-3, 3] and |v| <= 4, any solution
    # has a representative with coefficients in [-30, 30] (Cramer's rule)
    rng = random.Random(3)
    for _ in range(300):
        rows = [[rng.randint(-3, 3) for _ in range(3)]
                for _ in range(rng.randint(0, 2))]
        v = [rng.randint(-4, 4) for _ in range(3)]
        brute = any(
            all(sum(c * r[j] for c, r in zip(cs, rows)) == v[j] for j in range(3))
            for cs in itertools.product(range(-30, 31), repeat=len(rows)))
        assert gen.lattice_contains(rows, v) == brute, \
            f"reference disagrees with brute force on {v} in span of {rows}"


def small_job(workload, trace):
    """The first scenario of each family of the seed-7 batch, at most six."""
    job = run.make_job(workload, 7, trace)
    firsts = {}
    for scn in job["scenarios"]:
        firsts.setdefault(scn["family"], scn)
    job["scenarios"] = list(firsts.values())[:6]
    return job


def check_trace_and_hash_seed():
    for workload in SEEDED:
        base = run.verdicts(run.run_worker(small_job(workload, False))["rows"])
        traced = run.verdicts(run.run_worker(small_job(workload, True))["rows"])
        assert base == traced, f"{workload}: traced verdicts differ"
        other = run.verdicts(run.run_worker(small_job(workload, False),
                                            hash_seed="12345")["rows"])
        assert base == other, f"{workload}: verdicts depend on PYTHONHASHSEED"


def main():
    failures = 0
    for check in (check_seeding, check_reference, check_trace_and_hash_seed):
        try:
            check()
            print(f"PASS {check.__name__}")
        except AssertionError as e:
            failures += 1
            print(f"FAIL {check.__name__}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
