"""The benchmark harness's view of the library.

`bench/worker.py` and `bench/tracer.py` read names of selflink's modules
(decision entry points, act functions, aliases).  A traced worker run over
one scenario per family, for each workload, fails here when one of those
names goes missing, instead of only in a benchmark run.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import selftest  # noqa: E402


@pytest.mark.parametrize("workload", selftest.SEEDED)
def test_traced_worker_runs_clean(workload):
    out = run.run_worker(selftest.small_job(workload, True))
    assert out["rows"]
    for row in out["rows"]:
        assert row["error"] is None, row
        assert not row["mismatch"], row
    assert out["layers"]
