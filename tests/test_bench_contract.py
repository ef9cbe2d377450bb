"""The benchmark harness's view of the library.

`bench/worker.py` and `bench/tracer.py` read names of selflink's modules
(decision entry points, act functions, aliases).  A traced worker run over
one scenario per family, for each workload, fails here when one of those
names goes missing, instead of only in a benchmark run.  Each row's
deciding stage, as `bench/worker.py` attributes it (through
`_abelian_applicable`), is one its workload is built to exercise, and
the lattice layer's traced counters are live on both workloads, the
search-edge counter on orbit-search.
"""

import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import selftest  # noqa: E402


STAGES = {"orbit-search": {"search", "identical"},
          "abelian-lattice": {"abelian-lattice", "identical"}}


@pytest.mark.parametrize("workload", selftest.SEEDED)
def test_traced_worker_runs_clean(workload):
    out = run.run_worker(selftest.small_job(workload, True))
    assert out["rows"]
    for row in out["rows"]:
        assert row["error"] is None, row
        assert not row["mismatch"], row
        assert row["stage"] in STAGES[workload], row
    # the tracer counts these through module and class attributes, so a
    # lattice stage that went round them would read zero here
    assert out["layers"]["separators.lattice_member.calls"] > 0
    assert out["layers"]["separators.push.calls"] > 0
    # and an orbit search that went round the module's act functions
    if workload == "orbit-search":
        assert out["layers"]["indeterminacy.search.edges"] > 0
