"""One pass over a benchmark workload, or some of its scenarios, in a fresh
interpreter.

Reads a job (JSON) on stdin and prints one JSON object on stdout.  The job
carries the generated scenario text.  When it has an `only` list, the
scenarios it does not name are left out; the benchmark runs one scenario
per interpreter, as a command-line user runs one scenario file per
`selflink` call.  The interpreter is fresh so the `canonicalize` cache
starts cold.

Timed: import of selflink, parsing of every scenario (Phi construction
included), then each query from call to verdict.  Not timed: the gate,
which checks every verdict against its expectation and, when the job has
`gate` set, replays every Equal certificate with the public `replay`.

Resource guards: an address-space cap for the whole process and a wall
budget per query (and per replay).  A query that raises, including
MemoryError or the budget, is counted as failed, never dropped.
"""

from __future__ import annotations

import json
import os
import resource
import signal
import sys
import time

T_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)


class OverBudget(Exception):
    pass


def _alarm(signum, frame):
    raise OverBudget("query wall budget exceeded")


def _guarded(budget_s, fn, *args):
    """fn(*args) under the per-query wall budget; (result, error name)."""
    signal.setitimer(signal.ITIMER_REAL, budget_s)
    try:
        return fn(*args), None
    except OverBudget:
        return None, "over-budget"
    except MemoryError:
        return None, "MemoryError"
    except Exception as e:  # noqa: BLE001 - a failed query is a counted result
        return None, f"{type(e).__name__}: {e}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def main():
    job = json.load(sys.stdin)
    cap = job["as_cap_mb"] * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    signal.signal(signal.SIGALRM, _alarm)

    import selflink.indeterminacy as I
    import selflink.scenario as SC

    tracer = None
    if job["trace"]:
        import tracer as T
        tracer = T.Tracer()
        tracer.install()

    decisions = []   # (row, y1, y2, phi, result) in call order
    rows = []
    current = {}

    def capture(decide):
        def wrapped(y1, y2, phi, bounds=I.Bounds()):
            res = decide(y1, y2, phi, bounds)
            decisions.append((current["row"], y1, y2, phi, res))
            return res
        return wrapped

    I.decide_equal = capture(I.decide_equal)
    I.decide_equal_link = capture(I.decide_equal_link)
    budget = job["budget_s"]

    def timed_execute(scn, tokens, bounds):
        row = {"command": tokens[0], "verdict": None, "stage": None,
               "error": None}
        current["row"] = row
        rows.append(row)
        t0 = time.perf_counter()
        rec, err = _guarded(budget, SC.execute_query, scn, tokens, bounds)
        row["ms"] = (time.perf_counter() - t0) * 1000.0
        if err is not None:
            row["error"] = err
            return
        row["verdict"] = rec.get("decision_vs_zero", rec).get("verdict")

    bounds = I.Bounds()
    only = job.get("only")
    specs = [s for s in job["scenarios"] if only is None or s["key"] in only]
    parsed = [SC.parse_scenario(s["text"]) for s in specs]
    setup_s = time.perf_counter() - T_START
    for spec, scn in zip(specs, parsed):
        for q, (tokens, want) in enumerate(zip(scn.queries, spec["expect"])):
            timed_execute(scn, tokens, bounds)
            row = rows[-1]
            row["scenario"], row["index"] = spec["key"], q
            row["mismatch"] = (row["verdict"] in ("equal", "distinct")
                               and row["verdict"] != want)
    wall_s = time.perf_counter() - T_START
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # gate: outside the timed region and outside the trace
    if tracer is not None:
        tracer.enabled = False
    for row, y1, y2, phi, res in decisions:
        row["stage"] = _stage(I, y1, y2, phi, res)
        row["cert_steps"] = (len(res.certificate.steps)
                             if res.certificate is not None else 0)
        if res.verdict == "equal" and job["gate"]:
            ok, err = _guarded(budget, I.replay, res.certificate, y1, y2)
            if err is not None:
                row["error"] = row["error"] or f"replay: {err}"
            elif not ok:
                row["mismatch"] = True
                row["error"] = "certificate does not replay"
    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "rows": rows}
    if tracer is not None:
        out["layers"] = tracer.summary()
    _emit(out)


def _stage(I, y1, y2, phi, res):
    """Deciding stage, read from the DecisionResult and the presentation."""
    if res.verdict == "unknown":
        return "unknown"
    if res.verdict == "distinct":
        if res.separator in ("abelian-lattice", "support-multiset"):
            return res.separator
        return "separator"
    if y1 == y2:
        return "identical"
    if isinstance(phi, I.PhiLinkGroup):
        return "abelian-lattice" if I._link_abelian_applicable(phi) else "search"
    return "abelian-lattice" if I._abelian_applicable(phi) else "search"


def _emit(obj):
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    main()
