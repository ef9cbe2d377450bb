"""Seeded end-to-end benchmark of selflink's certified orbit decisions.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads:

  orbit-search     seeded free-group, free x Z and 2-component link
                   decisions, Equal by construction
  abelian-lattice  seeded rank-1 circle x sphere decisions, Equal by
                   construction or labelled by an independent lattice check

Each scenario runs in a fresh interpreter (`bench/worker.py`), as a
command-line user runs one scenario file per `selflink` call: the
`canonicalize` cache starts cold, and queries run one at a time (closed
loop, one client).  The first cycle runs every scenario once and alone
replays the Equal certificates; its verdicts give the failure and decision
counts.  Then cycles over the scenarios repeat while `--seconds` lasts; a
scenario with a failed query is not run again, and one whose last run
does not fit in the time left is left out of the rest of the run.

  setup_s        median over the run's scenario runs of the set-up:
                 import of selflink, parsing and Phi construction
  wall_s         sum over the scenarios of the median wall time of a run
                 of the scenario, set-up included
  query_p50_ms,  median and 90th percentile over the queries of the batch,
  query_p90_ms   where a query's time is its median over the run
  decided_ratio  (equal + distinct) / decisions, first cycle
  ok_ratio       1 - failed / attempted, first cycle; a query fails when it
                 raises, runs over budget or contradicts its expectation
  peak_rss_mb    largest median `ru_maxrss` of a scenario whose queries all
                 succeed (a failing one stops at the address-space cap)

Times are medians over the run, not minimums: on a shared machine the
same work swings by up to 1.8x, in stretches of seconds to minutes, in
both directions, and a minimum depends on whether a run met a fast
stretch.  The sample counts are printed with the metrics.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1` an
untraced and a traced pass give the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object.
Exit code 1 when a verdict contradicts its construction, reference check
or pinned expectation, or an Equal certificate fails to replay; exit code 2
when the program cannot be found or a worker process crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gen  # noqa: E402

WORKLOADS = ("orbit-search", "abelian-lattice")
# Per-query wall budget, several times the slowest verdict seen on each
# workload: orbit-search about 4 s, abelian-lattice about 0.5 s
# (certificates of up to about 1400 unit steps; larger ones run into this
# budget or the address-space cap).
BUDGET_S = {"orbit-search": 30.0, "abelian-lattice": 2.0}
# Address-space cap of each scenario run's process, about 30 times the peak
# of the scenarios that succeed (20-35 MB on every workload).  The
# unit-step certificates of abelian-lattice grow until they hit it; those
# scenarios fail and are left out of peak_rss_mb, which would otherwise
# read the cap.
AS_CAP_MB = 1024
HASH_SEED = "0"          # PYTHONHASHSEED of every worker process
WORKER_TIMEOUT_S = 170   # a worker that runs longer is a crash
DECISIONS = ("decide", "relative")
STAGES = ("abelian-lattice", "separator", "support-multiset", "search",
          "identical", "unknown")


def run_worker(job, hash_seed=HASH_SEED):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")],
        input=json.dumps(job), capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def make_job(workload, seed, trace, only=None, gate=True):
    job = {"workload": workload, "trace": trace, "gate": gate,
           "budget_s": BUDGET_S[workload], "as_cap_mb": AS_CAP_MB,
           "only": only, "scenarios": gen.generate(workload, seed)}
    for i, scn in enumerate(job["scenarios"]):
        scn["key"] = f"{i}:{scn['family']}"
    return job


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def summarize(runs):
    """End-to-end metrics and counts over the scenario runs of one run,
    keyed by scenario, first run first.  Verdicts and failures are those
    of the first cycle."""
    first = [row for r in runs.values() for row in r[0]["rows"]]
    times = {}
    for r in runs.values():
        for out in r:
            for row in out["rows"]:
                times.setdefault((row["scenario"], row["index"]), []).append(row["ms"])
    per_query = [statistics.median(times[(r["scenario"], r["index"])])
                 for r in first]
    decisions = [r for r in first if r["command"] in DECISIONS]
    decided = [r for r in decisions if r["verdict"] in ("equal", "distinct")]
    failed = [r for r in first if r["error"] is not None or r["mismatch"]]
    failing = {r["scenario"] for r in failed}
    rss = [statistics.median(out["peak_rss_mb"] for out in r)
           for key, r in runs.items() if key not in failing]
    setups = [out["setup_s"] for r in runs.values() for out in r]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(statistics.median(out["wall_s"] for out in r)
                       for r in runs.values()), "s"),
        "query_p50_ms": (statistics.median(per_query), "ms"),
        "query_p90_ms": (quantile(per_query, 90), "ms"),
        "decided_ratio": (len(decided) / len(decisions), "ratio"),
        "ok_ratio": (1.0 - len(failed) / len(first), "ratio"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    counts = {"attempted": len(first), "failed": len(failed),
              "decisions": len(decisions), "decided": len(decided),
              "error_ratio": len(failed) / len(first),
              "samples": sum(len(t) for t in times.values()),
              "scenario_runs": len(setups),
              "mismatches": sum(1 for r in runs.values() for out in r
                                for row in out["rows"] if row["mismatch"])}
    return metrics, counts, per_query, first


def stage_counts(rows):
    out = {}
    for r in rows:
        if r["stage"] is not None:
            out[r["stage"]] = out.get(r["stage"], 0) + 1
    return out


def verdicts(rows):
    return [(r["verdict"], r["error"] is None) for r in rows]


def timed_worker(job):
    """run_worker, plus the run's cost in seconds, process start included."""
    t0 = time.perf_counter()
    out = run_worker(job)
    return out, time.perf_counter() - t0


def collect(args):
    """Every scenario run of one run, within --seconds, keyed by scenario.

    The first cycle runs each scenario once, and alone replays
    certificates.  Then cycles repeat until the time is up; a scenario
    with a failed query is not run again, and one whose last run costs
    more than the time left is dropped for the rest of the run.  Every
    scenario run checks its verdicts."""
    t0 = time.perf_counter()
    job = make_job(args.workload, args.seed, False)
    keys = [scn["key"] for scn in job["scenarios"]]
    runs, cost = {}, {}
    for key in keys:
        out, cost[key] = timed_worker(dict(job, only=[key]))
        runs[key] = [out]
    active = [key for key in keys
              if all(row["error"] is None and not row["mismatch"]
                     for row in runs[key][0]["rows"])]
    while active:
        for key in list(active):
            if cost[key] > args.seconds - (time.perf_counter() - t0):
                active.remove(key)
                continue
            out, cost[key] = timed_worker(dict(job, only=[key], gate=False))
            runs[key].append(out)
    return runs


def measure(args):
    runs = collect(args)
    metrics, counts, per_query, first = summarize(runs)
    dropped = [key for key, r in runs.items() if len(r) == 1]
    print(f"workload {args.workload} seed {args.seed}: {len(runs)} scenarios, "
          f"{counts['scenario_runs']} scenario runs (run once: "
          f"{', '.join(dropped) or 'none'}), {counts['attempted']} "
          f"queries, {counts['samples']} timed executions, "
          f"PYTHONHASHSEED={HASH_SEED}")
    print("scenario          query verdict      stage             median ms")
    for row, ms in zip(first, per_query):
        print(f"{row['scenario']:<17} {row['index']:>5} "
              f"{str(row['verdict'] or row['error'] or '-'):<12} "
              f"{str(row['stage'] or '-'):<17} {ms:10.2f}")
    for r in first:
        if r["error"] is not None or r["mismatch"]:
            print(f"failed: {r['scenario']} #{r['index']}: "
                  f"{r['error'] or 'verdict contradicts expectation'}")
    print(f"stages: {json.dumps(stage_counts(first), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<16} {value:14.6f} {unit}")
    print(f"{'error_ratio':<16} {counts['error_ratio']:14.6f} ratio "
          f"({counts['failed']}/{counts['attempted']})")
    print(f"decisions        {counts['decided']}/{counts['decisions']} decided")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, counts


def trace(args):
    plain = run_worker(make_job(args.workload, args.seed, False))
    traced = run_worker(make_job(args.workload, args.seed, True))
    layers = dict(traced["layers"])
    rows = traced["rows"]
    stages = stage_counts(rows)
    for stage in STAGES:
        layers[f"indeterminacy.decided_by.{stage}"] = stages.get(stage, 0)
    layers["indeterminacy.cert_steps.total"] = sum(r.get("cert_steps", 0)
                                                   for r in rows)
    layers["trace.wall_s"] = traced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    same = verdicts(plain["rows"]) == verdicts(rows)
    print(f"workload {args.workload} seed {args.seed}: traced pass")
    print(f"untraced wall {plain['wall_s']:.3f} s, traced wall "
          f"{traced['wall_s']:.3f} s, tracing overhead "
          f"{layers['trace.overhead_s']:.3f} s; verdicts identical: {same}")
    for name, value in layers.items():
        print(f"{name:<46} {value:16.6f} {_layer_unit(name)}")
    counts = {"attempted": len(rows),
              "failed": sum(1 for r in rows if r["error"] is not None
                            or r["mismatch"]),
              "mismatches": sum(1 for r in rows + plain["rows"] if r["mismatch"])
              + (0 if same else 1)}
    return ({k: {"value": v, "unit": _layer_unit(k)} for k, v in layers.items()},
            counts)


def _layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith("digits"):
        return "digits"
    return "count"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "selflink", "__init__.py")):
        print(f"error: selflink sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, counts = (trace if args.trace else measure)(args)
    except (RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    correct = counts["mismatches"] == 0
    print(json.dumps({"correct": correct, "attempted": counts["attempted"],
                      "failed": counts["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
