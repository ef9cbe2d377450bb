"""Command-line interface: scenario execution and the bundled example suite.

    selflink normalize FILE WORD...
    selflink canon FILE KNOT WORD...
    selflink mu FILE TRACE
    selflink lambda FILE SPHERE KNOT | selflink lambda FILE LINKTRACE
    selflink relative FILE TRACE [PHI]
    selflink decide FILE ELEM1 ELEM2 [PHI]
    selflink spherical FILE [PHI]
    selflink run FILE                 # execute the file's stored queries
    selflink examples                 # bundled worked-example suite

Exit codes: 0 success, 1 error, 2 any Unknown verdict under --strict.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from importlib import resources

from . import indeterminacy as I
from . import scenario as SC
from .errors import ParseError, SelfLinkError

SCHEMA_VERSION = 3


def _build_parser():
    bounds = I.Bounds()
    p = argparse.ArgumentParser(
        prog="selflink",
        description="Algebraic self-linking and linking numbers of knots in "
                    "3-manifolds with tractable fundamental groups.")
    p.add_argument("--depth", type=int, default=bounds.depth,
                   help="orbit search composition depth (default: %(default)s)")
    p.add_argument("--support-len", type=int, default=bounds.support_len,
                   help="letter cap per class key and per sphere translate "
                        "during the search (default: %(default)s)")
    p.add_argument("--max-states", type=int, default=bounds.max_states,
                   help="visited-state cap per search direction, and cap on "
                        "the key classes a lattice turn enumerates "
                        "(default: %(default)s)")
    p.add_argument("--json", action="store_true", help="structured JSON report")
    p.add_argument("--strict", action="store_true",
                   help="exit 2 if any verdict is Unknown")
    p.add_argument("--strict-sign", action="store_true",
                   help="require explicitly signed coefficients in ring elements")
    p.add_argument("command", choices=[*SC._USAGE, "run", "examples"])
    p.add_argument("args", nargs="*")
    return p


def _load(path: str) -> SC.Scenario:
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as e:
            raise ParseError(f"{path} is not UTF-8 text ({e.reason} at byte {e.start})") from e
    return SC.parse_scenario(text)


def _emit(report, as_json, wall_ms):
    if as_json:
        full = dict(report)
        full["timing"] = {"wall_ms": wall_ms}
        print(json.dumps(full, indent=2, sort_keys=True))
        return
    for rec in report["results"]:
        line = f"{rec['command']} {' '.join(rec.get('args', []))}".strip()
        if "result" in rec:
            line += f" -> {rec['result']}"
        if "verdict" in rec:
            line += f" -> {rec['verdict']}"
            if rec.get("separator"):
                line += f" (separator: {rec['separator']})"
        if "decision_vs_zero" in rec:
            d = rec["decision_vs_zero"]
            line += f" ; vs 0: {d['verdict']}"
            if d.get("separator"):
                line += f" (separator: {d['separator']})"
        if "status" in rec:
            line = f"{rec['status']:4s} {line}"
        print(line)


def _collect_unknown(report):
    for rec in report["results"]:
        if rec.get("verdict") == "unknown":
            return True
        if rec.get("decision_vs_zero", {}).get("verdict") == "unknown":
            return True
    return False


# ---------------------------------------------------------------------------
# bundled example suite

# Each entry: scenario resource name, then per-query (path, expected) checks.
# The queries live inside the scenario files; expectations pin the worked
# values the library must reproduce.
_EXAMPLE_CHECKS = [
    ("fibered_fxs1.scn", [
        [(("result",), "+1*[x] -1*[z]")],
        [(("result",), "+1*[x] -1*[z]"),
         (("decision_vs_zero", "verdict"), "distinct"),
         (("decision_vs_zero", "separator"), "abelianization")],
        [(("result",), True)],
    ]),
    ("s1xs2_n3.scn", [
        [(("result",), "+2*[x]")],
        [(("verdict",), "equal")],
        [(("verdict",), "distinct")],
    ]),
    ("s1xs2_n4.scn", [
        [(("result",), "+2*[x] +1*[x^2]")],
        [(("verdict",), "equal")],
        [(("verdict",), "distinct")],
        [(("result",), "+1*[1] +1*[x] +1*[x^-1] +1*[x^2]")],
    ]),
    ("fz_nonspherical.scn", [
        [(("verdict",), "equal")],
        [(("verdict",), "distinct"), (("separator",), "support-multiset")],
        [(("result",), False)],
        [(("result",), True)],
    ]),
    ("free_xy.scn", [
        [(("result",), "0")],
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
    ]),
    ("free_x2y.scn", [
        [(("verdict",), lambda v: v in ("distinct", "unknown"))],
    ]),
    ("free_comm.scn", [
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
        [(("verdict",), "equal")],
    ]),
    ("s1xs2_link.scn", [
        [(("verdict",), "equal")],
        [(("verdict",), "distinct")],
    ]),
]


def _dig(rec, path):
    for p in path:
        if not isinstance(rec, dict) or p not in rec:
            return None
        rec = rec[p]
    return rec


def run_examples(bounds: I.Bounds):
    """Run every bundled scenario's queries against the pinned expectations."""
    results = []
    failures = 0
    base = resources.files(__package__) / "scenarios"
    for fname, per_query in _EXAMPLE_CHECKS:
        scn = SC.parse_scenario((base / fname).read_text(encoding="utf-8"))
        for idx, (tokens, checks) in enumerate(zip(scn.queries, per_query)):
            rec = SC.execute_query(scn, tokens, bounds)
            ok = True
            for path, want in checks:
                got = _dig(rec, path)
                good = want(got) if callable(want) else got == want
                if not good:
                    ok = False
                    rec[f"expected[{'.'.join(path)}]"] = repr(want)
            rec["scenario"] = fname
            rec["query_index"] = idx
            rec["status"] = "PASS" if ok else "FAIL"
            failures += 0 if ok else 1
            results.append(rec)
    return results, failures


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    opts = _build_parser().parse_args(argv)
    bounds = I.Bounds(**{name: getattr(opts, name) for name in I.Bounds._fields})
    for name, value in bounds.to_record().items():
        if value < 0:
            print(f"error: --{name.replace('_', '-')} must be non-negative, "
                  f"got {value}", file=sys.stderr)
            return 1
    t0 = time.perf_counter()
    report = {"schema": SCHEMA_VERSION, "command": opts.command,
              "args": list(opts.args), "bounds": bounds.to_record(),
              "results": []}
    try:
        if opts.command != "examples" and not opts.args:
            raise SelfLinkError(f"{opts.command} needs a scenario file")
        if opts.command == "examples":
            results, failures = run_examples(bounds)
            report["results"] = results
            report["failures"] = failures
        elif opts.command == "run":
            scn = _load(opts.args[0])
            for tokens in scn.queries:
                report["results"].append(SC.execute_query(
                    scn, tokens, bounds, strict_sign=opts.strict_sign))
        else:
            scn = _load(opts.args[0])
            report["results"].append(SC.execute_query(
                scn, [opts.command] + opts.args[1:], bounds,
                strict_sign=opts.strict_sign))
    except (SelfLinkError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    wall_ms = int((time.perf_counter() - t0) * 1000)
    _emit(report, opts.json, wall_ms)
    if report.get("failures"):
        return 1
    if opts.strict and _collect_unknown(report):
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
