"""The deterministic report of the bundled scenarios, pinned byte for byte.

The golden file holds the `execute_query` record of every stored query of
every bundled scenario except `free_x2y.scn`, at default bounds.  That one
query exhausts the search (`selflink run free_x2y.scn` takes 1.5 s with
Python 3.11 on a 2-vCPU virtual machine, most of it in the search) and its
Unknown is pinned by the acceptance gate and by the CLI's example checks.

After an intended change to the report, regenerate the file with

    PYTHONPATH=src python tests/test_report_golden.py
"""

import json
import pathlib
from importlib import resources

import selflink.indeterminacy as I
import selflink.scenario as SC

GOLDEN = pathlib.Path(__file__).with_name("data") / "bundled_records.json"
SKIPPED = {"free_x2y.scn"}


def bundled_records():
    """{scenario file name: [execute_query record per stored query]}."""
    out = {}
    for entry in sorted(resources.files("selflink").joinpath("scenarios").iterdir(),
                        key=lambda p: p.name):
        if not entry.name.endswith(".scn") or entry.name in SKIPPED:
            continue
        scn = SC.parse_scenario(entry.read_text(encoding="utf-8"))
        out[entry.name] = [SC.execute_query(scn, tokens, I.Bounds())
                           for tokens in scn.queries]
    return out


def _dump(records):
    return json.dumps(records, indent=1, sort_keys=True) + "\n"


def test_bundled_records_match_golden():
    assert _dump(bundled_records()) == GOLDEN.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(_dump(bundled_records()), encoding="utf-8")
