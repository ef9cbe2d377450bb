"""Command-line interface: exit codes, JSON reports, strictness flags."""

import json
import os
import pathlib
import re
import resource
import subprocess
import sys

import pytest

import selflink.indeterminacy as I
from selflink.cli import _build_parser, main

SCN = """\
group free x y
knot k = x y
trace h : k -> k latitude x y points ( + x ) ( - y )
phi P knot k toroidal h
query decide "+1*[x]" "0" P
"""

UNKNOWN_SCN = """\
group free x y
knot k = x^2 y
trace lat : k -> k latitude x^2 y
sphere sigma unlink k
phi P knot k toroidal lat spheres sigma
query decide "+1*[x y x^-1]" "0" P
"""


@pytest.fixture
def scn_file(tmp_path):
    p = tmp_path / "case.scn"
    p.write_text(SCN)
    return str(p)


@pytest.fixture
def unknown_file(tmp_path):
    p = tmp_path / "unknown.scn"
    p.write_text(UNKNOWN_SCN)
    return str(p)


def test_normalize_command(scn_file, capsys):
    assert main(["normalize", scn_file, "x", "y", "y^-1"]) == 0
    assert capsys.readouterr().out.strip().endswith("x")


def test_canon_command(scn_file, capsys):
    assert main(["canon", scn_file, "k", "y"]) == 0
    out = capsys.readouterr().out
    assert "[x]" in out


def test_mu_command(scn_file, capsys):
    assert main(["mu", scn_file, "h"]) == 0
    assert capsys.readouterr().out.strip().endswith("0")


def test_run_command(scn_file, capsys):
    assert main(["run", scn_file]) == 0
    # [x] differs from 0 under pure conjugation; the separator certifies it
    assert "distinct" in capsys.readouterr().out


def test_decide_command(scn_file, capsys):
    assert main(["decide", scn_file, "+1*[x]", "+1*[x]", "P"]) == 0
    assert "equal" in capsys.readouterr().out


def test_json_report_schema(scn_file, capsys):
    assert main(["--json", "run", scn_file]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == 3
    assert rep["command"] == "run"
    assert set(rep["bounds"]) == {"depth", "support_len", "max_states"}
    assert isinstance(rep["results"], list) and rep["results"]
    assert rep["results"][0]["verdict"] in {"equal", "distinct", "unknown"}
    assert "wall_ms" in rep["timing"]


SCHEMA = pathlib.Path(__file__).parents[1] / "docs" / "report-schema.json"

# the lattice decision certifies y1 = y2 + 3 * (-[x]) with one step of
# exponent -3 along the toroidal generator (z, x) = (+[x], x)
LATTICE_SCN = """\
group abelian x
knot k = x^3
trace lat : k -> k latitude x points ( + x )
phi P knot k toroidal lat
query decide "+1*[x]" "+4*[x]" P
"""


def test_report_matches_the_schema_file(tmp_path, capsys):
    """The schema version and the keys of an emitted certificate and of its
    steps are exactly what docs/report-schema.json declares."""
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    cert_schema = schema["properties"]["results"]["items"]["properties"]["certificate"]
    step_schema = cert_schema["properties"]["steps"]["items"]
    p = tmp_path / "lattice.scn"
    p.write_text(LATTICE_SCN)
    assert main(["--json", "run", str(p)]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["schema"] == schema["properties"]["schema"]["const"]
    cert = rep["results"][0]["certificate"]
    assert set(cert) == set(cert_schema["required"])
    assert [set(step) for step in cert["steps"]] == [set(step_schema["required"])]
    assert set(step_schema["properties"]) == set(step_schema["required"])
    assert cert["steps"][0]["exponent"] == -3


def test_json_byte_stable_modulo_timing(scn_file, capsys):
    main(["--json", "run", scn_file])
    a = json.loads(capsys.readouterr().out)
    main(["--json", "run", scn_file])
    b = json.loads(capsys.readouterr().out)
    a.pop("timing")
    b.pop("timing")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_strict_exit_code_on_unknown(unknown_file):
    small = ["--depth", "2", "--support-len", "8"]
    assert main(small + ["run", unknown_file]) == 0
    assert main(["--strict"] + small + ["run", unknown_file]) == 2


def test_strict_sign_rejects_lenient_input(scn_file):
    assert main(["decide", scn_file, "2*[x]", "0", "P"]) == 0
    assert main(["--strict-sign", "decide", scn_file, "2*[x]", "0", "P"]) == 1
    assert main(["--strict-sign", "decide", scn_file, "+2*[x]", "0", "P"]) == 0


def test_missing_file_is_an_error(capsys):
    assert main(["run", "/nonexistent/file.scn"]) == 1


def test_parse_error_is_an_error(tmp_path):
    p = tmp_path / "bad.scn"
    p.write_text("group free x y\nknot k = q\n")
    assert main(["run", str(p)]) == 1


@pytest.mark.parametrize("text, argv, message", [
    (SCN, ["decide", "FILE", "+1*[x]"], ""),
    (SCN, ["canon", "FILE"], ""),
    (SCN, ["lambda", "FILE"], ""),
    (SCN.replace('"0" P', ""), ["run", "FILE"], ""),
    (SCN.replace("phi P knot k", "phi P"), ["run", "FILE"], ""),
    ("group free x y\nphilink P left\n", ["run", "FILE"], ""),
    (SCN, ["run"], ""),
    ("# no group line\n", ["normalize", "FILE", "x"], ""),
    ("query normalize x\n", ["run", "FILE"], ""),
    ("group free x y\nknot k\n", ["run", "FILE"],
     "line 2: incomplete 'knot' declaration"),
    ("group free x y\nknot k = x\nphi P conjugation\n", ["run", "FILE"],
     "line 3: incomplete 'phi' declaration"),
    (b"\xff\xfegroup free x y\n", ["run", "FILE"], "is not UTF-8 text"),
    (SCN, ["decide", "FILE", "", "0", "P"], "empty ring element"),
    (SCN, ["--strict-sign", "decide", "FILE", "+1*[]", "+1*[x]", "P"], "empty word"),
    ("group free x y\nknot k =\n", ["run", "FILE"], "line 2: empty word"),
    ("group free x y\nknot k = x\ntrace h : k -> k latitude points ( + x )\n",
     ["run", "FILE"], "line 3: empty word"),
    ("group free x y\nknot k = x\nsphere s points ( + ) ( - x )\n",
     ["lambda", "FILE", "s", "k"], "line 3: empty word (1 denotes the identity)"),
    ("group product [ free x\n", ["normalize", "FILE", "x"],
     "line 1: unterminated product factor '[ free x'"),
], ids=["decide-one-element", "canon-no-knot", "lambda-no-argument",
        "stored-query-too-short", "phi-without-knot", "philink-without-knots",
        "run-without-file", "normalize-without-group",
        "stored-query-without-group", "knot-without-word",
        "phi-without-arguments", "not-utf8", "blank-ring-element",
        "empty-class-word", "knot-with-empty-word", "latitude-without-word",
        "empty-point-word",
        "unterminated-product-factor"])
def test_malformed_input_is_an_error(text, argv, message, tmp_path, capsys):
    p = tmp_path / "case.scn"
    if isinstance(text, bytes):
        p.write_bytes(text)
    else:
        p.write_text(text)
    assert main([str(p) if a == "FILE" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert message in err


HUGE_KEY_GROUP_SCN = """\
group abelian x
knot k = x^100000000
trace h : k -> k latitude x
sphere s points ( + 1 ) ( + x )
phi P knot k toroidal h spheres s
query decide "+1*[x]" "0" P
"""


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def test_huge_key_group_answers_under_a_memory_cap(tmp_path):
    """The abelianization's lattice turn would enumerate 10^8 key classes,
    more than max_states, so it abstains and the decision goes on.  It runs
    in a child under a 1 GiB address-space cap and a timeout, so a failure
    fails the test instead of exhausting the machine."""
    p = tmp_path / "huge.scn"
    p.write_text(HUGE_KEY_GROUP_SCN)
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "selflink.cli", "run", str(p)],
                          env=env, preexec_fn=_cap_address_space,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "decide +1*[x] 0 P -> equal\n"


def test_query_time_unknown_name_has_no_line_number(scn_file, capsys):
    assert main(["mu", scn_file, "nosuch"]) == 1
    assert capsys.readouterr().err == "error: unknown trace 'nosuch'\n"


def test_bounds_flags_are_threaded(scn_file, capsys):
    assert main(["--json", "--depth", "3",
                 "--support-len", "9", "--max-states", "700",
                 "decide", scn_file, "+1*[x]", "0", "P"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["bounds"] == {"depth": 3, "support_len": 9, "max_states": 700}


BOUND_FLAGS = ["--" + name.replace("_", "-") for name in I.Bounds._fields]


def test_one_bound_list_everywhere():
    """The bounds of I.Bounds, the CLI's integer flags, the report schema's
    required bounds and the flags line of docs/format.md name the same
    bounds in the same order."""
    parser_flags = [a.option_strings[0] for a in _build_parser()._actions
                    if a.option_strings and a.type is int]
    schema = json.loads(SCHEMA.read_text(encoding="utf-8"))
    fmt = (SCHEMA.parent / "format.md").read_text(encoding="utf-8")
    flags_line = fmt[fmt.index("Flags:"):fmt.index("(search bounds")]
    assert parser_flags == BOUND_FLAGS
    assert schema["properties"]["bounds"]["required"] == list(I.Bounds._fields)
    assert re.findall(r"`(--[a-z-]+) [A-Z]`", flags_line) == BOUND_FLAGS


@pytest.mark.parametrize("flag", BOUND_FLAGS)
def test_negative_bounds_are_rejected(flag, scn_file, capsys):
    assert main([flag, "-1", "run", scn_file]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag} must be non-negative")


def test_help_shows_each_bound_default(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for name, default in I.Bounds().to_record().items():
        flag = "--" + name.replace("_", "-")
        # the flag's own help, up to the next option, ends with its default
        assert re.search(rf"{flag} [A-Z_]+ (?:(?!--).)*\(default: {default}\)", out), flag
