"""Scenario-file parsing, round-tripping, and query execution."""

import json
import pathlib
from importlib import resources

import pytest

import selflink as S
import selflink.indeterminacy as I
import selflink.linking as L
from selflink import ParseError, UnresolvedReference
from selflink.scenario import Scenario, execute_query, parse_scenario, print_scenario

BASIC = """\
# a knot in the free group on two letters
group free x y
knot k = x y
trace h : k -> k latitude x y points ( + x ) ( - y )
sphere s points ( + 1 ) ( - x )
phi P knot k toroidal h
query mu h
query decide "+1*[x]" "0" P
"""


def test_parse_basic():
    scn = parse_scenario(BASIC)
    assert set(scn.knots) == {"k"}
    assert set(scn.traces) == {"h"}
    assert set(scn.spheres) == {"s"}
    assert set(scn.phis) == {"P"}
    assert len(scn.queries) == 2
    assert scn.spec.labels == ("x", "y")


def test_parse_error_reports_line_number():
    bad = "group free x y\nknot k = x q\n"
    with pytest.raises(ParseError) as ei:
        parse_scenario(bad)
    assert "line 2" in str(ei.value)


def test_unresolved_reference_reports_line():
    bad = "group free x y\ntrace h : k -> k latitude 1\n"
    with pytest.raises((ParseError, UnresolvedReference)) as ei:
        parse_scenario(bad)
    assert "line 2" in str(ei.value)


# five declaration lines, then the line under test at line 6
DECLS = """\
group abelian x
knot k = x^2
trace a : k -> k latitude x
trace b : k -> k latitude 1
linktrace l : a b
"""


@pytest.mark.parametrize("line", [
    "phi P toroidal a",
    "phi P knot",
    "philink P toroidal1 l",
    "philink P knots k",
])
def test_missing_section_is_a_parse_error(line):
    with pytest.raises(ParseError, match="line 6: expected 'knots?' followed by"):
        parse_scenario(DECLS + line + "\n")


PRESENTATIONS = {"phi": "phi P conjugation k",
                 "philink": "philink P knots k k toroidal1 l toroidal2 l2"}


@pytest.mark.parametrize("first, second", [
    ("phi", "phi"), ("phi", "philink"), ("philink", "phi")])
def test_repeated_presentation_name_is_a_parse_error(first, second):
    """phi and philink share one namespace; nothing is shadowed."""
    text = (DECLS + "linktrace l2 : b a\n"
            + PRESENTATIONS[first] + "\n" + PRESENTATIONS[second] + "\n")
    with pytest.raises(ParseError, match="line 8: presentation 'P' already declared"):
        parse_scenario(text)


@pytest.mark.parametrize("tokens", [
    ["normalize"],
    ["canon", "k"],
    ["mu"],
    ["mu", "h", "h"],
    ["lambda"],
    ["relative"],
    ["decide", "+1*[x]"],
    ["spherical", "P", "P"],
], ids=" ".join)
def test_query_argument_count_is_checked(tokens):
    scn = parse_scenario(BASIC)
    with pytest.raises(ParseError, match=f"usage: {tokens[0]} "):
        execute_query(scn, tokens, I.Bounds())


def test_duplicate_group_rejected():
    bad = "group free x y\ngroup free z w\n"
    with pytest.raises(ParseError):
        parse_scenario(bad)


def test_declarations_before_use():
    bad = "group free x y\nphi P knot k toroidal h\nknot k = x y\n"
    with pytest.raises((ParseError, UnresolvedReference)):
        parse_scenario(bad)


def test_print_parse_round_trip():
    scn = parse_scenario(BASIC)
    text = print_scenario(scn)
    scn2 = parse_scenario(text)
    assert set(scn2.knots) == set(scn.knots)
    assert set(scn2.traces) == set(scn.traces)
    assert scn2.queries == scn.queries
    # printing is a fixed point
    assert print_scenario(scn2) == text


def test_bundled_scenarios_round_trip_through_print_scenario():
    """Every bundled scenario, printed and parsed back, gives the records of
    the golden report, and printing it again gives the same text."""
    golden = json.loads((pathlib.Path(__file__).with_name("data")
                         / "bundled_records.json").read_text(encoding="utf-8"))
    for entry in resources.files("selflink").joinpath("scenarios").iterdir():
        if not entry.name.endswith(".scn"):
            continue
        scn = parse_scenario(entry.read_text(encoding="utf-8"))
        text = print_scenario(scn)
        scn2 = parse_scenario(text)
        assert print_scenario(scn2) == text, entry.name
        assert scn2.queries == scn.queries, entry.name
        if entry.name in golden:  # free_x2y.scn's search takes seconds
            assert [execute_query(scn2, q, I.Bounds()) for q in scn2.queries] \
                == golden[entry.name], entry.name


def test_print_parse_round_trip_of_a_built_link():
    """A link scenario built in code reprints its toroidal and sphere
    sections: one toroidal link trace per component, spheres on both sides."""
    spec = S.free_abelian("x")
    x, one = S.generator(spec, "x"), S.identity(spec)
    k1, k2 = L.Knot("k1", S.power(x, 2)), L.Knot("k2", S.power(x, 4))
    traces = {"a1": L.Trace(k1, k1, (), x), "a2": L.Trace(k2, k2, (), one),
              "b1": L.Trace(k1, k1, (), one), "b2": L.Trace(k2, k2, (), x)}
    linktraces = {"lt1": L.LinkTrace(traces["a1"], traces["a2"], ((1, x),)),
                  "lt2": L.LinkTrace(traces["b1"], traces["b2"], ())}
    spheres = {"s": L.SphereData("s", ((1, one), (-1, x))),
               "t": L.SphereData("t", ((1, x), (-1, S.power(x, 3))))}
    pl = I.build_phi_link(k1, k2, [linktraces["lt1"]], [linktraces["lt2"]],
                          [spheres["s"]], [spheres["t"]])
    scn = Scenario(spec, {"k1": k1, "k2": k2}, traces, spheres, linktraces,
                   phis={"PL": pl},
                   queries=[["decide", "+1*[x]", "+2*[x]", "PL"]])
    text = print_scenario(scn)
    assert "philink PL knots k1 k2 toroidal1 lt1 toroidal2 lt2 left s right t" in text
    scn2 = parse_scenario(text)
    assert scn2.phis == scn.phis
    assert (execute_query(scn2, scn2.queries[0], I.Bounds())
            == execute_query(scn, scn.queries[0], I.Bounds()))
    assert print_scenario(scn2) == text


def test_print_parse_round_trip_of_a_built_conjugation_presentation():
    spec = S.free("x", "y")
    k = L.Knot("k", S.parse_word(spec, "x y"))
    scn = Scenario(spec, {"k": k}, phis={"P": I.phi_conjugation_only(k)})
    text = print_scenario(scn)
    assert "phi P conjugation k" in text.splitlines()
    assert parse_scenario(text).phis == scn.phis


def _built_with_unnamed(entry):
    """A built scenario whose presentation P uses a trace, sphere or link
    trace that the scenario's tables leave out."""
    spec = S.free("x", "y")
    x, y = S.generator(spec, "x"), S.generator(spec, "y")
    k = L.Knot("k", S.multiply(x, y))
    h = L.Trace(k, k, ((1, x), (1, S.invert(y))), k.gamma)  # mu = 2[x]
    s = L.SphereData("s", ((1, S.identity(spec)), (-1, x)))
    if entry == "trace":
        return Scenario(spec, {"k": k}, phis={"P": I.build_phi(k, [h])})
    if entry == "sphere":
        return Scenario(spec, {"k": k}, {"h": h}, phis={"P": I.build_phi(k, [h], [s])})
    e = L.Trace(k, k, (), S.identity(spec))
    lt1, lt2 = L.LinkTrace(h, e, ((1, y),)), L.LinkTrace(e, h, ())
    return Scenario(spec, {"k": k}, {"h": h, "e": e},
                    phis={"P": I.build_phi_link(k, k, [lt1], [lt2])})


@pytest.mark.parametrize("entry", ["trace", "sphere", "linktrace"])
def test_print_scenario_names_a_presentation_with_unnamed_entries(entry):
    with pytest.raises(UnresolvedReference, match=f"presentation 'P' uses a {entry} "):
        print_scenario(_built_with_unnamed(entry))


def test_execute_mu_query():
    scn = parse_scenario(BASIC)
    rec = execute_query(scn, scn.queries[0], I.Bounds())
    assert rec["command"] == "mu"
    # gamma = x y, so [y] canonicalizes to [x]: the two points cancel
    assert rec["result"] == "0"


def test_execute_decide_query():
    scn = parse_scenario(BASIC)
    rec = execute_query(scn, scn.queries[1], I.Bounds())
    assert rec["command"] == "decide"
    assert rec["verdict"] in {"equal", "distinct", "unknown"}


def test_execute_normalize_and_canon():
    scn = parse_scenario(BASIC)
    rec = execute_query(scn, ["normalize", "x", "y", "y^-1"], I.Bounds())
    assert rec["result"] == "x"
    rec = execute_query(scn, ["canon", "k", "y", "x"], I.Bounds())
    assert rec["result"].startswith("[")


def test_execute_spherical():
    # in BASIC the two points cancel, so the presentation is spherical
    scn = parse_scenario(BASIC)
    rec = execute_query(scn, ["spherical", "P"], I.Bounds())
    assert rec["result"] is True
    # a non-cancelling trace makes it non-spherical
    text = BASIC.replace("( + x ) ( - y )", "( + x ) ( + x )")
    scn2 = parse_scenario(text)
    rec2 = execute_query(scn2, ["spherical", "P"], I.Bounds())
    assert rec2["result"] is False


def test_product_group_declaration():
    text = "group product [ free x y ] [ abelian z ]\nknot k = x z\n"
    import selflink.groups as G
    scn = parse_scenario(text)
    assert scn.spec.kind == G.FREE_PRODUCT
    assert scn.spec.labels == ("x", "y", "z")


def test_sphere_unlink_shorthand():
    text = ("group free x y\nknot k = x y\n"
            "sphere s unlink k\n")
    scn = parse_scenario(text)
    assert len(scn.spheres["s"].points) == 2


def test_separator_declaration_is_rejected():
    # no decision consults a declared separator, so the grammar has none
    text = ("group free x y\n"
            "separator m2 x -> ( 1 0 ) y -> ( 0 1 ) mod ( 2 2 )\n")
    with pytest.raises(ParseError, match="line 2: unknown declaration 'separator'"):
        parse_scenario(text)


def test_conjugation_preset():
    text = "group free x y\nknot k = x y\nphi P conjugation k\n"
    scn = parse_scenario(text)
    phi = scn.phis["P"]
    assert I.is_spherical_presented(phi)


def test_comments_and_blank_lines_ignored():
    text = "\n# leading comment\n\ngroup free x y  # trailing\n\nknot k = x\n"
    scn = parse_scenario(text)
    assert set(scn.knots) == {"k"}
