"""Scenario-file parsing, round-tripping, and query execution."""

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
                   philinks={"PL": pl},
                   queries=[["decide", "+1*[x]", "+2*[x]", "PL"]])
    text = print_scenario(scn)
    assert "philink PL knots k1 k2 toroidal1 lt1 toroidal2 lt2 left s right t" in text
    scn2 = parse_scenario(text)
    assert scn2.philinks == scn.philinks
    assert (execute_query(scn2, scn2.queries[0], I.Bounds())
            == execute_query(scn, scn.queries[0], I.Bounds()))
    assert print_scenario(scn2) == text


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
