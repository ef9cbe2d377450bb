"""The value types are immutable records on tuples.

Values built separately from the same fields are equal and hash alike;
tuple concatenation, repetition and order are not inherited, so `+`, `*`
and `<` raise TypeError wherever a type does not define them; the
constructors still reject bad input; and the bracket reprs of words and
ring elements are unchanged.
"""

import pytest

import selflink.cosets as R
import selflink.groups as G
import selflink.indeterminacy as I
import selflink.linking as L
import selflink.separators as SEP
from selflink.errors import DimensionMismatch, EndpointMismatch, SpecMismatch

SPEC = G.free("x", "y")
X, Y = G.generator(SPEC, "x"), G.generator(SPEC, "y")
K = L.Knot("k", X)


def _factories():
    """One factory per value type; each call builds a fresh value from the
    same fields."""
    def ctx():
        return R.coset_ring(G.free("x", "y"), G.parse_word(SPEC, "x"))

    def ring():
        return R.parse_ring(ctx(), "+1*[y] -2*[x y]")

    def knot():
        return L.Knot("k", G.parse_word(SPEC, "x"))

    def trace():
        return L.Trace(knot(), knot(), [(1, G.parse_word(SPEC, "y"))], G.parse_word(SPEC, "x"))

    def cert():
        return I.Certificate(((I.PhiGen(ring(), (X,), "g"), -1),), (G.identity(SPEC),))

    return {
        "GroupSpec": lambda: G.free("x", "y"),
        "GroupElement": lambda: G.parse_word(SPEC, "x y^-1"),
        "RingContext": ctx,
        "RingElement": ring,
        "PhiGen": lambda: I.PhiGen(ring(), (G.parse_word(SPEC, "x"),), "toroidal[x]"),
        "PhiGroup": lambda: I.phi_conjugation_only(knot()),
        "Bounds": lambda: I.Bounds(depth=6),
        "Knot": knot,
        "Trace": trace,
        "SphereData": lambda: L.SphereData("s", ((1, G.parse_word(SPEC, "y")),)),
        "LinkTrace": lambda: L.LinkTrace(trace(), trace(), [(-1, G.parse_word(SPEC, "x y"))]),
        "Separator": lambda: SEP.cyclic_separator(G.free("x", "y"), 3),
        "Certificate": cert,
        "DecisionResult": lambda: I.DecisionResult("equal", certificate=cert()),
    }


FACTORIES = _factories()

# the types whose instances cache a derived property keep an instance dict
CACHING = {"GroupSpec", "GroupElement", "RingContext", "PhiGroup"}


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_equal_fields_give_equal_values_with_equal_hashes(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert a is not b
    assert type(a).__name__ == name
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_values_are_immutable(name):
    value = FACTORIES[name]()
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    assert hasattr(value, "__dict__") == (name in CACHING)


@pytest.mark.parametrize("name", sorted(FACTORIES))
def test_tuple_arithmetic_and_order_are_not_inherited(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    ops = {"<": lambda: a < b, "<=": lambda: a <= b, ">": lambda: a > b,
           ">=": lambda: a >= b, "sorted": lambda: sorted([a, b]),
           "int * value": lambda: 2 * a, "value * int": lambda: a * 2,
           "value + value": lambda: a + b, "value + tuple": lambda: a + (1,)}
    if name == "RingElement":
        # a ring element adds and subtracts ring elements
        del ops["value + value"], ops["value + tuple"]
    if name == "GroupElement":
        # a word multiplies with a word of its group only
        del ops["value * int"]
    for label, op in ops.items():
        try:
            op()
        except TypeError:
            continue
        pytest.fail(f"{name}: {label} did not raise TypeError")


def test_the_defined_operators_keep_their_meaning():
    assert X * Y == G.multiply(X, Y) == G.parse_word(SPEC, "x y")
    assert ~X == G.invert(X)
    ctx = R.coset_ring(SPEC, X)
    a, b = R.parse_ring(ctx, "+1*[y]"), R.parse_ring(ctx, "+2*[y] -1*[y x y]")
    assert a + b == R.add(a, b)
    assert a - b == R.add(a, R.negate(b))
    assert -a == R.negate(a)
    assert not G.identity(SPEC) and X
    assert not R.zero(ctx) and a


def test_bad_input_is_still_rejected():
    with pytest.raises(ValueError, match="unknown group kind"):
        G.GroupSpec("cyclic", ("x",))
    with pytest.raises(ValueError, match="bad generator label"):
        G.free("x", "2y")
    with pytest.raises(EndpointMismatch):
        L.Trace(K, L.Knot("j", Y), (), G.identity(SPEC))
    other = G.free("u", "v")
    foreign = L.Trace(*(L.Knot("u", G.generator(other, "u")),) * 2, (), G.identity(other))
    with pytest.raises(SpecMismatch):
        L.LinkTrace(L.Trace(K, K, (), X), foreign)
    with pytest.raises(DimensionMismatch):
        SEP.Separator("bad", SPEC, ((1, 0),), (0, 0))


def test_constructors_normalize_their_points():
    points = [(1, Y), (-1, X)]
    assert L.Trace(K, K, points, X).points == ((1, Y), (-1, X))
    assert L.Trace(K, K, iter(points), X) == L.Trace(K, K, tuple(points), X)
    assert L.LinkTrace(L.Trace(K, K, (), X), L.Trace(K, K, (), X), points).cross_points \
        == ((1, Y), (-1, X))


def test_bracket_reprs_are_unchanged():
    assert repr(G.parse_word(SPEC, "x y^-1 x^2")) == "[x y^-1 x^2]"
    assert repr(G.identity(SPEC)) == "[1]"
    ctx = R.coset_ring(SPEC, X)
    assert repr(R.parse_ring(ctx, "-1*[y] +2*[y x y]")) == "<-1*[y] +2*[y x y]>"
    assert repr(R.zero(ctx)) == "<0>"


def test_bounds_defaults_and_record():
    assert I.Bounds() == I.Bounds(6, 16, 50000)
    assert I.Bounds(max_states=7).to_record() == {
        "depth": 6, "support_len": 16, "max_states": 7}
