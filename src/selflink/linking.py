"""Knots, singular concordances as combinatorial data, and their invariants.

A trace records what the invariants actually consume: a list of signed
double points labelled by group elements, plus the latitude element in the
centralizer of the knot's class.  Whisker changes are not stored; they are
applied explicitly via ``rebase``.
"""

from __future__ import annotations

from . import cosets as R
from . import groups as G
from .errors import (EndpointMismatch, InvariantViolation, NonVanishingLinking,
                     NotInCentralizer, SpecMismatch)

Point = tuple[int, G.GroupElement]  # (sign, double-point group element)


def _check_points(spec, points):
    out = []
    for s, g in points:
        if s not in (1, -1):
            raise InvariantViolation(f"double-point sign must be +1 or -1, got {s}")
        if g.spec != spec:
            raise SpecMismatch("double-point element belongs to a different spec")
        out.append((s, g))
    return tuple(out)


class Knot(G.value_type("Knot", "label gamma")):
    """(label, gamma): a named knot and its class gamma in pi_1."""
    __slots__ = ()

    @property
    def spec(self):
        return self.gamma.spec


class Trace(G.value_type("Trace", "knot_from knot_to points latitude")):
    """(knot_from, knot_to, points, latitude): a homotopy between two knots
    of one class, its double points as (sign, group element) and its
    latitude in the centralizer of the class."""
    __slots__ = ()

    def __new__(cls, knot_from: Knot, knot_to: Knot, points, latitude: G.GroupElement):
        if knot_from.spec != knot_to.spec:
            raise SpecMismatch("trace endpoints live in different groups")
        if knot_from.gamma != knot_to.gamma:
            raise EndpointMismatch(
                f"trace endpoints {knot_from.label!r} and {knot_to.label!r} "
                "are in different classes")
        if latitude.spec != knot_from.spec:
            raise SpecMismatch("latitude belongs to a different spec")
        if not G.commutes(latitude, knot_from.gamma):
            raise NotInCentralizer(
                f"latitude {G.format_word(latitude)} does not centralize "
                f"{G.format_word(knot_from.gamma)}")
        return super().__new__(cls, knot_from, knot_to,
                               _check_points(knot_from.spec, points), latitude)

    @property
    def spec(self):
        return self.knot_from.spec

    @property
    def gamma(self):
        return self.knot_from.gamma


class SphereData(G.value_type("SphereData", "label points")):
    """(label, points): a sphere's double points as (sign, group element)."""
    __slots__ = ()


class LinkTrace(G.value_type("LinkTrace", "trace1 trace2 cross_points")):
    """(trace1, trace2, cross_points): a trace per link component and the
    intersections between the two, as (sign, group element)."""
    __slots__ = ()

    def __new__(cls, trace1: Trace, trace2: Trace, cross_points=()):
        if trace1.spec != trace2.spec:
            raise SpecMismatch("link trace components live in different groups")
        return super().__new__(cls, trace1, trace2, _check_points(trace1.spec, cross_points))


# ---------------------------------------------------------------------------
# self-intersection invariants


def mu_trace(t: Trace) -> R.RingElement:
    """Signed class sum of t's double points in the relative coset ring."""
    ctx = R.coset_ring(t.spec, t.gamma)
    return R.from_terms(ctx, [(g, s) for s, g in t.points])


def mu_absolute(spec: G.GroupSpec, points) -> R.RingElement:
    """Self-linking of a null-homotopic knot from its disk double points."""
    ctx = R.reduced_ring(spec)
    return R.from_terms(ctx, [(g, s) for s, g in _check_points(spec, points)])


def mu_pi(spec: G.GroupSpec, points) -> R.RingElement:
    """mu_absolute pushed to conjugacy classes modulo inversion."""
    ctx = R.conjugacy_ring(spec)
    return R.from_terms(ctx, [(g, s) for s, g in _check_points(spec, points)])


def compose(h: Trace, h2: Trace) -> Trace:
    """Composite trace; the latitude conjugation is pushed into the points,
    so the composition law mu(h+h2) = mu(h) + phi mu(h2) phi^-1 is exact."""
    if (h.knot_to.label, h.knot_to.gamma) != (h2.knot_from.label, h2.knot_from.gamma):
        raise EndpointMismatch(
            f"cannot compose: {h.knot_to.label!r} != {h2.knot_from.label!r}")
    phi = h.latitude
    moved = tuple((s, G.conjugate(g, phi)) for s, g in h2.points)
    return Trace(h.knot_from, h2.knot_to, h.points + moved,
                 G.multiply(phi, h2.latitude))


def invert_trace(h: Trace) -> Trace:
    phi_inv = G.invert(h.latitude)
    flipped = tuple((-s, G.conjugate(g, phi_inv)) for s, g in h.points)
    return Trace(h.knot_to, h.knot_from, flipped, phi_inv)


def rebase(h: Trace, alpha: G.GroupElement) -> Trace:
    """Whisker change: conjugate every datum by alpha in the centralizer."""
    if not G.commutes(alpha, h.gamma):
        raise NotInCentralizer(
            f"{G.format_word(alpha)} does not centralize {G.format_word(h.gamma)}")
    pts = tuple((s, G.conjugate(g, alpha)) for s, g in h.points)
    return Trace(h.knot_from, h.knot_to, pts, G.conjugate(h.latitude, alpha))


# ---------------------------------------------------------------------------
# sphere pairings and link invariants


def sphere_pairing_context(k: Knot) -> R.RingContext:
    """The unreduced coset ring (gamma on both sides, nothing dropped)."""
    return R.two_sided_ring(k.spec, k.gamma, k.gamma)


def lambda_sphere(sigma: SphereData, k: Knot) -> R.RingElement:
    ctx = sphere_pairing_context(k)
    return R.from_terms(ctx, [(g, s) for s, g in sigma.points])


def translate_points(g: G.GroupElement, points) -> tuple[Point, ...]:
    """Left-translate raw double-point data by g (the g.sigma sphere)."""
    return tuple((s, G.multiply(g, p)) for s, p in points)


def lambda_sphere_combo(coeffs, k: Knot) -> R.RingElement:
    """Pairing of an integer combination sum g_i . sigma_i against k."""
    ctx = sphere_pairing_context(k)
    out = R.zero(ctx)
    for g, sigma in coeffs:
        pts = translate_points(g, sigma.points)
        out = R.add(out, R.from_terms(ctx, [(p, s) for s, p in pts]))
    return out


def sphere_for_unlink_complement(gamma: G.GroupElement) -> SphereData:
    """Splitting-sphere pairing data for a knot of class gamma in the
    complement of a 2-component unlink (free fundamental group).

    The points are the alternating signed inverses of the syllable prefixes
    of gamma, starting with +1 at the empty prefix.
    """
    spec = gamma.spec
    if spec.kind != G.FREE:
        raise SpecMismatch("the unlink-complement sphere needs a free group")
    points = []
    prefix = G.identity(spec)
    for j, syll in enumerate(gamma.syllables):
        sign = 1 if j % 2 == 0 else -1
        points.append((sign, G.invert(prefix)))
        prefix = G.multiply(prefix, G.make_element(spec, [syll]))
    return SphereData(f"split[{G.format_word(gamma)}]", tuple(points))


def lambda_link(lt: LinkTrace) -> R.RingElement:
    ctx = R.two_sided_ring(lt.trace1.spec, lt.trace1.gamma, lt.trace2.gamma)
    return R.from_terms(ctx, [(g, s) for s, g in lt.cross_points])


def lambda_absolute(spec: G.GroupSpec, cross_points) -> R.RingElement:
    ctx = R.plain_ring(spec)
    return R.from_terms(ctx, [(g, s) for s, g in _check_points(spec, cross_points)])


# ---------------------------------------------------------------------------
# connected sum and realization


def connect_sum(d1, d2, band: G.GroupElement, cross_points=()):
    """Double points of a band sum of two singular null-concordances.

    The result satisfies mu = mu(d1) + band mu(d2) band^-1 + lambda band^-1
    exactly at the point-list level.  The cross-point linking must vanish in
    the plain group ring, which is the hypothesis for conjugacy-class
    additivity.
    """
    spec = band.spec
    d1 = _check_points(spec, d1)
    d2 = _check_points(spec, d2)
    cross_points = _check_points(spec, cross_points)
    if lambda_absolute(spec, cross_points):
        raise NonVanishingLinking(
            "cross-point linking does not vanish; separate the knots first")
    band_inv = G.invert(band)
    out = list(d1)
    out.extend((s, G.conjugate(g, band)) for s, g in d2)
    out.extend((s, G.multiply(g, band_inv)) for s, g in cross_points)
    return tuple(out)


def realize_trace(target: R.RingElement, k: Knot) -> Trace:
    """A self-trace of k whose mu equals the target, by signed clasps."""
    expected = R.coset_ring(k.spec, k.gamma)
    if target.context != expected:
        raise SpecMismatch("target does not live in the knot's relative ring")
    points = []
    for key, c in target.terms:
        sign = 1 if c > 0 else -1
        points.extend([(sign, key)] * abs(c))
    return Trace(k, k, tuple(points), G.identity(k.spec))
