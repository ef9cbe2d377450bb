"""The indeterminacy group of a knot or a 2-component link, and the
certified equality decision.

A relative self-linking value of a knot is well defined only up to an
affine action of an indeterminacy group Phi on the relative coset ring:
generators (z, phi) act by y -> z + phi y phi^-1, with an outer conjugation
by the centralizer of the knot class.  The linking number of a 2-component
link is taken modulo pairs (z, (phi, psi)) acting by y -> z + phi y psi^-1,
with an outer biaction by both centralizers.  A knot is the one-sided case
of a link: one generator type PhiGen(z, parts), with parts (phi,) or
(phi, psi), and one presentation type PhiGroup serve both.  Phi is
presented by toroidal generators (one per centralizer generator, read off
a self-trace or a link trace) and by sphere pairing data whose group
translates, t.sigma on the left or sigma.t on the right, form a symbolic
infinite family.

decide_equal answers whether two values agree modulo this action, with one
pipeline for knots and links:

  * Equal only with a certificate that replays to an exact ring equality;
  * Distinct only via a true invariant of the unbounded action (an exact
    abelian lattice decision, the support multiset under pure conjugation,
    or a homomorphic separator);
  * Unknown otherwise, reporting the bounds exhausted.

In an abelian image the orbit of a value is a union of lattice cosets, one
per outer shift.  A _Turn holds that lattice in one separator's image (its
relations, built once) and scans the shifts for a hit.  One stage,
_lattice_stage, loops over the turns the presentation chose, where a miss
is Distinct.  In the abelianization of an abelian group, whose pushed
classes are the ring's classes, the turn is exact wherever the key group
is finite (_Turn.exact), a hit becoming the Equal certificate.

Everything that depends on Phi alone is built once per presentation, the
first time a query needs it, and kept on the PhiGroup: the turns (each its
pushed context, offsets, relations and their Hermite basis) and the orbit
searcher per Bounds (its outer conjugators, one per action modulo the
sides and the center, conjugated toroidal generators, sphere translates,
and the goal translates of the class keys it has met).  A query pushes,
reduces and searches only from its own two values.

The search keeps one generator per action (z, parts), the first in its
order: the conjugated toroidal generators once, and in each state every
static generator and aligned sphere translate once.

An outer conjugator is a tuple: (alpha,) conjugates a knot value, (alpha,
beta) biacts a link value.
"""

from __future__ import annotations

import functools
import itertools

from . import cosets as R
from . import groups as G
from . import linking as L
from . import separators as S
from .errors import (InvariantViolation, LatitudeMismatch, NotSelfTrace,
                     SpecMismatch)

# ---------------------------------------------------------------------------
# bounds and generators


class Bounds(G.value_type("Bounds", "depth support_len max_states", (6, 16, 50000))):
    """The search and enumeration bounds of a decision:

      depth        total composition depth of the orbit search
      support_len  letter cap per class key in a search state, and per
                   goal-directed sphere translate
      max_states   visited-state cap per direction, and cap on the key
                   classes a lattice turn enumerates
    """
    __slots__ = ()

    def to_record(self):
        return self._asdict()


class PhiGen(G.value_type("PhiGen", "z parts provenance", ("",))):
    """A generator (z, parts) of Phi: parts is (phi,) for a knot, acting by
    y -> z + phi y phi^-1, or (phi, psi) for a link, acting by
    y -> z + phi y psi^-1."""
    __slots__ = ()

    def inverse(self) -> "PhiGen":
        inv = tuple(G.invert(p) for p in self.parts)
        return PhiGen(R.negate(_outer(inv, self.z)), inv, f"inv({self.provenance})")


class PhiGroup(G.value_type("PhiGroup", "knots context zetas toroidal sided_spheres")):
    """A presentation of Phi: knots is (k,) for a knot or (k1, k2) for a
    link, zetas the centralizer generators per outer factor, and
    sided_spheres the sphere families as (sphere, right), a knot's all on
    the left.  Presentations compare by these fields; what a query builds
    from them is kept in the instance __dict__."""

    @functools.cached_property
    def _turns(self) -> tuple:
        """The lattice stage's turns, chosen once, in suite order.  With
        offsets enumerated (a link's biaction, or sphere families), every
        finite target runs, and the abelianization where it is exact;
        otherwise the abelianization alone, as a `modN` lattice hits where
        Z does.  A turn builds its parts when a query first needs them."""
        abel, *finite = (_Turn(self, sep) for sep in S.default_separator_suite(self.context.spec))
        if not _enumerates(self):
            return (abel,)
        return ((abel,) if abel.exact else ()) + tuple(finite)

    @functools.cached_property
    def _searches(self) -> dict:
        """The orbit searcher per Bounds, built when a query first needs it."""
        return {}


def _present(knots, factors, invariant, sided_spheres) -> PhiGroup:
    """The one presentation builder: knots is (k,) or (k1, k2), factors the
    toroidal traces and their section name per outer factor, invariant the
    map from a trace to its generator's z.  Each factor has one trace per
    generator zeta of its knot's centralizer, taken in order; the trace (a
    link trace, component by component) is a self-trace with latitude zeta
    on its own factor and 1 on the other."""
    spec = knots[0].spec
    if any(k.spec != spec for k in knots):
        raise SpecMismatch("link components live in different groups")
    one = G.identity(spec)
    zetas = tuple(tuple(G.centralizer_generators(spec, k.gamma)) for k in knots)
    gens = []
    for i, ((traces, section), zs) in enumerate(zip(factors, zetas)):
        if len(traces) != len(zs):
            raise LatitudeMismatch(f"need one {section} trace per centralizer generator "
                                   f"({len(zs)} generators, {len(traces)} traces)")
        for tr, zeta in zip(traces, zs):
            parts = tuple(zeta if j == i else one for j in range(len(knots)))
            components = (tr,) if len(knots) == 1 else (tr.trace1, tr.trace2)
            for comp, k, lat in zip(components, knots, parts):
                ends = (comp.knot_from.label, comp.knot_to.label)
                if ends != (k.label, k.label) or comp.gamma != k.gamma:
                    raise NotSelfTrace(f"{section} trace {'->'.join(map(repr, ends))} "
                                       f"is not a self-trace of {k.label!r}")
                if comp.latitude != lat:
                    raise LatitudeMismatch(
                        f"{section} trace latitude {G.format_word(comp.latitude)} "
                        f"does not match {G.format_word(lat)}")
            gens.append(PhiGen(invariant(tr), parts, f"{section}[{G.format_word(zeta)}]"))
    gammas = tuple(k.gamma for k in knots)
    ctx = R.two_sided_ring(spec, *gammas) if len(knots) == 2 else R.coset_ring(spec, *gammas)
    return PhiGroup(knots, ctx, zetas, tuple(gens), tuple(sided_spheres))


def build_phi(k: L.Knot, toroidal, spheres=()) -> PhiGroup:
    """Present Phi(k) from one self-trace per centralizer generator plus
    sphere pairing data; the translate and conjugate closures stay symbolic."""
    return _present((k,), ((toroidal, "toroidal"),), L.mu_trace,
                    ((s, False) for s in spheres))


def phi_conjugation_only(k: L.Knot) -> PhiGroup:
    """The spherical presentation with no double points at all: every
    generator is (0, phi).  With gamma = 1 this is the unknot preset, where
    the action degenerates to plain conjugation by the fundamental group."""
    traces = [L.Trace(k, k, (), phi) for phi in G.centralizer_generators(k.spec, k.gamma)]
    return build_phi(k, traces)


def build_phi_link(k1: L.Knot, k2: L.Knot, toroidal1=(), toroidal2=(),
                   spheres_left=(), spheres_right=()) -> PhiGroup:
    """Two-sided presentation: toroidal generators
    (lambda(K1_q, K2), (phi_q, 1)) and (lambda(K1, K2_q), (1, psi_q)) read
    off link traces, left/right sphere families kept symbolic."""
    return _present((k1, k2), ((toroidal1, "toroidal1"), (toroidal2, "toroidal2")),
                    L.lambda_link, [(s, False) for s in spheres_left]
                    + [(s, True) for s in spheres_right])


# ---------------------------------------------------------------------------
# actions


def _check_context(gen: PhiGen, y: R.RingElement):
    if gen.z.context != y.context:
        raise SpecMismatch("generator and element live in different contexts")


def act(gen: PhiGen, y: R.RingElement) -> R.RingElement:
    """(z, parts): y -> z + parts.y."""
    _check_context(gen, y)
    return R.add(gen.z, _outer(gen.parts, y))


def act_inverse(gen: PhiGen, y: R.RingElement) -> R.RingElement:
    """The inverse action: y -> parts^-1.(y - z).  It keeps its own
    formula rather than act(gen.inverse(), y): replay applies a -1 step
    here, while the search's inverse edges come from PhiGen.inverse, so a
    fault in PhiGen.inverse cannot replay."""
    _check_context(gen, y)
    return _outer(tuple(G.invert(p) for p in gen.parts), R.add(y, R.negate(gen.z)))


def _compose(g, h):
    """The generator g.h (h acts first): (z, p).(w, q) = (z + p.w, p q)."""
    return PhiGen(R.add(g.z, _outer(g.parts, h.z)),
                  tuple(G.multiply(a, b) for a, b in zip(g.parts, h.parts)),
                  g.provenance)


def _power(gen, k: int):
    """gen^k: (k z, 1) for a pure generator (z, 1), else by doubling,
    (z, p)^2 = (z + p.z, p^2): O(log |k|) ring operations, from the inverse
    generator for negative k."""
    if all(G.is_identity(p) for p in gen.parts):
        return PhiGen(R.scale(k, gen.z), gen.parts, gen.provenance)
    spec = gen.z.context.spec
    acc = PhiGen(R.zero(gen.z.context), tuple(G.identity(spec) for _ in gen.parts),
                 gen.provenance)
    base = gen if k > 0 else gen.inverse()
    k = abs(k)
    while k:
        if k & 1:
            acc = _compose(base, acc)
        k >>= 1
        if k:
            base = _compose(base, base)
    return acc


def _step(gen, k: int, y: R.RingElement) -> R.RingElement:
    """gen^k applied to y: one action of gen (k = 1) or of its inverse
    (k = -1), else one action of the power gen^k."""
    if abs(k) != 1:
        gen, k = _power(gen, k), 1
    return act(gen, y) if k > 0 else act_inverse(gen, y)


def _outer(c: tuple, y: R.RingElement) -> R.RingElement:
    """The outer conjugator c on y, y -> c[0] y c[-1]^-1: (alpha,)
    conjugates a knot value, (alpha, beta) biacts a link value."""
    if all(G.is_identity(a) for a in c):
        return y
    return R.biact(c[0], c[-1], y)


def is_spherical_presented(phi: PhiGroup) -> bool:
    """True iff every toroidal generator of the presentation has z = 0."""
    return all(not g.z for g in phi.toroidal)


# ---------------------------------------------------------------------------
# verdicts


class Certificate(G.value_type("Certificate", "steps conjugator")):
    """Replayable witness (steps, conjugator): y1 = c . (g_n^e_n ... g_1^e_1
    . y2), the steps (PhiGen, e) applied left to right, the outer
    conjugator c, (alpha,) or (alpha, beta), last.  An exponent is a
    non-zero integer: the orbit search makes unit steps (e = +-1), the
    abelian lattice decision one step per generator it uses."""
    __slots__ = ()

    def to_record(self):
        return {
            "steps": [{"gen": g.provenance, "z": R.format_ring(g.z),
                       "exponent": e} for g, e in self.steps],
            "conjugator": [G.format_word(w) for w in self.conjugator],
        }


class DecisionResult(G.value_type("DecisionResult",
                                  "verdict certificate separator values bounds",
                                  (None, None, None, None))):
    """A verdict, "equal", "distinct" or "unknown", with its evidence: the
    certificate of an Equal, the separator and its two differing values of
    a Distinct, the bounds an Unknown exhausted."""
    __slots__ = ()

    def to_record(self):
        rec = {"verdict": self.verdict}
        if self.certificate is not None:
            rec["certificate"] = self.certificate.to_record()
        if self.separator is not None:
            rec["separator"] = self.separator
            rec["values"] = [repr(v) for v in self.values]
        if self.bounds is not None:
            rec["bounds"] = self.bounds.to_record()
        return rec


def replay(cert: Certificate, y1: R.RingElement, y2: R.RingElement) -> bool:
    """Exact check that the certificate carries y2 to y1."""
    y = y2
    for gen, e in cert.steps:
        y = _step(gen, e, y)
    return _outer(cert.conjugator, y) == y1


# ---------------------------------------------------------------------------
# shared helpers


def _ball(spec, gens, radius, cap):
    """Deterministic ball of words in gens and inverses, identity first."""
    out = [G.identity(spec)]
    seen = {out[0]}
    frontier = [out[0]]
    for _ in range(radius):
        nxt = []
        for e in frontier:
            for g in gens:
                for h in (g, G.invert(g)):
                    ne = G.multiply(e, h)
                    if ne not in seen:
                        seen.add(ne)
                        nxt.append(ne)
                        out.append(ne)
                        if len(out) >= cap:
                            return out
        frontier = nxt
    return out


def _sphere_element(ctx, t, points, right=False):
    """Class sum of a sphere translate: t.sigma (or sigma.t on the right)."""
    return R.from_terms(ctx, [(G.multiply(p, t) if right else G.multiply(t, p), s)
                              for s, p in points])


def _translate_gen(phi, z, sph, t):
    """The pure generator (z, 1) of the sphere translate at t."""
    one = G.identity(phi.context.spec)
    return PhiGen(z, (one,) * len(phi.zetas),
                  f"spherical[{sph.label}]@{G.format_word(t)}")


def _shifts_keys(phi) -> bool:
    """Whether the outer action moves class keys of an abelian image: a
    conjugation (alpha,) fixes them, a biaction (alpha, beta) shifts them."""
    return len(phi.zetas) == 2


def _enumerates(phi) -> bool:
    """Whether an orbit lattice scans one offset per class of the target
    modulo the side images: a link's biaction or sphere families translate
    keys; otherwise the trivial offset alone serves."""
    return _shifts_keys(phi) or bool(phi.sided_spheres)


def _difference(a: dict, b: dict) -> dict:
    """The sparse vector a - b."""
    return {k: c for k in {**a, **b} if (c := a.get(k, 0) - b.get(k, 0))}


# ---------------------------------------------------------------------------
# the lattice stage


def _abelian_applicable(phi: PhiGroup) -> bool:
    """Whether one of the presentation's lattice turns decides exactly."""
    return any(t.exact for t in phi._turns)


class _Turn:
    """One separator's turn of the lattice stage on a presentation: its
    pushed context, whether it decides exactly, its offsets and outer
    shifts, the orbit relations, their Lattice and certificate steps, each
    built on first use.  A query pushes only its own values."""

    def __init__(self, phi: PhiGroup, sep: S.Separator):
        self.phi, self.sep, self._steps = phi, sep, {}

    @functools.cached_property
    def pc(self) -> S.PushedContext:
        return S.PushedContext(self.sep, self.phi.context)

    @functools.cached_property
    def exact(self) -> bool:
        """The abelianization's orbit lattice decides exactly: the group is
        abelian, and every key translation ranges over a finite key group,
        as nothing is enumerated or the pushed context's L has full rank."""
        return (not self.sep.target_finite and self.phi.context.spec.kind == G.FREE_ABELIAN
                and (not _enumerates(self.phi) or self.pc.finite))

    @functools.cached_property
    def offsets(self) -> list:
        return self.pc.offsets() if _enumerates(self.phi) else [(0,) * self.sep.dim]

    @functools.cached_property
    def shifts(self) -> list:
        """The outer shifts: every offset under a link's biaction, else the
        trivial one."""
        return self.offsets if _shifts_keys(self.phi) else self.offsets[:1]

    def _mover(self, pairs):
        """The map from an offset to the class vector of the (word,
        coefficient) pairs, each image translated by the offset."""
        return functools.partial(self.pc.push, [(self.sep.image(w), c) for w, c in pairs])

    @functools.cached_property
    def relations(self) -> list:
        """The relations of the orbit lattice of Phi in the separator's
        image, as (vector, source, offset), every non-zero one in order:
        the Lattice skips each that the ones before it span.  Toroidal
        offsets move only under a link's biaction, sphere families under
        every offset."""
        phi = self.phi
        families = [(g, self._mover(g.z.terms), self.shifts) for g in phi.toroidal]
        families += [(sph, self._mover((p, s) for s, p in sph.points), self.offsets)
                     for sph, _ in phi.sided_spheres]
        return [(rel, src, t) for src, move, moves in families for t in moves if (rel := move(t))]

    @functools.cached_property
    def lattice(self) -> S.Lattice:
        return S.Lattice([r for r, _, _ in self.relations])

    def hit(self, y1, y2):
        """(shift, coefficients) for the first outer shift of y2 whose
        difference from y1 is in the orbit lattice, or None.  Push is
        linear: a knot's one shift pushes y1 - y2 once, a link's y1 once
        and y2 once per shift."""
        o = self.offsets[0]
        if _shifts_keys(self.phi):
            v1, move2 = self._mover(y1.terms)(o), self._mover(y2.terms)
            vectors = (_difference(v1, move2(t)) for t in self.shifts)
        else:
            vectors = [self._mover((y1 - y2).terms)(o)]
        for t, v in zip(self.shifts, vectors):
            coeffs = S.lattice_member(self.lattice, v)
            if coeffs is not None:
                return t, coeffs
        return None

    def certificate(self, hit) -> Certificate:
        """The Equal certificate of an exact hit: one step per relation
        used, its exponent the size-reduced lattice coefficient."""
        spec = self.phi.context.spec
        one = G.identity(spec)

        def word(v):
            return G.make_element(spec, enumerate(v))
        shift, coeffs = hit
        link = _shifts_keys(self.phi)
        c = (word(shift), one) if link else (one,)
        # every step is a pure generator (z, 1).  replay applies c after the
        # steps, which moves the offsets too; undo c on each z to compensate
        c_inv = tuple(G.invert(a) for a in c)
        steps = []
        for i, k in enumerate(coeffs):
            if not k:
                continue
            if i not in self._steps:
                rel, src, t = self.relations[i]
                z = R.from_terms(self.phi.context, [(word(v), a) for v, a in rel.items()])
                toroidal = isinstance(src, PhiGen)
                name = src.provenance if toroidal else f"spherical[{src.label}]"
                if link:
                    name = f"shift[{name},{G.format_word(word(t))}]"
                elif not toroidal:
                    name += f"@{G.format_word(word(t))}"
                self._steps[i] = z, name
            z, name = self._steps[i]
            steps.append((PhiGen(_outer(c_inv, z), (one,) * len(c), name), k))
        return Certificate(tuple(steps), c)


def _lattice_stage(y1, y2, phi, max_states) -> DecisionResult | None:
    """The presentation's turns in order: a separator's miss is Distinct
    and its hit abstains, but an exact turn decides, a hit Equal and a
    miss the `abelian-lattice` Distinct.  Where offsets are enumerated, a
    turn with more than max_states key classes abstains before it lists
    them."""
    enumerates = _enumerates(phi)
    for turn in phi._turns:
        if enumerates and turn.pc.classes > max_states:
            continue
        hit = turn.hit(y1, y2)
        if turn.exact and hit is not None:
            return DecisionResult("equal", certificate=turn.certificate(hit))
        if turn.exact:
            return DecisionResult("distinct", separator="abelian-lattice",
                                  values=(R.format_ring(y1), R.format_ring(y2)))
        if hit is None:
            return DecisionResult("distinct", separator=turn.sep.name, values=tuple(
                tuple(sorted(turn.pc.push_value(y).items())) for y in (y1, y2)))
    return None


# ---------------------------------------------------------------------------
# bounded bidirectional orbit search

# Enumeration sizes by number of outer factors.  A link's outer conjugators
# are pairs drawn from a product of two balls, so its balls are smaller:
# (radius, cap) of each factor's ball of conjugators for the toroidal
# generators, the cap on those conjugated generators, and depth ->
# (radius, cap) of each factor's ball of backward seeds.  The radius and
# cap bound the balls; _conjugators then keeps one conjugator per action,
# modulo the sides and the center.
_SIZES = {
    1: ((2, 60), None, lambda depth: (min(3, depth), 200)),
    2: ((1, 10), 60, lambda depth: (2, 40)),
}


def _action_key(phi):
    """The map from an outer conjugator c to its class modulo the sides and
    the center.

    A part alpha of c centralizes its side gamma, so gamma^n alpha z, z
    central, acts as alpha does, provided a link's two parts take the same
    z.  The key strips the central part of c[0] from every part and reduces
    each part modulo its side, a knot's side with its own central part
    stripped as well.  Equal keys thus mean parts gamma^n alpha z with one
    z, which act alike on every value and conjugate the toroidal parts
    alike."""
    spec = phi.context.spec
    sides = [k.gamma for k in phi.knots]
    if len(sides) == 1:
        sides = [G.split_center(sides[0])[0]]
    # a trivial side reduces nothing, and needs no ring
    rings = [R.two_sided_ring(spec, G.identity(spec), s) if s else None for s in sides]

    def key(c):
        rest, z = G.split_center(c[0])
        parts = (rest,) + tuple(G.multiply(a, G.invert(z)) for a in c[1:])
        return tuple(a if ring is None else R.canonicalize(ring, a)
                     for ring, a in zip(rings, parts))
    return key


def _conjugators(phi, radius, cap) -> list:
    """The outer conjugators, one per action: of the product of each
    factor's ball of centralizer words, the identity first, the first
    conjugator per _action_key."""
    key, kept = _action_key(phi), {}
    for c in itertools.product(*(_ball(phi.context.spec, zs, radius, cap) for zs in phi.zetas)):
        kept.setdefault(key(c), c)
    return list(kept.values())


def _by_action(gens, base=None, cap=None) -> dict:
    """The search edges: action (z, parts) -> (gen, gen^-1) for the first
    generator per action, after those of base, in order, its inverse built
    only once the action is kept; at most cap actions."""
    out = dict(base or {})
    for gen in gens:
        if (a := (gen.z, gen.parts)) not in out:
            out[a] = gen, gen.inverse()
        if len(out) == cap:
            break
    return out


def _conjugated_toroidal(phi, ball, gen_cap) -> dict:
    """The edges of the toroidal generators conjugated by outer conjugators
    c, (c.z, c.parts), by action."""
    return _by_action((PhiGen(_outer(c, g.z), tuple(G.conjugate(p, a) for p, a in zip(g.parts, c)),
                              f"conj[{g.provenance},{','.join(G.format_word(a) for a in c)}]")
                       for c in _conjugators(phi, *ball) for g in phi.toroidal), cap=gen_cap)


class _OrbitSearch:
    """Meet-in-the-middle search over the Phi-orbit.

    Forward states grow from y2 under the generator action; backward states
    grow from the seeds, the outer conjugates c y1, under the inverse
    action.  The seeds' conjugators, the conjugated toroidal generators and
    a sample of sphere translates are built once, the conjugators one per
    action modulo the sides and the center; more sphere translates
    are generated goal-directed: for every class key in a state, candidate
    translates align a sphere point with that key so the relation can
    cancel it.  A state applies each action once, under the first
    generator that has it.  The smaller frontier is expanded each round,
    depth rounds in all.
    """

    def __init__(self, phi: PhiGroup, bounds: Bounds):
        self.phi = phi
        self.ctx = ctx = phi.context
        self.bounds = bounds
        spec = ctx.spec
        conj_ball, gen_cap, seed_ball = _SIZES[len(phi.zetas)]
        self.seeds = _conjugators(phi, *seed_ball(bounds.depth))
        # static generators: conjugated toroidal ones plus a small
        # enumerated sample of sphere translates
        translates = (_translate_gen(phi, z, sph, t)
                      for t in _ball(spec, G.all_generators(spec), 2, cap=60)
                      for sph, right in phi.sided_spheres
                      if (z := _sphere_element(ctx, t, sph.points, right)))
        self.edges = _by_action(translates, _conjugated_toroidal(phi, conj_ball, gen_cap))
        self.inverts = ctx.inverts
        self.goals = {}

    def _goal_translates(self, key: G.GroupElement) -> list:
        """The non-zero sphere translates aligned with one class key: for u
        the key (and its inverse in a one-sided ring), each sphere and each
        point p, the translate t = u p^-1 (p^-1 u on the right), kept if it
        has at most support_len letters; memoized per key, the memo cleared
        past max_states keys."""
        out = self.goals.get(key)
        if out is not None:
            return out
        if len(self.goals) > self.bounds.max_states:
            self.goals.clear()
        out = []
        for u in (key, G.invert(key)) if self.inverts else (key,):
            for sph, right in self.phi.sided_spheres:
                for _, p in sph.points:
                    t = G.multiply(G.invert(p), u) if right else G.multiply(u, G.invert(p))
                    if t.length() <= self.bounds.support_len and (
                            z := _sphere_element(self.ctx, t, sph.points, right)):
                        out.append(_translate_gen(self.phi, z, sph, t))
        self.goals[key] = out
        return out

    def _admissible(self, y: R.RingElement, term_cap: int) -> bool:
        return len(y.terms) <= term_cap and all(
            k.length() <= self.bounds.support_len for k, _ in y.terms)

    def _neighbors(self, y: R.RingElement):
        """Each action on y and its inverse, the static generators first,
        then the translates aligned with the support of y: one act per
        edge.  A static generator's inverse is built once with it, a
        translate's only for an action not in edges; a translate is pure,
        (z, 1), so its inverse (-z, 1) is one negation."""
        goals = itertools.chain.from_iterable(map(self._goal_translates, y.support()))
        for gen, inv in _by_action(goals, self.edges).values():
            yield gen, 1, act(gen, y)
            yield gen, -1, act(inv, y)

    def run(self, y1: R.RingElement, y2: R.RingElement):
        """A Certificate carrying y2 to y1, or None within bounds."""
        b = self.bounds
        term_cap = len(y1.terms) + len(y2.terms) + 4
        # the states reached per direction d: forward (+1) from y2, each
        # (parent, gen, dir); backward (-1) to a seed c y1, each (child,
        # gen, dir) with child one step closer to c y1.  A root is (None,
        # c), its seed's conjugator c, or () at y2
        reached = {1: {y2: (None, ())}, -1: {}}
        for c in self.seeds:
            reached[-1].setdefault(_outer(c, y1), (None, c))
        frontier = {d: list(states) for d, states in reached.items()}
        # every later meet is caught when its state is inserted
        m = y2 if y2 in reached[-1] else None
        rounds = 0
        while m is None and rounds < b.depth and (frontier[1] or frontier[-1]):
            fwd, bwd = len(frontier[1]), len(frontier[-1])
            d = 1 if fwd and (not bwd or fwd <= bwd) else -1
            src, nxt = reached[d], []
            for state, (gen, e, ns) in ((s, edge) for s in frontier[d]
                                        for edge in self._neighbors(s)):
                if ns in src or not self._admissible(ns, term_cap):
                    continue
                # a backward edge ns -> state applies gen with direction -e
                src[ns] = (state, gen, d * e)
                nxt.append(ns)
                m = ns if ns in reached[-d] else None
                if m is not None or len(src) > b.max_states:
                    break
            frontier[d] = nxt if len(src) <= b.max_states else []
            rounds += 1
        if m is None:
            return None
        # y2 -> m forward, then m -> c y1 backward
        halves = []
        for d in (1, -1):
            steps, cur = [], m
            while reached[d][cur][0] is not None:
                cur, gen, e = reached[d][cur]
                steps.append((gen, e))
            halves.append(steps)
        c = reached[-1][cur][1]
        return Certificate(tuple(halves[0][::-1] + halves[1]), tuple(G.invert(a) for a in c))


# ---------------------------------------------------------------------------
# the decision


def decide_equal(y1: R.RingElement, y2: R.RingElement,
                 phi: PhiGroup,
                 bounds: Bounds = Bounds()) -> DecisionResult:
    """Certified comparison of two values modulo the indeterminacy action of
    a knot or of a 2-component link."""
    if y1.context != y2.context or y1.context != phi.context:
        raise SpecMismatch("operands and Phi presentation must share a context")
    if y1 == y2:
        one = (G.identity(phi.context.spec),)
        return DecisionResult("equal", certificate=Certificate((), one * len(phi.zetas)))
    # true invariants first: they are independent of the search bounds, so
    # a Distinct here can never conflict with an Equal at any depth (the
    # class cap only makes a lattice turn abstain)
    res = _lattice_stage(y1, y2, phi, bounds.max_states)
    if res is None:
        if not phi.sided_spheres and is_spherical_presented(phi):
            # pure conjugation acts termwise by a key bijection that keeps
            # every coefficient, sign included
            m1, m2 = (tuple(sorted(c for _, c in y.terms)) for y in (y1, y2))
            if m1 != m2:
                return DecisionResult("distinct", separator="support-multiset",
                                      values=(m1, m2))
        if bounds not in phi._searches:
            phi._searches[bounds] = _OrbitSearch(phi, bounds)
        cert = phi._searches[bounds].run(y1, y2)
        if cert is None:
            return DecisionResult("unknown", bounds=bounds)
        res = DecisionResult("equal", certificate=cert)
    if res.verdict == "equal" and not replay(res.certificate, y1, y2):
        raise InvariantViolation("an equality certificate failed to replay")
    return res


# link names of the shared types and functions, read by bench/worker.py and
# bench/tracer.py
decide_equal_link = decide_equal
_link_abelian_applicable = _abelian_applicable
PhiLinkGroup = PhiGroup
act_link = act
act_link_inverse = act_inverse
