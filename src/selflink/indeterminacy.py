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

An outer conjugator is a tuple: (alpha,) conjugates a knot value, (alpha,
beta) biacts a link value.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

from . import cosets as R
from . import groups as G
from . import linking as L
from . import separators as S
from .errors import (InvariantViolation, LatitudeMismatch, NotSelfTrace,
                     SpecMismatch)

# ---------------------------------------------------------------------------
# bounds and generators


@dataclass(frozen=True)
class Bounds:
    depth: int = 6            # total composition depth of the orbit search
    translate_len: int = 6    # word-length cap for materialized translates
    support_len: int = 16     # letter cap per class key in a search state
    max_states: int = 50000   # visited-state cap per direction

    def to_record(self):
        return {"depth": self.depth, "translate_len": self.translate_len,
                "support_len": self.support_len, "max_states": self.max_states}


@dataclass(frozen=True)
class PhiGen:
    """A generator (z, parts) of Phi: parts is (phi,) for a knot, acting by
    y -> z + phi y phi^-1, or (phi, psi) for a link, acting by
    y -> z + phi y psi^-1."""
    z: R.RingElement
    parts: tuple[G.GroupElement, ...]
    provenance: str = ""

    def inverse(self) -> "PhiGen":
        inv = tuple(G.invert(p) for p in self.parts)
        return PhiGen(R.negate(_outer(inv, self.z)), inv, f"inv({self.provenance})")


@dataclass(frozen=True)
class PhiGroup:
    """A presentation of Phi: knots is (k,) for a knot or (k1, k2) for a
    link, zetas the centralizer generators per outer factor, and
    sided_spheres the sphere families as (sphere, right), a knot's all on
    the left."""
    knots: tuple[L.Knot, ...]
    context: R.RingContext = field(repr=False)
    zetas: tuple[tuple[G.GroupElement, ...], ...]
    toroidal: tuple[PhiGen, ...]
    sided_spheres: tuple[tuple[L.SphereData, bool], ...]


def build_phi(k: L.Knot, toroidal, spheres=(), zeta_gens=None) -> PhiGroup:
    """Present Phi(k) from one self-trace per centralizer generator plus
    sphere pairing data; the translate and conjugate closures stay symbolic."""
    if zeta_gens is None:
        zeta_gens = G.centralizer_generators(k.spec, k.gamma)
    zeta_gens = tuple(zeta_gens)
    if len(toroidal) != len(zeta_gens):
        raise LatitudeMismatch(
            f"need one toroidal trace per centralizer generator "
            f"({len(zeta_gens)} generators, {len(toroidal)} traces)")
    gens = []
    for tr, phi in zip(toroidal, zeta_gens):
        if (tr.knot_from.label != k.label or tr.knot_to.label != k.label
                or tr.gamma != k.gamma):
            raise NotSelfTrace(
                f"toroidal trace {tr.knot_from.label!r}->{tr.knot_to.label!r} "
                f"is not a self-trace of {k.label!r}")
        if tr.latitude != phi:
            raise LatitudeMismatch(
                f"trace latitude {G.format_word(tr.latitude)} does not match "
                f"centralizer generator {G.format_word(phi)}")
        gens.append(PhiGen(L.mu_trace(tr), (phi,), f"toroidal[{G.format_word(phi)}]"))
    ctx = R.coset_ring(k.spec, k.gamma)
    return PhiGroup((k,), ctx, (zeta_gens,), tuple(gens),
                    tuple((s, False) for s in spheres))


def phi_conjugation_only(k: L.Knot, zeta_gens=None) -> PhiGroup:
    """The spherical presentation with no double points at all: every
    generator is (0, phi).  With gamma = 1 this is the unknot preset, where
    the action degenerates to plain conjugation by the fundamental group."""
    if zeta_gens is None:
        zeta_gens = G.centralizer_generators(k.spec, k.gamma)
    traces = [L.Trace(k, k, (), phi) for phi in zeta_gens]
    return build_phi(k, traces, (), zeta_gens)


def build_phi_link(k1: L.Knot, k2: L.Knot, toroidal1=(), toroidal2=(),
                   spheres_left=(), spheres_right=(),
                   zeta1=None, zeta2=None) -> PhiGroup:
    """Two-sided presentation: toroidal generators
    (lambda(K1_q, K2), (phi_q, 1)) and (lambda(K1, K2_q), (1, psi_q)) read
    off link traces, left/right sphere families kept symbolic."""
    if k1.spec != k2.spec:
        raise SpecMismatch("link components live in different groups")
    spec = k1.spec
    if zeta1 is None:
        zeta1 = G.centralizer_generators(spec, k1.gamma)
    if zeta2 is None:
        zeta2 = G.centralizer_generators(spec, k2.gamma)
    zeta1, zeta2 = tuple(zeta1), tuple(zeta2)
    if len(toroidal1) != len(zeta1) or len(toroidal2) != len(zeta2):
        raise LatitudeMismatch("need one toroidal link trace per centralizer generator")
    one = G.identity(spec)
    ctx = R.two_sided_ring(spec, k1.gamma, k2.gamma)
    gens = []

    def _absorb(lt: L.LinkTrace, side, expect_phi, expect_psi):
        for tr, k in ((lt.trace1, k1), (lt.trace2, k2)):
            if tr.knot_from.label != k.label or tr.knot_to.label != k.label or tr.gamma != k.gamma:
                raise NotSelfTrace(f"link trace component is not a self-trace of {k.label!r}")
        if lt.trace1.latitude != expect_phi or lt.trace2.latitude != expect_psi:
            raise LatitudeMismatch("link trace latitudes do not match the centralizer generators")
        z = R.from_terms(ctx, [(g, s) for s, g in lt.cross_points])
        gens.append(PhiGen(z, (expect_phi, expect_psi),
                           f"toroidal{side}[{G.format_word(expect_phi if side == 1 else expect_psi)}]"))

    for lt, phi in zip(toroidal1, zeta1):
        _absorb(lt, 1, phi, one)
    for lt, psi in zip(toroidal2, zeta2):
        _absorb(lt, 2, one, psi)
    return PhiGroup((k1, k2), ctx, (zeta1, zeta2), tuple(gens),
                    tuple((s, False) for s in spheres_left)
                    + tuple((s, True) for s in spheres_right))


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
    """The inverse action: y -> parts^-1.(y - z)."""
    _check_context(gen, y)
    return _outer(tuple(G.invert(p) for p in gen.parts), R.add(y, R.negate(gen.z)))


def _compose(g, h):
    """The generator g.h (h acts first): (z, p).(w, q) = (z + p.w, p q)."""
    return PhiGen(R.add(g.z, _outer(g.parts, h.z)),
                  tuple(G.multiply(a, b) for a, b in zip(g.parts, h.parts)),
                  g.provenance)


def _power(gen, k: int):
    """gen^k by doubling, (z, p)^2 = (z + p.z, p^2): O(log |k|) ring
    operations, from the inverse generator for negative k."""
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
    """The outer conjugator c on y: (alpha,) conjugates, (alpha, beta) biacts."""
    if all(G.is_identity(a) for a in c):
        return y
    return R.biact(c[0], c[1], y) if len(c) == 2 else R.conj_act(c[0], y)


def is_spherical_presented(phi: PhiGroup) -> bool:
    """True iff every toroidal generator of the presentation has z = 0."""
    return all(not g.z for g in phi.toroidal)


# ---------------------------------------------------------------------------
# verdicts


@dataclass(frozen=True)
class Certificate:
    """Replayable witness: y1 = c . (g_n^e_n ... g_1^e_1 . y2), steps
    applied left to right, the outer conjugator c last.  An exponent is a
    non-zero integer: the orbit search makes unit steps (e = +-1), the
    abelian lattice decision one step per generator it uses."""
    steps: tuple  # of (PhiGen, e)
    conjugator: tuple  # (alpha,) or (alpha, beta)

    def to_record(self):
        return {
            "steps": [{"gen": g.provenance, "z": R.format_ring(g.z),
                       "exponent": e} for g, e in self.steps],
            "conjugator": [G.format_word(w) for w in self.conjugator],
        }


@dataclass(frozen=True)
class DecisionResult:
    verdict: str  # "equal" | "distinct" | "unknown"
    certificate: Certificate | None = None
    separator: str | None = None
    values: tuple | None = None  # the differing separator values
    bounds: Bounds | None = None

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


def _ball(spec, gens, radius, cap=400):
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


# ---------------------------------------------------------------------------
# exact abelian decision


def _abelian_applicable(phi: PhiGroup) -> bool:
    """The lattice decision is exact: the group is abelian, and every key
    translation the action makes ranges over a finite key group.  Sphere
    translates and a link's outer biaction range over G/<gamma[, delta]>,
    which is finite in rank 1 when a side is nontrivial."""
    ctx = phi.context
    if ctx.spec.kind != G.FREE_ABELIAN:
        return False
    if not _shifts_keys(phi) and not phi.sided_spheres:
        return True
    return len(ctx.spec.labels) == 1 and any(
        side is not None and not G.is_identity(side) for side in (ctx.gamma, ctx.delta))


def _abelian_lattice(phi):
    """Generators whose offsets span the orbit lattice, and the outer
    conjugators to scan y2 by.  A knot's outer conjugation is trivial: the
    offsets are the toroidal ones and the sphere translates over G/<gamma>.
    A link's class keys form Z/gcd(n_gamma, n_delta), which the biaction
    (x^a, 1) shifts them through: the offsets are closed under the shifts,
    and every shift of y2 is scanned."""
    ctx = phi.context
    spec = ctx.spec
    one = G.identity(spec)
    gens = [g for g in phi.toroidal if g.z]
    if not _shifts_keys(phi):
        for sph, _ in phi.sided_spheres:
            for a in range(abs(ctx.gamma.syllables[0][1])):
                t = G.make_element(spec, [(0, a)])
                z = _sphere_element(ctx, t, sph.points)
                if z:
                    gens.append(_translate_gen(phi, z, sph, t))
        return gens, [(one,)]
    n = math.gcd(*(abs(w.syllables[0][1]) if w.syllables else 0
                   for w in (ctx.gamma, ctx.delta)))
    shifts = [(G.make_element(spec, [(0, a)]), one) for a in range(max(n, 1))]
    base = [(g.z, g.provenance) for g in gens]
    base += [(_sphere_element(ctx, one, sph.points, right), f"spherical[{sph.label}]")
             for sph, right in phi.sided_spheres]
    closed = []
    seen = set()
    for z, prov in base:
        for c in shifts:
            zc = _outer(c, z)
            if zc and zc not in seen:
                seen.add(zc)
                closed.append(PhiGen(zc, (one, one),
                                     f"shift[{prov},{G.format_word(c[0])}]"))
    return closed, shifts


def _decide_abelian(y1, y2, phi) -> DecisionResult:
    """Total decision on abelian specs: the orbit of y2 is the union over
    the scanned outer conjugates of y2 of their lattice translates;
    membership is a Hermite-normal-form computation over the class keys
    (`separators.lattice_member`), whose size-reduced coefficients become
    the exponents of the certificate, one step per generator used."""
    gens, outer = _abelian_lattice(phi)
    relations = [dict(g.z.terms) for g in gens]
    for c in outer:
        diff = dict(R.add(y1, R.negate(_outer(c, y2))).terms)
        coeffs = S.lattice_member(relations, diff)
        if coeffs is None:
            continue
        # replay applies the steps to y2 and c last, which moves the
        # offsets too; undo c on each generator used to compensate
        c_inv = tuple(G.invert(a) for a in c)
        steps = tuple((replace(g, z=_outer(c_inv, g.z)), k)
                      for g, k in zip(gens, coeffs) if k)
        return DecisionResult("equal", certificate=Certificate(steps, c))
    return DecisionResult("distinct", separator="abelian-lattice",
                          values=(R.format_ring(y1), R.format_ring(y2)))


# ---------------------------------------------------------------------------
# homomorphic separator check


def _separator_distinct(y1, y2, phi) -> DecisionResult | None:
    """Try the shipped abelian-quotient separators; sound but partial.

    On an abelian target, outer conjugation pushes to the identity while an
    outer biaction shifts pushed classes through the target, and sphere
    families push to translates indexed by the target.  Shifts and
    translates are enumerated exactly on a finite target, or the separator
    abstains.
    """
    ctx = phi.context
    shifts_keys = _shifts_keys(phi)
    enumerates = shifts_keys or bool(phi.sided_spheres)
    for sep in S.default_separator_suite(ctx.spec):
        if enumerates and not sep.target_finite:
            continue
        pc = S.PushedContext.of(sep, ctx)
        zero = (0,) * sep.dim
        taus = sep.target_elements() if enumerates else [zero]
        shifts = taus if shifts_keys else [zero]
        families = [([(sep.image(w), c) for w, c in g.z.terms], shifts)
                    for g in phi.toroidal if g.z]
        families += [([(sep.image(p), s) for s, p in sph.points], taus)
                     for sph, _ in phi.sided_spheres]
        relations = {}
        for terms, moves in families:
            for tau in moves:
                rel = pc.push(terms, tau)
                if rel:
                    relations.setdefault(tuple(sorted(rel.items())), rel)
        relations = list(relations.values())
        v1 = pc.push([(sep.image(w), c) for w, c in y1.terms], zero)
        t2 = [(sep.image(w), c) for w, c in y2.terms]
        # the pushed orbit of y2: its shifts plus the relation lattice
        if all(S.lattice_member(relations, _difference(v1, pc.push(t2, tau))) is None
               for tau in shifts):
            return DecisionResult("distinct", separator=sep.name,
                                  values=(tuple(sorted(v1.items())),
                                          tuple(sorted(pc.push(t2, zero).items()))))
    return None


def _difference(a: dict, b: dict) -> dict:
    """The sparse vector a - b."""
    return {k: c for k in {**a, **b} if (c := a.get(k, 0) - b.get(k, 0))}


# ---------------------------------------------------------------------------
# bounded bidirectional orbit search

# Enumeration sizes by number of outer factors.  A link's outer conjugators
# are pairs drawn from a product of two balls, so its balls are smaller:
# (radius, cap) of each factor's ball of conjugators for the toroidal
# generators, the cap on those conjugated generators, and depth ->
# (radius, cap) of each factor's ball of backward seeds.
_SIZES = {
    1: ((2, 60), None, lambda depth: (min(3, depth), 200)),
    2: ((1, 10), 60, lambda depth: (2, 40)),
}


def _conjugated_toroidal(phi, ball, gen_cap):
    """Toroidal generators conjugated by outer conjugators c, (c.z, c.parts),
    dropping repeats and identities."""
    spec = phi.context.spec
    out = []
    seen = set()
    for c in itertools.product(*(_ball(spec, zs, ball[0], cap=ball[1]) for zs in phi.zetas)):
        for g in phi.toroidal:
            z = _outer(c, g.z)
            parts = tuple(G.conjugate(p, a) for p, a in zip(g.parts, c))
            key = (z, parts)
            if key in seen or (not z and all(G.is_identity(p) for p in parts)):
                continue
            seen.add(key)
            out.append(PhiGen(z, parts, f"conj[{g.provenance},"
                                        f"{','.join(G.format_word(a) for a in c)}]"))
            if len(out) == gen_cap:
                return out
    return out


class _OrbitSearch:
    """Meet-in-the-middle search over the Phi-orbit.

    Forward states grow from y2 under the generator action; backward states
    grow from the outer conjugates of y1 under the inverse action.  Sphere
    translates are generated goal-directed: for every class key in a state,
    candidate translates align a sphere point with that key so the relation
    can cancel it.  The smaller frontier is expanded each round.
    """

    def __init__(self, phi: PhiGroup, bounds: Bounds):
        self.phi = phi
        self.ctx = ctx = phi.context
        self.bounds = bounds
        spec = ctx.spec
        conj_ball, gen_cap, self.seed_ball = _SIZES[len(phi.zetas)]
        # static generators: conjugated toroidal ones plus a small
        # enumerated sample of sphere translates
        static = _conjugated_toroidal(phi, conj_ball, gen_cap)
        seen = set()
        for t in _ball(spec, G.all_generators(spec), 2, cap=60):
            if t.length() > bounds.translate_len:
                continue
            for sph, right in phi.sided_spheres:
                z = _sphere_element(ctx, t, sph.points, right)
                if z and z not in seen:
                    seen.add(z)
                    static.append(_translate_gen(phi, z, sph, t))
        self.static_gens = static
        # goal translates are padded by the class word on the sphere's side;
        # keys of the one-sided rings are classes modulo inversion
        self.pads = {right: [G.identity(spec)] + (
            [side, G.invert(side)] if side is not None and not G.is_identity(side) else [])
            for right, side in ((False, ctx.gamma), (True, ctx.delta))}
        self.inverts = ctx.flavor == R.COSET

    def _goal_gens(self, y: R.RingElement):
        """Sphere translates aligned with the support of y."""
        out = []
        seen = set()
        for key in y.support():
            for u in (key, G.invert(key)) if self.inverts else (key,):
                for sph, right in self.phi.sided_spheres:
                    for s, p in sph.points:
                        base = G.multiply(G.invert(p), u) if right else G.multiply(u, G.invert(p))
                        for pad in self.pads[right]:
                            t = G.multiply(base, pad) if right else G.multiply(pad, base)
                            if t.length() > self.bounds.translate_len or (t, right) in seen:
                                continue
                            seen.add((t, right))
                            z = _sphere_element(self.ctx, t, sph.points, right)
                            if z:
                                out.append(_translate_gen(self.phi, z, sph, t))
        return out

    def _admissible(self, y: R.RingElement) -> bool:
        return len(y.terms) <= self.term_cap and all(
            k.length() <= self.bounds.support_len for k, _ in y.terms)

    def _neighbors(self, y: R.RingElement):
        for gen in self.static_gens + self._goal_gens(y):
            yield gen, 1, _step(gen, 1, y)
            yield gen, -1, _step(gen, -1, y)

    def run(self, y1: R.RingElement, y2: R.RingElement):
        """A Certificate carrying y2 to y1, or None within bounds."""
        b = self.bounds
        self.term_cap = len(y1.terms) + len(y2.terms) + 4
        radius, cap = self.seed_ball(b.depth)
        # forward: states reachable from y2; value = (parent, gen, dir)
        fwd: dict[R.RingElement, tuple] = {y2: None}
        # backward: states s with a known path s -> c y1 for an outer
        # conjugator c; value = (child, gen, dir, c) with child one step
        # closer to c y1
        bwd: dict[R.RingElement, tuple] = {}
        for c in itertools.product(*(_ball(self.ctx.spec, zs, radius, cap=cap)
                                     for zs in self.phi.zetas)):
            s = _outer(c, y1)
            if s not in bwd:
                bwd[s] = (None, None, 0, c)
        ffrontier, bfrontier = list(fwd), list(bwd)
        fdepth = bdepth = 0
        # every later meet is caught when its state is inserted
        m = y2 if y2 in bwd else None
        while m is None and fdepth + bdepth < b.depth and (ffrontier or bfrontier):
            expand_fwd = bool(ffrontier) and (not bfrontier or len(ffrontier) <= len(bfrontier))
            src, other = (fwd, bwd) if expand_fwd else (bwd, fwd)
            frontier = ffrontier if expand_fwd else bfrontier
            nxt = []
            for state in frontier:
                for gen, d, ns in self._neighbors(state):
                    if ns in src or not self._admissible(ns):
                        continue
                    # a backward edge ns -> state applies gen with direction -d
                    src[ns] = (state, gen, d) if expand_fwd else (state, gen, -d, src[state][3])
                    nxt.append(ns)
                    if ns in other:
                        m = ns
                        break
                    if len(src) > b.max_states:
                        break
                if m is not None or len(src) > b.max_states:
                    break
            if expand_fwd:
                ffrontier = nxt if len(fwd) <= b.max_states else []
                fdepth += 1
            else:
                bfrontier = nxt if len(bwd) <= b.max_states else []
                bdepth += 1
        if m is None:
            return None
        # forward half: y2 -> m
        steps = []
        cur = m
        while fwd[cur] is not None:
            parent, gen, d = fwd[cur]
            steps.append((gen, d))
            cur = parent
        steps.reverse()
        # backward half: m -> c y1
        cur, c = m, bwd[m][3]
        while bwd[cur][0] is not None:
            child, gen, d, c = bwd[cur]
            steps.append((gen, d))
            cur = child
        return Certificate(tuple(steps), tuple(G.invert(a) for a in c))


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
    if _abelian_applicable(phi):
        res = _decide_abelian(y1, y2, phi)
    else:
        # true invariants first: they are independent of the search bounds,
        # so a Distinct here can never conflict with an Equal at any depth
        res = _separator_distinct(y1, y2, phi)
        if res is not None:
            return res
        if not phi.sided_spheres and is_spherical_presented(phi):
            # pure conjugation acts termwise by a key bijection
            m1, m2 = (tuple(sorted(abs(c) for _, c in y.terms)) for y in (y1, y2))
            if m1 != m2:
                return DecisionResult("distinct", separator="support-multiset",
                                      values=(m1, m2))
        cert = _OrbitSearch(phi, bounds).run(y1, y2)
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
