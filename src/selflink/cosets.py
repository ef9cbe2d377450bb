"""Arithmetic and canonicalization in the coset-class rings.

Three flavors of context are supported, all additive groups on canonical
class keys:

  coset      double cosets by powers of gamma on both sides, inversion,
             trivial orbit dropped
  two_sided  cosets gamma^n g delta^m, no inversion, nothing dropped
  conjugacy  conjugacy classes modulo inversion, trivial class dropped

Two more constructors are the trivial-side cases: ``plain_ring`` is the
two-sided ring with gamma = delta = 1, the full integer group ring with
one class per element, and ``reduced_ring`` is the coset ring with
gamma = 1, whose classes are {g, g^-1} with the trivial class dropped.

A class key is the shortlex-least element of its orbit, so class equality
is word equality.  Elements serialize as signed integer-coefficient sums
of class keys in shortlex order, e.g. ``+1*[x] -1*[x y]``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial

from . import groups as G
from .errors import NotInCentralizer, ParseError, SpecMismatch

# not the flavor of any context (plain_ring and reduced_ring build two_sided
# and coset contexts); bench/tracer.py reads the names
PLAIN = "plain"
REDUCED = "reduced"
COSET = "coset"
TWO_SIDED = "two_sided"
CONJUGACY = "conjugacy"

_TERM_RE = re.compile(r"([+-]\d+)\*\[([^\]]*)\]")
_TERM_RE_LENIENT = re.compile(r"([+-]?\d*)\s*\*?\s*\[([^\]]*)\]")


@dataclass(frozen=True)
class RingContext:
    spec: G.GroupSpec = field(repr=False)
    flavor: str
    gamma: G.GroupElement | None = None
    delta: G.GroupElement | None = None

    @cached_property
    def _orbit_rule(self):
        """The map from a candidate list to the shortlex-least element of
        its coset or two-sided orbit, chosen once per context by
        _choose_orbit_rule."""
        right = self.gamma if self.flavor == COSET else self.delta
        return _choose_orbit_rule(self.spec, self.gamma, right)


def plain_ring(spec: G.GroupSpec) -> RingContext:
    """The two-sided ring with trivial sides: one class per element."""
    return two_sided_ring(spec, G.identity(spec), G.identity(spec))


def reduced_ring(spec: G.GroupSpec) -> RingContext:
    """The coset ring of gamma = 1: classes {g, g^-1}, trivial class dropped."""
    return coset_ring(spec, G.identity(spec))


def coset_ring(spec: G.GroupSpec, gamma: G.GroupElement) -> RingContext:
    if gamma.spec != spec:
        raise SpecMismatch("gamma belongs to a different spec")
    return RingContext(spec, COSET, gamma)


def two_sided_ring(spec: G.GroupSpec, gamma: G.GroupElement, delta: G.GroupElement) -> RingContext:
    if gamma.spec != spec or delta.spec != spec:
        raise SpecMismatch("gamma/delta belong to a different spec")
    return RingContext(spec, TWO_SIDED, gamma, delta)


def conjugacy_ring(spec: G.GroupSpec) -> RingContext:
    return RingContext(spec, CONJUGACY)


# ---------------------------------------------------------------------------
# canonicalization


def _power_table(elem: G.GroupElement, bound: int):
    table = {0: G.identity(elem.spec)}
    for n in range(1, bound + 1):
        table[n] = G.multiply(table[n - 1], elem)
        table[-n] = G.invert(table[n])
    return table


def _orbit_min(spec, candidates, left, right):
    """Shortlex-least element of {left^n c right^m} by iterative tightening.

    This is the general fallback for the orbits that _choose_orbit_rule
    has no closed form for (free products, free abelian groups of rank at
    least 2, free x Z sides other than central powers, free-group sides
    that are not cyclically reduced) and the oracle the closed forms are
    tested against.  The search bound per side is ceil((|g| + |best|)/|side|) + 2,
    widened by the longer side's length for two-sided orbits whose sides
    differ but commute with each other and with the candidates (t against
    x t^7 and x t^9 in free x Z, z against z^7 and z^9 in a free product),
    where the two translation directions can nearly cancel.
    Validated against a brute-force BFS oracle in the test suite.
    """
    use_left = left is not None and not G.is_identity(left)
    use_right = right is not None and not G.is_identity(right)
    best = G.shortlex_min(candidates)
    if not (use_left or use_right):
        return best
    glen = max(c.length() for c in candidates)
    if (use_left and use_right and left == right
            and all(G.commutes(left, c) for c in candidates)):
        # left^n c right^m = c left^(n+m): a single exponent suffices
        bound = (glen + best.length()) // left.length() + 3
        table = _power_table(left, 2 * bound)
        for c in candidates:
            for j in range(-2 * bound, 2 * bound + 1):
                cand = G.multiply(c, table[j])
                if G.shortlex_key(cand) < G.shortlex_key(best):
                    best = cand
        return best
    # greedy descent seeds a near-minimal best, shrinking the exact bounds
    moves = []
    if use_left:
        moves += [(left, True), (G.invert(left), True)]
    if use_right:
        moves += [(right, False), (G.invert(right), False)]
    for c in candidates:
        cur, key_cur = c, G.shortlex_key(c)
        improved = True
        while improved:
            improved = False
            for t, on_left in moves:
                nxt = G.multiply(t, cur) if on_left else G.multiply(cur, t)
                k = G.shortlex_key(nxt)
                if k < key_cur:
                    cur, key_cur, improved = nxt, k, True
        if key_cur < G.shortlex_key(best):
            best = cur
    # distinct sides that commute with each other and with the candidates:
    # left^n c right^m = c left^n right^m, and the powers can nearly cancel
    pad = 1
    if (use_left and use_right and left != right and G.commutes(left, right)
            and all(G.commutes(left, c) and G.commutes(right, c) for c in candidates)):
        pad = max(1, left.length(), right.length())
    seen_bounds = None
    while True:
        bl = ((glen + best.length()) // left.length() + 3) * pad if use_left else 0
        br = ((glen + best.length()) // right.length() + 3) * pad if use_right else 0
        if seen_bounds == (bl, br):
            return best
        seen_bounds = (bl, br)
        lp = _power_table(left, bl) if use_left else {0: G.identity(spec)}
        rp = _power_table(right, br) if use_right else {0: G.identity(spec)}
        key_best = G.shortlex_key(best)
        # in free-type specs the power blocks cannot annihilate each other
        # through a candidate outside <gamma>, capping |n| + |m| jointly
        combined = None
        if (spec.kind in (G.FREE, G.FREE_PRODUCT) and use_left and use_right
                and left == right):
            combined = (glen + best.length()) // left.length() + 4
        for n in range(-bl, bl + 1):
            for c in candidates:
                lc = G.multiply(lp[n], c)
                for m in range(-br, br + 1):
                    if combined is not None and abs(n) + abs(m) > combined:
                        continue
                    cand = G.multiply(lc, rp[m])
                    if cand.length() > key_best[0]:
                        continue
                    k = G.shortlex_key(cand)
                    if k < key_best:
                        best, key_best = cand, k


# Closed forms.  Free-group words are handled as tuples of shortlex codes
# (GroupElement.codes).


def _seam(a, b):
    """The reduced product of two reduced code tuples: cancel at the seam."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == b[k] ^ 1:
        k += 1
    return a[:len(a) - k] + b[k:]


def _common_root_length(a, b):
    """The length of the maximal roots of the cyclically reduced code tuples
    a and b when those roots are conjugate up to inversion (some conjugate
    of a power of a is a power of b), else 0."""
    ra, rb = a[:G._period(a)], b[:G._period(b)]
    if len(ra) == len(rb) and any(r[i:] + r[:i] == rb for r in (ra, G._inverse_codes(ra))
                                  for i in range(len(r))):
        return len(ra)
    return 0


def _free_side(s):
    """Codes of a side of a free-group orbit: () for a trivial side, None
    when s is not cyclically reduced."""
    if G.is_identity(s):
        return ()
    w = s.codes
    return None if w[0] == w[-1] ^ 1 else w


def _periods(w):
    return (w, G._inverse_codes(w)) if w else ()


def _powers(w, reach):
    """Codes of w^n for |n| <= reach; w is cyclically reduced, so w^n is
    w repeated."""
    if not w:
        return ((),)
    v = G._inverse_codes(w)
    return tuple(v * n for n in range(reach, 0, -1)) + tuple(w * n for n in range(reach + 1))


def _free_orbit_min(spec, left_periods, right_periods, left_powers,
                    right_powers, candidates):
    """Shortlex-least element of {left^n c right^m} in a free group.

    The periods are the codes of left^+-1 and right^+-1.  Each candidate
    loses the most whole periods of left^+-1 that prefix it and then of
    right^+-1 that end it, in one pass each; at most one sign applies per
    side, because a cyclically reduced word and its inverse start with
    different letters.  The least element is left^n core right^m for some
    power codes in left_powers and right_powers, which _free_windows
    sizes.
    """
    best = None
    for cand in candidates:
        w = cand.codes
        s, e = 0, len(w)
        for p in left_periods:
            while w[s:s + len(p)] == p:
                s += len(p)
        for p in right_periods:
            while e - s >= len(p) and w[e - len(p):e] == p:
                e -= len(p)
        core = w[s:e]
        for a in left_powers:
            head = _seam(a, core)
            for b in right_powers:
                word = _seam(head, b)
                key = (len(word), word)
                if best is None or key < best:
                    best = key
    return G._from_codes(spec, best[1])


def _central_exponent(t, s):
    """a when s = t^a for the generator of index t (0 for s = 1), else None."""
    sylls = s.syllables
    if not sylls:
        return 0
    if len(sylls) == 1 and sylls[0][0] == t:
        return sylls[0][1]
    return None


def _central_orbit_min(spec, t, k, candidates):
    """Shortlex-least element of {u t^(c + kn)} for the central generator
    of index t (of free x Z, or of a rank-1 free abelian group, where u = 1):
    u t^c' with c' = c mod k of least absolute value, the positive one on a
    tie."""
    best = None
    for cand in candidates:
        sylls = cand.syllables
        c = sylls[-1][1] if sylls and sylls[-1][0] == t else 0
        free_part = sylls[:-1] if c else sylls
        r = c % k
        c = r if 2 * r <= k else r - k
        rep = G.GroupElement(spec, free_part + (((t, c),) if c else ()))
        if best is None or G.shortlex_key(rep) < G.shortlex_key(best):
            best = rep
    return best


def _free_windows(a, b):
    """Codes of left^n and right^m over the ranges of n and m that hold
    the least element of {left^n core right^m}, for the codes a and b of
    cyclically reduced sides and a peeled core.

    The least element is shortest, so its reduced word neither starts with
    left^+-1 nor ends with right^+-1.  Say n > 0.  Of the n|a| letters of
    left^n, fewer than |a| survive; fewer than |a| cancel against the core
    (else the core would start with left^-1); and d cancel against right^m,
    where the cancelled word has periods |a| and |b|.  When the sides'
    maximal roots are not conjugate up to inversion, Fine and Wilf's
    theorem gives d <= |a| + |b| - 2, so n <= (3|a| + |b| - 4) // |a|.
    When both sides generate the same subgroup, d < |a| (no nontrivial
    element of a free group is conjugate to its inverse) unless the core
    is a power of their root, and |n| <= 2 covers both cases.  When the
    roots are conjugate but the subgroups differ, as for x^7 and x^9, the
    orbit of a core c with c^-1 left c commensurable with right is
    c rho^(hZ), rho the root of right = rho^q and h | q; its least element
    is c rho^j with |j| < 2q, which some n with |n| <= q/h and m with
    |m| <= 2 + |left|/|rho| reach.  Otherwise d < |rho| and the first
    bound holds.
    """
    if not a or not b or set(_periods(a)) == set(_periods(b)):
        reach_a = reach_b = 2
    else:
        reach_a = max(2, (3 * len(a) + len(b) - 4) // len(a))
        reach_b = max(2, (3 * len(b) + len(a) - 4) // len(b))
        root = _common_root_length(a, b)
        if root:
            reach_a = max(reach_a, len(b) // root + 2)
            reach_b = max(reach_b, len(a) // root + 2)
    return _powers(a, reach_a), _powers(b, reach_b)


def _choose_orbit_rule(spec, left, right):
    """The function that maps a candidate list to the shortlex-least element
    of {left^n c right^m}: a closed form where one is exact, else
    _orbit_min.

    Free groups with cyclically reduced sides: peel, then scan the windows
    of _free_windows.  Free x Z with both sides central, t^a and t^b, and
    rank-1 free abelian, which is free x Z on no free generators: the
    central exponent is only defined mod gcd(a, b), unless both sides are
    trivial.
    """
    if spec.kind == G.FREE:
        a, b = _free_side(left), _free_side(right)
        if a is not None and b is not None:
            return partial(_free_orbit_min, spec, _periods(a), _periods(b),
                           *_free_windows(a, b))
    if spec.kind == G.FREE_TIMES_Z or (spec.kind == G.FREE_ABELIAN
                                       and len(spec.labels) == 1):
        t = len(spec.labels) - 1
        a, b = _central_exponent(t, left), _central_exponent(t, right)
        if a is not None and b is not None and (a or b):
            return partial(_central_orbit_min, spec, t, math.gcd(a, b))
    return partial(_orbit_min, spec, left=left, right=right)


def _conjugacy_min(spec, g):
    """The conjugacy key of g: the least rotation of the words of the
    cyclic cores of g and g^-1, renormalized."""
    best = None
    for cand in (g, G.invert(g)):
        w = G.cyclic_core(cand).codes
        for r in range(len(w)):
            rot = G.make_element(spec, G._code_syllables(w[r:] + w[:r]))
            if best is None or G.shortlex_key(rot) < G.shortlex_key(best):
                best = rot
    return best


def canonicalize(ctx: RingContext, g: G.GroupElement) -> G.GroupElement | None:
    """The canonical element of g's class, or None for the dropped zero
    class."""
    if g.spec != ctx.spec:
        raise SpecMismatch("element belongs to a different spec")
    return _canonicalize_cached(ctx, g)


@lru_cache(maxsize=1 << 18)
def _canonicalize_cached(ctx: RingContext, g: G.GroupElement) -> G.GroupElement | None:
    if ctx.flavor == TWO_SIDED:
        return ctx._orbit_rule([g])
    if G.is_identity(g):
        return None
    if ctx.flavor == CONJUGACY:
        return _conjugacy_min(ctx.spec, g)
    rep = ctx._orbit_rule([g, G.invert(g)])
    return None if G.is_identity(rep) else rep


# ---------------------------------------------------------------------------
# ring elements


@dataclass(frozen=True)
class RingElement:
    context: RingContext = field(repr=False)
    terms: tuple[tuple[G.GroupElement, int], ...]  # (class key, coefficient)

    def __repr__(self):
        return f"<{format_ring(self)}>"

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        return add(self, other)

    def __neg__(self):
        return negate(self)

    def __sub__(self, other):
        return add(self, negate(other))

    def support(self) -> list[G.GroupElement]:
        return [k for k, _ in self.terms]


def _sorted_terms(acc):
    terms = [(k, c) for k, c in acc.items() if c]
    terms.sort(key=lambda kc: G.shortlex_key(kc[0]))
    return tuple(terms)


def zero(ctx: RingContext) -> RingElement:
    return RingElement(ctx, ())


def from_terms(ctx: RingContext, pairs) -> RingElement:
    """Build an element from (group element, coefficient) pairs."""
    acc: dict[G.GroupElement, int] = {}
    for g, c in pairs:
        key = canonicalize(ctx, g)
        if key is not None:
            acc[key] = acc.get(key, 0) + c
    return RingElement(ctx, _sorted_terms(acc))


def single(ctx: RingContext, g: G.GroupElement, coeff: int = 1) -> RingElement:
    return from_terms(ctx, [(g, coeff)])


def _check_ctx(a: RingElement, b: RingElement):
    if a.context != b.context:
        raise SpecMismatch("ring elements belong to different contexts")


def add(a: RingElement, b: RingElement) -> RingElement:
    _check_ctx(a, b)
    acc = dict(a.terms)
    for k, c in b.terms:
        acc[k] = acc.get(k, 0) + c
    return RingElement(a.context, _sorted_terms(acc))


def negate(a: RingElement) -> RingElement:
    return RingElement(a.context, tuple((k, -c) for k, c in a.terms))


def scale(n: int, a: RingElement) -> RingElement:
    if n == 0:
        return zero(a.context)
    return RingElement(a.context, tuple((k, n * c) for k, c in a.terms))


def conj_act(phi: G.GroupElement, y: RingElement) -> RingElement:
    """Termwise conjugation y -> phi y phi^-1.

    For coset contexts phi must centralize gamma, else the result would
    land in a different context; on a two-sided context it is
    biact(phi, phi, y).
    """
    ctx = y.context
    if ctx.flavor == TWO_SIDED:
        return biact(phi, phi, y)
    if phi.spec != ctx.spec:
        raise SpecMismatch("conjugator belongs to a different spec")
    if ctx.flavor == COSET and not G.commutes(phi, ctx.gamma):
        raise NotInCentralizer(f"{G.format_word(phi)} does not centralize {G.format_word(ctx.gamma)}")
    return from_terms(ctx, [(G.conjugate(k, phi), c) for k, c in y.terms])


def biact(phi: G.GroupElement, psi: G.GroupElement, y: RingElement) -> RingElement:
    """Termwise two-sided action y -> phi y psi^-1 on a two_sided context."""
    ctx = y.context
    if ctx.flavor != TWO_SIDED:
        raise SpecMismatch("biact needs a two-sided context")
    if phi.spec != ctx.spec or psi.spec != ctx.spec:
        raise SpecMismatch("actor belongs to a different spec")
    for actor, side in ((phi, ctx.gamma), (psi, ctx.delta)):
        if not G.commutes(actor, side):
            raise NotInCentralizer(f"{G.format_word(actor)} does not centralize {G.format_word(side)}")
    psi_inv = G.invert(psi)
    return from_terms(ctx, [(G.multiply(G.multiply(phi, k), psi_inv), c)
                            for k, c in y.terms])


def project_pi(y: RingElement) -> RingElement:
    """Quotient map from the reduced ring to conjugacy classes mod inversion."""
    spec = y.context.spec
    if y.context != reduced_ring(spec):
        raise SpecMismatch("project_pi expects a reduced-ring element")
    return from_terms(conjugacy_ring(spec), y.terms)


# ---------------------------------------------------------------------------
# serialization


def format_ring(y: RingElement) -> str:
    if not y.terms:
        return "0"
    return " ".join(f"{c:+d}*[{G.format_word(k)}]" for k, c in y.terms)


def parse_ring(ctx: RingContext, text: str, strict_sign: bool = False) -> RingElement:
    """Parse `+1*[x] -1*[x y]` (or `0`).  The lenient default also accepts
    unsigned or coefficient-free terms like `2*[x]` and `[x]`; strict_sign
    requires every coefficient to be explicitly signed."""
    text = text.strip()
    if text == "0":
        return zero(ctx)
    pat = _TERM_RE if strict_sign else _TERM_RE_LENIENT
    pairs = []
    consumed = 0
    for m in pat.finditer(text):
        consumed += len(re.sub(r"\s", "", m.group(0)))
        raw = m.group(1)
        coeff = int(raw) if raw.strip("+-") else int(raw + "1")
        word = m.group(2).strip()
        g = G.identity(ctx.spec) if word == "1" else G.parse_word(ctx.spec, word)
        pairs.append((g, coeff))
    if consumed != len(re.sub(r"\s", "", text)):
        raise ParseError(f"cannot parse ring element {text!r}")
    return from_terms(ctx, pairs)
