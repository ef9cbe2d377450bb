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

Only this module decodes a flavor: a context names its quotient by
``sides`` and ``inverts``, and ``biact`` is the one termwise action.

A class key is the shortlex-least element of its orbit, so class equality
is word equality (free double cosets count lengths before building words).
Elements are stored as tuples ``(context, terms)``, the terms (class key,
coefficient) pairs in shortlex order of the keys, so equality and hashing
are tuple operations, run in C, and a sum is one merge of two term lists.
Elements serialize as signed integer-coefficient sums of class keys in
shortlex order, e.g. ``+1*[x] -1*[x y]``.
"""

from __future__ import annotations

import math
import re
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


class RingContext(G.value_type("RingContext", "spec flavor gamma delta", (None, None))):
    """A class ring over spec, (spec, flavor, gamma, delta), whose quotient
    `sides` and `inverts` name."""

    @property
    def sides(self) -> tuple:
        """The (left, right) side elements of a class: (gamma, gamma) for a
        coset ring, (gamma, delta) two-sided, (None, None) for conjugacy."""
        return self.gamma, (self.gamma if self.flavor == COSET else self.delta)

    @property
    def inverts(self) -> bool:
        """Whether classes are taken modulo inversion, the trivial class
        dropped: every flavor but two_sided."""
        return self.flavor != TWO_SIDED

    @cached_property
    def _orbit_rule(self):
        """The map from a candidate list to the shortlex-least element of
        its orbit: its conjugacy class when the context has no sides, else
        its coset left^n c right^m, the rule chosen once per context by
        _choose_orbit_rule."""
        left, right = self.sides
        if left is None:
            return partial(_conjugacy_min, self.spec)
        return _choose_orbit_rule(self.spec, left, right)


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
    """Shortlex-least element of {left^n c right^m}: a greedy descent seeds
    a near-minimal best, then one scan of |n| <= (|g| + |best|) // |left| + 3
    and likewise m, g the longest candidate.

    This is the general fallback for the orbits that _choose_orbit_rule
    has no closed form for (free products, free abelian groups of rank at
    least 2, free x Z sides other than central powers, free-group sides
    that are not cyclically reduced) and the oracle the closed forms are
    tested against.  Equal sides that commute with every candidate scan one
    exponent twice as far (left^n c left^m = c left^(n+m)); distinct sides
    that commute with each other and the candidates (t against x t^7 and
    x t^9 in free x Z, z against z^7 and z^9 in a free product), whose powers
    can nearly cancel, widen both windows by the longer side's length; equal
    sides in free-type specs cap |n| + |m| jointly.  Validated against a
    brute-force BFS oracle in the test suite.
    """
    left = None if left is None or G.is_identity(left) else left
    right = None if right is None or G.is_identity(right) else right
    best = G.shortlex_min(candidates)
    if left is None and right is None:
        return best
    moves = [(t, on_left) for side, on_left in ((left, True), (right, False))
             if side is not None for t in (side, G.invert(side))]
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
    span = max(c.length() for c in candidates) + best.length()
    bl, br = ((span // s.length() + 3 if s is not None else 0) for s in (left, right))
    combined = None
    if left == right and all(G.commutes(left, c) for c in candidates):
        bl, br = 0, 2 * br
    elif (left is not None and right is not None and G.commutes(left, right)
          and all(G.commutes(left, c) and G.commutes(right, c) for c in candidates)):
        pad = max(left.length(), right.length())
        bl, br = bl * pad, br * pad
    elif left == right and spec.kind in (G.FREE, G.FREE_PRODUCT):
        combined = span // left.length() + 4
    lp = _power_table(left, bl) if left is not None else {0: G.identity(spec)}
    rp = _power_table(right, br) if right is not None else {0: G.identity(spec)}
    key_best = G.shortlex_key(best)
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
    return best


# Closed forms.  Free-group words are handled as tuples of shortlex codes
# (GroupElement.codes).


def _cancelled(a, b):
    """The number of letters cancelled where code tuples a and b meet."""
    k, n = 0, min(len(a), len(b))
    while k < n and a[-1 - k] == b[k] ^ 1:
        k += 1
    return k


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
    sizes, the right ones by first letter: only m = 0 and the powers that
    cancel at the head's end can win.  Lengths are counted at the seams
    first, and only a word no longer than the best so far is built.
    """
    best = (math.inf,)
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
            k = _cancelled(a, core)
            head = a[:len(a) - k] + core[k:]
            h = len(head)
            for b in ((),) + right_powers.get(head[-1] ^ 1 if head else None, ()):
                k = _cancelled(head, b)
                n = h + len(b) - 2 * k
                if n <= best[0] and (key := (n, head[:h - k] + b[k:])) < best:
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
    reps = []
    for cand in candidates:
        sylls = cand.syllables
        c = sylls[-1][1] if sylls and sylls[-1][0] == t else 0
        free_part = sylls[:-1] if c else sylls
        r = c % k
        c = r if 2 * r <= k else r - k
        reps.append(G.GroupElement(spec, free_part + (((t, c),) if c else ())))
    return G.shortlex_min(reps)


def _free_windows(a, b):
    """Codes of left^n, and of right^m keyed by their first letter, over
    the ranges of n and m that hold the least element of
    {left^n core right^m}, for the codes a and b of cyclically reduced
    sides and a peeled core.

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
    rights = _powers(b, reach_b)
    return _powers(a, reach_a), {p[0]: tuple(q for q in rights if q[:1] == p[:1])
                                 for p in rights if p}


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


def _conjugacy_min(spec, candidates):
    """The least conjugate of the candidates: the least rotation of the
    syllables of their cyclic cores, renormalized.  The least rotation of a
    core's letters begins with its least letter, at the first letter of a
    maximal run of it, and such a run begins a syllable; so one rotation
    per syllable, not per letter, reaches it."""
    cores = (G.cyclic_core(cand).syllables for cand in candidates)
    return G.shortlex_min(G.make_element(spec, s[r:] + s[:r])
                          for s in cores for r in range(len(s)))


def canonicalize(ctx: RingContext, g: G.GroupElement) -> G.GroupElement | None:
    """The canonical element of g's class, or None for the dropped zero
    class."""
    if g.spec != ctx.spec:
        raise SpecMismatch("element belongs to a different spec")
    return _canonicalize_cached(ctx, g)


@lru_cache(maxsize=1 << 18)
def _canonicalize_cached(ctx: RingContext, g: G.GroupElement) -> G.GroupElement | None:
    if not ctx.inverts:
        return ctx._orbit_rule([g])
    if G.is_identity(g):
        return None
    rep = ctx._orbit_rule([g, G.invert(g)])
    return None if G.is_identity(rep) else rep


# ---------------------------------------------------------------------------
# ring elements


class RingElement(G.value_type("RingElement", "context terms")):
    """(context, terms), the terms (class key, coefficient) pairs in
    shortlex order of the keys."""
    __slots__ = ()

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
    """a + b: one merge of the two shortlex-ordered term lists, zero sums
    dropped."""
    _check_ctx(a, b)
    s, t, out, i, j = a.terms, b.terms, [], 0, 0
    while i < len(s) and j < len(t):
        (k, c), (h, d) = s[i], t[j]
        if k == h:
            if c + d:
                out.append((k, c + d))
            i, j = i + 1, j + 1
        elif G.shortlex_key(k) < G.shortlex_key(h):
            out.append(s[i])
            i += 1
        else:
            out.append(t[j])
            j += 1
    return RingElement(a.context, tuple(out) + s[i:] + t[j:])


def negate(a: RingElement) -> RingElement:
    return RingElement(a.context, tuple((k, -c) for k, c in a.terms))


def scale(n: int, a: RingElement) -> RingElement:
    if n == 0:
        return zero(a.context)
    return RingElement(a.context, tuple((k, n * c) for k, c in a.terms))


def conj_act(phi: G.GroupElement, y: RingElement) -> RingElement:
    """Termwise conjugation y -> phi y phi^-1: biact(phi, phi, y)."""
    return biact(phi, phi, y)


def biact(phi: G.GroupElement, psi: G.GroupElement, y: RingElement) -> RingElement:
    """Termwise action y -> phi y psi^-1, on every flavor.

    phi must centralize the left side and psi the right, else the result
    would land in a different context.  On a ring taken modulo inversion
    the action must be a conjugation, psi = phi: only then is the image
    of g^-1 the inverse of the image of g.
    """
    ctx = y.context
    if phi.spec != ctx.spec or psi.spec != ctx.spec:
        raise SpecMismatch("actor belongs to a different spec")
    if ctx.inverts and psi != phi:
        raise SpecMismatch("a ring taken modulo inversion is acted on by conjugation only")
    for actor, side in dict.fromkeys(zip((phi, psi), ctx.sides)):
        if side is not None and not G.commutes(actor, side):
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
    if not text:
        raise ParseError("empty ring element (0 denotes zero)")
    if text == "0":
        return zero(ctx)
    pat = _TERM_RE if strict_sign else _TERM_RE_LENIENT
    pairs = []
    consumed = 0
    for m in pat.finditer(text):
        consumed += len(re.sub(r"\s", "", m.group(0)))
        raw = m.group(1)
        coeff = int(raw) if raw.strip("+-") else int(raw + "1")
        pairs.append((G.parse_word(ctx.spec, m.group(2)), coeff))
    if consumed != len(re.sub(r"\s", "", text)):
        raise ParseError(f"cannot parse ring element {text!r}")
    return from_terms(ctx, pairs)
