"""Homomorphic quotient invariants certifying inequality verdicts.

A separator pushes group elements through a homomorphism onto a finitely
generated abelian target (free rank plus cyclic factors).  Classes of the
source coset rings map to exactly canonicalized classes of the target, and
membership questions in the pushed relation lattice are decided by Smith
normal form over arbitrary-precision integers.

A `PushedContext` keeps a table of the classes it has computed, which lives
as long as the context (one separator check of one decision).  On a finite
target (the `modN` separators) the enumerated orbit of a vector is its whole
class, so one enumeration fills the table for every member of the orbit; on
an infinite target only the queried vector is stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from . import cosets as R
from . import groups as G
from .errors import DimensionMismatch, SpecMismatch

# ---------------------------------------------------------------------------
# Smith normal form


def _identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(A):
    """Return (U, D, V) with U*A*V = D, U and V unimodular, and the
    diagonal of D a nonnegative divisibility chain d1 | d2 | ..."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = _identity_matrix(rows)
    V = _identity_matrix(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for r in D:
            r[dst] += q * r[src]
        for r in V:
            r[dst] += q * r[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(rows, cols):
        # find a pivot in the remaining block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] and (pivot is None or abs(D[i][j]) < abs(D[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            done = True
            for i in range(t + 1, rows):
                if D[i][t]:
                    q = D[i][t] // D[t][t]
                    add_row(t, i, -q)
                    if D[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if D[t][j]:
                    q = D[t][j] // D[t][t]
                    add_col(t, j, -q)
                    if D[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                # pivot must divide every remaining entry
                offender = None
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if D[i][j] % D[t][t]:
                            offender = i
                            break
                    if offender is not None:
                        break
                if offender is None:
                    break
                add_row(offender, t, 1)
        if D[t][t] < 0:
            negate_row(t)
        t += 1
    return U, D, V


def lattice_solve(A, v):
    """Integer coefficients c with A*c = v, or None.  A is rows x cols."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(v) != rows:
        raise DimensionMismatch("vector length does not match the matrix")
    if cols == 0:
        return [] if all(x == 0 for x in v) else None
    U, D, V = smith_normal_form(A)
    w = [sum(U[i][j] * v[j] for j in range(rows)) for i in range(rows)]
    z = [0] * cols
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if d:
            if w[i] % d:
                return None
            z[i] = w[i] // d
        elif w[i]:
            return None
    return [sum(V[i][j] * z[j] for j in range(cols)) for i in range(cols)]


@dataclass(frozen=True)
class LatticeQuotient:
    """Ambient basis plus a relation matrix whose columns span the pushed
    relation differences; membership is decided exactly by SNF."""
    basis: tuple
    matrix: tuple[tuple[int, ...], ...]  # rows indexed like basis

    @cached_property
    def _index(self):
        return {b: i for i, b in enumerate(self.basis)}

    def vectorize(self, coeffs: dict) -> list[int]:
        v = [0] * len(self.basis)
        for key, c in coeffs.items():
            if key not in self._index:
                raise DimensionMismatch(f"key {key!r} outside the ambient basis")
            v[self._index[key]] = c
        return v

    @classmethod
    def from_relations(cls, relations, extra_keys=()):
        keys = []
        seen = set()
        for rel in relations:
            for k in rel:
                if k not in seen:
                    seen.add(k)
                    keys.append(k)
        for k in extra_keys:
            if k not in seen:
                seen.add(k)
                keys.append(k)
        keys = tuple(sorted(keys, key=repr))  # keys need not be mutually orderable
        matrix = tuple(tuple(rel.get(k, 0) for rel in relations) for k in keys)
        return cls(keys, matrix)


def quotient_decide(lq: LatticeQuotient, v1, v2):
    """'equal' iff v1 - v2 lies in the relation column lattice; total."""
    diff = [a - b for a, b in zip(v1, v2)]
    if len(diff) != len(lq.basis):
        raise DimensionMismatch("vectors do not match the ambient basis")
    coeffs = lattice_solve([list(r) for r in lq.matrix], diff)
    return ("equal", coeffs) if coeffs is not None else ("distinct", None)


def lattice_member(relations, coeffs: dict):
    """Membership of a sparse vector in the span of sparse relation vectors.

    Returns the integer combination or None.  Total: combinations cannot
    leave the union of supports, so restricting there is exact.
    """
    lq = LatticeQuotient.from_relations(relations, extra_keys=tuple(coeffs))
    return lattice_solve([list(r) for r in lq.matrix], lq.vectorize(coeffs))


# ---------------------------------------------------------------------------
# separators


@dataclass(frozen=True)
class Separator:
    name: str
    source: G.GroupSpec = field(repr=False)
    images: tuple[tuple[int, ...], ...]  # one image vector per generator
    moduli: tuple[int, ...]  # 0 marks a free coordinate

    def __post_init__(self):
        if len(self.images) != len(self.source.labels):
            raise DimensionMismatch("need one image per generator")
        for img in self.images:
            if len(img) != len(self.moduli):
                raise DimensionMismatch("image dimension does not match moduli")

    @property
    def dim(self):
        return len(self.moduli)

    @property
    def target_finite(self):
        return all(m > 0 for m in self.moduli)

    def reduce(self, vec):
        return tuple(v % m if m else v for v, m in zip(vec, self.moduli))

    def image(self, elem: G.GroupElement):
        if elem.spec != self.source:
            raise SpecMismatch("element belongs to a different spec")
        vec = [0] * self.dim
        for i, e in elem.syllables:
            img = self.images[i]
            for d in range(self.dim):
                vec[d] += e * img[d]
        return self.reduce(vec)

    def target_elements(self):
        if not self.target_finite:
            raise DimensionMismatch("target is infinite")
        out = [()]
        for m in self.moduli:
            out = [v + (i,) for v in out for i in range(m)]
        return out


def abelianization(spec: G.GroupSpec) -> Separator:
    n = len(spec.labels)
    images = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Separator("abelianization", spec, images, (0,) * n)


def cyclic_separator(spec: G.GroupSpec, m: int) -> Separator:
    ab = abelianization(spec)
    return Separator(f"mod{m}", spec, ab.images, (m,) * len(spec.labels))


def default_separator_suite(spec: G.GroupSpec) -> list[Separator]:
    """Abelianization plus coordinatewise cyclic reductions, cheapest last
    in declaration but consulted smallest-target-first by callers."""
    return [abelianization(spec)] + [cyclic_separator(spec, m) for m in range(2, 13)]


# ---------------------------------------------------------------------------
# pushed class canonicalization


def _vec_add(a, b, scale=1):
    return tuple(x + scale * y for x, y in zip(a, b))


def _order_key(sep: Separator, vec):
    free_norm = sum(abs(v) for v, m in zip(vec, sep.moduli) if m == 0)
    return (free_norm, vec)


def _translate_range(sep: Separator, v, g_img, pad=1):
    """Candidate exponents n for minimizing v + n*g over the target."""
    free_g = sum(abs(x) for x, m in zip(g_img, sep.moduli) if m == 0)
    period = 1
    for x, m in zip(g_img, sep.moduli):
        if m:
            period = math.lcm(period, m // math.gcd(m, x % m) if x % m else 1)
    if free_g:
        free_v = sum(abs(x) for x, m in zip(v, sep.moduli) if m == 0)
        bound = (2 * free_v // free_g + 2) * pad * period
        return range(-bound, bound + 1)
    return range(period)


@dataclass(frozen=True)
class PushedContext:
    """Image of a ring context under a separator; canonicalizes pushed
    orbits exactly (the target is abelian, so orbits are short).

    Answers are kept in a per-context table from reduced target vectors to
    classes, filled on demand.  On a finite target the enumerated orbit is
    the whole class and every member has the same orbit set, so one
    enumeration answers all of its members.  On an infinite target the
    enumeration window depends on the queried vector, which alone is
    stored.
    """
    sep: Separator
    flavor: str
    gamma_img: tuple | None = None
    delta_img: tuple | None = None
    _classes: dict = field(default_factory=dict, init=False, repr=False,
                           compare=False)

    @classmethod
    def of(cls, sep: Separator, ctx: R.RingContext):
        gi = sep.image(ctx.gamma) if ctx.gamma is not None else None
        di = sep.image(ctx.delta) if ctx.delta is not None else None
        return cls(sep, ctx.flavor, gi, di)

    def _orbit(self, vec) -> list:
        """Pushed orbit of a reduced vector: {+-w + n*gamma} (coset),
        w + <gamma, delta> (two-sided), {w, -w} (reduced, conjugacy), within
        a window around vec on a free coordinate."""
        sep = self.sep
        flavor = self.flavor
        if flavor == R.PLAIN:
            return [vec]
        if flavor == R.TWO_SIDED:
            pad = 1
            gfree = sum(abs(x) for x, m in zip(self.gamma_img, sep.moduli) if m == 0)
            dfree = sum(abs(x) for x, m in zip(self.delta_img, sep.moduli) if m == 0)
            if gfree and dfree:
                pad = max(gfree, dfree)
            orbit = []
            for n in _translate_range(sep, vec, self.gamma_img, pad):
                wn = _vec_add(vec, self.gamma_img, n)
                for m in _translate_range(sep, sep.reduce(wn), self.delta_img, pad):
                    orbit.append(sep.reduce(_vec_add(wn, self.delta_img, m)))
            return orbit
        branches = [vec, sep.reduce(tuple(-x for x in vec))]
        if flavor != R.COSET:
            return branches
        return [sep.reduce(_vec_add(w, self.gamma_img, n))
                for w in branches
                for n in _translate_range(sep, w, self.gamma_img)]

    def pushed_class(self, vec) -> tuple | None:
        """Canonical pushed class of a target vector, None for killed ones."""
        sep = self.sep
        vec = sep.reduce(vec)
        if vec in self._classes:
            return self._classes[vec]
        orbit = self._orbit(vec)
        zero = (0,) * sep.dim
        if zero in orbit and self.flavor in (R.REDUCED, R.COSET, R.CONJUGACY):
            pk = None
        elif zero in orbit and self.flavor == R.TWO_SIDED:
            pk = zero
        else:
            pk = min(orbit, key=lambda v: _order_key(sep, v))
        for member in orbit if sep.target_finite else (vec,):
            self._classes[member] = pk
        return pk

    def push(self, y: R.RingElement) -> dict:
        """Pushforward of a ring element: sparse vector over pushed classes."""
        acc: dict[tuple, int] = {}
        for key, c in y.terms:
            pk = self.pushed_class(self.sep.image(key.representative))
            if pk is None:
                continue
            acc[pk] = acc.get(pk, 0) + c
        return {k: v for k, v in acc.items() if v}


def push_forward(sep: Separator, y: R.RingElement) -> dict:
    """Vector of y over pushed coset classes of the separator target."""
    return PushedContext.of(sep, y.context).push(y)
