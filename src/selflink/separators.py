"""Homomorphic quotient invariants certifying inequality verdicts.

A separator pushes group elements through a homomorphism onto a finitely
generated abelian target (free rank plus cyclic factors).  Classes of the
source coset rings map to exactly canonicalized classes of the target, and
membership questions in the pushed relation lattice are decided by a row
Hermite normal form over arbitrary-precision integers, which also yields
small integer combinations (`lattice_solve`, `lattice_member`).

A `PushedContext` keeps a table of the classes it has computed, which lives
as long as the context (one separator check of one decision).  On a finite
target (the `modN` separators) the enumerated orbit of a vector is its whole
class, so one enumeration fills the table for every member of the orbit; on
an infinite target only the queried vector is stored.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from . import cosets as R
from . import groups as G
from .errors import DimensionMismatch, SpecMismatch

# ---------------------------------------------------------------------------
# Hermite normal form


def _lead(row):
    """Column of the first nonzero entry, or None for a zero row."""
    for j, a in enumerate(row):
        if a:
            return j
    return None


def _sub(row, pivot_row, q):
    """row - q * pivot_row."""
    return [a - q * b for a, b in zip(row, pivot_row)]


def _xgcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b) > 0, for b != 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _insert(basis, row):
    """Add row to the lattice whose Hermite basis is {pivot column: row}.

    The row is reduced down the pivots; where a pivot does not divide its
    entry, a unimodular 2 x 2 step puts their gcd in the pivot row and
    carries on with a row that is zero there.  A left-over row becomes a
    new pivot.  Returns True iff the lattice grew (row was not a member);
    the entries above every pivot are then reduced into [0, pivot) again,
    which keeps them from growing from one insertion to the next.
    """
    grew = False
    col = _lead(row)
    while col is not None:
        p = basis.get(col)
        if p is None:
            basis[col] = row if row[col] > 0 else [-a for a in row]
            grew = True
            break
        if row[col] % p[col]:
            g, x, y = _xgcd(p[col], row[col])
            basis[col], row = ([x * a + y * b for a, b in zip(p, row)],
                               [(row[col] // g) * a - (p[col] // g) * b
                                for a, b in zip(p, row)])
            grew = True
        else:
            row = _sub(row, p, row[col] // p[col])
        col = _lead(row)
    if grew:
        cols = sorted(basis)
        for j, cj in enumerate(cols):
            for ci in cols[:j]:
                q = basis[ci][cj] // basis[cj][cj]
                if q:
                    basis[ci] = _sub(basis[ci], basis[cj], q)
    return grew


def hermite_form(A):
    """Return (H, U) with U*A = H and U unimodular, for an m x n matrix A.

    [H | U] is the row Hermite normal form of [A | I]: every row starts
    with a positive pivot to the right of the previous row's pivot, and
    the entries above a pivot lie in [0, pivot).  So the nonzero rows of H
    are the Hermite normal form of the row lattice of A (they come first),
    and the rows of U beside the zero rows of H are an echelon basis of
    the left kernel of A.  The rows of [A | I] are inserted one at a time.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    basis = {}
    for i, r in enumerate(A):
        _insert(basis, list(r) + [int(i == j) for j in range(m)])
    rows = [basis[c] for c in sorted(basis)]
    return [r[:n] for r in rows], [r[n:] for r in rows]


def lattice_solve(A, v):
    """Integer coefficients c with A*c = v, or None.  A is rows x cols.

    The columns of A are the generators.  Those that enlarge the lattice
    spanned by the ones before them are kept, in order; they span the
    same lattice, and its Hermite basis decides membership.  A solution
    on the kept generators is read off their `hermite_form` and then
    size-reduced against its kernel rows, which leaves every kernel pivot
    coordinate in the centered range of its pivot and so keeps the
    coefficients small.  A skipped generator gets coefficient 0.
    """
    rows = len(A)
    cols = len(A[0]) if rows else 0
    if len(v) != rows:
        raise DimensionMismatch("vector length does not match the matrix")
    if not any(v):
        return [0] * cols
    basis = {}
    kept = [j for j, g in enumerate(zip(*A)) if _insert(basis, list(g))]
    if _insert(dict(basis), list(v)):
        return None
    H, U = hermite_form([[row[j] for row in A] for j in kept])
    rank = sum(1 for h in H if any(h))
    rest = list(v)
    c = [0] * len(kept)
    for h, u in zip(H[:rank], U):
        col = _lead(h)
        q = rest[col] // h[col]
        rest = _sub(rest, h, q)
        c = _sub(c, u, -q)
    for u in U[rank:]:                      # size-reduce against the kernel
        col = _lead(u)
        c = _sub(c, u, (2 * c[col] + u[col]) // (2 * u[col]))
    out = [0] * cols
    for j, k in zip(kept, c):
        out[j] = k
    return out


def lattice_member(relations, coeffs: dict):
    """Membership of a sparse vector in the span of sparse relation vectors.

    Returns the integer combination or None.  Total: combinations cannot
    leave the union of supports, so restricting there is exact.
    """
    keys = dict.fromkeys(itertools.chain(*relations, coeffs))
    keys = sorted(keys, key=repr)  # keys need not be mutually orderable
    index = {k: i for i, k in enumerate(keys)}
    matrix = [[0] * len(relations) for _ in keys]
    for j, rel in enumerate(relations):
        for k, c in rel.items():
            matrix[index[k]][j] = c
    v = [0] * len(keys)
    for k, c in coeffs.items():
        v[index[k]] = c
    return lattice_solve(matrix, v)


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
    """Abelianization, then the coordinatewise cyclic reductions mod 2
    through mod 12: the order in which the separator check tries them."""
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
        w + <gamma, delta> (two-sided), {w, -w} (conjugacy), within a window
        around vec on a free coordinate."""
        sep = self.sep
        flavor = self.flavor
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
        if flavor == R.CONJUGACY:
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
        if zero in orbit:
            pk = zero if self.flavor == R.TWO_SIDED else None
        else:
            pk = min(orbit, key=lambda v: _order_key(sep, v))
        for member in orbit if sep.target_finite else (vec,):
            self._classes[member] = pk
        return pk

    def push(self, terms, shift) -> dict:
        """Pushforward of (target vector, coefficient) terms, each vector
        moved by shift: a sparse vector over pushed classes."""
        acc: dict[tuple, int] = {}
        for vec, c in terms:
            pk = self.pushed_class(_vec_add(shift, vec))
            if pk is not None:
                acc[pk] = acc.get(pk, 0) + c
        return {k: v for k, v in acc.items() if v}


def push_forward(sep: Separator, y: R.RingElement) -> dict:
    """Vector of y over pushed coset classes of the separator target."""
    terms = [(sep.image(g), c) for g, c in y.terms]
    return PushedContext.of(sep, y.context).push(terms, (0,) * sep.dim)
