"""Homomorphic quotient invariants certifying inequality verdicts.

A separator pushes group elements through a homomorphism onto a finitely
generated abelian target, free or finite.  Classes of the source coset
rings map to exactly canonicalized classes of the target, and membership
questions in the pushed relation lattice are decided by a row Hermite
normal form over arbitrary-precision integers, which also yields small
integer combinations (`lattice_solve`, `lattice_member`).  The same
Hermite basis, of the lattice that the moduli and the images of the ring
context's `sides` span, keys every pushed class by its reduction (`_reduce`,
zero exactly on the lattice), and where it has full rank gives one offset
per class (`PushedContext`).
"""

from __future__ import annotations

import functools
import itertools
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


def _reduce(rows, vec) -> tuple:
    """The member of vec + L whose pivot entries lie in [0, pivot), for the
    Hermite basis rows of L as (pivot column, row) pairs in column order;
    it is zero exactly when vec is in L."""
    v = list(vec)
    for c, row in rows:
        if q := v[c] // row[c]:
            v = _sub(v, row, q)
    return tuple(v)


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
    the entries above every pivot from row's lead on (earlier ones did not
    change) are then reduced into [0, pivot) again, which keeps them from
    growing from one insertion to the next.
    """
    grew = False
    col = lead = _lead(row)
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
            for ci in cols[:j] if cj >= lead else ():
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
    if any(_reduce(sorted(basis.items()), v)):
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
    leave the union of supports, so restricting there is exact.  Keys are
    indexed in first-occurrence order: which relations are kept, the
    kernel's Hermite basis in relation coordinates, and so the size-reduced
    combination do not depend on the order.
    """
    index = {k: i for i, k in enumerate(dict.fromkeys(itertools.chain(*relations, coeffs)))}
    matrix = [[0] * len(relations) for _ in index]
    for j, rel in enumerate(relations):
        for k, c in rel.items():
            matrix[index[k]][j] = c
    v = [0] * len(index)
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
        if any(m < 0 for m in self.moduli) or 0 in self.moduli and any(self.moduli):
            raise DimensionMismatch("moduli must be all 0 (free) or all positive (finite)")

    @property
    def dim(self):
        return len(self.moduli)

    @property
    def target_finite(self):
        return 0 not in self.moduli

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


def abelianization(spec: G.GroupSpec) -> Separator:
    n = len(spec.labels)
    images = tuple(tuple(1 if j == i else 0 for j in range(n)) for i in range(n))
    return Separator("abelianization", spec, images, (0,) * n)


def cyclic_separator(spec: G.GroupSpec, m: int) -> Separator:
    ab = abelianization(spec)
    return Separator(f"mod{m}", spec, ab.images, (m,) * len(spec.labels))


@functools.lru_cache(maxsize=64)
def default_separator_suite(spec: G.GroupSpec) -> tuple[Separator, ...]:
    """Abelianization, then the coordinatewise cyclic reductions mod 2
    through mod 12: the order in which the lattice stage tries them."""
    return (abelianization(spec),) + tuple(cyclic_separator(spec, m) for m in range(2, 13))


# ---------------------------------------------------------------------------
# pushed class canonicalization


def _vec_add(a, b, scale=1):
    return tuple(x + scale * y for x, y in zip(a, b))


@dataclass(frozen=True)
class PushedContext:
    """Image of a ring context under a separator; canonicalizes pushed
    classes exactly.  The class of w is w + L, or +-w + L where the context
    inverts, L spanned by the moduli (none on a free target) and the images
    of the context's sides (none for conjugacy).  Its key is the Hermite
    reduction r(w) modulo L, the canonical member of w + L, or the lesser of
    r(w) and r(-w); on a finite target r(w) is the lex-least member of
    w + L in the reduced box."""
    sep: Separator
    ctx: R.RingContext = field(repr=False)
    _rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sides = [self.sep.image(s) for s in dict.fromkeys(self.ctx.sides) if s is not None]
        n = self.sep.dim
        basis = {}
        for row in [[m * (i == j) for j in range(n)]
                    for i, m in enumerate(self.sep.moduli)] + [list(s) for s in sides]:
            _insert(basis, row)
        object.__setattr__(self, "_rows", tuple(sorted(basis.items())))

    @property
    def finite(self) -> bool:
        """Whether L has full rank, so that the key group Z^n / L is finite."""
        return len(self._rows) == self.sep.dim

    def offsets(self) -> list:
        """One target vector per coset of L, the trivial one first: a pushed
        class, and so every relation and shift, is the same at t and at
        t plus the image of a side.  L must have full rank."""
        if not self.finite:
            raise DimensionMismatch("the moduli and side images do not span a full-rank lattice")
        return list(itertools.product(*(range(row[c]) for c, row in self._rows)))

    def pushed_class(self, vec) -> tuple | None:
        """Canonical pushed class of a target vector, None for killed ones."""
        key = _reduce(self._rows, vec)
        if not self.ctx.inverts:
            return key
        key = min(key, _reduce(self._rows, (-x for x in vec)))
        return key if any(key) else None

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
    return PushedContext(sep, y.context).push(terms, (0,) * sep.dim)
