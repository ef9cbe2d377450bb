"""Homomorphic quotient invariants certifying inequality verdicts.

A separator pushes group elements through a homomorphism onto a finitely
generated abelian target, free or finite.  Classes of the source coset
rings map to exactly canonicalized classes of the target, and membership
questions in the pushed relation lattice are decided by a row Hermite
normal form over arbitrary-precision integers, kept on sparse rows
{column: nonzero entry}: one insertion pass over the relations and their
transform builds a `Lattice`, once per relation list, and each membership
test then reduces only its own vector, yielding a small integer
combination (`lattice_member`).  The same Hermite basis, of the lattice
that the moduli and the images of the ring context's `sides` span, keys
every pushed class by its reduction (`_reduce`, zero exactly on the
lattice), and where it has full rank gives one offset per class
(`PushedContext`).
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Sequence

from . import cosets as R
from . import groups as G
from .errors import DimensionMismatch, SpecMismatch

# ---------------------------------------------------------------------------
# Hermite normal form on sparse rows {column: nonzero entry}


def _minus(row, p, q):
    """row -= q * p, in place, for q nonzero."""
    get = row.get
    for j, b in p.items():
        if a := get(j, 0) - q * b:
            row[j] = a
        else:
            del row[j]


def _combine(a, r, b, s):
    """a * r + b * s, a new row."""
    return {j: c for j in r.keys() | s.keys() if (c := a * r.get(j, 0) + b * s.get(j, 0))}


def _descend(basis, row, stop=math.inf):
    """Reduce row in place down the pivots of the Hermite basis
    {pivot column: row} while they divide it.  Returns the column before
    stop where row stays nonzero, having no pivot there or one that does
    not divide, or None when no entry before stop is left: with stop at
    the key columns, exactly when row's key part is in the lattice."""
    while row and (col := min(row)) < stop:
        p = basis.get(col)
        if p is None or row[col] % p[col]:
            return col
        _minus(row, p, row[col] // p[col])
    return None


def _reduce(rows, vec) -> tuple:
    """The member of vec + L whose pivot entries lie in [0, pivot), for a
    dense vector and the Hermite basis rows of L as (pivot column, row)
    pairs in column order; it is zero exactly when vec is in L."""
    v = list(vec)
    for c, row in rows:
        if q := v[c] // row[c]:
            for j, b in row.items():
                v[j] -= q * b
    return tuple(v)


def _xgcd(a, b):
    """(g, x, y) with a x + b y = g = gcd(a, b) > 0, for b != 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, (a, b) = a // b, (b, a % b)
        x0, x1, y0, y1 = x1, x0 - q * x1, y1, y0 - q * y1
    return (a, x0, y0) if a > 0 else (-a, -x0, -y0)


def _insert(basis, row):
    """Add the sparse row to the lattice whose Hermite basis is
    {pivot column: row}, consuming it.

    The row is reduced down the pivots (`_descend`); where a pivot does not
    divide its entry, a unimodular 2 x 2 step puts their gcd in the pivot
    row and carries on with a row that is zero there.  A left-over row
    becomes a new pivot.  Then the entries above the pivots are reduced
    into [0, pivot) again where that can have changed: in the changed rows,
    in the columns of the changed pivots, and in the columns that these
    reductions touch.  That keeps the basis the unique Hermite form, and
    its entries from growing from one insertion to the next.
    """
    changed = set()
    col = _descend(basis, row)
    while col is not None:
        changed.add(col)
        p = basis.get(col)
        if p is None:
            basis[col] = row if row[col] > 0 else {j: -a for j, a in row.items()}
            break
        g, x, y = _xgcd(p[col], row[col])
        basis[col], row = (_combine(x, p, y, row),
                           _combine(row[col] // g, p, -(p[col] // g), row))
        col = _descend(basis, row)
    for ci, r in basis.items() if changed else ():
        todo = [c for c in (r if ci in changed else changed) if c > ci and c in r and c in basis]
        heapq.heapify(todo)
        done = ci
        while todo:
            cj = heapq.heappop(todo)
            if cj > done and (q := r.get(cj, 0) // basis[cj][cj]):
                _minus(r, basis[cj], q)
                for c in basis[cj]:
                    if c > cj and c in basis:
                        heapq.heappush(todo, c)
            done = cj


class Lattice(Sequence):
    """The span of sparse relation vectors, prepared once for any number of
    membership tests (`lattice_member`); a sequence of its relations.

    Keys are the columns 0..n-1, in first-occurrence order over the
    relations.  One insertion pass builds the Hermite basis of [R | I] over
    the kept relations, those that enlarge the lattice spanned by the ones
    before them (a skipped relation gets coefficient 0): its rows with
    pivots among the keys decide membership, and its rows with pivots in
    the transform columns, at `kernel`, are the Hermite basis of the
    kernel.  A membership test reduces only its own vector: the basis is
    never changed after the pass.
    """

    def __init__(self, relations):
        self.relations = tuple(relations)
        self.index = {k: i for i, k in enumerate(dict.fromkeys(itertools.chain(*self.relations)))}
        n = len(self.index)
        self.basis, self.kept = {}, []
        for j, rel in enumerate(self.relations):
            row = {self.index[k]: c for k, c in rel.items() if c}
            row[n + len(self.kept)] = 1
            if _descend(self.basis, row, n) is not None:
                _insert(self.basis, row)
                self.kept.append(j)
        self.kernel = sorted(col for col in self.basis if col >= n)

    def __getitem__(self, i):
        return self.relations[i]

    def __len__(self):
        return len(self.relations)


def lattice_member(lat: Lattice, coeffs: dict):
    """Membership of a sparse vector in the `Lattice` of sparse relation
    vectors.

    Returns the integer combination or None.  Total: combinations cannot
    leave the union of supports, so a vector with a key outside the
    relations' keys is no member, and restricting to them is exact.
    Reducing the vector down the key pivots of the Hermite basis of
    [R | I] leaves minus a solution in the transform columns;
    size-reducing it against the kernel rows leaves every kernel pivot
    coordinate in the centered range of its pivot, which keeps the
    coefficients small and makes the combination unique in its box.  Which
    relations are kept, the kernel basis in relation coordinates, and so
    the combination do not depend on the key order.
    """
    index, n = lat.index, len(lat.index)
    v = {}
    for k, c in coeffs.items():
        if c:
            if k not in index:
                return None
            v[index[k]] = c
    if _descend(lat.basis, v, n) is not None:
        return None
    c = {j: -a for j, a in v.items()}
    for col in lat.kernel:
        u = lat.basis[col]
        if q := (2 * c.get(col, 0) + u[col]) // (2 * u[col]):
            _minus(c, u, q)
    out = [0] * len(lat)
    for j, a in c.items():
        out[lat.kept[j - n]] = a
    return out


# ---------------------------------------------------------------------------
# separators


class Separator(G.value_type("Separator", "name source images moduli")):
    """A homomorphism (name, source, images, moduli) from the source group
    to Z^dim modulo moduli: one image vector per generator, a modulus 0
    marking a free coordinate."""
    __slots__ = ()

    def __new__(cls, name: str, source: G.GroupSpec, images: tuple, moduli: tuple):
        if len(images) != len(source.labels):
            raise DimensionMismatch("need one image per generator")
        for img in images:
            if len(img) != len(moduli):
                raise DimensionMismatch("image dimension does not match moduli")
        if any(m < 0 for m in moduli) or 0 in moduli and any(moduli):
            raise DimensionMismatch("moduli must be all 0 (free) or all positive (finite)")
        return super().__new__(cls, name, source, images, moduli)

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


def default_separator_suite(spec: G.GroupSpec) -> tuple[Separator, ...]:
    """Abelianization, then the coordinatewise cyclic reductions mod 2
    through mod 12: the order in which the lattice stage tries them."""
    return (abelianization(spec),) + tuple(cyclic_separator(spec, m) for m in range(2, 13))


# ---------------------------------------------------------------------------
# pushed class canonicalization


def _vec_add(a, b, scale=1):
    return tuple(x + scale * y for x, y in zip(a, b))


class PushedContext:
    """Image of a ring context under a separator; canonicalizes pushed
    classes exactly.  The class of w is w + L, or +-w + L where the context
    inverts, L spanned by the moduli (none on a free target) and the images
    of the context's sides (none for conjugacy).  Its key is the Hermite
    reduction r(w) modulo L, the canonical member of w + L, or the lesser of
    r(w) and r(-w); on a finite target r(w) is the lex-least member of
    w + L in the reduced box."""

    def __init__(self, sep: Separator, ctx: R.RingContext):
        self.sep, self.ctx = sep, ctx
        sides = [sep.image(s) for s in dict.fromkeys(ctx.sides) if s is not None]
        basis = {}
        for row in [{i: m} for i, m in enumerate(sep.moduli) if m] + [
                {j: a for j, a in enumerate(s) if a} for s in sides]:
            _insert(basis, row)
        self._rows = tuple(sorted(basis.items()))

    @property
    def finite(self) -> bool:
        """Whether L has full rank, so that the key group Z^n / L is finite."""
        return len(self._rows) == self.sep.dim

    @property
    def classes(self) -> int:
        """The number of cosets of L that `offsets` lists, where L has full
        rank: the product of its Hermite pivots."""
        return math.prod(row[c] for c, row in self._rows)

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

    def push_value(self, y: R.RingElement) -> dict:
        """Vector of a value of the context over pushed classes."""
        return self.push([(self.sep.image(g), c) for g, c in y.terms], (0,) * self.sep.dim)


def push_forward(sep: Separator, y: R.RingElement) -> dict:
    """Vector of y over pushed coset classes of the separator target."""
    return PushedContext(sep, y.context).push_value(y)
