"""Word arithmetic and normal forms for the supported fundamental groups.

Four kinds of group are supported:

  free          free group on named generators
  free_abelian  free abelian group (exponent vectors, indices increasing)
  free_times_z  (free group) x Z, the last label being the central generator
  free_product  free product of the other three kinds

Elements are stored as run-length syllables ``(generator_index, exponent)``
in the kind's normal form, which makes equality a tuple comparison.  For
free_times_z the central syllable is kept canonically last.  Words
serialize as whitespace-separated signed symbols, e.g. ``x y^-1 x^2``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import IdentityInput, SpecMismatch, UnknownGenerator

FREE = "free"
FREE_ABELIAN = "free_abelian"
FREE_TIMES_Z = "free_times_z"
FREE_PRODUCT = "free_product"

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_TOKEN_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?$")


@dataclass(frozen=True)
class GroupSpec:
    kind: str
    labels: tuple[str, ...]
    factors: tuple["GroupSpec", ...] = ()

    def __post_init__(self):
        if self.kind not in (FREE, FREE_ABELIAN, FREE_TIMES_Z, FREE_PRODUCT):
            raise ValueError(f"unknown group kind {self.kind!r}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("generator labels must be pairwise distinct")
        for lab in self.labels:
            if not _NAME_RE.match(lab):
                raise ValueError(f"bad generator label {lab!r}")
        if self.kind == FREE_TIMES_Z and len(self.labels) < 2:
            raise ValueError("free_times_z needs a free generator plus the central one")
        if self.kind != FREE_PRODUCT and not self.labels:
            raise ValueError("rank must be at least 1")
        if self.kind == FREE_PRODUCT:
            if len(self.factors) < 2:
                raise ValueError("free_product needs at least two factors")
            for f in self.factors:
                if f.kind == FREE_PRODUCT:
                    raise ValueError("free_product factors must be flattened")
            expected = tuple(lab for f in self.factors for lab in f.labels)
            if self.labels != expected:
                raise ValueError("free_product labels must concatenate the factor labels")

    @cached_property
    def _parts(self) -> tuple[tuple["GroupSpec", int], ...]:
        """(factor, index of its first label) per free factor.  A spec that
        is not a free product is its own single factor, so every per-kind
        rule is written once, for a factor."""
        if self.kind != FREE_PRODUCT:
            return ((self, 0),)
        out, offset = [], 0
        for f in self.factors:
            out.append((f, offset))
            offset += len(f.labels)
        return tuple(out)

    @cached_property
    def _factor_of(self) -> tuple[int, ...]:
        return tuple(fi for fi, (f, _) in enumerate(self._parts) for _ in f.labels)

    @property
    def central_index(self) -> int:
        if self.kind != FREE_TIMES_Z:
            raise ValueError("only free_times_z has a central generator")
        return len(self.labels) - 1

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise UnknownGenerator(f"{label!r} is not a generator of this group") from None


def free(*labels: str) -> GroupSpec:
    return GroupSpec(FREE, tuple(labels))


def free_abelian(*labels: str) -> GroupSpec:
    return GroupSpec(FREE_ABELIAN, tuple(labels))


def free_times_z(*labels: str) -> GroupSpec:
    """Free group on labels[:-1] times a central Z generated by labels[-1]."""
    return GroupSpec(FREE_TIMES_Z, tuple(labels))


def free_product(*factors: GroupSpec) -> GroupSpec:
    labels = tuple(lab for f in factors for lab in f.labels)
    return GroupSpec(FREE_PRODUCT, labels, tuple(factors))


# ---------------------------------------------------------------------------
# normal forms


def _norm_run(sylls):
    """Freely reduce a syllable list (merge equal neighbours, drop zeros).

    out is a stack that never holds equal neighbours: a cancellation pops
    the top, and the next syllable is merged against the new top, so
    e.g. x y y^-1 x reduces to x^2 in one pass."""
    out = []
    for i, e in sylls:
        if e == 0:
            continue
        if out and out[-1][0] == i:
            e2 = out[-1][1] + e
            out.pop()
            if e2:
                out.append((i, e2))
        else:
            out.append((i, e))
    return out


def _norm_abelian(sylls):
    acc = {}
    for i, e in sylls:
        acc[i] = acc.get(i, 0) + e
    return [(i, e) for i, e in sorted(acc.items()) if e]


def _norm_ftz(sylls, central):
    c = sum(e for i, e in sylls if i == central)
    out = _norm_run([(i, e) for i, e in sylls if i != central])
    if c:
        out.append((central, c))
    return out


def _norm_factor(factor: GroupSpec, offset: int, sylls):
    """Normalize syllables that all belong to one factor, whose first label
    has index offset."""
    if factor.kind == FREE:
        return _norm_run(sylls)
    if factor.kind == FREE_ABELIAN:
        return _norm_abelian(sylls)
    return _norm_ftz(sylls, offset + factor.central_index)


def _normalize_syllables(spec: GroupSpec, sylls):
    """Normal form: each maximal run of one factor's syllables is normalized
    by that factor's rule, and runs that meet after a cancellation merge."""
    parts = spec._parts
    if len(parts) == 1:
        return tuple(_norm_factor(spec, 0, sylls))
    fac = spec._factor_of
    stack = []  # (factor index, normalized run); neighbours differ in factor
    for f, run in itertools.groupby(sylls, key=lambda s: fac[s[0]]):
        run = list(run)
        if stack and stack[-1][0] == f:
            run = stack.pop()[1] + run
        run = _norm_factor(*parts[f], run)
        if run:
            stack.append((f, run))
    return tuple(s for _, run in stack for s in run)


@dataclass(frozen=True)
class GroupElement:
    """A word in normal form.  The constructor trusts its syllables;
    make_element checks and normalizes raw ones."""
    spec: GroupSpec = field(repr=False)
    syllables: tuple[tuple[int, int], ...]

    def __repr__(self):
        # the bracket form of a class key; lattice_member orders keys by repr
        return f"[{format_word(self)}]"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return invert(self)

    def __bool__(self):
        return bool(self.syllables)

    @cached_property
    def codes(self) -> tuple[int, ...]:
        """The word spelled as shortlex codes, one per letter."""
        return _codes(self.syllables)

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)


def make_element(spec: GroupSpec, sylls) -> GroupElement:
    """The normal form of raw (generator index, exponent) syllables."""
    sylls = list(sylls)
    n = len(spec.labels)
    for i, _ in sylls:
        if not 0 <= i < n:
            raise UnknownGenerator(f"generator index {i} out of range")
    return GroupElement(spec, _normalize_syllables(spec, sylls))


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement(spec, ())


def generator(spec: GroupSpec, label: str, exponent: int = 1) -> GroupElement:
    return make_element(spec, [(spec.index_of(label), exponent)])


def is_identity(a: GroupElement) -> bool:
    return not a.syllables


def _check_same_spec(a: GroupElement, b: GroupElement):
    if a.spec != b.spec:
        raise SpecMismatch("elements belong to different group specs")


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same_spec(a, b)
    return GroupElement(a.spec, _normalize_syllables(a.spec, a.syllables + b.syllables))


def invert(a: GroupElement) -> GroupElement:
    sylls = [(i, -e) for i, e in reversed(a.syllables)]
    return GroupElement(a.spec, _normalize_syllables(a.spec, sylls))


def conjugate(a: GroupElement, by: GroupElement) -> GroupElement:
    """Return by * a * by^-1."""
    _check_same_spec(a, by)
    return multiply(multiply(by, a), invert(by))


def commutes(a: GroupElement, b: GroupElement) -> bool:
    return multiply(a, b) == multiply(b, a)


def power(a: GroupElement, n: int) -> GroupElement:
    """a^n by repeated squaring: O(log |n|) multiplications."""
    if n < 0:
        a, n = invert(a), -n
    out = identity(a.spec)
    while n:
        if n & 1:
            out = multiply(out, a)
        n >>= 1
        if n:
            a = multiply(a, a)
    return out


# ---------------------------------------------------------------------------
# total order: shortlex on letters, inverses right after their generator.
# A word is spelled as a tuple of codes, 2i for generator i and 2i + 1 for
# its inverse, so a code and its inverse differ in the last bit.


def _codes(sylls) -> tuple[int, ...]:
    out = []
    for i, e in sylls:
        out.extend([2 * i + (e < 0)] * abs(e))
    return tuple(out)


def _code_syllables(w) -> tuple[tuple[int, int], ...]:
    """The syllables of a code tuple, equal neighbouring codes merged."""
    out = []
    for c, run in itertools.groupby(w):
        n = sum(1 for _ in run)
        out.append((c >> 1, -n if c & 1 else n))
    return tuple(out)


def _from_codes(spec: GroupSpec, w) -> GroupElement:
    """The element spelled by a freely reduced code tuple, without
    renormalizing."""
    return GroupElement(spec, _code_syllables(w))


def _inverse_codes(w):
    return tuple(c ^ 1 for c in reversed(w))


def _period(w) -> int:
    """The least d with w equal to w[:d] repeated, for a nonempty tuple."""
    n = len(w)
    return next(d for d in range(1, n + 1) if n % d == 0 and w[:d] * (n // d) == w)


def _cyclic_split(w):
    """(h, core) with w = h + core + h^-1 and core cyclically reduced, for a
    freely reduced code tuple w."""
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == w[-1 - k] ^ 1:
        k += 1
    return w[:k], w[k:len(w) - k]


def shortlex_key(a: GroupElement):
    return (len(a.codes), a.codes)


def shortlex_min(elems):
    return min(elems, key=shortlex_key)


# ---------------------------------------------------------------------------
# parsing / formatting


def parse_word(spec: GroupSpec, text: str) -> GroupElement:
    sylls = []
    for tok in text.split():
        if tok == "1":
            continue
        m = _TOKEN_RE.match(tok)
        if not m:
            raise UnknownGenerator(f"cannot parse word token {tok!r}")
        sylls.append((spec.index_of(m.group(1)), int(m.group(2) or 1)))
    return make_element(spec, sylls)


def format_word(a: GroupElement) -> str:
    if not a.syllables:
        return "1"
    parts = []
    for i, e in a.syllables:
        lab = a.spec.labels[i]
        parts.append(lab if e == 1 else f"{lab}^{e}")
    return " ".join(parts)


# ---------------------------------------------------------------------------
# maximal roots, centralizers and cyclic cores, one rule per factor


def _cyclic_runs(g: GroupElement):
    """(h, runs) with g = h w h^-1, where w is the product of runs, a list
    of (factor index, syllables) whose first and last runs lie in different
    factors.  A spec that is not a free product is one factor, so there a
    nontrivial g is a single run."""
    spec = g.spec
    fac = spec._factor_of
    runs = [(f, tuple(run))
            for f, run in itertools.groupby(g.syllables, key=lambda s: fac[s[0]])]
    h = []
    while len(runs) >= 2 and runs[0][0] == runs[-1][0]:
        f, first = runs[0]
        h.extend(first)
        merged = _norm_factor(*spec._parts[f], list(runs[-1][1]) + list(first))
        runs = runs[1:-1]
        if merged:
            runs.append((f, tuple(merged)))
    return make_element(spec, h), runs


def _split_run(factor: GroupSpec, offset: int, run):
    """(free part, commuting part) of a normalized run of one factor: the
    commuting part is the whole run in a free abelian factor, the central
    syllable in a free x Z factor and empty in a free factor."""
    if factor.kind == FREE_ABELIAN:
        return (), run
    if factor.kind == FREE_TIMES_Z and run[-1][0] == offset + factor.central_index:
        return run[:-1], run[-1:]
    return run, ()


def _root_run(spec: GroupSpec, f: int, run):
    """(root, power) of a nontrivial run of factor f.  The free part is
    h c^n h^-1 with c cyclically reduced and not a proper power; it shares
    the power p = gcd(n, commuting exponents) with the commuting part, and
    the root is h c^(n/p) h^-1 times the commuting part divided by p."""
    free_part, commuting = _split_run(*spec._parts[f], run)
    h = c = ()
    n = 0
    if free_part:
        h, core = _cyclic_split(_codes(free_part))
        d = _period(core)
        c, n = core[:d], len(core) // d
    p = math.gcd(n, *(e for _, e in commuting))
    free_root = _code_syllables(h + c * (n // p) + _inverse_codes(h))
    return make_element(spec, free_root + tuple((i, e // p) for i, e in commuting)), p


def _root_runs(spec: GroupSpec, runs):
    """(root, power) of a cyclically reduced run sequence: a single run
    takes its factor's rule, a longer one its least period."""
    if len(runs) == 1:
        return _root_run(spec, *runs[0])
    d = _period(runs)
    return make_element(spec, [s for _, run in runs[:d] for s in run]), len(runs) // d


def maximal_root(spec: GroupSpec, g: GroupElement) -> tuple[GroupElement, int]:
    """The unique (root, power) with root**power == g and power maximal."""
    if g.spec != spec:
        raise SpecMismatch("element does not belong to the given spec")
    if is_identity(g):
        raise IdentityInput("the identity has no maximal root")
    h, runs = _cyclic_runs(g)
    root, p = _root_runs(spec, runs)
    return conjugate(root, h), p


def all_generators(spec: GroupSpec) -> list[GroupElement]:
    return [make_element(spec, [(i, 1)]) for i in range(len(spec.labels))]


def _centralizer_run(spec: GroupSpec, f: int, run) -> list[GroupElement]:
    """Centralizer generators of a nontrivial run of factor f: the whole
    factor when the run commutes with it (free abelian, or a central power),
    else the root of the free part times the commuting part, plus the
    central generator of a free x Z factor."""
    factor, offset = spec._parts[f]
    free_part, commuting = _split_run(factor, offset, run)
    if not free_part:
        return [make_element(spec, [(offset + j, 1)]) for j in range(len(factor.labels))]
    root, _ = _root_run(spec, f, free_part)
    gens = [make_element(spec, root.syllables + commuting)]
    if factor.kind == FREE_TIMES_Z:
        gens.append(make_element(spec, [(offset + factor.central_index, 1)]))
    return gens


def centralizer_generators(spec: GroupSpec, gamma: GroupElement) -> list[GroupElement]:
    """Generators of the centralizer of gamma.

    Free: the maximal root.  Free abelian: everything.  Free times Z: the
    root of the free part (carrying gamma's central exponent) plus the
    central generator, or everything when gamma is central.  Free products:
    the factor's centralizer when gamma is conjugate into a factor,
    otherwise the centralizer is cyclic on the maximal root.
    """
    if gamma.spec != spec:
        raise SpecMismatch("element does not belong to the given spec")
    if is_identity(gamma):
        return all_generators(spec)
    h, runs = _cyclic_runs(gamma)
    if len(runs) == 1:
        gens = _centralizer_run(spec, *runs[0])
    else:
        gens = [_root_runs(spec, runs)[0]]
    return [conjugate(x, h) for x in gens]


def cyclic_core(g: GroupElement) -> GroupElement:
    """A cyclically reduced conjugate of g; conjugacy keys minimize over the
    rotations of its word."""
    spec = g.spec
    _, runs = _cyclic_runs(g)
    if len(runs) == 1:
        f, run = runs[0]
        free_part, commuting = _split_run(*spec._parts[f], run)
        _, core = _cyclic_split(_codes(free_part))
        runs = [(f, _code_syllables(core) + commuting)]
    return make_element(spec, [s for _, run in runs for s in run])
