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

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import IdentityInput, SpecMismatch, UnknownGenerator, Unsupported

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
    def _factor_of(self) -> tuple[int, ...]:
        out = []
        for fi, f in enumerate(self.factors):
            out.extend([fi] * len(f.labels))
        return tuple(out)

    @cached_property
    def _factor_offset(self) -> tuple[int, ...]:
        offs, total = [], 0
        for f in self.factors:
            offs.append(total)
            total += len(f.labels)
        return tuple(offs)

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
    """Normalize a run of syllables that all belong to one product factor."""
    if factor.kind == FREE:
        return _norm_run(sylls)
    if factor.kind == FREE_ABELIAN:
        return _norm_abelian(sylls)
    return _norm_ftz(sylls, offset + factor.central_index)


def _norm_product(spec: GroupSpec, sylls):
    fac = spec._factor_of
    offs = spec._factor_offset
    stack = []  # (factor_index, normalized syllable list)
    for i, e in sylls:
        if e == 0:
            continue
        f = fac[i]
        if stack and stack[-1][0] == f:
            merged = _norm_factor(spec.factors[f], offs[f], stack[-1][1] + [(i, e)])
            stack.pop()
            if merged:
                stack.append((f, merged))
        else:
            one = _norm_factor(spec.factors[f], offs[f], [(i, e)])
            if one:
                stack.append((f, one))
        # a pop may expose two runs of the same factor
        while len(stack) >= 2 and stack[-2][0] == stack[-1][0]:
            f2 = stack[-1][0]
            merged = _norm_factor(spec.factors[f2], offs[f2], stack[-2][1] + stack[-1][1])
            stack.pop()
            stack.pop()
            if merged:
                stack.append((f2, merged))
    return [s for _, run in stack for s in run]


def _normalize_syllables(spec: GroupSpec, sylls):
    if spec.kind == FREE:
        return tuple(_norm_run(sylls))
    if spec.kind == FREE_ABELIAN:
        return tuple(_norm_abelian(sylls))
    if spec.kind == FREE_TIMES_Z:
        return tuple(_norm_ftz(sylls, spec.central_index))
    return tuple(_norm_product(spec, sylls))


@dataclass(frozen=True)
class GroupElement:
    spec: GroupSpec = field(repr=False)
    syllables: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for i, e in self.syllables:
            if not 0 <= i < len(self.spec.labels):
                raise UnknownGenerator(f"generator index {i} out of range")

    def __repr__(self):
        return f"<{format_word(self)}>"

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return multiply(self, other)

    def __invert__(self) -> "GroupElement":
        return invert(self)

    def __bool__(self):
        return bool(self.syllables)

    @cached_property
    def letters(self) -> tuple[tuple[int, int], ...]:
        """Expansion into single letters (index, +-1)."""
        out = []
        for i, e in self.syllables:
            s = 1 if e > 0 else -1
            out.extend([(i, s)] * abs(e))
        return tuple(out)

    def length(self) -> int:
        return sum(abs(e) for _, e in self.syllables)


def make_element(spec: GroupSpec, sylls) -> GroupElement:
    return GroupElement(spec, _normalize_syllables(spec, list(sylls)))


def identity(spec: GroupSpec) -> GroupElement:
    return GroupElement(spec, ())


def generator(spec: GroupSpec, label: str, exponent: int = 1) -> GroupElement:
    return make_element(spec, [(spec.index_of(label), exponent)])


def is_identity(a: GroupElement) -> bool:
    return not a.syllables


def _check_same_spec(a: GroupElement, b: GroupElement):
    if a.spec != b.spec:
        raise SpecMismatch("elements belong to different group specs")


def normalize(spec: GroupSpec, raw) -> GroupElement:
    """Normal form of a raw symbol sequence.

    ``raw`` may be a string (``x y^-1 x^2``), an iterable of
    (label, exponent) pairs, or an iterable of (index, exponent) pairs.
    """
    if isinstance(raw, str):
        return parse_word(spec, raw)
    sylls = []
    for item in raw:
        name, e = item
        i = name if isinstance(name, int) else spec.index_of(name)
        if not 0 <= i < len(spec.labels):
            raise UnknownGenerator(f"generator index {i} out of range")
        sylls.append((i, e))
    return make_element(spec, sylls)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same_spec(a, b)
    return make_element(a.spec, list(a.syllables) + list(b.syllables))


def invert(a: GroupElement) -> GroupElement:
    sylls = [(i, -e) for i, e in reversed(a.syllables)]
    return make_element(a.spec, sylls)


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
# total order: shortlex on letters, inverses right after their generator


def shortlex_key(a: GroupElement):
    letters = a.letters
    return (len(letters), tuple(2 * i + (0 if s > 0 else 1) for i, s in letters))


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
# maximal roots


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def _root_letters(letters):
    """Smallest period of a letter tuple; returns (period_prefix, power)."""
    n = len(letters)
    for d in _divisors(n):
        if all(letters[i] == letters[i - d] for i in range(d, n)):
            return letters[:d], n // d
    raise AssertionError("unreachable: n is always a period")


def _letters_to_sylls(letters):
    return [(i, s) for i, s in letters]


def _cyclic_reduce_letters(letters):
    """letters = h + core + h^-1 with core cyclically reduced; returns (h, core)."""
    h = []
    L = list(letters)
    while len(L) >= 2 and L[0][0] == L[-1][0] and L[0][1] == -L[-1][1]:
        h.append(L[0])
        L = L[1:-1]
    return h, L


def _root_free_sylls(spec, sylls):
    elem = make_element(spec, sylls)
    h, core = _cyclic_reduce_letters(elem.letters)
    prefix, p = _root_letters(tuple(core))
    inv_h = [(i, -s) for i, s in reversed(h)]
    root = make_element(spec, _letters_to_sylls(h) + _letters_to_sylls(list(prefix)) + inv_h)
    return root, p


def _root_abelian_sylls(spec, sylls):
    vec = dict(_norm_abelian(sylls))
    d = math.gcd(*[abs(e) for e in vec.values()])
    root = make_element(spec, [(i, e // d) for i, e in vec.items()])
    return root, d


def maximal_root(spec: GroupSpec, g: GroupElement) -> tuple[GroupElement, int]:
    """The unique (root, power) with root**power == g and power maximal."""
    if g.spec != spec:
        raise SpecMismatch("element does not belong to the given spec")
    if is_identity(g):
        raise IdentityInput("the identity has no maximal root")
    if spec.kind == FREE:
        return _root_free_sylls(spec, list(g.syllables))
    if spec.kind == FREE_ABELIAN:
        return _root_abelian_sylls(spec, list(g.syllables))
    if spec.kind == FREE_TIMES_Z:
        return _root_ftz(spec, g)
    return _root_product(spec, g)


def _ftz_split(spec: GroupSpec, g: GroupElement):
    c = spec.central_index
    central = sum(e for i, e in g.syllables if i == c)
    free_part = [(i, e) for i, e in g.syllables if i != c]
    return free_part, central


def _root_ftz(spec: GroupSpec, g: GroupElement):
    free_part, c = _ftz_split(spec, g)
    t = spec.central_index
    if not free_part:
        p = abs(c)
        return make_element(spec, [(t, c // p)]), p
    # roots of (u, c): (r, c/p)^p with r^p = u, so p | gcd(n_max, c)
    root_u, n = _root_free_sylls(spec, free_part)
    p = n if c == 0 else math.gcd(n, abs(c))
    root = make_element(spec, _letters_to_sylls(power(root_u, n // p).letters) + [(t, c // p)])
    return root, p


def _product_runs(spec: GroupSpec, sylls):
    fac = spec._factor_of
    runs = []
    for s in sylls:
        f = fac[s[0]]
        if runs and runs[-1][0] == f:
            runs[-1][1].append(s)
        else:
            runs.append((f, [s]))
    return runs


def _cyclic_reduce_runs(spec: GroupSpec, g: GroupElement):
    """g = h * w * h^-1 with w cyclically reduced as a run sequence."""
    offs = spec._factor_offset
    runs = [(f, tuple(r)) for f, r in _product_runs(spec, list(g.syllables))]
    h_sylls = []
    while len(runs) >= 2 and runs[0][0] == runs[-1][0]:
        f, first = runs[0]
        h_sylls.extend(first)
        merged = _norm_factor(spec.factors[f], offs[f], list(runs[-1][1]) + list(first))
        runs = runs[1:-1]
        if merged:
            runs.append((f, tuple(merged)))
    h = make_element(spec, h_sylls)
    return h, runs


def _root_product(spec: GroupSpec, g: GroupElement):
    offs = spec._factor_offset
    h, runs = _cyclic_reduce_runs(spec, g)
    if len(runs) == 1:
        f, run = runs[0]
        factor = spec.factors[f]
        if factor.kind == FREE:
            r, p = _root_free_sylls(spec, list(run))
        elif factor.kind == FREE_ABELIAN:
            r, p = _root_abelian_sylls(spec, list(run))
        else:
            central = offs[f] + factor.central_index
            cexp = sum(e for i, e in run if i == central)
            free_part = [(i, e) for i, e in run if i != central]
            if not free_part:
                p = abs(cexp)
                r = make_element(spec, [(central, cexp // p)])
            else:
                r0, n = _root_free_sylls(spec, free_part)
                p = n if cexp == 0 else math.gcd(n, abs(cexp))
                r = make_element(spec, _letters_to_sylls(power(r0, n // p).letters) + [(central, cexp // p)])
        return conjugate(r, h), p
    m = len(runs)
    for d in _divisors(m):
        if all(runs[i] == runs[i - d] for i in range(d, m)):
            prefix = [s for _, run in runs[:d] for s in run]
            return conjugate(make_element(spec, prefix), h), m // d
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# centralizers


def all_generators(spec: GroupSpec) -> list[GroupElement]:
    return [make_element(spec, [(i, 1)]) for i in range(len(spec.labels))]


def centralizer_generators(spec: GroupSpec, gamma: GroupElement) -> list[GroupElement]:
    """Generators of the centralizer of gamma.

    Free: the maximal root.  Free abelian: everything.  Free times Z: the
    root of the free part (carrying gamma's central exponent) plus the
    central generator, or everything when gamma is central.  Free products:
    delegate when gamma is conjugate into a factor, otherwise the
    centralizer is cyclic on the maximal root.
    """
    if gamma.spec != spec:
        raise SpecMismatch("element does not belong to the given spec")
    if is_identity(gamma):
        return all_generators(spec)
    if spec.kind == FREE:
        root, _ = maximal_root(spec, gamma)
        return [root]
    if spec.kind == FREE_ABELIAN:
        return all_generators(spec)
    if spec.kind == FREE_TIMES_Z:
        free_part, c = _ftz_split(spec, gamma)
        if not free_part:
            return all_generators(spec)
        root_u, _ = _root_free_sylls(spec, free_part)
        t = spec.central_index
        combined = make_element(spec, list(root_u.syllables) + [(t, c)])
        return [combined, make_element(spec, [(t, 1)])]
    return _centralizer_product(spec, gamma)


def _centralizer_product(spec: GroupSpec, gamma: GroupElement) -> list[GroupElement]:
    offs = spec._factor_offset
    h, runs = _cyclic_reduce_runs(spec, gamma)
    if len(runs) >= 2:
        root, _ = maximal_root(spec, gamma)
        return [root]
    if not runs:
        raise Unsupported("cannot compute the centralizer of this element")
    f, run = runs[0]
    factor = spec.factors[f]
    if factor.kind == FREE:
        r, _ = _root_free_sylls(spec, list(run))
        gens = [r]
    elif factor.kind == FREE_ABELIAN:
        gens = [make_element(spec, [(offs[f] + j, 1)]) for j in range(len(factor.labels))]
    else:
        central = offs[f] + factor.central_index
        cexp = sum(e for i, e in run if i == central)
        free_part = [(i, e) for i, e in run if i != central]
        if not free_part:
            gens = [make_element(spec, [(offs[f] + j, 1)]) for j in range(len(factor.labels))]
        else:
            r0, _ = _root_free_sylls(spec, free_part)
            gens = [make_element(spec, list(r0.syllables) + [(central, cexp)]),
                    make_element(spec, [(central, 1)])]
    return [conjugate(g, h) for g in gens]
