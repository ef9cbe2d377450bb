"""Seeded workload generators for the selflink benchmark.

generate(workload, seed) returns a batch: a list of scenarios, each a dict
with the scenario text (the `.scn` grammar of docs/format.md) and one
expected verdict per stored query.  Equal pairs are built from the paper's
action formulas applied to plain words; no selflink code is imported here,
so the program under test only ever sees the generated text.

Words are tuples of letters ``(generator_index, +1 | -1)``.
"""

from __future__ import annotations

import random

# ---------------------------------------------------------------------------
# plain words


def reduce(letters):
    """Free reduction of a letter sequence."""
    out = []
    for a in letters:
        if out and out[-1][0] == a[0] and out[-1][1] == -a[1]:
            out.pop()
        else:
            out.append(a)
    return tuple(out)


def inv(w):
    return tuple((i, -s) for i, s in reversed(w))


def cat(*ws):
    return reduce([a for w in ws for a in w])


def power(w, n):
    return cat(*([w] * n)) if n >= 0 else cat(*([inv(w)] * -n))


def syllables(w):
    out = []
    for i, s in w:
        if out and out[-1][0] == i:
            out[-1][1] += s
        else:
            out.append([i, s])
    return [(i, e) for i, e in out]


def fmt_word(w, labels):
    """A word in the alphabet `labels`: generator i is written as the name
    labels[i][0] raised to the sign labels[i][1]."""
    if not w:
        return "1"
    out = []
    for i, e in syllables(w):
        name, e = labels[i][0], e * labels[i][1]
        out.append(name if e == 1 else f"{name}^{e}")
    return " ".join(out)


def plain(names):
    return tuple((name, 1) for name in names)


def relabeled(rng, names, movable, invert=True):
    """A seeded automorphism of the group on `names`, as an alphabet: it
    permutes the first `movable` generators and, with `invert`, inverts
    each generator with probability 1/2.  Writing a scenario in it gives an
    isomorphic scenario, so the orbit searches stay the same size."""
    order = list(names[:movable])
    rng.shuffle(order)
    return tuple((name, rng.choice((1, -1)) if invert else 1)
                 for name in order + list(names[movable:]))


def cyclically_reduced(w):
    return bool(w) and not (w[0][0] == w[-1][0] and w[0][1] == -w[-1][1])


def root(w):
    """Primitive root of a cyclically reduced word: the shortest period."""
    n = len(w)
    for d in range(1, n + 1):
        if n % d == 0 and all(w[i] == w[i - d] for i in range(d, n)):
            return w[:d]
    return w


def random_word(rng, ngens, lo, hi):
    while True:
        w = reduce([(rng.randrange(ngens), rng.choice((1, -1)))
                    for _ in range(rng.randint(lo, hi))])
        if lo <= len(w) <= hi:
            return w


# ---------------------------------------------------------------------------
# ring elements as term lists [(coeff, word)]; classes are left to the parser


def fmt_ring(terms, labels):
    terms = [(c, w) for c, w in terms if c]
    if not terms:
        return "0"
    return " ".join(f"{c:+d}*[{fmt_word(w, labels)}]" for c, w in terms)


def fmt_points(points, labels):
    return " ".join(f"( {'+' if s > 0 else '-'} {fmt_word(w, labels)} )"
                    for s, w in points)


def conj_terms(a, terms, b=None):
    """a y b^-1 termwise (b defaults to a)."""
    b = a if b is None else b
    return [(c, cat(a, w, inv(b))) for c, w in terms]


def scaled(e, terms):
    return [(e * c, w) for c, w in terms]


def unlink_sphere(gamma):
    """Splitting-sphere points of a free-group class: alternating signed
    inverses of the syllable prefixes, starting with + at the empty one."""
    points, prefix = [], ()
    for j, (i, e) in enumerate(syllables(gamma)):
        points.append((1 if j % 2 == 0 else -1, inv(prefix)))
        prefix = cat(prefix, power(((i, 1),), e))
    return points


# ---------------------------------------------------------------------------
# orbit-search: free groups with splitting spheres, free x Z, and links

FREE_NAMES = ("x", "y")
FZ_NAMES = ("x", "y", "z", "t")
SHORT_TRANSLATES = [w for w in
                    [()] + [((i, s),) for i in range(2) for s in (1, -1)]
                    + [((i, s), (j, r)) for i in range(2) for s in (1, -1)
                       for j in range(2) for r in (1, -1)]
                    if len(reduce(w)) == len(w)]


def _knot_class(rng, length):
    """Cyclically reduced word of the given length using both generators."""
    while True:
        w = random_word(rng, 2, length, length)
        if cyclically_reduced(w) and len({i for i, _ in w}) == 2:
            return w


# moves per query, cycled: a quarter of the queries need one move, half two
# and a quarter three, so the median and the 90th percentile fall inside a
# class of queries rather than between two
MOVES = (1, 2, 2, 3)


def _decide_lines(rng, queries, move, ngens, labels, phi, max_moves=3):
    """Equal-by-construction queries: y2 drawn from rng, y1 = y2 moved 1
    to max_moves times.  move(y, k) applies the k-th kind of move in a fixed
    cycle, with parameters from the geometry stream, so every seed meets
    the same moves and search depths."""
    lines = []
    for q in range(queries):
        y2 = [(rng.choice((1, -1)), random_word(rng, ngens, 1 + (q + t) % 2,
                                                1 + (q + t) % 2))
              for t in range(1 + q % 2)]
        y1 = y2
        for j in range(min(max_moves, MOVES[q % len(MOVES)])):
            y1 = move(y1, q + j)
        lines.append(f'query decide "{fmt_ring(y1, labels)}" '
                     f'"{fmt_ring(y2, labels)}" {phi}')
    return lines


def _free_knot_scenario(geo, rng, queries, index):
    """Knot class gamma in free(x, y) with the splitting sphere of the
    unlink complement and a toroidal trace with double points."""
    lab = relabeled(rng, FREE_NAMES, 2)
    gamma = _knot_class(geo, 2 + index % 2)
    r = root(gamma)
    z = [(geo.choice((1, -1)), random_word(geo, 2, 1, 2))
         for _ in range(geo.randint(1, 2))]
    sphere = unlink_sphere(gamma)
    lines = ["group free x y",
             f"knot k = {fmt_word(gamma, lab)}",
             f"trace lat : k -> k latitude {fmt_word(r, lab)} "
             f"points {fmt_points(z, lab)}",
             "sphere sigma unlink k",
             "phi P knot k toroidal lat spheres sigma"]
    # conjugation by the root acts trivially on classes unless gamma is a
    # proper power
    kinds = ("sphere", "sphere", "toroidal") + (("conj",) if r != gamma else ())

    def move(y, k):
        kind = kinds[k % len(kinds)]
        e = geo.choice((1, -1))
        if kind == "sphere":                 # y -> y +- t.sigma
            t = geo.choice(SHORT_TRANSLATES)
            return y + scaled(e, [(s, cat(t, p)) for s, p in sphere])
        if kind == "toroidal":               # y -> z + r y r^-1, or inverse
            if e > 0:
                return z + conj_terms(r, y)
            return conj_terms(inv(r), y + scaled(-1, z))
        return conj_terms(power(r, e), y)    # centralizer conjugation

    lines += _decide_lines(rng, queries, move, 2, lab, "P")
    return {"family": "free", "text": "\n".join(lines) + "\n",
            "expect": ["equal"] * queries}


def _fz_scenario(geo, rng, queries, index):
    """Knot class t in free(x, y, z) x Z(t): every generator centralizes it,
    and each toroidal trace is non-spherical, (-w) (+a w a^-1)."""
    # each latitude must be the centralizer generator itself: permute x, y
    # and z, invert nothing
    lab = relabeled(rng, FZ_NAMES, 3, invert=False)
    lines = ["group free_times_z x y z t", "knot k = t"]
    gens = []
    for i in range(len(FZ_NAMES)):
        a = ((i, 1),)
        w = random_word(geo, 3, 1, 2)
        pts = [(-1, w), (1, cat(a, w, inv(a)))]
        name = lab[i][0]
        lines.append(f"trace K{name} : k -> k latitude {name} "
                     f"points {fmt_points(pts, lab)}")
        gens.append((a, pts))
    lines.append("phi P knot k toroidal " + " ".join(f"K{n}" for n in FZ_NAMES))

    def move(y, k):
        # t is central, so its toroidal move and its conjugation are trivial
        a, z = geo.choice(gens[:3])
        if k % 3 == 2:
            return conj_terms(power(a, geo.choice((1, -1))), y)
        if geo.random() < 0.5:
            return z + conj_terms(a, y)
        return conj_terms(inv(a), y + scaled(-1, z))

    # one move: two toroidal moves already send some searches past 10 s
    lines += _decide_lines(geo, queries, move, 3, lab, "P", max_moves=1)
    return {"family": "free_times_z", "text": "\n".join(lines) + "\n",
            "expect": ["equal"] * queries}


def _link_scenario(geo, rng, queries, index):
    """Two-component link in free(x, y): toroidal link traces on both sides,
    splitting spheres translated on the left and on the right."""
    lab = relabeled(rng, FREE_NAMES, 2)
    g1, g2 = _knot_class(geo, 2 + index % 3), _knot_class(geo, 2 + index % 2)
    r1, r2 = root(g1), root(g2)
    c1 = [(geo.choice((1, -1)), random_word(geo, 2, 1, 2))
          for _ in range(geo.randint(1, 2))]
    c2 = [(geo.choice((1, -1)), random_word(geo, 2, 1, 2))
          for _ in range(geo.randint(1, 2))]
    s1, s2 = unlink_sphere(g1), unlink_sphere(g2)
    lines = ["group free x y",
             f"knot k1 = {fmt_word(g1, lab)}",
             f"knot k2 = {fmt_word(g2, lab)}",
             f"trace a1 : k1 -> k1 latitude {fmt_word(r1, lab)}",
             "trace a2 : k2 -> k2 latitude 1",
             "trace b1 : k1 -> k1 latitude 1",
             f"trace b2 : k2 -> k2 latitude {fmt_word(r2, lab)}",
             f"linktrace lt1 : a1 a2 cross {fmt_points(c1, lab)}",
             f"linktrace lt2 : b1 b2 cross {fmt_points(c2, lab)}",
             "sphere s1 unlink k1",
             "sphere s2 unlink k2",
             "philink PL knots k1 k2 toroidal1 lt1 toroidal2 lt2 left s1 right s2"]

    def move(y, k):
        kind = ("left", "tor1", "right", "tor2", "outer")[k % 5]
        e = geo.choice((1, -1))
        t = geo.choice(SHORT_TRANSLATES)
        if kind == "left":                   # y -> y +- t.s1
            return y + scaled(e, [(s, cat(t, p)) for s, p in s1])
        if kind == "right":                  # y -> y +- s2.t
            return y + scaled(e, [(s, cat(p, t)) for s, p in s2])
        if kind == "tor1":                   # y -> z1 + r1 y, or inverse
            if e > 0:
                return c1 + conj_terms(r1, y, ())
            return conj_terms(inv(r1), y + scaled(-1, c1), ())
        if kind == "tor2":                   # y -> z2 + y r2^-1, or inverse
            if e > 0:
                return c2 + conj_terms((), y, r2)
            return conj_terms((), y + scaled(-1, c2), inv(r2))
        return conj_terms(power(r1, e), y, power(r2, geo.choice((1, -1))))

    lines += _decide_lines(geo, queries, move, 2, lab, "PL")
    return {"family": "link", "text": "\n".join(lines) + "\n",
            "expect": ["equal"] * queries}


# ---------------------------------------------------------------------------
# abelian-lattice: rank-1 circle x sphere, knot x^n


def _abelian_class(a, n):
    """Class index of x^a in the coset ring of x^n: a mod n up to sign,
    0 for the dropped trivial class."""
    r = a % n
    return min(r, n - r)


def abelian_vector(terms, n):
    v = [0] * (n // 2 + 1)
    for c, a in terms:
        v[_abelian_class(a, n)] += c
    return v[1:]


def hermite_rows(rows, ncols):
    """Row Hermite normal form: (pivot column, row) pairs with increasing
    pivots, positive pivot entries and entries above each pivot reduced."""
    rest = [list(r) for r in rows if any(r)]
    out = []
    for col in range(ncols):
        nz = [r for r in rest if r[col]]
        while len(nz) > 1:                   # Euclid down the column
            nz.sort(key=lambda r: abs(r[col]))
            p = nz[0]
            for r in nz[1:]:
                q = r[col] // p[col]
                r[:] = [a - q * b for a, b in zip(r, p)]
            nz = [r for r in nz if r[col]]
        if not nz:
            continue
        p = nz[0]
        if p[col] < 0:
            p[:] = [-a for a in p]
        rest = [r for r in rest if r is not p and any(r)]
        out.append((col, p))
    for i, (ci, ri) in enumerate(out):
        for cj, rj in out[:i]:
            q = rj[ci] // ri[ci]
            if q:
                rj[:] = [a - q * b for a, b in zip(rj, ri)]
    return out


def lattice_contains(rows, v):
    """Exact integer membership of v in the row span of rows.  This is the
    benchmark's reference check, independent of selflink's lattice layer."""
    v = list(v)
    for col, p in hermite_rows(rows, len(v)):
        if v[col] % p[col]:
            return False
        q = v[col] // p[col]
        v = [a - q * b for a, b in zip(v, p)]
    return not any(v)


def _abelian_terms(rng, n, count):
    return [(rng.choice((1, -1, 2, -2)), rng.randint(-n, n))
            for _ in range(count)]


def _abelian_scenario(geo, rng, queries, index):
    """Knot x^n with a random toroidal trace and a random sphere.  Even
    queries add a random combination of relations to y2 (Equal); odd
    queries add an offset that lattice_contains labels.  The seed draws y2,
    the geometry stream everything else, so every seed meets the same
    lattice problems."""
    lab = plain(("x",))
    n = geo.randint(*ABELIAN_N)
    lat = [(geo.choice((1, -1)), geo.randint(-n, n))
           for _ in range(geo.randint(0, 3))]
    sphere = [(geo.choice((1, -1)), geo.randint(0, n - 1))
              for _ in range(geo.randint(2, max(2, n // 2)))]

    def x(a):
        return ((0, 1 if a > 0 else -1),) * abs(a)

    lines = ["group abelian x",
             f"knot k = x^{n}",
             "trace lat : k -> k latitude x"
             + (f" points {fmt_points([(s, x(a)) for s, a in lat], lab)}"
                if lat else ""),
             f"sphere sigma points {fmt_points([(s, x(a)) for s, a in sphere], lab)}",
             "phi P knot k toroidal lat spheres sigma"]
    # the orbit of y2 is y2 plus the span of the toroidal offset and of
    # every translate x^t . sigma of the sphere
    rels = [lat] + [[(s, a + t) for s, a in sphere] for t in range(n)]
    rel_rows = [abelian_vector(r, n) for r in rels]
    expect = []
    for q in range(queries):
        want_equal = q % 2 == 0
        # the offset y1 - y2 comes from the geometry stream: a combination
        # of relations, or a random value redrawn until it is non-zero and,
        # for odd queries, the reference check says Distinct (a lattice of
        # index 1 has none, so the last draw then keeps its label)
        for _ in range(DRAW_TRIES):
            if want_equal:
                offset = []
                for _ in range(1 + q % 3):
                    offset += scaled(geo.choice((1, -1, 2, -2)), geo.choice(rels))
            else:
                offset = _abelian_terms(geo, n, 1 + q % 3)
            diff = abelian_vector(offset, n)
            member = lattice_contains(rel_rows, diff)
            if any(diff) and member == want_equal:
                break
        expect.append("equal" if member else "distinct")
        y2 = _abelian_terms(rng, n, 1 + q % 3)
        y1 = y2 + offset
        t1 = fmt_ring([(c, x(a)) for c, a in y1], lab)
        t2 = fmt_ring([(c, x(a)) for c, a in y2], lab)
        lines.append(f'query decide "{t1}" "{t2}" P')
    return {"family": f"abelian_n{n}", "text": "\n".join(lines) + "\n",
            "expect": expect}


# ---------------------------------------------------------------------------
# workloads

ABELIAN_N = (3, 24)
DRAW_TRIES = 20

# family -> (scenarios, queries per scenario).  The geometry (knot classes,
# traces, spheres, and the moves or offsets of each query) comes from a
# fixed stream, so every seed meets the same mix of easy and pathological
# problems and the same defects.  In free and abelian scenarios the seed
# draws the values y2 that the queries start from.  In free x Z and link
# scenarios y2 comes from the fixed stream too, and the seed draws only the
# automorphism the scenario is written in (`relabeled`): their few slow
# queries set wall_s and query_p90_ms, and with seeded y2 the free x Z
# queries took from 0.4 to 1.9 s depending on the seed, which spread
# query_p90_ms over ten seeds by a third of its median.
#
# orbit-search: the 32 free queries hold query_p50_ms and the 8 link
# queries query_p90_ms (the 90th percentile of 46 falls on the 3rd and 4th
# slowest of them).  A cycle's scenario runs take about 27 s (median
# wall_s, seeds 1-10): about 30% free, 20% free x Z and 50% link (seed 1).
FAMILIES = {
    "orbit-search": {"free": (4, 8), "free_times_z": (3, 2), "link": (4, 2)},
    "abelian-lattice": {"abelian": (24, 6)},
}

_MAKERS = {"free": _free_knot_scenario, "free_times_z": _fz_scenario,
           "link": _link_scenario, "abelian": _abelian_scenario}


def generate(workload, seed):
    """The batch of a seeded workload: same seed, same scenario text."""
    geo = random.Random(f"{workload}:geometry")
    rng = random.Random(f"{workload}:{seed}")
    return [_MAKERS[family](geo, rng, queries, i)
            for family, (count, queries) in FAMILIES[workload].items()
            for i in range(count)]
