"""Hermite normal form, lattice membership, and abelian separator soundness."""

import itertools
import random
import time

import pytest

import selflink as S
import selflink.cosets as R
import selflink.separators as SEP
from conftest import AB1, FREE2, FXZ, random_word

CASES = 10000


# ---------------------------------------------------------------------------
# Hermite normal form


def _matmul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)]
            for row in A]


def _det(A):
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    n = len(A)
    M = [list(r) for r in A]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def _hermite_form(A):
    """(H, U) with U*A = H: [H | U] is the row Hermite normal form of
    [A | I], built by `_insert` on its sparse rows."""
    m = len(A)
    n = len(A[0]) if m else 0
    basis = {}
    for i, r in enumerate(A):
        SEP._insert(basis, {j: a for j, a in enumerate(list(r) + [0] * i + [1]) if a})
    rows = [[basis[c].get(j, 0) for j in range(n + m)] for c in sorted(basis)]
    return [r[:n] for r in rows], [r[n:] for r in rows]


def _check_hnf(A):
    """U*A = H, U unimodular, and [H | U] in row Hermite normal form with
    the nonzero rows of H first."""
    H, U = _hermite_form(A)
    assert len(H) == len(U) == len(A)
    assert _matmul(U, A) == H
    assert abs(_det(U)) == 1
    rows = [h + u for h, u in zip(H, U)]
    last = -1
    for i, row in enumerate(rows):
        lead = next(j for j, a in enumerate(row) if a)
        assert lead > last and row[lead] > 0
        assert all(0 <= above[lead] < row[lead] for above in rows[:i])
        last = lead
    zero = [not any(h) for h in H]
    assert zero == sorted(zero)


def test_hnf_randomized_reconstruction():
    rng = random.Random(600)
    for case in range(CASES):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _check_hnf(A)


def test_hnf_known_values():
    assert _hermite_form([[2, 4], [6, 8]]) == ([[2, 0], [0, 4]],
                                              [[-2, 1], [3, -1]])
    assert _hermite_form([[1, 0], [0, 6]]) == ([[1, 0], [0, 6]],
                                              [[1, 0], [0, 1]])
    assert _hermite_form([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]],
                                              [[1, 0], [0, 1]])
    # rank 1: the kernel row 2*(1, 2) - (2, 4) = 0 follows the pivot row
    assert _hermite_form([[1, 2], [2, 4]]) == ([[1, 2], [0, 0]],
                                              [[1, 0], [2, -1]])


def _lattice_solve(A, v):
    """Integer coefficients c with A*c = v, or None: the columns of A are
    the relations over the row indices."""
    return SEP.lattice_member(SEP.Lattice([dict(enumerate(col)) for col in zip(*A)]),
                              dict(enumerate(v)))


def test_lattice_solve_round_trip():
    rng = random.Random(601)
    hits = 0
    for _ in range(2000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        c = [rng.randint(-4, 4) for _ in range(cols)]
        v = [sum(A[i][j] * c[j] for j in range(cols)) for i in range(rows)]
        sol = _lattice_solve(A, v)
        assert sol is not None
        assert [sum(A[i][j] * sol[j] for j in range(cols)) for i in range(rows)] == v
        hits += 1
    assert hits == 2000


def test_lattice_solve_detects_non_members():
    # columns span 2Z x 3Z; (1, 0) is not in the lattice
    assert _lattice_solve([[2, 0], [0, 3]], [1, 0]) is None
    assert _lattice_solve([[2, 0], [0, 3]], [4, -3]) == [2, -1]
    assert _lattice_solve([[2], [4]], [3, 6]) is None


def _old_smith_normal_form(A):
    """The Smith normal form the lattice layer used before the Hermite
    form, kept here only as the oracle of the property test below:
    (U, D, V) with U*A*V = D diagonal, U and V unimodular."""
    rows = len(A)
    cols = len(A[0]) if rows else 0
    D = [list(r) for r in A]
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in D + V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        D[dst] = [a + q * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + q * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, q):
        for r in D + V:
            r[dst] += q * r[src]

    t = 0
    while t < min(rows, cols):
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
                    add_row(t, i, -(D[i][t] // D[t][t]))
                    if D[i][t]:
                        swap_rows(t, i)
                        done = False
            for j in range(t + 1, cols):
                if D[t][j]:
                    add_col(t, j, -(D[t][j] // D[t][t]))
                    if D[t][j]:
                        swap_cols(t, j)
                        done = False
            if done:
                offender = next((i for i in range(t + 1, rows)
                                 for j in range(t + 1, cols)
                                 if D[i][j] % D[t][t]), None)
                if offender is None:
                    break
                add_row(offender, t, 1)
        t += 1
    return U, D, V


def _snf_member(A, v):
    """Whether A*c = v has an integer solution, by the old Smith form."""
    U, D, _ = _old_smith_normal_form(A)
    rows, cols = len(A), len(A[0])
    w = [sum(U[i][j] * v[j] for j in range(rows)) for i in range(rows)]
    for i in range(rows):
        d = D[i][i] if i < cols else 0
        if (w[i] % d if d else w[i]):
            return False
    return True


def test_lattice_solve_agrees_with_the_old_smith_form():
    """Membership agrees with the Smith-form oracle on small inputs, and
    every returned combination reproduces the vector."""
    rng = random.Random(604)
    members = 0
    for case in range(400):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        A = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        if case % 2:
            c = [rng.randint(-4, 4) for _ in range(cols)]
            v = [sum(a * x for a, x in zip(row, c)) for row in A]
        else:
            v = [rng.randint(-4, 4) for _ in range(rows)]
        sol = _lattice_solve(A, v)
        assert (sol is not None) == _snf_member(A, v), (A, v)
        if sol is not None:
            members += 1
            assert [sum(a * x for a, x in zip(row, sol)) for row in A] == v
    assert 200 < members < 400


def _timed_membership(A, c):
    """_lattice_solve on A*c (a member) and on 2A*c + e_0 (not one: the
    lattice of 2A is even), each checked and timed."""
    v = [sum(a * x for a, x in zip(row, c)) for row in A]
    t0 = time.perf_counter()
    sol = _lattice_solve(A, v)
    miss = _lattice_solve([[2 * a for a in row] for row in A],
                             [2 * v[0] + 1] + [2 * x for x in v[1:]])
    elapsed = time.perf_counter() - t0
    assert [sum(a * x for a, x in zip(row, sol)) for row in A] == v
    assert miss is None
    return elapsed


def test_dense_membership_is_fast():
    rng = random.Random(605)
    A = [[rng.randint(-9, 9) for _ in range(30)] for _ in range(30)]
    c = [rng.randint(-9, 9) for _ in range(30)]
    assert _timed_membership(A, c) < 1.0


def test_sparse_membership_is_fast():
    rng = random.Random(606)
    n = 100
    A = [[0] * n for _ in range(n)]
    for j in range(n):
        for i in rng.sample(range(n), 3):
            A[i][j] = rng.choice((1, -1))
    c = [rng.randint(-9, 9) for _ in range(n)]
    assert _timed_membership(A, c) < 1.0


def test_lattice_member_sparse():
    r1 = {"a": 1, "b": -1}
    r2 = {"b": 1, "c": -1}
    assert SEP.lattice_member(SEP.Lattice([r1, r2]), {"a": 1, "c": -1}) is not None
    assert SEP.lattice_member(SEP.Lattice([r1, r2]), {"a": 1}) is None
    assert SEP.lattice_member(SEP.Lattice([]), {}) == []


def test_quotient_decide_mod_structure():
    # single relation x + x^2 = 0 over basis (x, x^2): quotient Z x Z / <(1,1)>
    rel = {"x": 1, "x2": 1}
    assert SEP.lattice_member(SEP.Lattice([rel]), {"x": 2, "x2": 2}) == [2]
    assert SEP.lattice_member(SEP.Lattice([rel]), {"x": 1}) is None
    # a redundant relation: the kernel reduction keeps the answer small
    coeffs = SEP.lattice_member(SEP.Lattice([{"x": 2}, {"x": 3}]), {"x": 10 ** 12 + 1})
    assert 2 * coeffs[0] + 3 * coeffs[1] == 10 ** 12 + 1
    assert max(abs(k) for k in coeffs) < 10 ** 12


def test_lattice_member_ignores_key_order():
    """The same relations, their keys inserted in shuffled orders, give the
    same combination: redundant relations make it non-unique, and the
    size-reduced one does not depend on the key order."""
    rng = random.Random(406)
    keys = ["a", "b", "c", "d"]
    for _ in range(300):
        relations = [{k: rng.choice((-3, -2, -1, 1, 2, 3)) for k in rng.sample(keys, 2)}
                     for _ in range(rng.randint(1, 7))]
        target = {k: rng.randint(-9, 9) for k in keys}
        if rng.random() < 0.7:
            target = {k: sum(rng.randint(-4, 4) * r.get(k, 0) for r in relations)
                      for k in keys}
        expected = SEP.lattice_member(SEP.Lattice(relations), target)
        for _ in range(4):
            order = rng.sample(keys, len(keys))
            shuffled = [{k: r[k] for k in order if k in r} for r in relations]
            assert SEP.lattice_member(SEP.Lattice(shuffled),
                                      {k: target[k] for k in order}) == expected


def _old_dense_insert(basis, row):
    """Dense Hermite insertion of the old lattice layer; True iff the
    lattice grew."""
    def lead(r):
        return next((j for j, a in enumerate(r) if a), None)

    def sub(r, p, q):
        return [a - q * b for a, b in zip(r, p)]
    grew = False
    col = first = lead(row)
    while col is not None:
        p = basis.get(col)
        if p is None:
            basis[col] = row if row[col] > 0 else [-a for a in row]
            grew = True
            break
        if row[col] % p[col]:
            g, x, y = SEP._xgcd(p[col], row[col])
            basis[col], row = ([x * a + y * b for a, b in zip(p, row)],
                               [(row[col] // g) * a - (p[col] // g) * b
                                for a, b in zip(p, row)])
            grew = True
        else:
            row = sub(row, p, row[col] // p[col])
        col = lead(row)
    if grew:
        cols = sorted(basis)
        for j, cj in enumerate(cols):
            for ci in cols[:j] if cj >= first else ():
                if q := basis[ci][cj] // basis[cj][cj]:
                    basis[ci] = sub(basis[ci], basis[cj], q)
    return grew


def _old_dense_member(relations, coeffs):
    """The dense lattice layer that `lattice_member` replaced, kept here
    only as the oracle of the property test below: a keys x relations
    matrix in first-occurrence key order; the relations that enlarge the
    lattice of the ones before them kept; the Hermite form of [A_kept | I]
    by a second insertion pass; the solution read off its key pivots and
    size-reduced against its kernel rows."""
    index = {k: i for i, k in enumerate(dict.fromkeys(itertools.chain(*relations, coeffs)))}
    n, m = len(index), len(relations)
    cols = [[r.get(k, 0) for k in index] for r in relations]
    v = [coeffs.get(k, 0) for k in index]
    if not any(v):
        return [0] * m
    basis = {}
    kept = [j for j, g in enumerate(cols) if _old_dense_insert(basis, list(g))]
    rest = list(v)
    for c, row in sorted(basis.items()):
        rest = [a - (rest[c] // row[c]) * b for a, b in zip(rest, row)]
    if any(rest):
        return None
    basis = {}
    for i, j in enumerate(kept):
        _old_dense_insert(basis, cols[j] + [int(i == t) for t in range(len(kept))])
    rest, c = list(v), [0] * len(kept)
    for col, row in sorted(basis.items()):
        if col < n:
            q = rest[col] // row[col]
            rest = [a - q * b for a, b in zip(rest, row)]
            c = [a + q * b for a, b in zip(c, row[n:])]
        else:                               # size-reduce against the kernel
            u = row[n:]
            q = (2 * c[col - n] + u[col - n]) // (2 * u[col - n])
            c = [a - q * b for a, b in zip(c, u)]
    out = [0] * m
    for j, a in zip(kept, c):
        out[j] = a
    return out


def test_lattice_member_matches_the_old_dense_layer():
    """The one sparse pass returns exactly the old dense layer's combination,
    or None with it, on seeded inputs with redundant relations, non-members
    and shuffled key orders: the kept relations and the kernel's Hermite
    basis are unique, and so is the size-reduced combination."""
    rng = random.Random(607)
    found = 0
    for case in range(2000):
        keys = [f"k{i}" for i in range(rng.randint(1, 6))]
        relations = [{k: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                      for k in rng.sample(keys, rng.randint(1, len(keys)))}
                     for _ in range(rng.randint(0, 7))]
        if relations and rng.random() < 0.3:      # a redundant relation
            a, b = rng.choice(relations), rng.choice(relations)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            relations.append({k: s * a.get(k, 0) + t * b.get(k, 0) for k in keys})
        target = {k: rng.randint(-9, 9) for k in rng.sample(keys, rng.randint(0, len(keys)))}
        if case % 2:
            target = {k: sum(rng.randint(-5, 5) * r.get(k, 0) for r in relations)
                      for k in keys}
        order = rng.sample(keys, len(keys))
        relations = [{k: r[k] for k in order if k in r} for r in relations]
        target = {k: target[k] for k in order if k in target}
        expected = _old_dense_member(relations, target)
        assert SEP.lattice_member(SEP.Lattice(relations), target) == expected, (relations, target)
        found += expected is not None
    assert 1000 < found < 2000


def test_a_prebuilt_lattice_answers_like_the_old_dense_layer():
    """One `Lattice` answers many targets, members, non-members and targets
    with keys outside the relations' support, each exactly as the dense
    oracle does on the relation list, and is left unchanged by them."""
    rng = random.Random(608)
    outside = found = 0
    for _ in range(300):
        keys = [f"k{i}" for i in range(rng.randint(1, 6))]
        relations = [{k: rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
                      for k in rng.sample(keys, rng.randint(1, len(keys)))}
                     for _ in range(rng.randint(0, 6))]
        if relations and rng.random() < 0.3:      # a redundant relation
            a, b = rng.choice(relations), rng.choice(relations)
            relations.append({k: 2 * a.get(k, 0) - b.get(k, 0) for k in keys})
        lattice = SEP.Lattice(relations)
        assert list(lattice) == relations and len(lattice) == len(relations)
        basis = {c: dict(row) for c, row in lattice.basis.items()}
        for t in range(8):
            if t % 2:
                target = {k: sum(rng.randint(-5, 5) * r.get(k, 0) for r in relations)
                          for k in keys}
            else:
                target = {k: rng.randint(-9, 9) for k in rng.sample(keys, rng.randint(0, len(keys)))}
            if t % 4 == 3:      # a key no relation has, at 0 or not
                target["new"] = rng.choice((0, 0, 1, -2))
            expected = _old_dense_member(relations, target)
            assert SEP.lattice_member(lattice, target) == expected, (relations, target)
            found += expected is not None
            outside += target.get("new", 0) != 0 and expected is None
        assert lattice.basis == basis
    assert found > 600 and outside > 100


# ---------------------------------------------------------------------------
# separators


def test_abelianization_is_homomorphism(rng):
    sep = SEP.abelianization(FREE2)
    for _ in range(500):
        a = random_word(rng, FREE2, 6)
        b = random_word(rng, FREE2, 6)
        assert sep.image(S.multiply(a, b)) == tuple(
            x + y for x, y in zip(sep.image(a), sep.image(b)))
        assert sep.image(S.invert(a)) == tuple(-x for x in sep.image(a))


def test_cyclic_separator_reduces_mod_m(rng):
    sep = SEP.cyclic_separator(FREE2, 5)
    assert sep.target_finite
    assert len(SEP.PushedContext(sep, R.plain_ring(FREE2)).offsets()) == 25
    for _ in range(300):
        a = random_word(rng, FREE2, 6)
        ab = SEP.abelianization(FREE2).image(a)
        assert sep.image(a) == tuple(x % 5 for x in ab)


def test_default_suite_size():
    suite = SEP.default_separator_suite(FREE2)
    assert len(suite) == 12
    assert suite[0].name == "abelianization"
    assert not suite[0].target_finite
    assert all(s.target_finite for s in suite[1:])


def test_pushed_class_respects_ring_relations(rng):
    """Pushing through a separator must identify everything the source ring
    identifies: equal coset keys get equal pushed classes."""
    contexts = [
        R.coset_ring(FREE2, S.parse_word(FREE2, "x y")),
        R.reduced_ring(FREE2),
        R.conjugacy_ring(FREE2),
        R.two_sided_ring(FREE2, S.parse_word(FREE2, "x^2"), S.parse_word(FREE2, "y")),
        R.coset_ring(AB1, S.parse_word(AB1, "x^3")),
    ]
    for ctx in contexts:
        for sep in [SEP.abelianization(ctx.spec), SEP.cyclic_separator(ctx.spec, 4)]:
            pc = SEP.PushedContext(sep, ctx)
            for _ in range(150):
                w = random_word(rng, ctx.spec, 6)
                key = R.canonicalize(ctx, w)
                if key is None:
                    assert pc.pushed_class(sep.image(w)) is None
                    continue
                assert (pc.pushed_class(sep.image(w))
                        == pc.pushed_class(sep.image(key)))


# ---------------------------------------------------------------------------
# pushed classes per context

SEPARATORS = {
    "abelianization": SEP.abelianization,
    "mod4": lambda spec: SEP.cyclic_separator(spec, 4),
    "mod6": lambda spec: SEP.cyclic_separator(spec, 6),
}


def _all_flavors(spec, coset_gamma, gamma, delta):
    """The three flavors and the two trivial-side rings over spec, the
    two-sided ring with gamma != delta."""
    g, tg, td = (S.parse_word(spec, w) for w in (coset_gamma, gamma, delta))
    return [R.plain_ring(spec), R.reduced_ring(spec), R.conjugacy_ring(spec),
            R.coset_ring(spec, g), R.two_sided_ring(spec, tg, td)]


def _query_vectors(rng, sep):
    """Every target vector of a finite target (the offsets of its plain
    ring), else a box sample with repeats; shuffled."""
    if sep.target_finite:
        vecs = SEP.PushedContext(sep, R.plain_ring(sep.source)).offsets()
    else:
        vecs = [tuple(rng.randint(-3, 3) for _ in range(sep.dim)) for _ in range(60)]
        vecs += vecs[:20]
    rng.shuffle(vecs)
    return vecs


@pytest.mark.parametrize("sep_name", SEPARATORS)
@pytest.mark.parametrize("spec, words", [
    (FREE2, ("x y", "x^2", "y")),
    (FXZ, ("x y t^2", "x t", "y^2 z")),
], ids=["free2", "free_times_z"])
def test_pushed_class_table_matches_fresh_contexts(spec, words, sep_name):
    """One shared context answers as a fresh context per vector does, its
    answers are constant on every orbit (moves by the side images, and
    negation one-sided), and on a finite target they do not depend on the
    representative of a vector modulo the moduli."""
    rng = random.Random(602)
    sep = SEPARATORS[sep_name](spec)
    for ctx in _all_flavors(spec, *words):
        shared = SEP.PushedContext(sep, ctx)
        vecs = _query_vectors(rng, sep)
        got = {v: shared.pushed_class(v) for v in vecs}
        for v in vecs:
            assert got[v] == SEP.PushedContext(sep, ctx).pushed_class(v)
        moves = [sep.image(side) for side in (ctx.gamma, ctx.delta) if side is not None]
        moves += [tuple(-x for x in img) for img in moves]
        one_sided = ctx.flavor in (R.COSET, R.CONJUGACY)
        for v in vecs:
            if sep.target_finite:
                assert shared.pushed_class(SEP._vec_add(v, sep.moduli)) == got[v]
            for m in moves:
                assert shared.pushed_class(sep.reduce(SEP._vec_add(v, m))) == got[v]
            if one_sided:
                assert shared.pushed_class(sep.reduce(tuple(-x for x in v))) == got[v]


@pytest.mark.parametrize("gamma, delta, vecs", [
    ("x^5 y^3", "x^3 y^2", [(0, 40), (0, 20), (0, 0)]),
], ids=["two_sided[x^5 y^3; x^3 y^2]"])
def test_free_two_sided_keys_are_class_invariants(gamma, delta, vecs):
    """Vectors in one class of the abelianization's two-sided target get one
    key: here the side images span Z^2, so every vector is in one class."""
    ctx = R.two_sided_ring(FREE2, S.parse_word(FREE2, gamma), S.parse_word(FREE2, delta))
    pc = SEP.PushedContext(SEP.abelianization(FREE2), ctx)
    assert len({pc.pushed_class(v) for v in vecs}) == 1


@pytest.mark.parametrize("sep_name", SEPARATORS)
def test_pushed_class_tables_are_per_context(sep_name):
    """Contexts on one separator with different gamma images keep their own
    answers, whichever of them answered first."""
    rng = random.Random(603)
    sep = SEPARATORS[sep_name](FREE2)
    pairs = [
        (R.coset_ring(FREE2, S.parse_word(FREE2, "x y")),
         R.coset_ring(FREE2, S.parse_word(FREE2, "x^2"))),
        (R.two_sided_ring(FREE2, S.parse_word(FREE2, "x"), S.parse_word(FREE2, "y")),
         R.two_sided_ring(FREE2, S.parse_word(FREE2, "x^2"), S.parse_word(FREE2, "y"))),
    ]
    for ctx_a, ctx_b in pairs:
        a, b = SEP.PushedContext(sep, ctx_a), SEP.PushedContext(sep, ctx_b)
        assert sep.image(ctx_a.gamma) != sep.image(ctx_b.gamma)
        vecs = _query_vectors(rng, sep)
        got_a = {v: a.pushed_class(v) for v in vecs}
        got_b = {v: b.pushed_class(v) for v in vecs}
        for v in vecs:
            assert got_b[v] == SEP.PushedContext(sep, ctx_b).pushed_class(v)
        assert any(got_a[v] != got_b[v] for v in vecs)


def test_push_forward_is_additive(rng):
    ctx = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    sep = SEP.cyclic_separator(FREE2, 3)
    for _ in range(200):
        a = R.from_terms(ctx, [(random_word(rng, FREE2, 4), rng.choice([-1, 1]))
                               for _ in range(rng.randint(0, 3))])
        b = R.from_terms(ctx, [(random_word(rng, FREE2, 4), rng.choice([-1, 1]))
                               for _ in range(rng.randint(0, 3))])
        pa = SEP.push_forward(sep, a)
        pb = SEP.push_forward(sep, b)
        psum = SEP.push_forward(sep, R.add(a, b))
        merged = dict(pa)
        for k, v in pb.items():
            merged[k] = merged.get(k, 0) + v
        assert psum == {k: v for k, v in merged.items() if v}


def test_separator_validation():
    from selflink import DimensionMismatch
    with pytest.raises(DimensionMismatch):
        SEP.Separator("bad", FREE2, ((1, 0),), (0, 0))
    with pytest.raises(DimensionMismatch):
        SEP.Separator("bad", FREE2, ((1,), (0, 1)), (0,))
    with pytest.raises(DimensionMismatch):
        SEP.Separator("neg", FREE2, ((1, 0), (0, 1)), (-3, -3))
    with pytest.raises(DimensionMismatch):
        SEP.Separator("mixed", FREE2, ((1, 0), (0, 1)), (0, 3))


# ---------------------------------------------------------------------------
# finite targets: Hermite keys and offsets against brute-force orbits


def _random_finite_context(rng, flavor):
    """A PushedContext on a random finite target of dimension 1 to 3, moduli
    2 to 12, of a ring context whose side words x^a y^b z^c have random
    images; "plain" and "reduced" are the trivial-side two-sided and coset
    contexts."""
    dim = rng.randint(1, 3)
    spec = S.free(*"xyz"[:dim])
    moduli = tuple(rng.randint(2, 12) for _ in range(dim))
    sep = SEP.Separator("t", spec, SEP.abelianization(spec).images, moduli)
    gamma, left, right = (S.make_element(spec, [(i, rng.randrange(m)) for i, m in enumerate(moduli)])
                          for _ in range(3))
    ctx = {"plain": R.plain_ring(spec), "reduced": R.reduced_ring(spec),
           R.CONJUGACY: R.conjugacy_ring(spec), R.COSET: R.coset_ring(spec, gamma),
           R.TWO_SIDED: R.two_sided_ring(spec, left, right)}[flavor]
    return SEP.PushedContext(sep, ctx)


def _side_cosets(pc):
    """Every target vector and its coset of the subgroup that the flavor's
    side images generate, by a breadth-first closure over the target."""
    moduli, ctx = pc.sep.moduli, pc.ctx
    sides = {R.CONJUGACY: [], R.COSET: [ctx.gamma], R.TWO_SIDED: [ctx.gamma, ctx.delta]}
    gens = [pc.sep.image(side) for side in sides[ctx.flavor]]
    coset = {}
    for v in itertools.product(*(range(m) for m in moduli)):
        if v in coset:
            continue
        members, todo = {v}, [v]
        while todo:
            w = todo.pop()
            for g in gens:
                u = pc.sep.reduce(SEP._vec_add(w, g))
                if u not in members:
                    members.add(u)
                    todo.append(u)
        frozen = frozenset(members)
        for w in members:
            coset[w] = frozen
    return coset


FLAVORS = ["plain", "reduced", R.CONJUGACY, R.COSET, R.TWO_SIDED]


@pytest.mark.parametrize("flavor", FLAVORS)
def test_finite_keys_are_lex_least_orbit_members(flavor):
    """On a finite target pushed_class is the lex-least member of the
    brute-force orbit (the coset of the side images, joined with that of -w
    one-sided), and None exactly when a one-sided orbit holds 0."""
    rng = random.Random(611)
    for _ in range(40):
        pc = _random_finite_context(rng, flavor)
        coset = _side_cosets(pc)
        zero = (0,) * pc.sep.dim
        for v, members in coset.items():
            orbit = set(members)
            if pc.ctx.flavor != R.TWO_SIDED:
                orbit |= coset[pc.sep.reduce(tuple(-x for x in v))]
            want = None if zero in orbit and pc.ctx.flavor != R.TWO_SIDED else min(orbit)
            assert pc.pushed_class(v) == want
            assert pc.pushed_class(SEP._vec_add(v, pc.sep.moduli, -3)) == want


@pytest.mark.parametrize("flavor", FLAVORS)
def test_offsets_hold_one_member_per_class(flavor):
    """offsets() starts at 0 and meets every coset of the side images in
    exactly one vector, so it has |target| / |<side images>| members."""
    rng = random.Random(612)
    for _ in range(40):
        pc = _random_finite_context(rng, flavor)
        coset = _side_cosets(pc)
        offsets = pc.offsets()
        assert offsets[0] == (0,) * pc.sep.dim
        assert len({coset[t] for t in offsets}) == len(offsets) == len(set(coset.values()))
        assert len(offsets) == len(coset) // len(coset[offsets[0]])


def test_offsets_need_a_full_rank_lattice():
    """offsets() needs only that the moduli and side images span a full-rank
    lattice: a free target qualifies when its side images do."""
    from selflink import DimensionMismatch
    coset6 = R.coset_ring(AB1, S.parse_word(AB1, "x^6"))
    assert (SEP.PushedContext(SEP.abelianization(AB1), coset6).offsets()
            == [(a,) for a in range(6)])
    coset_xy = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    for ctx in (coset_xy, R.plain_ring(FREE2)):
        with pytest.raises(DimensionMismatch):
            SEP.PushedContext(SEP.abelianization(FREE2), ctx).offsets()
    mod4 = SEP.cyclic_separator(FREE2, 4)
    assert (SEP.PushedContext(mod4, R.plain_ring(FREE2)).offsets()
            == list(itertools.product(range(4), repeat=2)))
    assert SEP.PushedContext(mod4, coset_xy).offsets() == [(0, a) for a in range(4)]
