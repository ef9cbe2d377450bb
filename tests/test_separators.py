"""Hermite normal form, lattice membership, and abelian separator soundness."""

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


def _check_hnf(A):
    """U*A = H, U unimodular, and [H | U] in row Hermite normal form with
    the nonzero rows of H first."""
    H, U = SEP.hermite_form(A)
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
    assert SEP.hermite_form([[2, 4], [6, 8]]) == ([[2, 0], [0, 4]],
                                                  [[-2, 1], [3, -1]])
    assert SEP.hermite_form([[1, 0], [0, 6]]) == ([[1, 0], [0, 6]],
                                                  [[1, 0], [0, 1]])
    assert SEP.hermite_form([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]],
                                                  [[1, 0], [0, 1]])
    # rank 1: the kernel row 2*(1, 2) - (2, 4) = 0 follows the pivot row
    assert SEP.hermite_form([[1, 2], [2, 4]]) == ([[1, 2], [0, 0]],
                                                  [[1, 0], [2, -1]])


def test_lattice_solve_round_trip():
    rng = random.Random(601)
    hits = 0
    for _ in range(2000):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        A = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        c = [rng.randint(-4, 4) for _ in range(cols)]
        v = [sum(A[i][j] * c[j] for j in range(cols)) for i in range(rows)]
        sol = SEP.lattice_solve(A, v)
        assert sol is not None
        assert [sum(A[i][j] * sol[j] for j in range(cols)) for i in range(rows)] == v
        hits += 1
    assert hits == 2000


def test_lattice_solve_detects_non_members():
    # columns span 2Z x 3Z; (1, 0) is not in the lattice
    assert SEP.lattice_solve([[2, 0], [0, 3]], [1, 0]) is None
    assert SEP.lattice_solve([[2, 0], [0, 3]], [4, -3]) == [2, -1]
    assert SEP.lattice_solve([[2], [4]], [3, 6]) is None


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
        sol = SEP.lattice_solve(A, v)
        assert (sol is not None) == _snf_member(A, v), (A, v)
        if sol is not None:
            members += 1
            assert [sum(a * x for a, x in zip(row, sol)) for row in A] == v
    assert 200 < members < 400


def _timed_membership(A, c):
    """lattice_solve on A*c (a member) and on 2A*c + e_0 (not one: the
    lattice of 2A is even), each checked and timed."""
    v = [sum(a * x for a, x in zip(row, c)) for row in A]
    t0 = time.perf_counter()
    sol = SEP.lattice_solve(A, v)
    miss = SEP.lattice_solve([[2 * a for a in row] for row in A],
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
    assert SEP.lattice_member([r1, r2], {"a": 1, "c": -1}) is not None
    assert SEP.lattice_member([r1, r2], {"a": 1}) is None
    assert SEP.lattice_member([], {}) == []


def test_quotient_decide_mod_structure():
    # single relation x + x^2 = 0 over basis (x, x^2): quotient Z x Z / <(1,1)>
    rel = {"x": 1, "x2": 1}
    assert SEP.lattice_member([rel], {"x": 2, "x2": 2}) == [2]
    assert SEP.lattice_member([rel], {"x": 1}) is None
    # a redundant relation: the kernel reduction keeps the answer small
    coeffs = SEP.lattice_member([{"x": 2}, {"x": 3}], {"x": 10 ** 12 + 1})
    assert 2 * coeffs[0] + 3 * coeffs[1] == 10 ** 12 + 1
    assert max(abs(k) for k in coeffs) < 10 ** 12


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
    assert len(sep.target_elements()) == 25
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
            pc = SEP.PushedContext.of(sep, ctx)
            for _ in range(150):
                w = random_word(rng, ctx.spec, 6)
                key = R.canonicalize(ctx, w)
                if key is None:
                    assert pc.pushed_class(sep.image(w)) is None
                    continue
                assert (pc.pushed_class(sep.image(w))
                        == pc.pushed_class(sep.image(key)))


# ---------------------------------------------------------------------------
# the per-context pushed-class table

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
    """Every target vector of a finite target, else a box sample with
    repeats; shuffled, so most vectors are answered from a table entry that
    a query of another orbit member wrote."""
    if sep.target_finite:
        vecs = sep.target_elements()
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
    """One shared context answers as a fresh context per vector does, and on
    a finite target its answers are constant on every orbit."""
    rng = random.Random(602)
    sep = SEPARATORS[sep_name](spec)
    for ctx in _all_flavors(spec, *words):
        shared = SEP.PushedContext.of(sep, ctx)
        vecs = _query_vectors(rng, sep)
        got = {v: shared.pushed_class(v) for v in vecs}
        for v in vecs:
            assert got[v] == SEP.PushedContext.of(sep, ctx).pushed_class(v)
        if not sep.target_finite:
            continue
        moves = [img for img in (shared.gamma_img, shared.delta_img) if img]
        moves += [tuple(-x for x in img) for img in moves]
        one_sided = ctx.flavor in (R.COSET, R.CONJUGACY)
        for v in vecs:
            assert shared.pushed_class(SEP._vec_add(v, sep.moduli)) == got[v]
            for m in moves:
                assert got[sep.reduce(SEP._vec_add(v, m))] == got[v]
            if one_sided:
                assert got[sep.reduce(tuple(-x for x in v))] == got[v]


@pytest.mark.parametrize("sep_name", SEPARATORS)
def test_pushed_class_tables_are_per_context(sep_name):
    """Contexts on one separator with different gamma images keep their own
    answers, whichever of them filled its table first."""
    rng = random.Random(603)
    sep = SEPARATORS[sep_name](FREE2)
    pairs = [
        (R.coset_ring(FREE2, S.parse_word(FREE2, "x y")),
         R.coset_ring(FREE2, S.parse_word(FREE2, "x^2"))),
        (R.two_sided_ring(FREE2, S.parse_word(FREE2, "x"), S.parse_word(FREE2, "y")),
         R.two_sided_ring(FREE2, S.parse_word(FREE2, "x^2"), S.parse_word(FREE2, "y"))),
    ]
    for ctx_a, ctx_b in pairs:
        a, b = SEP.PushedContext.of(sep, ctx_a), SEP.PushedContext.of(sep, ctx_b)
        assert a.gamma_img != b.gamma_img
        vecs = _query_vectors(rng, sep)
        got_a = {v: a.pushed_class(v) for v in vecs}
        got_b = {v: b.pushed_class(v) for v in vecs}
        for v in vecs:
            assert got_b[v] == SEP.PushedContext.of(sep, ctx_b).pushed_class(v)
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
