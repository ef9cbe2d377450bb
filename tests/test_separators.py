"""Smith normal form, lattice membership, and abelian separator soundness."""

import random

import pytest

import selflink as S
import selflink.cosets as R
import selflink.separators as SEP
from conftest import AB1, FREE2, FXZ, random_word

CASES = 10000


# ---------------------------------------------------------------------------
# Smith normal form


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


def _check_snf(A):
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U, D, V = SEP.smith_normal_form(A)
    assert _matmul(_matmul(U, A), V) == D
    assert abs(_det(U)) == 1
    assert abs(_det(V)) == 1
    diag = [D[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert D[i][j] == 0
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_snf_randomized_reconstruction():
    rng = random.Random(600)
    for case in range(CASES):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        _check_snf(A)


def test_snf_known_values():
    _, D, _ = SEP.smith_normal_form([[2, 4], [6, 8]])
    assert [D[0][0], D[1][1]] == [2, 4]
    _, D, _ = SEP.smith_normal_form([[1, 0], [0, 6]])
    assert [D[0][0], D[1][1]] == [1, 6]
    _, D, _ = SEP.smith_normal_form([[0, 0], [0, 0]])
    assert D == [[0, 0], [0, 0]]


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


def test_lattice_member_sparse():
    r1 = {"a": 1, "b": -1}
    r2 = {"b": 1, "c": -1}
    assert SEP.lattice_member([r1, r2], {"a": 1, "c": -1}) is not None
    assert SEP.lattice_member([r1, r2], {"a": 1}) is None
    assert SEP.lattice_member([], {}) == []


def test_quotient_decide_mod_structure():
    # single relation x + x^2 = 0 over basis (x, x^2): quotient Z x Z / <(1,1)>
    lq = SEP.LatticeQuotient(("x", "x2"), ((1,), (1,)))
    verdict, coeffs = SEP.quotient_decide(lq, [2, 2], [0, 0])
    assert verdict == "equal" and coeffs == [2]
    verdict, _ = SEP.quotient_decide(lq, [1, 0], [0, 0])
    assert verdict == "distinct"


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
                        == pc.pushed_class(sep.image(key.representative)))


# ---------------------------------------------------------------------------
# the per-context pushed-class table

SEPARATORS = {
    "abelianization": SEP.abelianization,
    "mod4": lambda spec: SEP.cyclic_separator(spec, 4),
    "mod6": lambda spec: SEP.cyclic_separator(spec, 6),
}


def _all_flavors(spec, coset_gamma, gamma, delta):
    """The five ring flavors over spec, the two-sided one with gamma != delta."""
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
        one_sided = ctx.flavor in (R.REDUCED, R.COSET, R.CONJUGACY)
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
