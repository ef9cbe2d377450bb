"""Coset-class rings: canonical keys against a breadth-first orbit oracle,
ring arithmetic laws, the trivial-side rings, and serialization."""

import itertools
import random
import time

import pytest

import selflink as S
import selflink.cosets as R
from conftest import AB1, FREE2, FXZ, PROD, random_ring_element, random_word


# ---------------------------------------------------------------------------
# orbit oracle


def _orbit_moves(ctx, c):
    """One step of the defining relations of ctx's flavor."""
    f = ctx.flavor
    if f == R.COSET:
        g = ctx.gamma
        yield S.multiply(g, c)
        yield S.multiply(S.invert(g), c)
        yield S.multiply(c, g)
        yield S.multiply(c, S.invert(g))
        yield S.invert(c)
        return
    if f == R.TWO_SIDED:
        g, d = ctx.gamma, ctx.delta
        yield S.multiply(g, c)
        yield S.multiply(S.invert(g), c)
        yield S.multiply(c, d)
        yield S.multiply(c, S.invert(d))
        return
    if f == R.CONJUGACY:
        yield S.invert(c)
        for a in S.all_generators(ctx.spec):
            yield S.conjugate(c, a)
            yield S.conjugate(c, S.invert(a))
        return
    raise AssertionError(f)


def _orbit_pad(ctx):
    pad = 2
    if ctx.gamma is not None:
        pad += 2 * ctx.gamma.length()
    if ctx.delta is not None:
        pad += 2 * ctx.delta.length()
    return pad


def oracle_min(ctx, w):
    """Shortlex-least orbit element by breadth-first search, and whether the
    identity lies in the orbit (within a generous length cap)."""
    cap = w.length() + _orbit_pad(ctx)
    best, bk = w, S.shortlex_key(w)
    seen = {w}
    frontier = [w]
    has_identity = S.is_identity(w)
    while frontier:
        nxt = []
        for c in frontier:
            for cand in _orbit_moves(ctx, c):
                if cand.length() > cap or cand in seen:
                    continue
                seen.add(cand)
                nxt.append(cand)
                if S.is_identity(cand):
                    has_identity = True
                k = S.shortlex_key(cand)
                if k < bk:
                    best, bk = cand, k
        frontier = nxt
    return best, has_identity


def _identity_dropped(ctx):
    return ctx.flavor in (R.COSET, R.CONJUGACY)


def check_against_oracle(ctx, w):
    key = R.canonicalize(ctx, w)
    want, has_identity = oracle_min(ctx, w)
    if _identity_dropped(ctx) and has_identity:
        assert key is None, S.format_word(w)
    else:
        assert key is not None, S.format_word(w)
        assert key == want, (S.format_word(w), S.format_word(key), S.format_word(want))


def _enumerate_free2(max_len):
    """All reduced words of F(x, y) of length <= max_len."""
    spec = FREE2
    gens = [S.generator(spec, lab, e) for lab in spec.labels for e in (1, -1)]
    out = [S.identity(spec)]
    frontier = [S.identity(spec)]
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for g in gens:
                v = S.multiply(w, g)
                if v.length() == w.length() + 1:
                    nxt.append(v)
        out.extend(nxt)
        frontier = nxt
    return out


def _oracle_contexts():
    return [
        R.coset_ring(FREE2, S.parse_word(FREE2, "x y")),
        R.coset_ring(FREE2, S.parse_word(FREE2, "x^2 y")),
        R.reduced_ring(FREE2),
        R.conjugacy_ring(FREE2),
        R.two_sided_ring(FREE2, S.parse_word(FREE2, "x^2"),
                         S.parse_word(FREE2, "y")),
        R.coset_ring(AB1, S.parse_word(AB1, "x^3")),
        R.coset_ring(FXZ, S.parse_word(FXZ, "x y z")),
        R.coset_ring(FXZ, S.parse_word(FXZ, "t")),
        R.coset_ring(FXZ, S.parse_word(FXZ, "t^3")),
        R.two_sided_ring(FXZ, S.parse_word(FXZ, "t^4"),
                         S.parse_word(FXZ, "t^-6")),
        R.two_sided_ring(FREE2, S.parse_word(FREE2, "x y"),
                         S.parse_word(FREE2, "x^2 y")),
        R.coset_ring(FREE2, S.parse_word(FREE2, "x y x y")),
        R.coset_ring(FREE2, S.parse_word(FREE2, "y x y^-1")),
        # distinct commuting sides, whose powers nearly cancel: the least
        # element of [t] is x = (x t^7)^5 t (x t^9)^-4, and z^-28 z z^27 = 1
        R.two_sided_ring(FXZ, S.parse_word(FXZ, "x t^7"),
                         S.parse_word(FXZ, "x t^9")),
        R.two_sided_ring(PROD, S.parse_word(PROD, "z^7"),
                         S.parse_word(PROD, "z^9")),
    ]


def test_canonicalize_exhaustive_oracle_short_words():
    words = _enumerate_free2(5)
    assert len(words) == 485
    ctx = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    for w in words:
        check_against_oracle(ctx, w)


def test_canonicalize_randomized_oracle_length_8():
    rng = random.Random(411)
    counts = [1000, 1000, 3000, 2000, 800, 2000, 600, 500, 500, 400, 400, 400,
              200, 60, 150]
    contexts = _oracle_contexts()
    assert len(counts) == len(contexts)
    total = 0
    for ctx, n in zip(contexts, counts):
        for _ in range(n):
            w = random_word(rng, ctx.spec, 8)
            check_against_oracle(ctx, w)
            total += 1
    assert total >= 10000


# (gamma, delta) pairs for the free-group closed form: a proper power on
# both sides, sides generating the same subgroup, one trivial side,
# unrelated sides, and y^-3 x against y, whose least elements can need
# delta^3
_CLOSED_FORM_PAIRS = [("x y x y", "x y x y"), ("x y", "y^-1 x^-1"),
                      ("1", "x^2 y"), ("x y", "x^2 y"), ("y^-3 x", "y")]


def test_free_closed_form_matches_orbit_min_exhaustively():
    words = _enumerate_free2(6)
    assert len(words) == 1457
    for a, b in _CLOSED_FORM_PAIRS:
        left, right = S.parse_word(FREE2, a), S.parse_word(FREE2, b)
        rule = R._choose_orbit_rule(FREE2, left, right)
        assert rule.func is R._free_orbit_min, (a, b)
        # the words are closed under inversion, so the oracle's value for the
        # candidates [w, w^-1] is the lesser of two single-word values
        want = {w: R._orbit_min(FREE2, [w], left, right) for w in words}
        for w in words:
            assert rule([w]) == want[w], (a, b, S.format_word(w))
            both = S.shortlex_min([want[w], want[S.invert(w)]])
            assert rule([w, S.invert(w)]) == both, (a, b, S.format_word(w))


def test_conjugate_root_sides_match_the_oracle():
    # sides whose roots are conjugate but generate different subgroups:
    # x^-28 . x . x^27 = 1 needs four powers of x^7, and _orbit_min's
    # windows miss it
    ctx = R.two_sided_ring(FREE2, S.parse_word(FREE2, "x^7"),
                           S.parse_word(FREE2, "x^9"))
    assert S.is_identity(R.canonicalize(ctx, S.parse_word(FREE2, "x")))
    words = _enumerate_free2(4)
    for a, b in [("x^7", "x^9"), ("x y", "y x"), ("x y x y", "y x"),
                 ("x^2 y", "x y x")]:
        ctx = R.two_sided_ring(FREE2, S.parse_word(FREE2, a),
                               S.parse_word(FREE2, b))
        for w in words:
            check_against_oracle(ctx, w)


@pytest.mark.parametrize("spec, gamma, delta, word, want", [
    (FXZ, "x t^7", "x t^9", "t", "x"),      # (x t^7)^5 t (x t^9)^-4 = x
    (PROD, "z^7", "z^9", "z", "1"),         # z^-28 z z^27 = 1
])
def test_commuting_sides_reach_the_least_element(spec, gamma, delta, word, want):
    """Distinct sides that commute with each other and with the word: their
    powers nearly cancel, and the least element needs large exponents."""
    ctx = R.two_sided_ring(spec, S.parse_word(spec, gamma), S.parse_word(spec, delta))
    key = R.canonicalize(ctx, S.parse_word(spec, word))
    assert key == S.parse_word(spec, want)
    assert oracle_min(ctx, S.parse_word(spec, word))[0] == key


_LARGE_EXPONENTS = [
    (FREE2, "x y", "x^1000 y x^-1000", "x^1000 y x^-1000"),
    (FREE2, "x", "x^1000 y x^-1000", "y"),
    (FREE2, "x y", " ".join(["x y"] * 700) + " x^3 y^-2", "x^3 y^-2"),
    (AB1, "x^3", "x^1000", "x"),
    (AB1, "x^3", "x^-1000000", "x"),
]


# the ids name the words only
@pytest.mark.parametrize("spec, gamma, word, want", _LARGE_EXPONENTS,
                         ids=["-".join(case[1:]) for case in _LARGE_EXPONENTS])
def test_large_exponents_canonicalize_quickly(spec, gamma, word, want):
    ctx = R.coset_ring(spec, S.parse_word(spec, gamma))
    g = S.parse_word(spec, word)
    R._canonicalize_cached.cache_clear()
    t0 = time.perf_counter()
    key = R.canonicalize(ctx, g)
    assert time.perf_counter() - t0 < 0.1
    assert S.format_word(key) == want
    for v in _orbit_moves(ctx, g):
        assert R.canonicalize(ctx, v) == key


def test_canonicalize_local_move_invariance():
    rng = random.Random(412)
    contexts = _oracle_contexts()
    # the last two contexts go through the widened fallback search
    counts = [200] * (len(contexts) - 2) + [100, 100]
    for ctx, n in zip(contexts, counts):
        for _ in range(n):
            w = random_word(rng, ctx.spec, 8)
            k0 = R.canonicalize(ctx, w)
            for v in _orbit_moves(ctx, w):
                assert R.canonicalize(ctx, v) == k0


# ---------------------------------------------------------------------------
# trivial-side rings


def test_degenerate_constructors():
    e = S.identity(FREE2)
    assert R.coset_ring(FREE2, e) == R.reduced_ring(FREE2)
    assert R.two_sided_ring(FREE2, e, e) == R.plain_ring(FREE2)


def test_plain_ring_distinguishes_normal_forms(rng):
    ctx = R.plain_ring(FREE2)
    for _ in range(200):
        w = random_word(rng, FREE2, 6)
        assert R.canonicalize(ctx, w) == w


def test_reduced_ring_identifies_inverses():
    ctx = R.reduced_ring(FREE2)
    w = S.parse_word(FREE2, "x y^-1")
    assert R.canonicalize(ctx, w) == R.canonicalize(ctx, S.invert(w))
    assert R.canonicalize(ctx, S.identity(FREE2)) is None


def test_conjugacy_ring_identifies_conjugates(rng):
    for spec in (FREE2, FXZ, PROD):
        ctx = R.conjugacy_ring(spec)
        for _ in range(100):
            w = random_word(rng, spec, 5)
            a = random_word(rng, spec, 3)
            key = R.canonicalize(ctx, w)
            assert R.canonicalize(ctx, S.conjugate(w, a)) == key
            if key is not None:
                assert key == oracle_min(ctx, w)[0], S.format_word(w)


def test_two_sided_ring_keeps_identity_class():
    ctx = R.two_sided_ring(AB1, S.parse_word(AB1, "x^2"), S.parse_word(AB1, "x^4"))
    key = R.canonicalize(ctx, S.identity(AB1))
    assert key is not None and S.is_identity(key)
    # x^2 . 1 is still the identity class; x is not
    assert R.canonicalize(ctx, S.parse_word(AB1, "x^2")) == key
    assert R.canonicalize(ctx, S.parse_word(AB1, "x")) != key


# ---------------------------------------------------------------------------
# ring arithmetic


def test_ring_abelian_group_laws(rng):
    ctx = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    z = R.zero(ctx)
    for _ in range(300):
        a = random_ring_element(rng, ctx, 4, 5)
        b = random_ring_element(rng, ctx, 4, 5)
        c = random_ring_element(rng, ctx, 4, 5)
        assert R.add(a, b) == R.add(b, a)
        assert R.add(R.add(a, b), c) == R.add(a, R.add(b, c))
        assert R.add(a, z) == a
        assert R.add(a, R.negate(a)) == z
        assert R.scale(3, a) == R.add(a, R.add(a, a))
        assert R.scale(-1, a) == R.negate(a)


def test_conj_act_is_additive_action(rng):
    # conjugators must centralize gamma for the coset ring to be preserved
    gamma = S.parse_word(FREE2, "x y")
    ctx = R.coset_ring(FREE2, gamma)
    for _ in range(200):
        a = random_ring_element(rng, ctx, 3, 4)
        b = random_ring_element(rng, ctx, 3, 4)
        p = S.power(gamma, rng.randint(-3, 3))
        q = S.power(gamma, rng.randint(-3, 3))
        assert R.conj_act(p, R.add(a, b)) == R.add(R.conj_act(p, a), R.conj_act(p, b))
        assert R.conj_act(S.multiply(p, q), a) == R.conj_act(p, R.conj_act(q, a))
        assert R.conj_act(S.identity(FREE2), a) == a


def test_conj_act_on_plain_ring_is_biact(rng):
    ctx = R.plain_ring(FREE2)
    for _ in range(100):
        a = random_ring_element(rng, ctx, 3, 4)
        phi = random_word(rng, FREE2, 3)
        assert R.conj_act(phi, a) == R.biact(phi, phi, a)
        assert R.conj_act(phi, a) == R.from_terms(
            ctx, [(S.conjugate(k, phi), c) for k, c in a.terms])


def test_biact_composes(rng):
    gamma = S.parse_word(FREE2, "x^2")
    delta = S.parse_word(FREE2, "y")
    ctx = R.two_sided_ring(FREE2, gamma, delta)
    for _ in range(200):
        a = random_ring_element(rng, ctx, 3, 4)
        p = S.power(gamma, rng.randint(-2, 2))
        q = S.power(delta, rng.randint(-2, 2))
        u = S.power(gamma, rng.randint(-2, 2))
        v = S.power(delta, rng.randint(-2, 2))
        lhs = R.biact(p, q, R.biact(u, v, a))
        rhs = R.biact(S.multiply(p, u), S.multiply(v, q), a)
        assert lhs == rhs


def test_project_pi_forgets_basing(rng):
    src = R.reduced_ring(FREE2)
    for _ in range(100):
        w = random_word(rng, FREE2, 5)
        y = R.single(src, w)
        p = R.project_pi(y)
        assert p.context.flavor == R.CONJUGACY
        a = random_word(rng, FREE2, 3)
        assert R.project_pi(R.single(src, S.conjugate(w, a))) == p


# ---------------------------------------------------------------------------
# serialization


def test_format_parse_round_trip(rng):
    for ctx in _oracle_contexts():
        for _ in range(100):
            y = random_ring_element(rng, ctx, 4, 5)
            assert R.parse_ring(ctx, R.format_ring(y)) == y


def test_parse_ring_lenient_forms():
    ctx = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    x = S.parse_word(FREE2, "x")
    assert R.parse_ring(ctx, "2*[x]") == R.single(ctx, x, 2)
    assert R.parse_ring(ctx, "[x]") == R.single(ctx, x, 1)
    assert R.parse_ring(ctx, "0") == R.zero(ctx)
    assert R.parse_ring(ctx, "+1*[x] -1*[x]") == R.zero(ctx)


def test_parse_ring_strict_sign():
    from selflink import ParseError
    ctx = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    x = S.parse_word(FREE2, "x")
    assert R.parse_ring(ctx, "+1*[x]", strict_sign=True) == R.single(ctx, x, 1)
    with pytest.raises(ParseError):
        R.parse_ring(ctx, "2*[x]", strict_sign=True)
    with pytest.raises(ParseError):
        R.parse_ring(ctx, "[x]", strict_sign=True)


def test_format_is_sorted_and_signed():
    ctx = R.reduced_ring(FREE2)
    y = R.from_terms(ctx, [(S.parse_word(FREE2, "x y"), -1),
                           (S.parse_word(FREE2, "x"), 2)])
    assert R.format_ring(y) == "+2*[x] -1*[x y]"
    assert R.format_ring(R.zero(ctx)) == "0"
