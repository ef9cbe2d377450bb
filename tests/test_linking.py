"""Trace invariants: composition and inverse laws, sphere-pairing linearity,
connected-sum additivity of the conjugacy-class invariant."""

import random
import time

import pytest

import selflink as S
import selflink.cosets as R
import selflink.linking as L
from conftest import AB1, AB2, FREE2, FXZ, PROD, random_points, random_word

CASES = 10000


def _knot_pool():
    """Knots across specs, with their centralizer generators."""
    pool = []
    for spec, gword in [(FREE2, "x y"), (FREE2, "x^2"), (FREE2, "x y x y"),
                        (AB1, "x^3"), (FXZ, "x y z")]:
        gamma = S.parse_word(spec, gword)
        k = L.Knot(f"k[{gword}]", gamma)
        pool.append((k, S.centralizer_generators(spec, gamma)))
    return pool


def _word_pool(rng, spec, n=60, max_len=4):
    return [random_word(rng, spec, max_len) for _ in range(n)]


def _random_trace(rng, k, zgens, words):
    pts = tuple((rng.choice([1, -1]), rng.choice(words))
                for _ in range(rng.randint(0, 3)))
    lat = S.identity(k.spec)
    for z in zgens:
        lat = S.multiply(lat, S.power(z, rng.randint(-2, 2)))
    return L.Trace(k, k, pts, lat)


def test_mu_composition_law():
    rng = random.Random(500)
    pool = _knot_pool()
    words = {id(k): _word_pool(rng, k.spec) for k, _ in pool}
    for _ in range(CASES):
        k, zgens = rng.choice(pool)
        h = _random_trace(rng, k, zgens, words[id(k)])
        h2 = _random_trace(rng, k, zgens, words[id(k)])
        lhs = L.mu_trace(L.compose(h, h2))
        rhs = R.add(L.mu_trace(h), R.conj_act(h.latitude, L.mu_trace(h2)))
        assert lhs == rhs


def test_mu_inverse_law():
    rng = random.Random(501)
    pool = _knot_pool()
    words = {id(k): _word_pool(rng, k.spec) for k, _ in pool}
    for _ in range(CASES):
        k, zgens = rng.choice(pool)
        h = _random_trace(rng, k, zgens, words[id(k)])
        lhs = L.mu_trace(L.invert_trace(h))
        rhs = R.negate(R.conj_act(S.invert(h.latitude), L.mu_trace(h)))
        assert lhs == rhs
        # inverting twice restores mu (the trace data itself round-trips)
        assert L.mu_trace(L.invert_trace(L.invert_trace(h))) == L.mu_trace(h)


def test_lambda_sphere_linearity():
    rng = random.Random(502)
    pool = _knot_pool()
    words = {id(k): _word_pool(rng, k.spec) for k, _ in pool}
    for _ in range(CASES):
        k, _ = rng.choice(pool)
        ws = words[id(k)]
        pts1 = tuple((rng.choice([1, -1]), rng.choice(ws))
                     for _ in range(rng.randint(0, 3)))
        pts2 = tuple((rng.choice([1, -1]), rng.choice(ws))
                     for _ in range(rng.randint(0, 3)))
        s1 = L.SphereData("s1", pts1)
        s2 = L.SphereData("s2", pts2)
        joint = L.SphereData("j", pts1 + pts2)
        # additivity in the sphere argument
        assert L.lambda_sphere(joint, k) == R.add(L.lambda_sphere(s1, k),
                                                  L.lambda_sphere(s2, k))
        # a combination pairs to the sum of its translated summands
        g1, g2 = rng.choice(ws), rng.choice(ws)
        combo = L.lambda_sphere_combo([(g1, s1), (g2, s2)], k)
        ctx = L.sphere_pairing_context(k)
        t1 = R.from_terms(ctx, [(p, s) for s, p in L.translate_points(g1, pts1)])
        t2 = R.from_terms(ctx, [(p, s) for s, p in L.translate_points(g2, pts2)])
        assert combo == R.add(t1, t2)


@pytest.mark.parametrize("spec", [FREE2, AB2, FXZ, PROD])
def test_mu_absolute_projects_to_mu_pi(spec):
    """mu_absolute lives in the reduced ring, and forgetting to conjugacy
    classes gives mu_pi."""
    rng = random.Random(502)
    for _ in range(300):
        pts = random_points(rng, spec, 5, 4)
        y = L.mu_absolute(spec, pts)
        assert y.context == R.reduced_ring(spec)
        assert R.project_pi(y) == L.mu_pi(spec, pts)


def test_mu_pi_connect_sum_additivity():
    rng = random.Random(503)
    specs = [FREE2, FXZ]
    words = {id(sp): _word_pool(rng, sp) for sp in specs}
    for _ in range(CASES):
        spec = rng.choice(specs)
        ws = words[id(spec)]
        d1 = tuple((rng.choice([1, -1]), rng.choice(ws))
                   for _ in range(rng.randint(0, 3)))
        d2 = tuple((rng.choice([1, -1]), rng.choice(ws))
                   for _ in range(rng.randint(0, 3)))
        band = rng.choice(ws)
        total = L.connect_sum(d1, d2, band)
        assert L.mu_pi(spec, total) == R.add(L.mu_pi(spec, d1), L.mu_pi(spec, d2))


def test_connect_sum_rejects_nonvanishing_linking():
    from selflink import NonVanishingLinking
    band = S.parse_word(FREE2, "y")
    cross = ((1, S.parse_word(FREE2, "x")),)
    with pytest.raises(NonVanishingLinking):
        L.connect_sum((), (), band, cross_points=cross)
    # cancelling cross points are fine
    cross2 = ((1, S.parse_word(FREE2, "x")), (-1, S.parse_word(FREE2, "x")))
    L.connect_sum((), (), band, cross_points=cross2)


def test_connect_sum_exact_point_law():
    rng = random.Random(504)
    for _ in range(300):
        ws = _word_pool(rng, FREE2, 40, 4)
        d1 = tuple((rng.choice([1, -1]), rng.choice(ws)) for _ in range(2))
        d2 = tuple((rng.choice([1, -1]), rng.choice(ws)) for _ in range(2))
        g = rng.choice(ws)
        cross = ((1, g), (-1, g))
        band = rng.choice(ws)
        out = L.connect_sum(d1, d2, band, cross_points=cross)
        want = list(d1)
        want += [(s, S.conjugate(p, band)) for s, p in d2]
        want += [(s, S.multiply(p, S.invert(band))) for s, p in cross]
        assert out == tuple(want)


def test_trace_validation():
    from selflink import EndpointMismatch, NotInCentralizer
    ka = L.Knot("a", S.parse_word(FREE2, "x y"))
    kb = L.Knot("b", S.parse_word(FREE2, "x"))
    with pytest.raises(EndpointMismatch):
        L.Trace(ka, kb, (), S.identity(FREE2))
    with pytest.raises(NotInCentralizer):
        L.Trace(ka, ka, (), S.parse_word(FREE2, "x"))
    with pytest.raises(EndpointMismatch):
        h = L.Trace(ka, ka, (), S.parse_word(FREE2, "x y"))
        h2 = L.Trace(kb, kb, (), S.identity(FREE2))
        L.compose(h, h2)


def test_rebase_conjugates_mu():
    ka = L.Knot("a", S.parse_word(FREE2, "x y"))
    h = L.Trace(ka, ka, ((1, S.parse_word(FREE2, "x")),),
                S.parse_word(FREE2, "x y"))
    alpha = S.parse_word(FREE2, "x y x y")
    assert L.mu_trace(L.rebase(h, alpha)) == R.conj_act(alpha, L.mu_trace(h))


def test_realize_trace_round_trip(rng):
    k = L.Knot("k", S.parse_word(FREE2, "x y"))
    ctx = R.coset_ring(FREE2, k.gamma)
    for _ in range(100):
        y = R.from_terms(ctx, [(random_word(rng, FREE2, 4), rng.choice([-2, -1, 1, 2]))
                               for _ in range(rng.randint(0, 3))])
        assert L.mu_trace(L.realize_trace(y, k)) == y


def test_sphere_for_unlink_complement_structure():
    gamma = S.parse_word(FREE2, "x y^2 x^-1")
    sigma = L.sphere_for_unlink_complement(gamma)
    # alternating signs over the syllable prefixes, starting at +
    signs = [s for s, _ in sigma.points]
    assert signs == [1, -1, 1]
    assert sigma.points[0][1] == S.identity(FREE2)
    assert sigma.points[1][1] == S.parse_word(FREE2, "x^-1")


def test_lambda_link_lives_in_two_sided_ring():
    k1 = L.Knot("k1", S.parse_word(FREE2, "x"))
    k2 = L.Knot("k2", S.parse_word(FREE2, "y"))
    h1 = L.Trace(k1, k1, (), S.identity(FREE2))
    h2 = L.Trace(k2, k2, (), S.identity(FREE2))
    lt = L.LinkTrace(h1, h2, ((1, S.parse_word(FREE2, "x y")),))
    y = L.lambda_link(lt)
    assert y.context.flavor == R.TWO_SIDED
    # x (x y) = (x y) y in the double coset, so both words hit the same class
    assert y == L.lambda_link(L.LinkTrace(h1, h2, ((1, S.parse_word(FREE2, "x^2 y")),)))


@pytest.mark.parametrize("spec, word", [
    (S.free_times_z("x", "y", "t"), "x y t^1000000"),
    (FREE2, "x^1000000 y"),
    (AB2, "x^1000000 y"),
], ids=["free_times_z", "free", "abelian"])
def test_mu_pi_of_a_huge_exponent_is_quick(spec, word):
    g = S.parse_word(spec, word)
    t0 = time.perf_counter()
    y = L.mu_pi(spec, [(1, g)])
    assert time.perf_counter() - t0 < 1.0
    assert y.terms == ((g, 1),)
