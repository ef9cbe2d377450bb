"""Group word arithmetic: normal forms, shortlex order, algebraic laws."""

import random

import pytest

import selflink as S
from conftest import ALL_SPECS, FREE2, FXZ, PROD, PROD_FXZ, random_word

EVERY_KIND = pytest.mark.parametrize(
    "spec", ALL_SPECS + [PROD, PROD_FXZ],
    ids=["free2", "free3", "ab1", "ab2", "fxz", "prod", "prod_fxz"])


def test_free_normal_form_cancellation():
    G = FREE2
    w = S.parse_word(G, "x y y^-1 x^-1 y")
    assert S.format_word(w) == "y"
    assert S.parse_word(G, "x x^-1") == S.identity(G)


def test_abelian_normal_form_sorts_and_collects():
    G = S.free_abelian("x", "y")
    w = S.parse_word(G, "y x y x^-2")
    assert S.format_word(w) == "x^-1 y^2"


def test_free_times_z_central_generator_commutes():
    G = FXZ
    t = S.generator(G, "t")
    x = S.generator(G, "x")
    assert S.multiply(t, x) == S.multiply(x, t)
    assert S.commutes(t, random_word(random.Random(1), G, 6))


def test_free_product_factors_do_not_interleave():
    G = PROD
    w = S.parse_word(G, "x z x^-1 z")
    # z lives in an abelian factor but is separated by the free letter x
    assert S.format_word(w) == "x z x^-1 z"
    v = S.parse_word(G, "z x x^-1 z")
    assert S.format_word(v) == "z^2"


def test_parse_format_round_trip(rng):
    for spec in ALL_SPECS + [PROD]:
        for _ in range(200):
            w = random_word(rng, spec, 8)
            assert S.parse_word(spec, S.format_word(w)) == w


def test_group_axioms(rng):
    for spec in ALL_SPECS + [PROD]:
        e = S.identity(spec)
        for _ in range(300):
            a = random_word(rng, spec, 6)
            b = random_word(rng, spec, 6)
            c = random_word(rng, spec, 6)
            assert S.multiply(S.multiply(a, b), c) == S.multiply(a, S.multiply(b, c))
            assert S.multiply(a, S.invert(a)) == e
            assert S.invert(S.multiply(a, b)) == S.multiply(S.invert(b), S.invert(a))
            assert S.multiply(a, e) == a == S.multiply(e, a)


def test_power_and_conjugate_laws(rng):
    for spec in ALL_SPECS:
        for _ in range(200):
            a = random_word(rng, spec, 5)
            n = rng.randint(-4, 4)
            m = rng.randint(-4, 4)
            assert S.power(a, n + m) == S.multiply(S.power(a, n), S.power(a, m))
            by = random_word(rng, spec, 5)
            assert S.conjugate(a, by) == S.multiply(S.multiply(by, a), S.invert(by))


def test_power_matches_repeated_multiplication(rng):
    for spec in ALL_SPECS + [PROD]:
        for _ in range(10):
            a = random_word(rng, spec, 5)
            for n in range(-20, 21):
                base = a if n >= 0 else S.invert(a)
                want = S.identity(spec)
                for _ in range(abs(n)):
                    want = S.multiply(want, base)
                assert S.power(a, n) == want


def test_shortlex_is_a_total_order_refining_length(rng):
    seen = set()
    for _ in range(500):
        w = random_word(rng, FREE2, 6)
        seen.add(w)
    keys = sorted(S.shortlex_key(w) for w in seen)
    assert len(set(keys)) == len(seen)  # injective on normal forms
    lengths = [k[0] for k in keys]
    assert lengths == sorted(lengths)
    assert S.shortlex_key(S.identity(FREE2)) == min(keys + [S.shortlex_key(S.identity(FREE2))])
    # the key is (length, letters), a letter of generator i coded 2i and of
    # its inverse 2i + 1
    for spec in ALL_SPECS + [PROD, PROD_FXZ]:
        for _ in range(100):
            w = random_word(rng, spec, 8)
            letters = tuple(2 * i + (e < 0) for i, e in w.syllables for _ in range(abs(e)))
            assert S.shortlex_key(w) == (len(letters), letters)


def test_shortlex_min_picks_least(rng):
    ws = [random_word(rng, FREE2, 6) for _ in range(50)]
    m = S.shortlex_min(ws)
    assert all(S.shortlex_key(m) <= S.shortlex_key(w) for w in ws)


def test_maximal_root(rng):
    G = FREE2
    w = S.parse_word(G, "x y x y x y")
    root, n = S.maximal_root(G, w)
    assert S.format_word(root) == "x y" and n == 3
    root, n = S.maximal_root(G, S.parse_word(G, "x y"))
    assert n == 1
    root, n = S.maximal_root(G, S.power(S.generator(G, "x"), -6))
    assert S.power(root, n) == S.power(S.generator(G, "x"), -6)
    # conjugated proper powers: the root is a root and is not itself a power
    for spec in ALL_SPECS + [PROD, PROD_FXZ]:
        for _ in range(150):
            g = S.conjugate(S.power(random_word(rng, spec, 5), rng.choice((1, 2, 3, -2))),
                            random_word(rng, spec, 3))
            if S.is_identity(g):
                continue
            root, p = S.maximal_root(spec, g)
            assert S.power(root, p) == g, S.format_word(g)
            assert S.maximal_root(spec, root)[1] == 1, S.format_word(g)


def test_centralizer_generators_free_is_root():
    G = FREE2
    gens = S.centralizer_generators(G, S.parse_word(G, "x y x y"))
    assert len(gens) == 1
    assert S.format_word(gens[0]) == "x y"


def test_centralizer_generators_free_times_z():
    G = FXZ
    k = S.parse_word(G, "x y z")
    gens = S.centralizer_generators(G, k)
    # the class itself and the central generator
    assert len(gens) == 2
    assert all(S.commutes(g, k) for g in gens)
    forms = {S.format_word(g) for g in gens}
    assert "t" in forms


def test_centralizer_generators_abelian_is_everything():
    G = S.free_abelian("x", "y")
    gens = S.centralizer_generators(G, S.parse_word(G, "x"))
    assert len(gens) == 2


def test_centralizer_membership(rng):
    for spec in ALL_SPECS + [PROD, PROD_FXZ]:
        for _ in range(100):
            gamma = random_word(rng, spec, 4)
            if S.is_identity(gamma):
                continue
            for g in S.centralizer_generators(spec, gamma):
                assert S.commutes(g, gamma)


@EVERY_KIND
def test_split_center(spec, rng):
    """g = rest z with z central; z is all of g in a free abelian group,
    the central syllable in free x Z and 1 otherwise, where the center is
    trivial (a free factor's central generator is not central in a free
    product)."""
    gens = S.all_generators(spec)
    for _ in range(50):
        g = random_word(rng, spec, 6)
        rest, z = S.groups.split_center(g)
        assert S.multiply(rest, z) == g
        assert all(S.commutes(z, h) for h in gens)
        if spec.kind == "free_abelian":
            assert S.is_identity(rest)
        elif spec.kind == "free_times_z":
            assert all(i != spec.central_index for i, _ in rest.syllables)
        else:
            assert S.is_identity(z)


def test_unknown_generator_rejected():
    from selflink import UnknownGenerator
    with pytest.raises(UnknownGenerator):
        S.parse_word(FREE2, "x q")


@EVERY_KIND
def test_make_element_rejects_out_of_range_indices(spec):
    from selflink import UnknownGenerator
    n = len(spec.labels)
    for sylls in ([(n, 1)], [(n + 6, 1), (n + 6, -1)], [(0, 1), (n, 2), (n, -2)], [(-1, 1)]):
        with pytest.raises(UnknownGenerator):
            S.make_element(spec, sylls)


def test_spec_mismatch_rejected():
    from selflink import SpecMismatch
    with pytest.raises(SpecMismatch):
        S.multiply(S.generator(FREE2, "x"), S.generator(FXZ, "x"))


def _syllables(rng, spec, n):
    """At most n raw syllables, exponents +-1 and +-2."""
    return [(rng.randrange(len(spec.labels)), rng.choice((-2, -1, 1, 2)))
            for _ in range(rng.randint(0, n))]


def _inverse_syllables(sylls):
    return [(i, -e) for i, e in reversed(sylls)]


def _check_against_oracle(spec, a, b):
    """make_element of the concatenated, or reversed and negated, syllables
    is the oracle for multiply and invert."""
    assert S.multiply(a, b) == S.make_element(spec, a.syllables + b.syllables)
    assert S.invert(a) == S.make_element(spec, _inverse_syllables(a.syllables))
    assert S.invert(S.invert(a)) == a


@EVERY_KIND
def test_products_and_inverses_match_the_normalizing_oracle(spec, rng):
    """On seeded normal forms: random pairs; a b where b undoes a suffix of
    a and goes on, which cancels down to the identity when it undoes all of
    a; and in free x Z, central syllables on either side of the seam."""
    central = [spec.central_index] if spec.kind == "free_times_z" else []
    for _ in range(300):
        a = S.make_element(spec, _syllables(rng, spec, 6))
        _check_against_oracle(spec, a, S.make_element(spec, _syllables(rng, spec, 6)))
        undo = _inverse_syllables(a.syllables)
        assert S.multiply(a, S.make_element(spec, undo)) == S.identity(spec)
        cut = rng.randint(0, len(a.syllables))
        tail = _syllables(rng, spec, 2)
        _check_against_oracle(
            spec, a, S.make_element(spec, _inverse_syllables(a.syllables[cut:]) + tail))
        for c in central:
            k = rng.choice((-2, -1, 1, 2))
            _check_against_oracle(spec, S.make_element(spec, list(a.syllables) + [(c, k)]),
                                  S.make_element(spec, [(c, -k)] + undo + tail))


@pytest.mark.parametrize("spec, a, b, product", [
    (PROD, "x y z", "z^-1 y x", "x y^2 x"),
    (PROD, "x z y", "y^-1 z^-1 x^-1", "1"),
    (PROD_FXZ, "x t u v", "v^-1 u^-1 t x", "x^2 t^2"),
    (PROD_FXZ, "u x v w^2", "w^-2 v^-1 x^-1 u", "u^2"),
], ids=["free-runs", "identity", "fxz-runs", "free-runs-across-fxz"])
def test_free_product_runs_merge_after_a_cancellation(spec, a, b, product):
    a, b = S.parse_word(spec, a), S.parse_word(spec, b)
    assert S.format_word(S.multiply(a, b)) == product
    _check_against_oracle(spec, a, b)
