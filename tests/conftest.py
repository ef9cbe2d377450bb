"""Shared helpers for the test suite: seeded random words and elements."""

import random

import pytest

import selflink as S


def random_word(rng, spec, max_len, gens=None):
    """A random group word of length at most max_len (before reduction)."""
    if gens is None:
        gens = S.all_generators(spec)
    w = S.identity(spec)
    for _ in range(rng.randint(0, max_len)):
        g = rng.choice(gens)
        if rng.random() < 0.5:
            g = S.invert(g)
        w = S.multiply(w, g)
    return w


def random_points(rng, spec, max_points, max_len):
    """Random signed double-point data."""
    out = []
    for _ in range(rng.randint(0, max_points)):
        sign = 1 if rng.random() < 0.5 else -1
        out.append((sign, random_word(rng, spec, max_len)))
    return tuple(out)


def random_ring_element(rng, ctx, max_terms, max_len):
    pairs = [(random_word(rng, ctx.spec, max_len), rng.choice([-2, -1, 1, 2]))
             for _ in range(rng.randint(0, max_terms))]
    return S.from_terms(ctx, pairs)


@pytest.fixture
def rng():
    return random.Random(20260823)


# Specs reused across property suites so the canonicalization cache pays off.
FREE2 = S.free("x", "y")
FREE3 = S.free("x", "y", "z")
AB1 = S.free_abelian("x")
AB2 = S.free_abelian("x", "y")
FXZ = S.free_times_z("x", "y", "z", "t")
PROD = S.free_product(S.free("x", "y"), S.free_abelian("z"))
PROD_FXZ = S.free_product(S.free_times_z("x", "y", "t"), S.free("u"), S.free_abelian("v", "w"))


ALL_SPECS = [FREE2, FREE3, AB1, AB2, FXZ]
