"""The indeterminacy action and the certified equality decision procedure."""

import random
import time

import pytest

import selflink as S
import selflink.cosets as R
import selflink.indeterminacy as I
import selflink.linking as L
from conftest import AB1, AB2, FREE2, random_word

CASES = 10000


# ---------------------------------------------------------------------------
# settings


def _unknot_phi():
    k = L.Knot("k", S.parse_word(FREE2, "x y"))
    return L.Knot, I.phi_conjugation_only(k)


def _abelian_setting(n, sphere_points):
    spec = AB1
    gamma = S.power(S.generator(spec, "x"), n)
    k = L.Knot(f"k{n}", gamma)
    tr = L.Trace(k, k, (), S.generator(spec, "x"))
    spheres = []
    if sphere_points is not None:
        pts = tuple((1, S.power(S.generator(spec, "x"), j)) for j in sphere_points)
        spheres.append(L.SphereData("s", pts))
    phi = I.build_phi(k, toroidal=[tr], spheres=spheres)
    ctx = R.coset_ring(spec, gamma)
    keys = sorted({R.canonicalize(ctx, S.power(S.generator(spec, "x"), j))
                   for j in range(1, n)} - {None}, key=repr)
    return phi, ctx, keys


def _rank2_setting(z_words):
    spec = AB2
    gamma = S.parse_word(spec, "x")
    k = L.Knot("k", gamma)
    ctx = R.coset_ring(spec, gamma)
    traces = []
    for lat_label, zw in zip(("x", "y"), z_words):
        pts = tuple((sign, S.parse_word(spec, w)) for sign, w in zw)
        traces.append(L.Trace(k, k, pts, S.generator(spec, lat_label)))
    phi = I.build_phi(k, toroidal=traces)
    return phi, ctx


# ---------------------------------------------------------------------------
# independent lattice-membership oracle (column Hermite reduction)


def _hnf_member(relations, target):
    """Is the sparse target vector an integer combination of the sparse
    relation vectors?  Independent of the package's Smith-normal-form code:
    works by Euclidean column reduction to a triangular basis."""
    keys = sorted({k for r in relations for k in r} | set(target), key=repr)
    if not keys:
        return True
    avail = [[r.get(k, 0) for k in keys] for r in relations]
    t = [target.get(k, 0) for k in keys]
    for row in range(len(keys)):
        while True:
            nz = sorted((c for c in avail if c[row]), key=lambda c: abs(c[row]))
            if len(nz) <= 1:
                break
            a, b = nz[0], nz[1]
            q = b[row] // a[row]
            for i in range(len(keys)):
                b[i] -= q * a[i]
        nz = [c for c in avail if c[row]]
        if nz:
            piv = nz[0]
            if t[row] % piv[row]:
                return False
            q = t[row] // piv[row]
            for i in range(len(keys)):
                t[i] -= q * piv[i]
            avail = [c for c in avail if c is not piv]
    return all(x == 0 for x in t)


def _sphere_relations(phi, ctx, n):
    """Definitional sphere-translate relations over coset representatives."""
    out = []
    for fam, _ in phi.sided_spheres:
        for j in range(n):
            g = S.power(S.generator(ctx.spec, "x"), j)
            pts = L.translate_points(g, fam.points)
            t = R.from_terms(ctx, [(p, s) for s, p in pts])
            out.append(dict(t.terms))
    return out


def test_hnf_oracle_self_check():
    assert _hnf_member([{"a": 2}, {"b": 3}], {"a": 4, "b": -3})
    assert not _hnf_member([{"a": 2}], {"a": 3})
    assert _hnf_member([], {})
    assert not _hnf_member([], {"a": 1})
    assert _hnf_member([{"a": 1, "b": 1}, {"a": 2, "b": 1}], {"a": 1})


# ---------------------------------------------------------------------------
# abelian decide vs dense brute force


def test_abelian_decide_matches_lattice_oracle():
    rng = random.Random(700)
    settings = []
    for n, pts in [(3, range(3)), (4, range(4)), (4, range(3)), (5, range(5)),
                   (6, (0, 2, 4)), (4, None)]:
        phi, ctx, keys = _abelian_setting(n, pts)
        rels = _sphere_relations(phi, ctx, n)
        settings.append((phi, ctx, keys, rels))
    count = 0
    while count < CASES:
        phi, ctx, keys, rels = rng.choice(settings)
        if not keys:
            continue
        y1 = R.from_terms(ctx, [(k, rng.randint(-5, 5)) for k in keys])
        y2 = R.from_terms(ctx, [(k, rng.randint(-5, 5)) for k in keys])
        res = I.decide_equal(y1, y2, phi)
        diff = dict(R.add(y1, R.negate(y2)).terms)
        want = "equal" if _hnf_member(rels, diff) else "distinct"
        assert res.verdict == want, (R.format_ring(y1), R.format_ring(y2), res.verdict, want)
        if res.verdict == "equal":
            assert I.replay(res.certificate, y1, y2)
        count += 1
    assert count == CASES


def test_rank2_toroidal_decide_matches_lattice_oracle():
    rng = random.Random(701)
    spec = AB2
    phi, ctx = _rank2_setting([
        [(1, "y"), (-1, "y^2")],
        [(1, "y^3")],
    ])
    rels = []
    for g in phi.toroidal:
        rels.append(dict(g.z.terms))
    key_words = ["y", "y^2", "y^3", "y^4"]
    for _ in range(2000):
        y1 = R.from_terms(ctx, [(S.parse_word(spec, w), rng.randint(-3, 3))
                                for w in key_words])
        y2 = R.from_terms(ctx, [(S.parse_word(spec, w), rng.randint(-3, 3))
                                for w in key_words])
        res = I.decide_equal(y1, y2, phi)
        diff = dict(R.add(y1, R.negate(y2)).terms)
        want = "equal" if _hnf_member(rels, diff) else "distinct"
        assert res.verdict == want
        if res.verdict == "equal":
            assert I.replay(res.certificate, y1, y2)


def test_abelian_certificate_over_labels_x_and_xA_is_pinned():
    """Keys [x], [xA] and [x xA] of the coset ring of x^2, which sort
    differently under other bracket reprs; both toroidal offsets are
    multiples of [x] + [xA] - [x xA], so the lattice combination is not
    unique, and the size-reduced one is pinned."""
    spec = S.free_abelian("x", "xA")
    k = L.Knot("k", S.parse_word(spec, "x^2"))
    pts = tuple((s, S.parse_word(spec, w)) for s, w in ((1, "x"), (1, "xA"), (-1, "x xA")))
    phi = I.build_phi(k, [L.Trace(k, k, pts * 2, S.generator(spec, "x")),
                          L.Trace(k, k, pts * 3, S.generator(spec, "xA"))])
    y1 = R.parse_ring(phi.context, "+2*[x] -1*[xA] +1*[x xA]")
    y2 = R.parse_ring(phi.context, "+1*[x] -2*[xA] +2*[x xA]")
    assert I.decide_equal(y1, y2, phi).to_record() == {
        "verdict": "equal",
        "certificate": {
            "steps": [{"gen": "toroidal[x]", "z": "+2*[x] +2*[xA] -2*[x xA]", "exponent": -1},
                      {"gen": "toroidal[xA]", "z": "+3*[x] +3*[xA] -3*[x xA]", "exponent": 1}],
            "conjugator": ["1"]}}


# ---------------------------------------------------------------------------
# the action itself


def test_act_inverse_round_trip():
    rng = random.Random(702)
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    phi = I.phi_conjugation_only(k)
    ctx = R.coset_ring(FREE2, gamma)
    gens = list(phi.toroidal)
    for _ in range(2000):
        y = R.from_terms(ctx, [(random_word(rng, FREE2, 4), rng.choice([-1, 1]))
                               for _ in range(rng.randint(0, 3))])
        g = rng.choice(gens)
        assert I.act_inverse(g, I.act(g, y)) == y
        assert I.act(g, I.act_inverse(g, y)) == y
        assert I.act(g.inverse(), y) == I.act_inverse(g, y)


def test_act_is_affine():
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    tr = L.Trace(k, k, ((1, S.parse_word(FREE2, "x")),), gamma)
    phi = I.build_phi(k, toroidal=[tr])
    ctx = R.coset_ring(FREE2, gamma)
    g = phi.toroidal[0]
    y = R.single(ctx, S.parse_word(FREE2, "y"))
    # z + phi y phi^-1
    want = R.add(g.z, R.conj_act(g.parts[0], y))
    assert I.act(g, y) == want


def test_act_link_round_trip():
    rng = random.Random(703)
    spec = AB1
    k1 = L.Knot("k1", S.parse_word(spec, "x^2"))
    k2 = L.Knot("k2", S.parse_word(spec, "x^4"))
    h1 = L.Trace(k1, k1, (), S.generator(spec, "x"))
    h2 = L.Trace(k2, k2, (), S.identity(spec))
    h2b = L.Trace(k2, k2, (), S.generator(spec, "x"))
    h1b = L.Trace(k1, k1, (), S.identity(spec))
    lt1 = L.LinkTrace(h1, h2, ((1, S.generator(spec, "x")),))
    lt2 = L.LinkTrace(h1b, h2b, ())
    phi = I.build_phi_link(k1, k2, toroidal1=[lt1], toroidal2=[lt2])
    ctx = R.two_sided_ring(spec, k1.gamma, k2.gamma)
    gens = list(phi.toroidal)
    for _ in range(1000):
        y = R.from_terms(ctx, [(S.power(S.generator(spec, "x"), rng.randint(-3, 3)),
                                rng.choice([-1, 1]))
                               for _ in range(rng.randint(0, 3))])
        g = rng.choice(gens)
        assert I.act_inverse(g, I.act(g, y)) == y
        assert I.act(g, I.act_inverse(g, y)) == y
        assert I.act(g.inverse(), y) == I.act_inverse(g, y)


# ---------------------------------------------------------------------------
# construction validation


def test_build_phi_latitude_mismatch():
    from selflink import LatitudeMismatch
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    wrong = L.Trace(k, k, (), S.identity(FREE2))  # latitude 1, not the gen
    with pytest.raises(LatitudeMismatch):
        I.build_phi(k, toroidal=[wrong])
    with pytest.raises(LatitudeMismatch):
        I.build_phi(k, toroidal=[])  # one trace per zeta generator required


def test_build_phi_not_self_trace():
    from selflink import NotSelfTrace
    gamma = S.parse_word(FREE2, "x y")
    ka = L.Knot("a", gamma)
    kb = L.Knot("b", gamma)
    tr = L.Trace(ka, kb, (), gamma)
    with pytest.raises(NotSelfTrace):
        I.build_phi(ka, toroidal=[tr])


def test_is_spherical_presented():
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    assert I.is_spherical_presented(I.phi_conjugation_only(k))
    tr = L.Trace(k, k, ((1, S.parse_word(FREE2, "x")),), gamma)
    assert not I.is_spherical_presented(I.build_phi(k, toroidal=[tr]))


# ---------------------------------------------------------------------------
# decision integrity


def _bounds_ladder():
    return [I.Bounds(depth=2, translate_len=2, support_len=8, max_states=2000),
            I.Bounds(depth=4, translate_len=4, support_len=12, max_states=10000),
            I.Bounds()]


def test_reflexive_is_equal_with_empty_certificate():
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    phi = I.phi_conjugation_only(k)
    ctx = R.coset_ring(FREE2, gamma)
    y = R.parse_ring(ctx, "+1*[x] -1*[y]")
    res = I.decide_equal(y, y, phi)
    assert res.verdict == "equal"
    assert res.certificate.steps == ()
    assert I.replay(res.certificate, y, y)


def test_monotone_verdicts_across_bounds():
    rng = random.Random(704)
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    phi = I.phi_conjugation_only(k)
    ctx = R.coset_ring(FREE2, gamma)
    for _ in range(40):
        y1 = R.from_terms(ctx, [(random_word(rng, FREE2, 3), rng.choice([-1, 1]))
                                for _ in range(rng.randint(0, 2))])
        y2 = R.from_terms(ctx, [(random_word(rng, FREE2, 3), rng.choice([-1, 1]))
                                for _ in range(rng.randint(0, 2))])
        verdicts = [I.decide_equal(y1, y2, phi, b).verdict for b in _bounds_ladder()]
        settled = {v for v in verdicts if v != "unknown"}
        assert len(settled) <= 1  # never both equal and distinct
        # once settled, larger bounds do not regress to unknown
        seen = None
        for v in verdicts:
            if seen is not None:
                assert v == seen
            elif v != "unknown":
                seen = v


def test_equal_certificates_always_replay():
    """y1 is y2 moved by one or two generators of Phi (the toroidal
    generator of a trace with double points, or a translate of the unlink
    sphere), so the decision has to find the moves in the orbit search."""
    rng = random.Random(706)
    gamma = S.parse_word(FREE2, "x^2 y")
    k = L.Knot("k", gamma)
    points = ((1, S.parse_word(FREE2, "x")), (-1, S.parse_word(FREE2, "y x")))
    sphere = L.sphere_for_unlink_complement(gamma)
    phi = I.build_phi(k, [L.Trace(k, k, points, gamma)], [sphere])
    ctx = phi.context
    draws = 100
    moved = 0
    for _ in range(draws):
        y2 = R.from_terms(ctx, [(random_word(rng, FREE2, 3), rng.choice([-1, 1]))
                                for _ in range(rng.randint(0, 2))])
        y1 = y2
        for _ in range(rng.randint(1, 2)):
            if rng.random() < 0.5:
                y1 = I._step(phi.toroidal[0], rng.choice([-1, 1]), y1)
            else:
                z = I._sphere_element(ctx, random_word(rng, FREE2, 2), sphere.points)
                y1 = R.add(y1, z if rng.random() < 0.5 else R.negate(z))
        if y1 == y2:
            continue
        moved += 1
        res = I.decide_equal(y1, y2, phi)
        assert res.verdict == "equal"
        assert res.certificate.steps
        assert I.replay(res.certificate, y1, y2)
    assert moved >= 0.8 * draws


def test_distinct_separator_recomputes():
    import selflink.separators as SEP
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    phi = I.phi_conjugation_only(k)
    ctx = R.coset_ring(FREE2, gamma)
    y1 = R.parse_ring(ctx, "+1*[x]")
    y2 = R.parse_ring(ctx, "+3*[x]")
    res = I.decide_equal(y1, y2, phi)
    assert res.verdict == "distinct"
    assert res.separator is not None
    by_name = {s.name: s for s in SEP.default_separator_suite(FREE2)}
    if res.separator in by_name:
        sep = by_name[res.separator]
        assert SEP.push_forward(sep, y1) != SEP.push_forward(sep, y2)


def test_replay_rejects_wrong_certificate():
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    phi = I.phi_conjugation_only(k)
    ctx = R.coset_ring(FREE2, gamma)
    y1 = R.parse_ring(ctx, "+1*[x]")
    y2 = R.parse_ring(ctx, "+2*[x]")
    res = I.decide_equal(y1, y1, phi)
    assert not I.replay(res.certificate, y1, y2)


def test_failed_replay_is_an_invariant_violation(monkeypatch):
    from selflink import InvariantViolation
    phi_ab, ctx_ab, _ = _abelian_setting(3, range(3))
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    phi = I.build_phi(k, [L.Trace(k, k, ((1, S.parse_word(FREE2, "x")),), gamma)])
    y = R.parse_ring(phi.context, "+1*[y]")
    cases = [  # one Equal of the lattice decision, one of the orbit search
        (R.parse_ring(ctx_ab, "+1*[x]"), R.parse_ring(ctx_ab, "+3*[x]"), phi_ab),
        (I.act(phi.toroidal[0], y), y, phi),
    ]
    for y1, y2, phi in cases:
        assert I.decide_equal(y1, y2, phi).verdict == "equal"
    monkeypatch.setattr(I, "replay", lambda cert, y1, y2: False)
    for y1, y2, phi in cases:
        with pytest.raises(InvariantViolation, match="failed to replay"):
            I.decide_equal(y1, y2, phi)


# ---------------------------------------------------------------------------
# link decisions


def _link_setting():
    spec = AB1
    k1 = L.Knot("k1", S.parse_word(spec, "x^2"))
    k2 = L.Knot("k2", S.parse_word(spec, "x^4"))
    one = S.identity(spec)
    x = S.generator(spec, "x")
    lt1 = L.LinkTrace(L.Trace(k1, k1, (), x), L.Trace(k2, k2, (), one))
    lt2 = L.LinkTrace(L.Trace(k1, k1, (), one), L.Trace(k2, k2, (), x))
    phi = I.build_phi_link(k1, k2, toroidal1=[lt1], toroidal2=[lt2])
    return phi, R.two_sided_ring(spec, k1.gamma, k2.gamma)


def test_link_decide_shift_equivalence():
    phi, ctx = _link_setting()
    y1 = R.parse_ring(ctx, "+1*[x]")
    y2 = R.parse_ring(ctx, "+1*[1]")
    res = I.decide_equal_link(y1, y2, phi)
    assert res.verdict == "equal"
    assert I.replay(res.certificate, y1, y2)
    res2 = I.decide_equal_link(y1, R.parse_ring(ctx, "+2*[x]"), phi)
    assert res2.verdict == "distinct"


def test_link_decide_monotone():
    phi, ctx = _link_setting()
    pairs = [("+1*[x]", "+1*[1]"), ("+1*[x]", "+2*[x]"), ("0", "0"),
             ("+1*[x] +1*[1]", "+2*[1]")]
    for a, b in pairs:
        y1 = R.parse_ring(ctx, a)
        y2 = R.parse_ring(ctx, b)
        verdicts = [I.decide_equal_link(y1, y2, phi, bd).verdict
                    for bd in _bounds_ladder()]
        settled = {v for v in verdicts if v != "unknown"}
        assert len(settled) <= 1


# ---------------------------------------------------------------------------
# link decisions in a free group: the two-sided orbit search and separators


def _free_link_phi(cross=True):
    """Knots x y and x^2 y in the unlink complement, a toroidal link trace
    per component and an unlink sphere translated on each side."""
    from selflink.scenario import parse_scenario
    c1, c2 = (" cross ( + x )", " cross ( - y )") if cross else ("", "")
    scn = parse_scenario(
        "group free x y\nknot k1 = x y\nknot k2 = x^2 y\n"
        "trace a1 : k1 -> k1 latitude x y\ntrace a0 : k1 -> k1 latitude 1\n"
        "trace b1 : k2 -> k2 latitude x^2 y\ntrace b0 : k2 -> k2 latitude 1\n"
        f"linktrace l1 : a1 b0{c1}\nlinktrace l2 : a0 b1{c2}\n"
        "sphere s1 unlink k1\nsphere s2 unlink k2\n"
        "philink P knots k1 k2 toroidal1 l1 toroidal2 l2 left s1 right s2\n")
    return scn.phis["P"]


def _free_link_move(phi, move, y):
    ctx = phi.context
    t = S.parse_word(ctx.spec, "y")
    if move == "toroidal1":
        return I.act(phi.toroidal[0], y)
    if move == "toroidal2-inverse":
        return I.act_inverse(phi.toroidal[1], y)
    (left, _), (right, _) = phi.sided_spheres
    if move == "left-sphere":
        pts = left.points
        return R.add(y, R.from_terms(ctx, [(S.multiply(t, p), s) for s, p in pts]))
    pts = right.points
    return R.add(y, R.from_terms(ctx, [(S.multiply(p, t), s) for s, p in pts]))


# the sphere moves translate by y: at x the left and right translates of
# these two spheres coincide, and the right family would go untested
@pytest.mark.parametrize("move, family, direction", [
    ("toroidal1", "toroidal1", 1),
    ("toroidal2-inverse", "toroidal2", -1),
    ("left-sphere", "spherical[s1]", 1),
    ("right-sphere", "spherical[s2]", 1),
])
def test_free_link_search_certifies_one_move(move, family, direction):
    phi = _free_link_phi()
    y2 = R.parse_ring(phi.context, "+1*[y]")
    y1 = _free_link_move(phi, move, y2)
    assert y1 != y2
    res = I.decide_equal_link(y1, y2, phi)
    assert res.verdict == "equal"
    assert len(res.certificate.conjugator) == 2
    assert I.replay(res.certificate, y1, y2)
    (gen, d), = res.certificate.steps
    assert family in gen.provenance and d == direction


def test_free_link_separator_distinct():
    phi = _free_link_phi(cross=False)
    y1 = R.parse_ring(phi.context, "+1*[y]")
    y2 = R.parse_ring(phi.context, "+2*[y]")
    res = I.decide_equal_link(y1, y2, phi)
    assert (res.verdict, res.separator) == ("distinct", "mod2")
    assert res.values == ((((0, 0), 1),), (((0, 0), 2),))


# ---------------------------------------------------------------------------
# exponent certificates


def _moving_gens():
    """A knot and a link generator (z, p) whose p moves z, so that their
    powers go through the doubling: gamma = (x y)^2 with p = x y, and the
    link sides (x y)^2, y^2 with p = (x y, y)."""
    xy, y = S.parse_word(FREE2, "x y"), S.parse_word(FREE2, "y")
    gamma = S.power(xy, 2)
    k = L.Knot("k", gamma)
    pts = ((1, S.parse_word(FREE2, "x")), (-1, S.parse_word(FREE2, "y^2")))
    knot = I.build_phi(k, [L.Trace(k, k, pts, xy)]).toroidal[0]
    ctx = R.two_sided_ring(FREE2, gamma, S.power(y, 2))
    link = I.PhiGen(R.parse_ring(ctx, "+1*[x] -1*[y x]"), (xy, y), "link")
    return {"knot": knot, "link": link}


@pytest.mark.parametrize("which", ["knot", "link"])
def test_power_step_equals_unit_steps(which):
    """gen^k applied at once (doubling) equals k unit steps."""
    rng = random.Random(704)
    gen = _moving_gens()[which]
    assert I._outer(gen.parts, gen.z) != gen.z
    ctx = gen.z.context
    for _ in range(5):
        y = R.from_terms(ctx, [(random_word(rng, FREE2, 3), rng.choice([-1, 1]))
                               for _ in range(rng.randint(0, 3))])
        for k in range(-6, 7):
            unit = y
            for _ in range(abs(k)):
                unit = I._step(gen, 1 if k > 0 else -1, unit)
            assert I._step(gen, k, y) == unit, k
            cert = I.Certificate(((gen, k),), (S.identity(FREE2),) * len(gen.parts))
            assert I.replay(cert, unit, y)


def test_replay_of_a_huge_exponent_is_fast():
    phi, ctx, _ = _abelian_setting(5, None)
    k = phi.knots[0]
    x = S.generator(AB1, "x")
    tr = L.Trace(k, k, ((1, x), (-1, S.power(x, 2)), (1, x)), x)
    gen = I.build_phi(k, [tr]).toroidal[0]
    y2 = R.parse_ring(ctx, "+1*[x] -3*[x^2]")
    y1 = R.add(y2, R.scale(10 ** 12, gen.z))
    cert = I.Certificate(((gen, 10 ** 12),), (S.identity(AB1),))
    t0 = time.perf_counter()
    assert I.replay(cert, y1, y2)
    assert not I.replay(cert, y2, y1)
    assert time.perf_counter() - t0 < 0.1


def _even_points(rng, n, count):
    """count signed points x^a, 0 <= a < n, with an even exponent sum."""
    while True:
        pts = [(rng.choice((1, -1)), rng.randrange(n)) for _ in range(count)]
        if sum(a for _, a in pts) % 2 == 0:
            return [(s, S.power(S.generator(AB1, "x"), a)) for s, a in pts]


@pytest.mark.parametrize("n", [16, 24, 32, 40])
def test_rank1_sphere_scenarios_decide_with_small_certificates(n):
    """Knot x^n with one toroidal trace and one sphere.  The map
    x^a -> a mod 2 is well defined on the classes (n is even, and the
    dropped class is x^0).  It kills the toroidal offset and every sphere
    translate (even exponent sums, an even number of sphere points), so an
    offset of odd parity is Distinct; a combination of relations is Equal,
    with at most one step per lattice generator."""
    rng = random.Random(705 + n)
    x = S.generator(AB1, "x")
    k = L.Knot("k", S.power(x, n))
    lat = _even_points(rng, n, 3)
    sph = _even_points(rng, n, n // 2)      # an even number of points
    phi = I.build_phi(k, [L.Trace(k, k, tuple(lat), x)],
                      spheres=[L.SphereData("s", tuple(sph))])
    ctx = phi.context
    rels = [phi.toroidal[0].z] + [
        R.from_terms(ctx, [(S.multiply(S.power(x, t), p), s) for s, p in sph])
        for t in range(n)]
    n_gens = len(I._abelian_lattice(phi)[0])
    for q in range(6):
        y2 = R.from_terms(ctx, [(S.power(x, rng.randrange(n)), rng.randint(-3, 3))
                                for _ in range(4)])
        y1 = y2
        for _ in range(5):
            y1 = R.add(y1, R.scale(rng.randint(-50, 50), rng.choice(rels)))
        if q % 2:
            y1 = R.add(y1, R.single(ctx, S.power(x, 2 * rng.randrange(n // 2) + 1)))
        res = I.decide_equal(y1, y2, phi)
        if q % 2:
            assert (res.verdict, res.separator) == ("distinct", "abelian-lattice")
            continue
        assert res.verdict == "equal"
        steps = res.certificate.steps
        assert len(steps) <= n_gens
        assert len({g.provenance for g, _ in steps}) == len(steps)
        assert all(e and len(str(abs(e))) <= 20 for _, e in steps)
        assert I.replay(res.certificate, y1, y2)
