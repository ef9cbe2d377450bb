"""The indeterminacy action and the certified equality decision procedure."""

import functools
import itertools
import pathlib
import random
import sys
import time

import pytest

import selflink as S
import selflink.cosets as R
import selflink.indeterminacy as I
import selflink.linking as L
import selflink.scenario as SC
import selflink.separators as SEP
from conftest import AB1, AB2, FREE2, FXZ, PROD, PROD_FXZ, random_word

sys.path.insert(0, str(pathlib.Path(__file__).parents[1] / "bench"))

import gen  # noqa: E402

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


LINK_LATTICE_SCN = """\
group abelian x
knot k1 = x^2
knot k2 = x^4
trace a1 : k1 -> k1 latitude x
trace a2 : k2 -> k2 latitude 1
trace b1 : k1 -> k1 latitude 1
trace b2 : k2 -> k2 latitude x
linktrace lt1 : a1 a2
linktrace lt2 : b1 b2 cross ( + 1 ) ( + 1 ) ( + x ) ( + x )
sphere s points ( + 1 ) ( + 1 )
philink PL knots k1 k2 toroidal1 lt1 toroidal2 lt2 right s
"""


def test_link_abelian_certificate_is_pinned():
    """A link's lattice decision: the class keys form Z/2, the outer
    biaction (x, 1) shifts them, and the relations are every shift of the
    toroidal offset and of the sphere.  The Equal certificate names the
    shifted generators and compensates the conjugator x on their offsets."""
    scn = S.parse_scenario(LINK_LATTICE_SCN)

    def decide(a, b):
        return S.execute_query(scn, ["decide", a, b, "PL"], I.Bounds())

    assert decide("+4*[1] +3*[x]", "+1*[1]") == {
        "command": "decide", "args": ["+4*[1] +3*[x]", "+1*[1]", "PL"],
        "verdict": "equal",
        "certificate": {
            "steps": [{"gen": "shift[toroidal2[x],1]", "z": "+2*[1] +2*[x]",
                       "exponent": 1},
                      {"gen": "shift[spherical[s],1]", "z": "+2*[x]",
                       "exponent": 1}],
            "conjugator": ["x", "1"]}}
    assert decide("+3*[1] +3*[x]", "+1*[1]") == {
        "command": "decide", "args": ["+3*[1] +3*[x]", "+1*[1]", "PL"],
        "verdict": "distinct", "separator": "abelian-lattice",
        "values": ["'+3*[1] +3*[x]'", "'+1*[1]'"]}


def test_abelian_certificate_steps_are_pure():
    """Every step of an abelian-lattice certificate is a pure generator
    (z, 1), a knot's toroidal step included, so replaying it never
    conjugates."""
    x = S.generator(AB1, "x")
    k = L.Knot("k", S.power(x, 6))
    tr = L.Trace(k, k, ((1, x), (-1, S.power(x, 2))), x)
    sphere = L.SphereData("s", ((1, x), (1, S.power(x, 3))))
    phi = I.build_phi(k, [tr], [sphere])
    y2 = R.parse_ring(phi.context, "+1*[x]")
    # [x] - [x^2] needs the toroidal generator: the sphere translates span
    # [x] + [x^3], 2 [x] and [x^2]
    y1 = R.add(y2, R.scale(3, phi.toroidal[0].z))
    knot_cert = I.decide_equal(y1, y2, phi).certificate
    assert "toroidal[x]" in [g.provenance for g, _ in knot_cert.steps]
    scn = S.parse_scenario(LINK_LATTICE_SCN)
    ctx = scn.phis["PL"].context
    link_cert = I.decide_equal(R.parse_ring(ctx, "+4*[1] +3*[x]"), R.parse_ring(ctx, "+1*[1]"),
                               scn.phis["PL"]).certificate
    for cert in (knot_cert, link_cert):
        assert cert.steps
        for gen, _ in cert.steps:
            assert len(gen.parts) == len(cert.conjugator)
            assert all(S.is_identity(p) for p in gen.parts), gen.provenance


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


def test_build_phi_link_validation():
    """Each link trace is checked component by component: a self-trace of
    its knot with latitude (zeta, 1) or (1, zeta), one per centralizer
    generator of its factor."""
    from selflink import LatitudeMismatch, NotSelfTrace
    x, one = S.generator(AB1, "x"), S.identity(AB1)
    k1, k2 = L.Knot("k1", S.power(x, 2)), L.Knot("k2", S.power(x, 4))
    lt1 = L.LinkTrace(L.Trace(k1, k1, (), x), L.Trace(k2, k2, (), one))
    lt2 = L.LinkTrace(L.Trace(k1, k1, (), one), L.Trace(k2, k2, (), x))
    assert len(I.build_phi_link(k1, k2, [lt1], [lt2]).toroidal) == 2
    other = L.Knot("k3", S.power(x, 4))
    crossing = L.LinkTrace(L.Trace(k1, k1, (), one), L.Trace(other, k2, (), x))
    with pytest.raises(NotSelfTrace, match="toroidal2 trace 'k3'->'k2'"):
        I.build_phi_link(k1, k2, [lt1], [crossing])
    both = L.LinkTrace(L.Trace(k1, k1, (), x), L.Trace(k2, k2, (), x))
    with pytest.raises(LatitudeMismatch, match="toroidal1 trace latitude x"):
        I.build_phi_link(k1, k2, [both], [lt2])
    with pytest.raises(LatitudeMismatch, match="toroidal2 trace latitude x does not match 1"):
        I.build_phi_link(k1, k2, [lt1], [lt1])
    for t1, t2 in (([lt1], []), ([lt1, lt1], [lt2]), ([], [])):
        with pytest.raises(LatitudeMismatch, match="per centralizer generator"):
            I.build_phi_link(k1, k2, t1, t2)


def test_is_spherical_presented():
    gamma = S.parse_word(FREE2, "x y")
    k = L.Knot("k", gamma)
    assert I.is_spherical_presented(I.phi_conjugation_only(k))
    tr = L.Trace(k, k, ((1, S.parse_word(FREE2, "x")),), gamma)
    assert not I.is_spherical_presented(I.build_phi(k, toroidal=[tr]))


# ---------------------------------------------------------------------------
# decision integrity


def _bounds_ladder():
    return [I.Bounds(depth=2, support_len=8, max_states=2000),
            I.Bounds(depth=4, support_len=12, max_states=10000),
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


def test_sign_flip_is_a_support_multiset_distinct():
    """Pure conjugation keeps every coefficient, sign included, so negating
    a value whose signed coefficients are not symmetric leaves its orbit:
    fz_nonspherical's P0 decides it at once, where the abelianization hits
    and the search would exhaust its depth."""
    from importlib import resources
    from selflink.scenario import parse_scenario
    text = resources.files("selflink").joinpath("scenarios/fz_nonspherical.scn").read_text()
    phi = parse_scenario(text).phis["P0"]
    y1 = R.parse_ring(phi.context, "+2*[x] -1*[y x y^-1] -1*[z x z^-1]")
    t0 = time.perf_counter()
    res = I.decide_equal(y1, R.negate(y1), phi)
    assert time.perf_counter() - t0 < 1.0
    assert (res.verdict, res.separator) == ("distinct", "support-multiset")
    assert res.values == ((-1, -1, 2), (-2, 1, 1))


# knots and links whose centralizers move classes: proper powers, and
# central classes of free x Z, whose centralizer is the whole group
_CONJUGATION_KNOTS = {
    "free2": (FREE2, ["x y x y", "x^2", "x^2 y x^2 y"], [("x^2", "y^2"), ("x y x y", "x^3")]),
    "free_times_z": (FXZ, ["t", "t^2", "x y x y t"], [("x^2 t", "y^2"), ("x y x y t", "y^3")]),
    "product": (PROD, ["z^2", "x y x y", "z^3"], [("z^2", "x y x y"), ("z^2", "x^2")]),
}


def _pure_conjugation_presentation(rng, spec, knots, links, link):
    """phi_conjugation_only of a knot, or a link whose traces have no double
    points: every generator is (0, parts)."""
    if not link:
        return I.phi_conjugation_only(L.Knot("k", S.parse_word(spec, rng.choice(knots))))
    k1, k2 = (L.Knot(f"k{i}", S.parse_word(spec, w)) for i, w in enumerate(rng.choice(links)))
    one = S.identity(spec)
    t1 = [L.LinkTrace(L.Trace(k1, k1, (), z), L.Trace(k2, k2, (), one), ())
          for z in S.centralizer_generators(spec, k1.gamma)]
    t2 = [L.LinkTrace(L.Trace(k1, k1, (), one), L.Trace(k2, k2, (), z), ())
          for z in S.centralizer_generators(spec, k2.gamma)]
    return I.build_phi_link(k1, k2, t1, t2)


@pytest.mark.parametrize("family", _CONJUGATION_KNOTS)
def test_signed_multisets_agree_on_search_equal_pairs(family):
    """On seeded pure-conjugation presentations, a pair that the search
    certifies Equal has equal signed coefficient multisets: the
    support-multiset Distinct never contradicts the search."""
    spec, knots, links = _CONJUGATION_KNOTS[family]
    rng = random.Random(1515)
    bounds = I.Bounds(depth=2, max_states=2000)
    moved = 0
    for i in range(16):
        phi = _pure_conjugation_presentation(rng, spec, knots, links, link=i % 2 == 1)
        assert I.is_spherical_presented(phi) and not phi.sided_spheres
        y2 = R.from_terms(phi.context, [(random_word(rng, spec, 3), rng.choice((-2, -1, 1, 2)))
                                        for _ in range(rng.randint(2, 3))])
        y1 = I._step(rng.choice(phi.toroidal), rng.choice((1, -1)), y2)
        cert = I._OrbitSearch(phi, bounds).run(y1, y2)
        assert cert is not None and I.replay(cert, y1, y2)
        assert sorted(c for _, c in y1.terms) == sorted(c for _, c in y2.terms)
        assert I.decide_equal(y1, y2, phi, bounds).verdict == "equal"
        moved += y1 != y2
    assert moved >= 12


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
    res = I.decide_equal(y1, y2, phi)
    assert res.verdict == "equal"
    assert I.replay(res.certificate, y1, y2)
    res2 = I.decide_equal(y1, R.parse_ring(ctx, "+2*[x]"), phi)
    assert res2.verdict == "distinct"


def test_link_decide_monotone():
    phi, ctx = _link_setting()
    pairs = [("+1*[x]", "+1*[1]"), ("+1*[x]", "+2*[x]"), ("0", "0"),
             ("+1*[x] +1*[1]", "+2*[1]")]
    for a, b in pairs:
        y1 = R.parse_ring(ctx, a)
        y2 = R.parse_ring(ctx, b)
        verdicts = [I.decide_equal(y1, y2, phi, bd).verdict
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
    res = I.decide_equal(y1, y2, phi)
    assert res.verdict == "equal"
    assert len(res.certificate.conjugator) == 2
    assert I.replay(res.certificate, y1, y2)
    (gen, d), = res.certificate.steps
    assert family in gen.provenance and d == direction


def test_free_link_separator_distinct():
    phi = _free_link_phi(cross=False)
    y1 = R.parse_ring(phi.context, "+1*[y]")
    y2 = R.parse_ring(phi.context, "+2*[y]")
    res = I.decide_equal(y1, y2, phi)
    assert (res.verdict, res.separator) == ("distinct", "mod2")
    assert res.values == ((((0, 0), 1),), (((0, 0), 2),))


TWO_SPHERES_SCN = """\
group free x y
knot k = x y
trace lat : k -> k latitude x y
sphere s1 points ( + 1 ) ( - y )
sphere s2 points ( + 1 ) ( - x^2 )
phi P knot k toroidal lat spheres s1 s2
phi Q knot k toroidal lat spheres s2
"""


X14_SCN = """\
group abelian x y
knot k = y
trace lx : k -> k latitude x
trace ly : k -> k latitude y
sphere s points ( + 1 ) ( - x^2 )
phi P knot k toroidal lx ly spheres s
"""


def test_long_goal_translates_reach_an_equal_at_default_bounds():
    """The key group Z^2/<y> is infinite, so the search decides, and [x^14]
    reaches [x^2] by six sphere translates, the longest x^12 aligned with
    the key x^14: Equal at default bounds, with a certificate that
    replays."""
    scn = SC.parse_scenario(X14_SCN)
    phi = scn.phis["P"]
    y1, y2 = (R.parse_ring(phi.context, v) for v in ("+1*[x^14]", "+1*[x^2]"))
    res = I.decide_equal(y1, y2, phi, I.Bounds())
    assert res.verdict == "equal"
    assert len(res.certificate.steps) == 6
    assert I.replay(res.certificate, y1, y2)


def test_a_second_sphere_keeps_its_aligned_translates():
    """P's orbit contains Q's, as P has Q's sphere s2 and one more: every
    translate t.s2 that Q certifies Equal to 0 at depth 2, P certifies too.
    Both spheres align translates with the same words t, and the search
    must not take s2's for s1's."""
    from selflink.scenario import parse_scenario
    scn = parse_scenario(TWO_SPHERES_SCN)
    P, Q = scn.phis["P"], scn.phis["Q"]
    ctx, s2 = P.context, scn.spheres["s2"]
    letters = [g for x in S.all_generators(ctx.spec) for g in (x, S.invert(x))]
    words = {functools.reduce(S.multiply, w) for n in range(1, 5)
             for w in itertools.product(letters, repeat=n)}
    words = sorted((t for t in words if 1 <= t.length() <= 4), key=repr)
    assert len(words) == 160
    bounds, zero, equal = I.Bounds(depth=2), R.zero(ctx), 0
    for t in words:
        y = R.from_terms(ctx, [(S.multiply(t, p), s) for s, p in s2.points])
        if not y or I.decide_equal(y, zero, Q, bounds).verdict != "equal":
            continue
        res = I.decide_equal(y, zero, P, bounds)
        assert res.verdict == "equal", t
        assert I.replay(res.certificate, y, zero)
        equal += 1
    assert equal == 157


# ---------------------------------------------------------------------------
# the separator stage: offsets and the suite


def _random_presentation(rng, spec, kind):
    """A random knot ("knot", "spheres": with one or two sphere families)
    or 2-component link ("link": with a sphere family on each side half the
    time), with one random trace per centralizer generator.  Sphere points
    come in pairs of opposite signs, so that sphere relations do not span
    every pushed class."""
    one = S.identity(spec)

    def points(count):
        return tuple((rng.choice((1, -1)), random_word(rng, spec, 3))
                     for _ in range(rng.randint(0, count)))

    def knot(label):
        while True:
            gamma = random_word(rng, spec, 4)
            if not S.is_identity(gamma):
                return L.Knot(label, gamma)

    def zetas(k):
        return S.centralizer_generators(spec, k.gamma)

    def spheres(label, count):
        return [L.SphereData(f"{label}{i}", sum((((1, random_word(rng, spec, 3)),
                                                  (-1, random_word(rng, spec, 3)))
                                                 for _ in range(rng.randint(1, 2))), ()))
                for i in range(count)]

    if kind == "link":
        k1, k2 = knot("k1"), knot("k2")
        t1 = [L.LinkTrace(L.Trace(k1, k1, points(2), z), L.Trace(k2, k2, points(1), one),
                          points(2)) for z in zetas(k1)]
        t2 = [L.LinkTrace(L.Trace(k1, k1, points(1), one), L.Trace(k2, k2, points(2), z),
                          points(2)) for z in zetas(k2)]
        return I.build_phi_link(k1, k2, t1, t2, spheres("l", rng.randint(0, 1)),
                                spheres("r", rng.randint(0, 1)))
    k = knot("k")
    traces = [L.Trace(k, k, points(3), z) for z in zetas(k)]
    return I.build_phi(k, traces, spheres("s", rng.randint(1, 2) if kind == "spheres" else 0))


def _random_pair(rng, phi):
    """(y1, y2): y1 is y2 moved by one or two generators of Phi half the
    time, else a random value."""
    ctx = phi.context
    spec = ctx.spec

    def value():
        return R.from_terms(ctx, [(random_word(rng, spec, 3), rng.choice((-2, -1, 1, 2)))
                                  for _ in range(rng.randint(0, 3))])
    y2 = value()
    if rng.random() < 0.5:
        return value(), y2
    y1 = y2
    for _ in range(rng.randint(1, 2)):
        if phi.toroidal and (rng.random() < 0.6 or not phi.sided_spheres):
            y1 = I._step(rng.choice(phi.toroidal), rng.choice((1, -1)), y1)
        elif phi.sided_spheres:
            sph, right = rng.choice(phi.sided_spheres)
            z = I._sphere_element(ctx, random_word(rng, spec, 2), sph.points, right)
            y1 = R.add(y1, z if rng.random() < 0.5 else R.negate(z))
    return y1, y2


@pytest.mark.parametrize("spec", [FREE2, FXZ], ids=["free", "fxz"])
@pytest.mark.parametrize("kind", ["spheres", "link"])
def test_goal_translates_build_one_sphere_element_per_aligned_point(spec, kind, monkeypatch):
    """For every key a few searches met, _goal_translates builds one sphere
    element per (u, sphere, point) whose translate t = u p^-1 (p^-1 u on
    the right) has at most support_len letters, u the key or, in a
    one-sided ring, its inverse, and none for any other t; its generators
    are those elements' non-zero ones, in order.  The links have a sphere
    on each side; short support_len caps decide which translates pass."""
    rng = random.Random(2323)
    calls, element = [], I._sphere_element
    monkeypatch.setattr(I, "_sphere_element", lambda *a: calls.append(a) or element(*a))
    capped = 0
    for _ in range(3):
        phi = _random_presentation(rng, spec, kind)
        while kind == "link" and {r for _, r in phi.sided_spheres} != {False, True}:
            phi = _random_presentation(rng, spec, kind)
        for support_len in (4, 6, 16):
            search = I._OrbitSearch(phi, I.Bounds(depth=2, support_len=support_len))
            for _ in range(3):
                search.run(*_random_pair(rng, phi))
            for key in list(search.goals):
                search.goals.clear()
                calls.clear()
                got = search._goal_translates(key)
                aligned = [(S.multiply(S.invert(p), u) if right else S.multiply(u, S.invert(p)),
                            sph.points, right)
                           for u in ((key, S.invert(key)) if search.inverts else (key,))
                           for sph, right in phi.sided_spheres for _, p in sph.points]
                kept = [a for a in aligned if a[0].length() <= support_len]
                assert [a[1:] for a in calls] == kept
                assert [g.z for g in got] == [z for a in calls if (z := element(*a))]
                capped += len(kept) < len(aligned)
    assert capped


def test_goal_translates_longer_than_support_len_build_nothing(monkeypatch):
    """A key longer than support_len plus the longest sphere point aligns
    only translates over the cap, so it builds no sphere element."""
    scn = SC.parse_scenario(X14_SCN)
    phi = scn.phis["P"]
    longest = max(p.length() for sph, _ in phi.sided_spheres for _, p in sph.points)
    bounds = I.Bounds(support_len=8)
    search = I._OrbitSearch(phi, bounds)
    calls, element = [], I._sphere_element
    monkeypatch.setattr(I, "_sphere_element", lambda *a: calls.append(a) or element(*a))
    short = S.parse_word(phi.context.spec, "x^3")
    assert search._goal_translates(short) and calls
    calls.clear()
    key = S.parse_word(phi.context.spec, f"x^{bounds.support_len + longest + 1}")
    assert search._goal_translates(key) == []
    assert calls == []


def _check_contract(results, bounds):
    """Every Equal replays and every Unknown carries its bounds; the
    verdicts seen, as a set."""
    for y1, y2, res in results:
        if res.verdict == "equal":
            assert I.replay(res.certificate, y1, y2)
        if res.verdict == "unknown":
            assert res.bounds == bounds
    return {res.verdict for _, _, res in results}


def test_conjugated_toroidal_generators_stop_at_the_cap():
    """The link with sides x y t and t^3 in free x Z, one link trace per
    centralizer generator as _random_presentation builds them, has 29
    outer conjugators and 5 toroidal generators: 145 conjugated candidates,
    with more distinct actions than the link's cap of 60.  _by_action keeps
    the first 60 actions and stops there."""
    spec = S.free_times_z("x", "y", "t")
    rng = random.Random(15)
    one = S.identity(spec)

    def points(count):
        return tuple((rng.choice((1, -1)), random_word(rng, spec, 3))
                     for _ in range(rng.randint(0, count)))
    k1, k2 = L.Knot("k1", S.parse_word(spec, "x y t")), L.Knot("k2", S.parse_word(spec, "t^3"))
    t1 = [L.LinkTrace(L.Trace(k1, k1, points(2), z), L.Trace(k2, k2, points(1), one), points(2))
          for z in S.centralizer_generators(spec, k1.gamma)]
    t2 = [L.LinkTrace(L.Trace(k1, k1, points(1), one), L.Trace(k2, k2, points(2), z), points(2))
          for z in S.centralizer_generators(spec, k2.gamma)]
    phi = I.build_phi_link(k1, k2, t1, t2)
    ball, cap, _ = I._SIZES[2]
    assert len(I._conjugators(phi, *ball)) * len(phi.toroidal) == 145
    every = list(I._conjugated_toroidal(phi, ball, None).values())
    assert len(every) > cap == 60
    bounds = I.Bounds(depth=2)
    search = I._OrbitSearch(phi, bounds)
    phi._searches[bounds] = search
    assert [g for g in search.static.values() if g.provenance.startswith("conj[")] == every[:cap]
    pairs = [_random_pair(rng, phi) for _ in range(6)]
    verdicts = _check_contract([(y1, y2, I.decide_equal(y1, y2, phi, bounds))
                                for y1, y2 in pairs], bounds)
    assert "equal" in verdicts


def _max_states_2_results(monkeypatch):
    """Decisions at max_states 2 on seeded knots with spheres, with the
    goal memo's size after each _goal_translates call and, per search run,
    its result and whether some state stopped before its last neighbour."""
    rng = random.Random(2612)
    bounds = I.Bounds(max_states=2)
    sizes, runs, cut = [], [], []
    goal, neighbors, run = (I._OrbitSearch._goal_translates, I._OrbitSearch._neighbors,
                            I._OrbitSearch.run)

    def counting_goal(self, key):
        out = goal(self, key)
        sizes.append(len(self.goals))
        return out

    def watched_neighbors(self, y):
        done = False
        try:
            yield from neighbors(self, y)
            done = True
        finally:
            cut[-1] |= not done

    def watched_run(self, y1, y2):
        cut.append(False)
        cert = run(self, y1, y2)
        runs.append((cert, cut[-1]))
        return cert
    monkeypatch.setattr(I._OrbitSearch, "_goal_translates", counting_goal)
    monkeypatch.setattr(I._OrbitSearch, "_neighbors", watched_neighbors)
    monkeypatch.setattr(I._OrbitSearch, "run", watched_run)
    results = []
    for spec in (FREE2, FXZ):
        for _ in range(3):
            phi = _random_presentation(rng, spec, "spheres")
            for _ in range(3):
                y1, y2 = _random_pair(rng, phi)
                results.append((y1, y2, I.decide_equal(y1, y2, phi, bounds)))
    return bounds, results, sizes, runs


def test_goal_memo_resets_past_max_states(monkeypatch):
    """At max_states 2 the searches meet more than 3 class keys, and the
    goal memo is cleared whenever it holds more than 2, so it never holds
    more than 3."""
    bounds, results, sizes, _ = _max_states_2_results(monkeypatch)
    assert max(sizes) == 3
    assert any(b < a for a, b in zip(sizes, sizes[1:]))
    assert {"equal", "unknown"} <= _check_contract(results, bounds)


def test_search_stops_a_state_at_max_states(monkeypatch):
    """At max_states 2 a run that finds no certificate stops expanding a
    state before its last neighbour: only the max_states break can, since
    the other break needs a meet."""
    bounds, results, _, runs = _max_states_2_results(monkeypatch)
    assert any(cert is None and cut for cert, cut in runs)
    assert {"equal", "unknown"} <= _check_contract(results, bounds)


def _orbit_hit(phi, sep, pc, offsets, y1, y2):
    """The orbit lattice's hit for y1 and y2 in sep's image over the given
    offsets: a turn with its pushed context and offsets set on the
    instance builds its relations, then scans its shifts."""
    turn = I._Turn(phi, sep)
    turn.pc, turn.offsets = pc, offsets
    return turn.hit(y1, y2)


@pytest.mark.parametrize("spec", [FREE2, S.free_times_z("x", "y", "t"), PROD],
                         ids=["free2", "free_times_z", "product"])
def test_orbit_lattice_over_offsets_matches_all_target_elements(spec):
    """On links and knots with spheres, a finite separator's orbit lattice
    hits over its offsets (one per class of the target modulo the side
    images) exactly when it hits over every target element."""
    rng = random.Random(707)
    hits = misses = 0
    moduli = range(2, 13) if len(spec.labels) == 2 else range(2, 6)
    for case in range(24):
        phi = _random_presentation(rng, spec, ("link", "spheres")[case % 2])
        y1, y2 = _random_pair(rng, phi)
        for m in moduli:
            sep = SEP.cyclic_separator(spec, m)
            pc = SEP.PushedContext(sep, phi.context)
            every = list(itertools.product(range(m), repeat=sep.dim))
            hit = _orbit_hit(phi, sep, pc, every, y1, y2) is not None
            assert (_orbit_hit(phi, sep, pc, pc.offsets(), y1, y2) is not None) == hit
            hits += hit
            misses += not hit
    assert hits >= 10 and misses >= 10


@pytest.mark.parametrize("spec", [FREE2, FXZ, PROD, AB2],
                         ids=["free2", "free_times_z", "product", "ab2"])
def test_modn_separators_hit_where_the_abelianization_hits(spec):
    """A knot without spheres enumerates no offsets, and the lattice stage
    runs only the abelianization: wherever its orbit lattice hits at offset
    0, every `modN` lattice hits too, so no `modN` separator could decide."""
    rng = random.Random(708)
    hits = 0
    for _ in range(30):
        phi = _random_presentation(rng, spec, "knot")
        y1, y2 = _random_pair(rng, phi)
        suite = SEP.default_separator_suite(spec)
        found = [_orbit_hit(phi, sep, SEP.PushedContext(sep, phi.context), [(0,) * sep.dim],
                            y1, y2) is not None for sep in suite]
        if found[0]:
            hits += 1
            assert all(found)
    assert hits >= 10


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


def test_pure_power_is_one_scale(monkeypatch):
    """A pure generator (z, 1) to the k is (k z, 1), built without a
    group product, and acts as k unit steps."""
    rng = random.Random(2324)
    ctx = R.coset_ring(FREE2, S.parse_word(FREE2, "x y"))
    gen = I.PhiGen(R.parse_ring(ctx, "+1*[x] -2*[y^2 x]"), (S.identity(FREE2),), "pure")
    ys = [R.from_terms(ctx, [(random_word(rng, FREE2, 3), rng.choice([-1, 1]))
                             for _ in range(rng.randint(0, 3))]) for _ in range(3)]
    for k in (-7, -2, 2, 5, 10 ** 30):
        for y in ys:
            assert I._step(gen, k, y) == R.add(R.scale(k, gen.z), y)
    for k in range(-6, 7):
        unit = ys[0]
        for _ in range(abs(k)):
            unit = I._step(gen, 1 if k > 0 else -1, unit)
        assert I._step(gen, k, ys[0]) == unit
    monkeypatch.setattr(S.groups, "multiply", None)
    assert I._power(gen, -3) == I.PhiGen(R.scale(-3, gen.z), gen.parts, "pure")


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
    with at most one step per distinct relation."""
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

    n_gens = len(I._Turn(phi, SEP.abelianization(AB1)).relations)
    # the helper's relations are the distinct non-zero definitional ones
    assert n_gens == len({r.terms for r in rels if r})
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


# ---------------------------------------------------------------------------
# the exact lattice stage wherever the key group is finite


def test_rank2_links_decide_exactly_without_the_search(monkeypatch):
    """Links in free_abelian(x, y) whose side images span a full-rank
    lattice L, half of them with sphere families.  The key group Z^2 / L is
    finite, so the lattice stage decides every query and the orbit search
    never runs.  Each verdict matches the oracle over the definitional
    relations, the translates of every toroidal z and sphere by every
    element of Z^2 / L, at every outer shift; each Equal replays."""
    def no_search(self, y1, y2):
        raise AssertionError("the orbit search ran")
    monkeypatch.setattr(I._OrbitSearch, "run", no_search)
    rng = random.Random(709)
    x, y = S.generator(AB2, "x"), S.generator(AB2, "y")
    ab = SEP.abelianization(AB2)
    verdicts = {"equal": 0, "distinct": 0}
    cases = 0
    while cases < 32:
        phi = _random_presentation(rng, AB2, "link")
        ctx = phi.context
        (a, b), (c, d) = ab.image(ctx.gamma), ab.image(ctx.delta)
        det = abs(a * d - b * c)
        if not det or det > 12 or bool(phi.sided_spheres) != bool(cases % 2):
            continue
        cases += 1
        # the box [0, det)^2 meets every class of Z^2 / L
        reps = {}
        for i, j in itertools.product(range(det), repeat=2):
            w = S.multiply(S.power(x, i), S.power(y, j))
            reps.setdefault(R.canonicalize(ctx, w), w)
        assert len(reps) == det

        def translate(t, v):
            return R.from_terms(ctx, [(S.multiply(t, w), k) for w, k in v.terms])
        zs = [g.z for g in phi.toroidal] + [R.from_terms(ctx, [(p, s) for s, p in sph.points])
                                            for sph, _ in phi.sided_spheres]
        rels = [dict(translate(t, z).terms) for t in reps.values() for z in zs]
        for q in range(4):
            y1, y2 = _random_pair(rng, phi)
            if q % 2:   # one more class term, often outside the orbit
                y1 = R.add(y1, R.single(ctx, random_word(rng, AB2, 3)))
            res = I.decide_equal(y1, y2, phi)
            want = any(_hnf_member(rels, dict(R.add(y1, R.negate(translate(t, y2))).terms))
                       for t in reps.values())
            assert res.verdict == ("equal" if want else "distinct")
            if want:
                assert I.replay(res.certificate, y1, y2)
            else:
                assert res.separator == "abelian-lattice"
            verdicts[res.verdict] += 1
    assert verdicts["equal"] >= 10 and verdicts["distinct"] >= 10


@pytest.mark.parametrize("n, torus, sphere, y1, y2, steps, limit", [
    (1200, (), ((1, 0), (1, 1)), "+1*[x]", "0", None, 3.0),
    (1600, ((1, 1), (-1, 3)), ((1, 1), (-1, 2)), "+1*[x^800]", "+1*[x^5]", 795, 2.0),
], ids=["x1200", "x1600"])
def test_rank1_long_sphere_chain_decides_quickly(n, torus, sphere, y1, y2, steps, limit):
    """Knot x^n with a two-point sphere: the orbit lattice has one sphere
    relation per class, and one sparse Hermite pass, which re-reduces only
    the entries an insertion changes, finds the membership and its
    combination together, so the decision stays fast."""
    x = S.generator(AB1, "x")
    k = L.Knot("k", S.power(x, n))

    def points(pts):
        return tuple((sign, S.power(x, e)) for sign, e in pts)
    phi = I.build_phi(k, [L.Trace(k, k, points(torus), x)],
                      spheres=[L.SphereData("s", points(sphere))])
    y1, y2 = (R.parse_ring(phi.context, y) for y in (y1, y2))
    t0 = time.perf_counter()
    res = I.decide_equal(y1, y2, phi)
    assert time.perf_counter() - t0 < limit
    assert res.verdict == "equal"
    assert steps is None or len(res.certificate.steps) == steps
    assert I.replay(res.certificate, y1, y2)


# ---------------------------------------------------------------------------
# outer conjugators, one per action


# (spec, knot classes as (word, power), order of the centralizers modulo
# the sides and the center where it is finite): one class for a knot, two
# for a link
_ACTION_CASES = {
    **{f"free-rho^{p}": (FREE2, [("x y^-1 x", p)], p) for p in (1, 2, 3, 6)},
    "free-conjugate-root^3": (FREE2, [("y x^3 y^-1", 1)], 3),
    "fxz-central": (FXZ, [("t", 2)], None),
    "fxz-noncentral": (FXZ, [("x y x y t^3", 1)], 2),
    "abelian": (AB2, [("x y^2", 1)], 1),
    "product-into-free-factor": (PROD, [("y x", 2)], 2),
    "product-into-abelian-factor": (PROD, [("x z^2 x^-1", 1)], 2),
    "product-into-fxz-factor": (PROD_FXZ, [("u x y t u^-1", 1)], None),
    "product-fxz-center-of-factor": (PROD_FXZ, [("t", 2)], None),
    "product-not-into-a-factor": (PROD, [("x z", 2)], 2),
    "free-link": (FREE2, [("x y x", 1), ("y x^-2", 1)], 1),
    "free-link-powers": (FREE2, [("x y", 2), ("y", 3)], 6),
    "fxz-link": (FXZ, [("x^2 t", 1), ("y t^-1", 1)], None),
    "fxz-link-central-side": (FXZ, [("x y t", 1), ("t", 3)], None),
}


def _action_case(rng, spec, classes):
    """A knot or a link over the given classes, one trace per centralizer
    generator, with random double points."""
    knots = [L.Knot(f"k{i}", S.power(S.parse_word(spec, w), n))
             for i, (w, n) in enumerate(classes)]
    one = S.identity(spec)

    def points():
        return tuple((rng.choice((1, -1)), random_word(rng, spec, 3)) for _ in range(2))
    if len(knots) == 1:
        k = knots[0]
        return I.build_phi(k, [L.Trace(k, k, points(), z)
                               for z in S.centralizer_generators(spec, k.gamma)])
    k1, k2 = knots
    t1 = [L.LinkTrace(L.Trace(k1, k1, points(), z), L.Trace(k2, k2, (), one), points())
          for z in S.centralizer_generators(spec, k1.gamma)]
    t2 = [L.LinkTrace(L.Trace(k1, k1, (), one), L.Trace(k2, k2, points(), z), points())
          for z in S.centralizer_generators(spec, k2.gamma)]
    return I.build_phi_link(k1, k2, t1, t2)


@pytest.mark.parametrize("case", _ACTION_CASES)
def test_conjugators_keep_one_per_action(case):
    """Every conjugator of the full ball acts as the kept conjugator with
    its key: on seeded values, and in the toroidal generators' ball on
    their z and parts too.  The kept conjugators are a subsequence of the
    ball.  Where the centralizers modulo the sides and the center form a
    finite group that the seed ball covers, one seed conjugator is kept
    per element: p for a free knot gamma = rho^p."""
    rng = random.Random(2121)
    spec, classes, order = _ACTION_CASES[case]
    phi = _action_case(rng, spec, classes)
    conj_ball, _, seed_ball = I._SIZES[len(phi.zetas)]
    key = I._action_key(phi)
    values = [R.from_terms(phi.context, [(random_word(rng, spec, 3), rng.choice((-2, -1, 1, 2)))
                                         for _ in range(2)]) for _ in range(2)]

    def action(c, toroidal):
        return ([I._outer(c, y) for y in values]
                + [(I._outer(c, g.z), [S.conjugate(p, a) for p, a in zip(g.parts, c)])
                   for g in phi.toroidal if toroidal])
    for (radius, cap), toroidal in ((conj_ball, True), (seed_ball(I.Bounds().depth), False)):
        ball = list(itertools.product(*(I._ball(spec, zs, radius, cap) for zs in phi.zetas)))
        kept = I._conjugators(phi, radius, cap)
        positions = [ball.index(c) for c in kept]
        assert positions == sorted(positions) and positions[0] == 0
        acts = {key(c): action(c, toroidal) for c in kept}
        assert len(acts) == len(kept)
        for c in ball:
            assert action(c, toroidal) == acts[key(c)], c
    assert order is None or len(kept) == order


def test_orbit_search_seeds_one_per_action_on_the_bench_batch(monkeypatch):
    """The backward seeds of the orbit-search seed-1 batch: one per free
    and link query (gamma = rho there), at most 137 per free x Z query
    (knot t, central, so a conjugator acts by its free part), 862 in all
    against 1 624 for the full balls, and they keep all 854 distinct seed
    values.  The 8 repeats lie on one free x Z query whose y1, [z y z^-1],
    is fixed by conjugation by y: no key on the conjugator alone merges
    conjugators that act alike on one value only."""
    seeds, family = [], None
    run = I._OrbitSearch.run

    def counted(self, y1, y2):
        seeds.append((family, [I._outer(c, y1) for c in self.seeds]))
        return run(self, y1, y2)
    monkeypatch.setattr(I._OrbitSearch, "run", counted)
    for scenario in gen.generate("orbit-search", 1):
        family, scn = scenario["family"], SC.parse_scenario(scenario["text"])
        for tokens in scn.queries:
            SC.execute_query(scn, tokens, I.Bounds())
    assert len(seeds) == 46
    for fam, values in seeds:
        assert len(values) <= (137 if fam == "free_times_z" else 1), fam
    assert sum(len(v) for _, v in seeds) <= 862
    assert sum(len(set(v)) for _, v in seeds) == 854
