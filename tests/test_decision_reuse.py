"""Decision state built once per presentation, and reused soundly.

A PhiGroup keeps what `decide_equal` derives from Phi alone: its lattice
turns, chosen once, each part of a turn (pushed context, offsets,
relations and their Hermite basis) built the first time a query needs
it, and one orbit searcher per Bounds.  No verdict, certificate or printed value may depend on which
queries ran on the presentation before, and a later query may construct
none of that state again.
"""

import copy
import pathlib
import sys
from importlib import resources

import pytest

import selflink.groups as G
import selflink.indeterminacy as I
import selflink.scenario as SC
import selflink.separators as SEP

BENCH = pathlib.Path(__file__).parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402

# free_x2y's one query exhausts the search: with a single query there is
# no order to vary, and the generated orbit-search scenarios reuse warm
# searchers on many queries each
SKIPPED = {"free_x2y.scn"}
SEED = 7


def _bundled():
    return {entry.name: entry.read_text(encoding="utf-8")
            for entry in resources.files("selflink").joinpath("scenarios").iterdir()
            if entry.name.endswith(".scn") and entry.name not in SKIPPED}


def _generated():
    """The first scenario of each `bench/gen` family of every workload."""
    out = {}
    for workload, families in gen.FAMILIES.items():
        batch, i = gen.generate(workload, SEED), 0
        for family, (count, _) in families.items():
            out[f"{workload}:{family}"] = batch[i]["text"]
            i += count
    return out


SCENARIOS = {**_bundled(), **_generated()}


def _built_state(scn):
    """Deep copies of every built turn's relation vectors, pushed-context
    rows and Hermite basis rows, per presentation; read through vars, as
    reading an unbuilt part would build it."""
    out = {}
    for name, phi in scn.phis.items():
        for i, turn in enumerate(phi.__dict__.get("_turns", ())):
            built = vars(turn)
            out[name, i] = copy.deepcopy((
                built["pc"]._rows if "pc" in built else None,
                [r for r, _, _ in built.get("relations", ())],
                built["lattice"].basis if "lattice" in built else None))
    return out


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_records_do_not_depend_on_query_order(name, monkeypatch):
    """The queries in file order, then in reverse order on the same parsed
    scenario, and each alone on a freshly parsed one, give identical
    records; every Equal replays; and the reverse pass changes no built
    relation or basis row."""
    text, bounds = SCENARIOS[name], I.Bounds()
    decisions = []
    decide = I.decide_equal

    def recording(y1, y2, phi, bounds=I.Bounds()):
        res = decide(y1, y2, phi, bounds)
        decisions.append((y1, y2, res))
        return res
    monkeypatch.setattr(I, "decide_equal", recording)

    scn = SC.parse_scenario(text)
    queries = list(scn.queries)
    forward = [SC.execute_query(scn, q, bounds) for q in queries]
    built = _built_state(scn)
    backward = [SC.execute_query(scn, q, bounds) for q in reversed(queries)][::-1]
    assert _built_state(scn) == built
    alone = [SC.execute_query(SC.parse_scenario(text), q, bounds) for q in queries]
    assert forward == backward == alone
    assert decisions
    for y1, y2, res in decisions:
        if res.verdict == "equal":
            assert I.replay(res.certificate, y1, y2)


def _counting(monkeypatch):
    """Count constructions of pushed contexts, lattices and searchers, and
    the balls of words the search enumerates."""
    counts = {"pc": 0, "lattice": 0, "search": 0, "ball": 0}
    for key, cls in (("pc", SEP.PushedContext), ("lattice", SEP.Lattice),
                     ("search", I._OrbitSearch)):
        def init(self, *args, _key=key, _init=cls.__init__, **kwargs):
            counts[_key] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", init)
    ball = I._ball

    def counting_ball(*args, **kwargs):
        counts["ball"] += 1
        return ball(*args, **kwargs)
    monkeypatch.setattr(I, "_ball", counting_ball)
    return counts


def _decisions(scn):
    return [q for q in scn.queries if q[0] == "decide"]


@pytest.mark.parametrize("name", ["orbit-search:free", "orbit-search:link",
                                  "abelian-lattice:abelian"])
def test_later_decisions_build_nothing(name, monkeypatch):
    """After the first decision no query constructs a pushed context,
    lattice or searcher, or enumerates a ball of conjugators."""
    counts = _counting(monkeypatch)
    scn = SC.parse_scenario(SCENARIOS[name])
    first, *rest = _decisions(scn)
    SC.execute_query(scn, first, I.Bounds())
    assert counts["pc"] and counts["lattice"]
    built = dict(counts)
    for q in rest:
        SC.execute_query(scn, q, I.Bounds())
    assert rest and counts == built
    # a search keeps no state of its own run on the searcher
    for phi in scn.phis.values():
        for bounds, search in phi._searches.items():
            assert vars(search).keys() == vars(I._OrbitSearch(phi, bounds)).keys()


FREE_SPHERE_SCN = """\
group free x y
knot k = x^2 y
trace lat : k -> k latitude x^2 y
sphere sigma unlink k
phi P knot k toroidal lat spheres sigma
"""


def test_an_early_distinct_builds_no_later_turn(monkeypatch):
    """A Distinct from mod2, the first finite separator, leaves the turns
    after it unbuilt, and a free group's abelianization turn, which cannot
    be exact, builds nothing: mod2's pushed context and lattice are the
    only ones."""
    counts = _counting(monkeypatch)
    scn = SC.parse_scenario(FREE_SPHERE_SCN)
    rec = SC.execute_query(scn, ["decide", "+1*[x]", "0", "P"], I.Bounds())
    assert (rec["verdict"], rec["separator"]) == ("distinct", "mod2")
    assert counts["pc"] == counts["lattice"] == 1
    for part in ("pc", "lattice"):
        assert [t.sep.name for t in scn.phis["P"]._turns if part in vars(t)] == ["mod2"]
    assert counts["search"] == 0


def _old_abelian_applicable(phi):
    """The exactness rule as it stood before the turns owned it: the group
    is free abelian, and nothing is enumerated (no link biaction, no sphere
    family) or the abelianization's pushed context is finite."""
    ctx = phi.context
    if ctx.spec.kind != G.FREE_ABELIAN:
        return False
    if len(phi.zetas) == 1 and not phi.sided_spheres:
        return True
    return SEP.PushedContext(SEP.abelianization(ctx.spec), ctx).finite


def test_abelian_applicable_keeps_the_old_rule():
    """`_abelian_applicable`, by which the bench attributes an Equal to the
    abelian lattice stage, agrees with the old rule on every presentation
    of the scenarios above, and both answers occur."""
    seen = set()
    for text in SCENARIOS.values():
        for phi in SC.parse_scenario(text).phis.values():
            applicable = I._abelian_applicable(phi)
            assert applicable == _old_abelian_applicable(phi)
            seen.add(applicable)
    assert seen == {True, False}


HUGE_KEY_GROUP_SCN = """\
group abelian x
knot k = x^100000000
trace h : k -> k latitude x
sphere s points ( + 1 ) ( + x )
phi P knot k toroidal h spheres s
"""


def test_a_capped_turn_lists_no_offsets(monkeypatch):
    """The abelianization's turn has 10^8 key classes, more than
    max_states: no query lists its offsets, the first or a later one."""
    bounds = I.Bounds()
    listed = []
    offsets = SEP.PushedContext.offsets

    def guarded(pc):
        assert pc.classes <= bounds.max_states
        listed.append(pc.classes)
        return offsets(pc)
    monkeypatch.setattr(SEP.PushedContext, "offsets", guarded)
    scn = SC.parse_scenario(HUGE_KEY_GROUP_SCN)
    for y in ("+1*[x]", "+2*[x]", "+1*[x]"):
        assert SC.execute_query(scn, ["decide", y, "0", "P"], bounds)["verdict"] == "equal"
    assert listed
