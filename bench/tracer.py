"""Per-layer counters for a traced benchmark pass.

The tracer wraps public functions of selflink's modules by rebinding the
module attributes, so the library source stays untouched.  Internal calls
look those names up at call time and go through the wrappers as well.

Hot functions keep a call count, self time (wall time minus the time of
traced callees) and inclusive time.  Coarse boundaries (parse, decide,
replay) use the same bookkeeping, so self times add up to the traced time.
Per-call costs (`*_us`) are inclusive, the unit of the ROADMAP's baselines.
"""

from __future__ import annotations

import time

import selflink.cosets as R
import selflink.groups as G
import selflink.indeterminacy as I
import selflink.scenario as SC
import selflink.separators as S

FLAVORS = (R.PLAIN, R.REDUCED, R.COSET, R.TWO_SIDED, R.CONJUGACY)
# per-flavor figures are reported for the flavors the workloads canonicalize
# in; no benchmark scenario uses the plain, reduced or conjugacy ring
REPORTED_FLAVORS = (R.COSET, R.TWO_SIDED)
RING_OPS = ("add", "negate", "scale", "conj_act", "biact", "from_terms")
ACTS = ("act", "act_inverse", "act_link", "act_link_inverse")


class Tracer:
    def __init__(self):
        self.enabled = True
        self.stack = []          # [name, time spent in traced callees]
        self.stats = {}          # name -> [calls, self s, inclusive s]
        self.edges = 0
        self.max_dim = 0
        self.max_digits = 0

    def wrap(self, name, fn, enter=None, done=None):
        """Count calls and time of fn under `name`, or under
        name(args, token) when it is callable.  enter(args) runs on entry
        and returns the token; done(args, result) sees every result."""
        stack, stats, perf = self.stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            token = enter(args) if enter else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                key = name(args, token) if callable(name) else name
                s = stats.setdefault(key, [0, 0.0, 0.0])
                s[0] += 1
                s[1] += dt - frame[1]
                s[2] += dt
                if stack:
                    stack[-1][1] += dt
            if done:
                done(args, result)
            return result
        return wrapper

    def install(self):
        G.multiply = self.wrap("groups.multiply", G.multiply)
        G.make_element = self.wrap("groups.make_element", G.make_element)

        # a canonicalize call is cold when it missed the existing functools
        # cache, else warm; both are kept per ring flavor
        def misses(args=None):
            return R._canonicalize_cached.cache_info().misses

        def canonicalize_key(args, misses_before):
            temp = "cold" if misses() != misses_before else "warm"
            return f"canonicalize.{args[0].flavor}.{temp}"

        R.canonicalize = self.wrap(canonicalize_key, R.canonicalize,
                                   enter=misses)
        for op in RING_OPS:
            setattr(R, op, self.wrap(f"cosets.ring.{op}", getattr(R, op)))

        S.PushedContext.push = self.wrap("separators.push",
                                         S.PushedContext.push)
        S.PushedContext.pushed_class = self.wrap(
            "separators.push", S.PushedContext.pushed_class)
        S.lattice_member = self.wrap("separators.lattice_member",
                                     S.lattice_member, done=self._lattice)

        I.decide_equal = self.wrap("indeterminacy.decide", I.decide_equal)
        I.decide_equal_link = self.wrap("indeterminacy.decide",
                                        I.decide_equal_link)
        I.replay = self.wrap("indeterminacy.replay", I.replay)
        for name in ACTS:
            setattr(I, name, self.wrap("indeterminacy.act", getattr(I, name),
                                       enter=self._edge))
        SC.parse_scenario = self.wrap("scenario.parse", SC.parse_scenario)

    def _edge(self, args):
        """A search edge is an act* call made neither by replay nor by
        another act* (act_inverse calls act)."""
        parent = self.stack[-1][0] if self.stack else None
        if parent not in ("indeterminacy.replay", "indeterminacy.act"):
            self.edges += 1

    def _lattice(self, args, result):
        relations, coeffs = args
        keys = set(coeffs)
        for rel in relations:
            keys.update(rel)
        self.max_dim = max(self.max_dim, len(keys), len(relations))
        if result:
            self.max_digits = max(self.max_digits,
                                  max(len(str(abs(c))) for c in result))

    def summary(self):
        """Per-layer metrics of everything traced so far."""
        st = self.stats

        def calls(*names):
            return sum(st.get(n, (0, 0.0, 0.0))[0] for n in names)

        def secs(*names):
            return sum(st.get(n, (0, 0.0, 0.0))[1] for n in names)

        ring = [f"cosets.ring.{op}" for op in RING_OPS]
        cold = [f"canonicalize.{f}.cold" for f in FLAVORS]
        warm = [f"canonicalize.{f}.warm" for f in FLAVORS]
        n_canon = calls(*cold, *warm)
        out = {
            "groups.multiply.calls": calls("groups.multiply"),
            "groups.multiply.self_s": secs("groups.multiply"),
            "groups.multiply.call_us": _per_call_us(st, "groups.multiply"),
            "groups.make_element.calls": calls("groups.make_element"),
            "groups.make_element.self_s": secs("groups.make_element"),
            "cosets.canonicalize.calls": n_canon,
            "cosets.canonicalize.hit_ratio":
                calls(*warm) / n_canon if n_canon else 0.0,
            "cosets.canonicalize.cold_self_s": secs(*cold),
            "cosets.canonicalize.warm_self_s": secs(*warm),
        }
        for f in REPORTED_FLAVORS:
            for temp in ("cold", "warm"):
                name = f"canonicalize.{f}.{temp}"
                out[f"cosets.canonicalize.{f}.{temp}_calls"] = calls(name)
                out[f"cosets.canonicalize.{f}.{temp}_us"] = _per_call_us(st, name)
        out.update({
            "cosets.ring.calls": calls(*ring),
            "cosets.ring.self_s": secs(*ring),
            "separators.push.calls": calls("separators.push"),
            "separators.push.self_s": secs("separators.push"),
            "separators.lattice_member.calls": calls("separators.lattice_member"),
            "separators.lattice_member.self_s": secs("separators.lattice_member"),
            "separators.lattice_member.max_dim": self.max_dim,
            "separators.solution_max_digits": self.max_digits,
            "indeterminacy.decide.calls": calls("indeterminacy.decide"),
            "indeterminacy.decide.self_s": secs("indeterminacy.decide"),
            "indeterminacy.search.edges": self.edges,
            "indeterminacy.replay.self_s": secs("indeterminacy.replay"),
            "scenario.parse.self_s": secs("scenario.parse"),
        })
        return out


def _per_call_us(stats, name):
    n, _, incl = stats.get(name, (0, 0.0, 0.0))
    return incl / n * 1e6 if n else 0.0
