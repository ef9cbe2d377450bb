"""Line-oriented scenario files: groups, knots, traces, spheres, queries.

A scenario declares one ambient group and any number of named knots,
traces, spheres, link traces, indeterminacy presentations and stored
queries.  The grammar is line-oriented with parenthesized point lists so
that group words stay unambiguous:

    # ambient group
    group free x y
    knot k = x y
    trace h : k -> k latitude 1 points ( + x ) ( - x y )
    sphere s points ( + 1 ) ( - x^-1 )
    sphere t unlink k
    phi P knot k toroidal h spheres s
    query decide "+1*[x]" "0" P

Use-before-declare is an error; identifiers may be declared in any other
order.  `1` denotes the identity word.
"""

from __future__ import annotations

import shlex

from . import cosets as R
from . import groups as G
from . import indeterminacy as I
from . import linking as L
from .errors import (InvariantViolation, ParseError, SelfLinkError,
                     UnresolvedReference)

# the keyword of each group kind but the product, which names its factors' kinds
_KINDS = {"free": G.FREE, "abelian": G.FREE_ABELIAN, "free_times_z": G.FREE_TIMES_Z}

# the table and kind of each named declaration; phi and philink declare
# presentations in one namespace
_DECLARES = {"knot": ("knots", "knot"), "trace": ("traces", "trace"),
             "sphere": ("spheres", "sphere"), "linktrace": ("linktraces", "linktrace"),
             "phi": ("phis", "presentation"), "philink": ("phis", "presentation")}


class Scenario:
    """The ambient group, the named declarations per table (phis holds phi
    and philink presentations) and the stored queries' tokens."""

    def __init__(self, spec: G.GroupSpec | None = None, knots=None, traces=None,
                 spheres=None, linktraces=None, phis=None, queries=None):
        self.spec = spec
        self.knots: dict[str, L.Knot] = knots or {}
        self.traces: dict[str, L.Trace] = traces or {}
        self.spheres: dict[str, L.SphereData] = spheres or {}
        self.linktraces: dict[str, L.LinkTrace] = linktraces or {}
        self.phis: dict[str, I.PhiGroup] = phis or {}
        self.queries: list[list[str]] = queries or []


def _pad_brackets(line: str) -> str:
    for ch in "()[]":
        line = line.replace(ch, f" {ch} ")
    return line


def _word(spec, tokens, line_no):
    try:
        return G.parse_word(spec, " ".join(tokens))
    except SelfLinkError as e:
        raise ParseError(str(e), line=line_no) from e


def _parse_points(spec, tokens, line_no):
    """Point groups ( + word ) ( - word ) starting at tokens[0]."""
    points = []
    i = 0
    while i < len(tokens):
        if tokens[i] != "(":
            raise ParseError(f"expected '(' in point list, got {tokens[i]!r}", line=line_no)
        try:
            j = tokens.index(")", i)
        except ValueError:
            raise ParseError("unterminated point group", line=line_no) from None
        group = tokens[i + 1:j]
        if not group or group[0] not in ("+", "-", "+1", "-1"):
            raise ParseError("point group must start with a sign", line=line_no)
        sign = 1 if group[0].startswith("+") else -1
        points.append((sign, _word(spec, group[1:], line_no)))
        i = j + 1
    return tuple(points)


def _split_sections(tokens, keywords):
    """Partition tokens into keyword-labelled sections, preserving order."""
    out = {}
    current = None
    for t in tokens:
        if t in keywords:
            if t in out:
                raise ValueError(f"duplicate section {t!r}")
            current = out.setdefault(t, [])
        elif current is None:
            raise ValueError(f"unexpected token {t!r}")
        else:
            current.append(t)
    return out


def _section(sections, key, count, line_no):
    """The names of a required section, which must hold exactly count."""
    names = sections.get(key)
    if names is None or len(names) != count:
        raise ParseError(f"expected '{key}' followed by {count} name"
                         f"{'s' if count > 1 else ''}", line=line_no)
    return names


def _require(scn, table, name, what, line_no):
    """table[name]; line_no is None for queries, which keep no line."""
    if name not in table:
        where = "" if line_no is None else f"line {line_no}: "
        raise UnresolvedReference(f"{where}unknown {what} {name!r}")
    return table[name]


def _need_spec(scn: Scenario, line_no):
    if scn.spec is None:
        raise ParseError("a group must be declared first", line=line_no)
    return scn.spec


def parse_scenario(text: str) -> Scenario:
    scn = Scenario()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head = line.split(None, 1)[0]
        try:
            if head == "query":
                scn.queries.append(shlex.split(line)[1:])
                continue
            _dispatch(scn, _pad_brackets(line).split(), line_no)
        except ParseError:
            raise
        except (UnresolvedReference, InvariantViolation):
            raise
        except IndexError as e:
            raise ParseError(f"incomplete {head!r} declaration", line=line_no) from e
        except (SelfLinkError, ValueError) as e:
            raise ParseError(str(e), line=line_no) from e
    return scn


def _dispatch(scn: Scenario, tokens, line_no):
    head = tokens[0]
    if head == "group":
        if scn.spec is not None:
            raise ParseError("group already declared", line=line_no)
        kind = tokens[1]
        if kind == "product":
            factors = []
            i = 2
            while i < len(tokens):
                if tokens[i] != "[":
                    raise ParseError("product factors use [ kind labels... ]", line=line_no)
                if "]" not in tokens[i:]:
                    raise ParseError(f"unterminated product factor {' '.join(tokens[i:])!r}",
                                     line=line_no)
                j = tokens.index("]", i)
                fk = tokens[i + 1]
                if fk not in _KINDS:
                    raise ParseError(f"unknown factor kind {fk!r}", line=line_no)
                factors.append(G.GroupSpec(_KINDS[fk], tuple(tokens[i + 2:j])))
                i = j + 1
            scn.spec = G.free_product(*factors)
        elif kind in _KINDS:
            scn.spec = G.GroupSpec(_KINDS[kind], tuple(tokens[2:]))
        else:
            raise ParseError(f"unknown group kind {kind!r}", line=line_no)
        return
    spec = _need_spec(scn, line_no)
    if head not in _DECLARES:
        raise ParseError(f"unknown declaration {head!r}", line=line_no)
    table, kind = _DECLARES[head]
    name = tokens[1]
    if name in getattr(scn, table):
        raise ParseError(f"{kind} {name!r} already declared", line=line_no)

    if head == "knot":
        if tokens[2] != "=":
            raise ParseError("knot syntax: knot <name> = <word>", line=line_no)
        scn.knots[name] = L.Knot(name, _word(spec, tokens[3:], line_no))

    elif head == "trace":
        # trace h : k -> k latitude <word> points ( + w )...
        if tokens[2] != ":" or tokens[4] != "->":
            raise ParseError("trace syntax: trace <name> : <knot> -> <knot> "
                             "latitude <word> points ...", line=line_no)
        kf = _require(scn, scn.knots, tokens[3], "knot", line_no)
        kt = _require(scn, scn.knots, tokens[5], "knot", line_no)
        if tokens[6] != "latitude":
            raise ParseError("expected 'latitude'", line=line_no)
        try:
            p = tokens.index("points")
        except ValueError:
            p = len(tokens)
        lat = _word(spec, tokens[7:p], line_no)
        pts = _parse_points(spec, tokens[p + 1:], line_no) if p < len(tokens) else ()
        try:
            scn.traces[name] = L.Trace(kf, kt, pts, lat)
        except SelfLinkError as e:
            raise InvariantViolation(f"line {line_no}: {e}") from e

    elif head == "sphere":
        if tokens[2] == "unlink":
            k = _require(scn, scn.knots, tokens[3], "knot", line_no)
            scn.spheres[name] = L.SphereData(name, L.sphere_for_unlink_complement(k.gamma).points)
        elif tokens[2] == "points":
            scn.spheres[name] = L.SphereData(name, _parse_points(spec, tokens[3:], line_no))
        else:
            raise ParseError("sphere syntax: sphere <name> points ( + w )... "
                             "or sphere <name> unlink <knot>", line=line_no)

    elif head == "linktrace":
        # linktrace lt : h1 h2 cross ( + w )...
        if tokens[2] != ":":
            raise ParseError("linktrace syntax: linktrace <name> : <trace> <trace> cross ...",
                             line=line_no)
        t1 = _require(scn, scn.traces, tokens[3], "trace", line_no)
        t2 = _require(scn, scn.traces, tokens[4], "trace", line_no)
        pts = ()
        if len(tokens) > 5:
            if tokens[5] != "cross":
                raise ParseError("expected 'cross'", line=line_no)
            pts = _parse_points(spec, tokens[6:], line_no)
        try:
            scn.linktraces[name] = L.LinkTrace(t1, t2, pts)
        except SelfLinkError as e:
            raise InvariantViolation(f"line {line_no}: {e}") from e

    else:  # phi or philink

        def named(table, what, names):
            return [_require(scn, table, n, what, line_no) for n in names]

        try:
            if head == "philink":
                sections = _split_sections(
                    tokens[2:], {"knots", "toroidal1", "toroidal2", "left", "right"})
                k1, k2 = named(scn.knots, "knot", _section(sections, "knots", 2, line_no))
                t1 = named(scn.linktraces, "linktrace", sections.get("toroidal1", []))
                t2 = named(scn.linktraces, "linktrace", sections.get("toroidal2", []))
                sl = named(scn.spheres, "sphere", sections.get("left", []))
                sr = named(scn.spheres, "sphere", sections.get("right", []))
                scn.phis[name] = I.build_phi_link(k1, k2, t1, t2, sl, sr)
            elif tokens[2] == "conjugation":
                k = _require(scn, scn.knots, tokens[3], "knot", line_no)
                scn.phis[name] = I.phi_conjugation_only(k)
            else:
                sections = _split_sections(tokens[2:], {"knot", "toroidal", "spheres"})
                k, = named(scn.knots, "knot", _section(sections, "knot", 1, line_no))
                toroidal = named(scn.traces, "trace", sections.get("toroidal", []))
                spheres = named(scn.spheres, "sphere", sections.get("spheres", []))
                scn.phis[name] = I.build_phi(k, toroidal, spheres)
        except (ParseError, UnresolvedReference, InvariantViolation):
            raise
        except SelfLinkError as e:
            raise InvariantViolation(f"line {line_no}: {e}") from e


# ---------------------------------------------------------------------------
# round-trip printing


def _fmt_points(points) -> str:
    return " ".join(f"( {'+' if s > 0 else '-'} {G.format_word(g)} )" for s, g in points)


def _name_of(table, match, what, owner):
    """The name of the first entry of table that match accepts; a built
    scenario names its traces and spheres only through its tables."""
    name = next((n for n, v in table.items() if match(v)), None)
    if name is None:
        raise UnresolvedReference(f"{owner} uses a {what} that the scenario does not name")
    return name


def print_scenario(scn: Scenario) -> str:
    """Text that parses back to an equivalent scenario, synthesized from
    its entities; comments and the declaration order are not kept."""
    out = []
    spec = scn.spec
    if spec is not None:
        kinds = {kind: word for word, kind in _KINDS.items()}
        if spec.kind == G.FREE_PRODUCT:
            parts = " ".join(f"[ {kinds[f.kind]} {' '.join(f.labels)} ]"
                             for f in spec.factors)
            out.append(f"group product {parts}")
        else:
            out.append(f"group {kinds[spec.kind]} {' '.join(spec.labels)}")
    for name, k in scn.knots.items():
        out.append(f"knot {name} = {G.format_word(k.gamma)}")
    for name, t in scn.traces.items():
        line = (f"trace {name} : {t.knot_from.label} -> {t.knot_to.label} "
                f"latitude {G.format_word(t.latitude)}")
        if t.points:
            line += f" points {_fmt_points(t.points)}"
        out.append(line)
    for name, s in scn.spheres.items():
        out.append(f"sphere {name} points {_fmt_points(s.points)}")
    for name, lt in scn.linktraces.items():
        owner = f"linktrace {name!r}"
        t1 = _name_of(scn.traces, lambda t: t == lt.trace1, "trace", owner)
        t2 = _name_of(scn.traces, lambda t: t == lt.trace2, "trace", owner)
        line = f"linktrace {name} : {t1} {t2}"
        if lt.cross_points:
            line += f" cross {_fmt_points(lt.cross_points)}"
        out.append(line)

    for name, phi in scn.phis.items():
        owner = f"presentation {name!r}"
        if len(phi.knots) == 1:
            k = phi.knots[0]
            if phi == I.phi_conjugation_only(k):
                out.append(f"phi {name} conjugation {k.label}")
                continue
            tor = " ".join(_name_of(scn.traces, lambda t: L.mu_trace(t) == g.z
                                    and (t.latitude,) == g.parts, "trace", owner)
                           for g in phi.toroidal)
            line = f"phi {name} knot {k.label} toroidal {tor}".rstrip()
            sides = (("spheres", False),)
        else:
            line = f"philink {name} knots {phi.knots[0].label} {phi.knots[1].label}"
            n1 = len(phi.zetas[0])
            for section, gens in (("toroidal1", phi.toroidal[:n1]),
                                  ("toroidal2", phi.toroidal[n1:])):
                if gens:
                    line += f" {section} " + " ".join(
                        _name_of(scn.linktraces, lambda lt: L.lambda_link(lt) == g.z
                                 and (lt.trace1.latitude, lt.trace2.latitude) == g.parts,
                                 "linktrace", owner)
                        for g in gens)
            sides = (("left", False), ("right", True))
        for section, right in sides:
            spheres = [_name_of(scn.spheres, lambda s: s.points == sp.points,
                                "sphere", owner)
                       for sp, r in phi.sided_spheres if r == right]
            if spheres:
                line += f" {section} {' '.join(spheres)}"
        out.append(line)
    for q in scn.queries:
        out.append("query " + " ".join(shlex.quote(t) for t in q))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# query execution


def _find_phi(scn: Scenario, name: str | None):
    if name is not None:
        return _require(scn, scn.phis, name, "phi", None)
    if len(scn.phis) != 1:
        raise UnresolvedReference(
            "query needs an explicit phi name (scenario has "
            f"{len(scn.phis)} presentations)")
    return next(iter(scn.phis.values()))


# query command -> (least, most) argument count and usage; most None is
# unbounded
_USAGE = {
    "normalize": (1, None, "normalize WORD..."),
    "canon": (2, None, "canon KNOT WORD..."),
    "mu": (1, 1, "mu TRACE"),
    "lambda": (1, 2, "lambda SPHERE KNOT | lambda LINKTRACE"),
    "relative": (1, 2, "relative TRACE [PHI]"),
    "decide": (2, 3, "decide ELEM ELEM [PHI]"),
    "spherical": (0, 1, "spherical [PHI]"),
}


def execute_query(scn: Scenario, tokens, bounds: I.Bounds, strict_sign: bool = False) -> dict:
    """Run one query; returns a deterministic record (no timing fields).
    strict_sign requires explicitly signed coefficients in ring elements."""
    if not tokens:
        raise ParseError("empty query")
    cmd, args = tokens[0], tokens[1:]
    if cmd not in _USAGE:
        raise ParseError(f"unknown query command {cmd!r}")
    least, most, usage = _USAGE[cmd]
    if len(args) < least or (most is not None and len(args) > most):
        raise ParseError(f"usage: {usage}")
    spec = _need_spec(scn, None)
    rec = {"command": cmd, "args": list(args)}

    if cmd == "normalize":
        w = _word(spec, " ".join(args).split(), None)
        rec["result"] = G.format_word(w)

    elif cmd == "canon":
        k = _require(scn, scn.knots, args[0], "knot", None)
        ctx = R.coset_ring(spec, k.gamma)
        key = R.canonicalize(ctx, _word(spec, " ".join(args[1:]).split(), None))
        rec["result"] = "0" if key is None else f"[{G.format_word(key)}]"

    elif cmd == "mu":
        t = _require(scn, scn.traces, args[0], "trace", None)
        rec["result"] = R.format_ring(L.mu_trace(t))

    elif cmd == "lambda":
        if len(args) == 1:
            lt = _require(scn, scn.linktraces, args[0], "linktrace", None)
            rec["result"] = R.format_ring(L.lambda_link(lt))
        else:
            s = _require(scn, scn.spheres, args[0], "sphere", None)
            k = _require(scn, scn.knots, args[1], "knot", None)
            rec["result"] = R.format_ring(L.lambda_sphere(s, k))

    elif cmd == "relative":
        t = _require(scn, scn.traces, args[0], "trace", None)
        phi = _find_phi(scn, args[1] if len(args) > 1 else None)
        y = L.mu_trace(t)
        rec["result"] = R.format_ring(y)
        res = I.decide_equal(y, R.zero(y.context), phi, bounds)
        rec["decision_vs_zero"] = res.to_record()

    elif cmd == "decide":
        phi = _find_phi(scn, args[2] if len(args) > 2 else None)
        y1 = R.parse_ring(phi.context, args[0], strict_sign)
        y2 = R.parse_ring(phi.context, args[1], strict_sign)
        rec.update(I.decide_equal(y1, y2, phi, bounds).to_record())

    else:  # spherical
        phi = _find_phi(scn, args[0] if args else None)
        rec["result"] = I.is_spherical_presented(phi)
    return rec
