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
from dataclasses import dataclass, field

from . import cosets as R
from . import groups as G
from . import indeterminacy as I
from . import linking as L
from .errors import (InvariantViolation, ParseError, SelfLinkError,
                     UnresolvedReference)

_KINDS = {"free": G.free, "abelian": G.free_abelian,
          "free_times_z": G.free_times_z}


@dataclass
class Scenario:
    spec: G.GroupSpec | None = None
    knots: dict[str, L.Knot] = field(default_factory=dict)
    traces: dict[str, L.Trace] = field(default_factory=dict)
    spheres: dict[str, L.SphereData] = field(default_factory=dict)
    linktraces: dict[str, L.LinkTrace] = field(default_factory=dict)
    phis: dict[str, I.PhiGroup] = field(default_factory=dict)
    philinks: dict[str, I.PhiLinkGroup] = field(default_factory=dict)
    queries: list[list[str]] = field(default_factory=list)
    # declaration metadata kept for round-trip printing
    _decls: list[tuple[str, str]] = field(default_factory=list)


def _pad_brackets(line: str) -> str:
    for ch in "()[]":
        line = line.replace(ch, f" {ch} ")
    return line


def _word(spec, tokens, line_no):
    text = " ".join(tokens)
    if text == "1":
        return G.identity(spec)
    try:
        return G.parse_word(spec, text)
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
        points.append((sign, _word(spec, group[1:] or ["1"], line_no)))
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


def _require(scn, table, name, what, line_no):
    if name not in table:
        raise UnresolvedReference(f"line {line_no}: unknown {what} {name!r}")
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
                scn._decls.append(("query", line))
                continue
            tokens = _pad_brackets(line).split()
            _dispatch(scn, tokens, line_no)
            scn._decls.append((head, line))
        except ParseError:
            raise
        except (UnresolvedReference, InvariantViolation):
            raise
        except (SelfLinkError, ValueError, IndexError) as e:
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
                j = tokens.index("]", i)
                fk = tokens[i + 1]
                if fk not in _KINDS:
                    raise ParseError(f"unknown factor kind {fk!r}", line=line_no)
                factors.append(_KINDS[fk](*tokens[i + 2:j]))
                i = j + 1
            scn.spec = G.free_product(*factors)
        elif kind in _KINDS:
            scn.spec = _KINDS[kind](*tokens[2:])
        else:
            raise ParseError(f"unknown group kind {kind!r}", line=line_no)
        return
    spec = _need_spec(scn, line_no)

    if head == "knot":
        name = tokens[1]
        if tokens[2] != "=":
            raise ParseError("knot syntax: knot <name> = <word>", line=line_no)
        scn.knots[name] = L.Knot(name, _word(spec, tokens[3:], line_no))

    elif head == "trace":
        # trace h : k -> k latitude <word> points ( + w )...
        name = tokens[1]
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
        name = tokens[1]
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
        name = tokens[1]
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

    elif head == "phi":
        name = tokens[1]
        try:
            if tokens[2] == "conjugation":
                k = _require(scn, scn.knots, tokens[3], "knot", line_no)
                scn.phis[name] = I.phi_conjugation_only(k)
            else:
                sections = _split_sections(tokens[2:], {"knot", "toroidal", "spheres"})
                k = _require(scn, scn.knots, sections["knot"][0], "knot", line_no)
                toroidal = [_require(scn, scn.traces, t, "trace", line_no)
                            for t in sections.get("toroidal", [])]
                spheres = [_require(scn, scn.spheres, s, "sphere", line_no)
                           for s in sections.get("spheres", [])]
                scn.phis[name] = I.build_phi(k, toroidal, spheres)
        except (UnresolvedReference, InvariantViolation):
            raise
        except SelfLinkError as e:
            raise InvariantViolation(f"line {line_no}: {e}") from e

    elif head == "philink":
        name = tokens[1]
        try:
            sections = _split_sections(
                tokens[2:], {"knots", "toroidal1", "toroidal2", "left", "right"})
            k1 = _require(scn, scn.knots, sections["knots"][0], "knot", line_no)
            k2 = _require(scn, scn.knots, sections["knots"][1], "knot", line_no)
            t1 = [_require(scn, scn.linktraces, t, "linktrace", line_no)
                  for t in sections.get("toroidal1", [])]
            t2 = [_require(scn, scn.linktraces, t, "linktrace", line_no)
                  for t in sections.get("toroidal2", [])]
            sl = [_require(scn, scn.spheres, s, "sphere", line_no)
                  for s in sections.get("left", [])]
            sr = [_require(scn, scn.spheres, s, "sphere", line_no)
                  for s in sections.get("right", [])]
            scn.philinks[name] = I.build_phi_link(k1, k2, t1, t2, sl, sr)
        except (UnresolvedReference, InvariantViolation):
            raise
        except SelfLinkError as e:
            raise InvariantViolation(f"line {line_no}: {e}") from e

    else:
        raise ParseError(f"unknown declaration {head!r}", line=line_no)


# ---------------------------------------------------------------------------
# round-trip printing


def _fmt_word(w: G.GroupElement) -> str:
    return G.format_word(w) if not G.is_identity(w) else "1"


def _fmt_points(points) -> str:
    return " ".join(f"( {'+' if s > 0 else '-'} {_fmt_word(g)} )" for s, g in points)


def print_scenario(scn: Scenario) -> str:
    """Text that parses back to an equivalent scenario.

    A parsed scenario reprints its (comment-stripped, whitespace-normalized)
    declaration lines; a programmatically built one is synthesized from its
    entities.
    """
    if scn._decls:
        return "\n".join(" ".join(line.split()) for _, line in scn._decls) + "\n"
    out = []
    spec = scn.spec
    if spec is not None:
        if spec.kind == G.FREE_PRODUCT:
            parts = []
            for f in spec.factors:
                kind = {G.FREE: "free", G.FREE_ABELIAN: "abelian",
                        G.FREE_TIMES_Z: "free_times_z"}[f.kind]
                parts.append(f"[ {kind} {' '.join(f.labels)} ]")
            out.append(f"group product {' '.join(parts)}")
        else:
            kind = {G.FREE: "free", G.FREE_ABELIAN: "abelian",
                    G.FREE_TIMES_Z: "free_times_z"}[spec.kind]
            out.append(f"group {kind} {' '.join(spec.labels)}")
    for name, k in scn.knots.items():
        out.append(f"knot {name} = {_fmt_word(k.gamma)}")
    for name, t in scn.traces.items():
        line = (f"trace {name} : {t.knot_from.label} -> {t.knot_to.label} "
                f"latitude {_fmt_word(t.latitude)}")
        if t.points:
            line += f" points {_fmt_points(t.points)}"
        out.append(line)
    for name, s in scn.spheres.items():
        out.append(f"sphere {name} points {_fmt_points(s.points)}")
    for name, lt in scn.linktraces.items():
        t1 = next(n for n, t in scn.traces.items() if t == lt.trace1)
        t2 = next(n for n, t in scn.traces.items() if t == lt.trace2)
        line = f"linktrace {name} : {t1} {t2}"
        if lt.cross_points:
            line += f" cross {_fmt_points(lt.cross_points)}"
        out.append(line)

    def sphere_names(spheres):
        return " ".join(next(n for n, s in scn.spheres.items() if s.points == sp.points)
                        for sp in spheres)

    for name, phi in scn.phis.items():
        tor = " ".join(next(n for n, t in scn.traces.items()
                            if L.mu_trace(t) == g.z and t.latitude == g.phi)
                       for g in phi.toroidal)
        line = f"phi {name} knot {phi.knot.label} toroidal {tor}".rstrip()
        if phi.spheres:
            line += f" spheres {sphere_names(phi.spheres)}"
        out.append(line)
    for name, pl in scn.philinks.items():
        line = f"philink {name} knots {pl.knot1.label} {pl.knot2.label}"
        n1 = len(pl.zeta1)
        for section, gens in (("toroidal1", pl.toroidal[:n1]),
                              ("toroidal2", pl.toroidal[n1:])):
            if gens:
                line += f" {section} " + " ".join(
                    next(n for n, lt in scn.linktraces.items()
                         if L.lambda_link(lt) == g.z
                         and (lt.trace1.latitude, lt.trace2.latitude) == g.parts)
                    for g in gens)
        for section, spheres in (("left", pl.spheres_left), ("right", pl.spheres_right)):
            if spheres:
                line += f" {section} {sphere_names(spheres)}"
        out.append(line)
    for q in scn.queries:
        out.append("query " + " ".join(shlex.quote(t) for t in q))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# query execution


def _find_phi(scn: Scenario, name: str | None, line_hint=""):
    if name is not None:
        if name in scn.phis:
            return scn.phis[name]
        if name in scn.philinks:
            return scn.philinks[name]
        raise UnresolvedReference(f"unknown phi {name!r}{line_hint}")
    pools = list(scn.phis.values()) + list(scn.philinks.values())
    if len(pools) != 1:
        raise UnresolvedReference(
            "query needs an explicit phi name (scenario has "
            f"{len(pools)} presentations)")
    return pools[0]


def _parse_elem(ctx, text):
    return R.parse_ring(ctx, text)


def execute_query(scn: Scenario, tokens, bounds: I.Bounds) -> dict:
    """Run one query; returns a deterministic record (no timing fields)."""
    if not tokens:
        raise ParseError("empty query")
    cmd, args = tokens[0], tokens[1:]
    spec = scn.spec
    rec = {"command": cmd, "args": list(args)}

    if cmd == "normalize":
        w = _word(spec, " ".join(args).split(), None)
        rec["result"] = _fmt_word(w)

    elif cmd == "canon":
        k = _require(scn, scn.knots, args[0], "knot", "?")
        ctx = R.coset_ring(spec, k.gamma)
        key = R.canonicalize(ctx, _word(spec, " ".join(args[1:]).split(), None))
        rec["result"] = "0" if key is None else f"[{_fmt_word(key.representative)}]"

    elif cmd == "mu":
        t = _require(scn, scn.traces, args[0], "trace", "?")
        rec["result"] = R.format_ring(L.mu_trace(t))

    elif cmd == "lambda":
        if args[0] in scn.linktraces:
            rec["result"] = R.format_ring(L.lambda_link(scn.linktraces[args[0]]))
        else:
            s = _require(scn, scn.spheres, args[0], "sphere", "?")
            k = _require(scn, scn.knots, args[1], "knot", "?")
            rec["result"] = R.format_ring(L.lambda_sphere(s, k))

    elif cmd == "relative":
        t = _require(scn, scn.traces, args[0], "trace", "?")
        phi = _find_phi(scn, args[1] if len(args) > 1 else None)
        y = L.mu_trace(t)
        rec["result"] = R.format_ring(y)
        res = I.decide_equal(y, R.zero(y.context), phi, bounds)
        rec["decision_vs_zero"] = res.to_record()

    elif cmd == "decide":
        phi = _find_phi(scn, args[2] if len(args) > 2 else None)
        y1 = _parse_elem(phi.context, args[0])
        y2 = _parse_elem(phi.context, args[1])
        rec.update(I.decide_equal(y1, y2, phi, bounds).to_record())

    elif cmd == "spherical":
        phi = _find_phi(scn, args[0] if args else None)
        rec["result"] = I.is_spherical_presented(phi)

    else:
        raise ParseError(f"unknown query command {cmd!r}")
    return rec
