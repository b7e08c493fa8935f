"""Labeled partial-deterministic model of a cubical map into a RAAG's
one-vertex complex, and the free-homotopy decision for loops.

Vertices and labeled oriented edges describe the 1-skeleton together
with its labeling; optional square records list the squares, which
otherwise the 1-skeleton implies, and ``validate`` checks the local
convexity hypothesis against either.  Paths are coded as based words:
a start vertex plus a word whose letters are followed through the edge
lookup table.
A complex keeps one table: every vertex name gets an integer id, and
each id has a letter -> next id map built straight from the edges and
keyed by the interned letters of ``core.letter_row``.  Walks run on it;
names appear only at the ends of ``trace`` and ``reach_by_centralizer``.
The loop decider is the word decider's alignment step,
``conjugacy._align``, plus what loops add: each base vertex is carried
along its loop's conjugator word, and only when the carried bases differ
do both go on along the common word to the second loop's cyclic normal
form, whose centralizer is then searched.
"""
from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, NamedTuple

from .core import (DefiningGraph, InputError, Letter, Word, _index_of, _read_directives,
                   _read_text, inverse_word, letter_row, parse_word)
from .conjugacy import _align
from .centralizer import CentralizerGens, centralizer_generators


class ComplexSyntaxError(InputError):
    pass


class NotALoop(InputError):
    pass


class UntraceableWord(InputError):
    pass


class ReplayFailure(RuntimeError):
    """A letter of a conjugator word could not be traced from the base
    vertex carried along it; impossible for a validated complex and a
    genuine based loop."""


class Edge(NamedTuple):
    eid: str
    src: str
    dst: str
    label: int  # generator index; positive orientation pulled back from the target complex


class CubeComplexMap:
    """Immutable after construction.

    Every name that a vertex record or an edge mentions gets an integer
    id, and ``_out[k]`` maps a letter to the id of the vertex that it
    leads to from the vertex with id k.  This is the complex's one walk
    table, built straight from the edges in O(edges): the first edge
    wins for each (vertex, letter) key and keys that a later edge
    repeats go to ``_multi_keys``.  Its keys are the interned letters of
    ``core.letter_row``, the same objects that the parser and the piling
    kernel emit, so a walk matches them by identity; a complex needs no
    group to build them."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge],
                 squares: Iterable[tuple[str, str, str, str]] | None = None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.squares = tuple(map(tuple, squares)) if squares is not None else None
        # ids below _vertex_ids name vertex records; an edge's name that
        # no record has gets the next id when the edge is first read
        self._ids = ids = {x: k for k, x in enumerate(dict.fromkeys(self.vertices))}
        self._vertex_ids = len(ids)
        self._out: list[dict[Letter, int]] = [{} for _ in ids]
        self._multi_keys: set[tuple[str, Letter]] = set()
        out, multi = self._out, self._multi_keys
        for _, src, dst, label in self.edges:
            _, up, down = letter_row(label)
            try:
                ks = ids[src]
            except KeyError:
                ks = ids[src] = len(out)
                out.append({})
            try:
                kd = ids[dst]
            except KeyError:
                kd = ids[dst] = len(out)
                out.append({})
            row = out[ks]
            if up in row:
                multi.add((src, up))
            else:
                row[up] = kd
            row = out[kd]
            if down in row:
                multi.add((dst, down))
            else:
                row[down] = ks
        self._names = tuple(ids)


class BasedWord(NamedTuple):
    base: str
    word: Word
    end: str


class ValidationReport(NamedTuple):
    determinism_ok: bool
    labels_ok: bool
    vertices_ok: bool
    squares_ok: bool
    convexity_checked: bool
    convexity_ok: bool | None
    problems: list[str]

    @property
    def ok(self) -> bool:
        return (self.determinism_ok and self.labels_ok and self.vertices_ok
                and self.squares_ok and self.convexity_ok is not False)

    def summary(self) -> str:
        lines = ["valid" if self.ok else "INVALID"]
        lines.append(f"determinism: {'ok' if self.determinism_ok else 'VIOLATED'}")
        lines.append(f"labels: {'ok' if self.labels_ok else 'VIOLATED'}")
        if self.convexity_ok is not None:
            lines.append(f"convexity: {'ok' if self.convexity_ok else 'VIOLATED'}")
        else:
            # a problem below left the squares, given or implied, unusable
            why = [what for ok, what in ((self.vertices_ok, "unknown or repeated vertex"),
                                         (self.labels_ok, "label out of range"),
                                         (self.determinism_ok or self.convexity_checked,
                                          "more than one edge per direction")) if not ok]
            lines.append(f"convexity: not checked ({', '.join(why) or 'repeated edge id'})")
        lines.append("injectivity of universal covers: not checked (assumed)")
        lines.extend(self.problems)
        return "\n".join(lines)


def _corner(k: int, d1: Letter, d2: Letter, m: int, v: int) -> int:
    """A corner, the pair of directions {d1, d2} of distinct generators
    at the vertex with id k, as one int: the letter codes 2*gen + (sign
    < 0) of the smaller and the larger generator in base m, then the id
    in base v (m exceeds every letter code, v every id)."""
    if d1.gen > d2.gen:
        d1, d2 = d2, d1
    return ((2 * d1.gen + (d1.sign < 0)) * m + 2 * d2.gen + (d2.sign < 0)) * v + k


def _square_corners(cx: CubeComplexMap, g: DefiningGraph,
                    ends: dict[str, tuple[int, int, int]],
                    problems: list[str]) -> tuple[set[int], bool]:
    """The corners that the square records provide, coded as by
    ``_corner``, and whether every record closes.  A record (e1, e2, e3,
    e4) closes under signs (s1, s2) when e1^s1 e2^s2 e3^-s1 e4^-s2 is a
    closed path, opposite sides carry equal labels and the two labels
    commute; each of the path's four vertices then gets the corner of
    the two letters that leave it along the square's sides.  ``ends``
    maps each edge id to the ids of its source and target and its
    label."""
    noncommute = g.noncommute  # labels are range-checked before squares
    m, v = 2 * g.n + 2, len(cx._names)
    # per label pair (i, j): the corners at id 0 of the letter pairs up-up,
    # down-up, down-down and up-down of e1 and e2, by their signs
    pair_codes: dict[int, tuple[int, int, int, int]] = {}
    corners: set[int] = set()
    add = corners.add
    end_of = ends.__getitem__
    all_closed = True
    for square in cx.squares:
        try:
            (p1, q1, i), (p2, q2, j), (p3, q3, i3), (p4, q4, j4) = map(end_of, square)
        except KeyError as exc:
            problems.append(f"square {square}: unknown edge id {exc.args[0]!r}")
            all_closed = False
            continue
        closed = False
        # labels and their commutation do not depend on the orientation
        if i3 == i and j4 == j and i != j and j not in noncommute[i]:
            codes = pair_codes.get(i * m + j)
            if codes is None:
                codes = pair_codes[i * m + j] = tuple(
                    _corner(0, letter_row(i)[s], letter_row(j)[t], m, v)
                    for s, t in ((1, 1), (-1, 1), (-1, -1), (1, -1)))
            uu, du, dd, ud = codes
            # whichever sign e1 takes, the corners depend on e2's only:
            # the ends of e1 and of e3 (label i) leave along it up at the
            # source and down at the target
            if (q1 == p2 and q2 == q3 and p3 == q4 and p4 == p1
                    or p1 == p2 and q2 == p3 and q3 == q4 and p4 == q1):
                closed = True
                add(p1 + uu)
                add(q1 + du)
                add(q3 + dd)
                add(p3 + ud)
            if (q1 == q2 and p2 == q3 and p3 == p4 and q4 == p1
                    or p1 == q2 and p2 == p3 and q3 == p4 and q4 == q1):
                closed = True
                add(p1 + ud)
                add(q1 + dd)
                add(q3 + du)
                add(p3 + uu)
        if not closed:
            all_closed = False
            problems.append(
                f"square {square}: no orientation closes the boundary with "
                "matching opposite labels and commuting sides")
    return corners, all_closed


def validate(cx: CubeComplexMap, g: DefiningGraph) -> ValidationReport:
    """Checks local determinism, label ranges, that no vertex name (nor,
    when squares are given, edge id) repeats, the squares when they are
    given, and the convexity hypothesis at every vertex.  Global
    injectivity of universal covers is assumed, never verified.  It reads
    the vertex ids and the walk table that the constructor resolved:
    one map gives each edge id the ids of its ends and its label, each
    square record is read once, and the records are walked again only
    to name a problem, so it costs O(edges + squares).

    Convexity asks that every pair of directions at a vertex with
    distinct commuting generators be a corner of some closing square.
    Each corner a closing square provides is such a pair: its two
    letters run along sides that start or end at the vertex, so both
    are keys of the walk table there, and their labels commute.  So the
    corners provided are some of the commuting direction pairs, and the
    complex is convex exactly when they are as many as all those pairs.
    The pairs are counted once per distinct tuple of directions, and
    only when the corners fall short are they walked, to name the
    missing ones.  ``_corner`` is the one code of a corner, both for the
    corners the records provide and for the pairs looked up among them.

    Without square records every such corner implies its square: from
    the vertex, d1 then d2 and d2 then d1 must both trace and end at the
    same vertex.  That walks every commuting pair, O(sum of deg^2), and
    is what keeps ``groupoid_conjugate``'s carried bases traceable.
    These walks need determinism: the walk table keeps only the first of
    two edges that share a direction, so their verdict would depend on
    the order of the records, and convexity is left unchecked instead.

    Both verdicts name their open corners through one report, which
    walks the vertex records in order and, at each, its commuting
    direction pairs, and differs only in the closing test and in the
    words that end each line."""
    problems: list[str] = []
    ids = cx._ids

    # the constructor gives ids to distinct vertex records first, then to
    # names that only an edge mentions
    vertices_ok = len(ids) == cx._vertex_ids == len(cx.vertices)
    if not vertices_ok:
        if cx._vertex_ids != len(cx.vertices):
            _repeats("vertex", cx.vertices, problems)
        for e in cx.edges:
            for x in (e.src, e.dst):
                if ids[x] >= cx._vertex_ids:
                    problems.append(f"edge {e.eid}: unknown vertex {x!r}")

    determinism_ok = not cx._multi_keys
    for (x, l) in sorted(cx._multi_keys):
        problems.append(
            f"determinism violation at vertex {x}: more than one edge "
            f"realizes generator {l.gen} with sign {l.sign:+d}")

    n = g.n
    eids, srcs, dsts, labels = zip(*cx.edges) if cx.edges else ((),) * 4
    labels_ok = not labels or 1 <= min(labels) and max(labels) <= n
    if not labels_ok:
        problems += [f"edge {e.eid}: label {e.label} out of range 1..{n}"
                     for e in cx.edges if not 1 <= e.label <= n]

    convexity_ok: bool | None = None
    # called only once labels are range-checked, so commutation is a set lookup
    noncommute = g.noncommute
    out = cx._out

    def commuting(directions):
        return [(d1, d2) for d1, d2 in combinations(directions, 2)
                if d1.gen != d2.gen and d2.gen not in noncommute[d1.gen]]

    def open_corners(closes, suffix):
        # called only once vertices are checked, so ids follow the records
        return [f"convexity violation at vertex {x}: commuting "
                f"directions {d1} and {d2} {suffix}"
                for k, x in enumerate(cx.vertices) for d1, d2 in commuting(out[k])
                if not closes(k, d1, d2)]

    if cx.squares is None:
        squares_ok = True
        if labels_ok and vertices_ok and determinism_ok:
            # each corner's square is implied, so both of its two-letter
            # walks must trace and meet; the walk table holds every edge,
            # as no direction has a second one
            lines = open_corners(lambda k, d1, d2: (y := _walk(out, k, (d1, d2))) is not None
                                 and y == _walk(out, k, (d2, d1)), "close no square")
            convexity_ok = not lines
            problems += lines
    else:
        squares_ok = False  # until the records are read
        get = ids.__getitem__
        ends = dict(zip(eids, zip(map(get, srcs), map(get, dsts), labels)))
        if len(ends) != len(cx.edges):  # a square record could name either edge
            _repeats("edge id", eids, problems)
        elif labels_ok and vertices_ok:
            provided, squares_ok = _square_corners(cx, g, ends, problems)
            need = sum(k * len(commuting(d)) for d, k in Counter(map(tuple, out)).items())
            convexity_ok = len(provided) == need
            if not convexity_ok:
                m, v = 2 * n + 2, len(cx._names)
                problems += open_corners(lambda k, d1, d2: _corner(k, d1, d2, m, v) in provided,
                                         "have no square corner")

    return ValidationReport(determinism_ok, labels_ok, vertices_ok, squares_ok,
                            cx.squares is not None, convexity_ok, problems)


def _repeats(kind: str, names: Iterable[str], problems: list[str]) -> None:
    """A problem line for each name that occurs more than once."""
    problems += [f"repeated {kind} {x!r}" for x, k in Counter(names).items() if k > 1]


def _walk(out: list[dict[Letter, int]], k: int, w: Word) -> int | None:
    """Vertex id reached from id k along w, or None at the first
    undefined step."""
    try:
        for l in w:
            k = out[k][l]
    except KeyError:
        return None
    return k


def trace(cx: CubeComplexMap, x: str, w: Word):
    """Follow the word's letters through the lookup table; None at the
    first undefined step.  The empty word leads from x to x, even when x
    names no vertex."""
    if not w:
        return x
    k = cx._ids.get(x)
    if k is not None:
        k = _walk(cx._out, k, w)
    return None if k is None else cx._names[k]


def based_word(cx: CubeComplexMap, base: str, w: Word) -> BasedWord:
    if cx._ids.get(base, cx._vertex_ids) >= cx._vertex_ids:
        raise UntraceableWord(f"unknown vertex {base!r}")
    end = trace(cx, base, w)
    if end is None:
        raise UntraceableWord(f"word does not trace from vertex {base}")
    return BasedWord(base, w, end)


def _require_loop(bw: BasedWord) -> None:
    if bw.base != bw.end:
        raise NotALoop(f"not a loop: based word runs {bw.base} -> {bw.end}")


def _carry(cx: CubeComplexMap, base: str, word: Word) -> str:
    """The base vertex carried along a conjugator word: each cycled
    letter moves the base one edge, while cancellations and commutations
    leave it fixed, so the word is all that matters."""
    end = trace(cx, base, word)
    if end is None:
        raise ReplayFailure(f"conjugator letters untraceable from {base}")
    return end


def reach_by_centralizer(cx: CubeComplexMap, x_start: str,
                         gens: CentralizerGens) -> set[str]:
    """Fixpoint of tracing each centralizer generator word (and its
    inverse) from already-reached vertices; monotone, at most one new
    vertex per expansion."""
    moves = [m for z, _r in gens.roots for m in (z, inverse_word(z))]
    moves += [(l,) for i in sorted(gens.link_gens) for l in letter_row(i)[1:]]
    start = cx._ids.get(x_start)
    if start is None:
        return {x_start}
    out = cx._out
    visited = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for k in frontier:
            for mv in moves:
                y = _walk(out, k, mv)
                if y is not None and y not in visited:
                    visited.add(y)
                    nxt.append(y)
        frontier = nxt
    names = cx._names
    return {names[k] for k in visited}


def groupoid_conjugate(cx: CubeComplexMap, g: DefiningGraph,
                       bw1: BasedWord, bw2: BasedWord) -> bool:
    """Decide whether two based loops are freely homotopic.

    Raise ``NotALoop`` for loop 1, then for loop 2.  Freely homotopic
    loops have conjugate words, so ``conjugacy._align``'s NO is the
    answer.  Otherwise carry each base along its loop's conjugator word,
    tracing it once; loop 1's is the half of a free-homotopy witness
    path that starts at base 1.  The empty centralizer word leads from a
    base to itself, so carried bases that coincide are YES with nothing
    more built.  Else both go on along the rest of the events of loop
    2's cyclic normal factors, past the prefix c2 already carried, to
    that normal form, and the answer is whether some word of its
    centralizer traces from the first carried base to the second."""
    _require_loop(bw1)
    _require_loop(bw2)
    aligned = _align(g, bw1.word, bw2.word)
    if aligned is None:
        return False
    c1, c2, factors_v = aligned
    b1, b2 = _carry(cx, bw1.base, c1), _carry(cx, bw2.base, c2)
    if b1 == b2:
        return True
    f2 = factors_v()
    d = f2.events[len(c2):]
    b1, b2 = _carry(cx, b1, d), _carry(cx, b2, d)
    return b2 in reach_by_centralizer(cx, b1, centralizer_generators(g, f2))


def parse_complex(text: str, g: DefiningGraph, source: str = "<string>") -> CubeComplexMap:
    """Complex file format: ``vertices <name>+``, lines
    ``edge <id> <src> <dst> <label>``, optional ``square <e> <e> <e> <e>``
    (boundary order); ``#`` starts a comment."""
    edges: list[Edge] = []
    squares: list[tuple[str, ...]] = []
    gen_of = _index_of(g.names).get
    new = tuple.__new__  # Edge(...) runs a Python-level __new__ per edge

    def edge(fields):
        eid, src, dst, label = fields
        gen = gen_of(label)
        if gen is None:
            raise ComplexSyntaxError(f"unknown generator label {label!r}")
        edges.append(new(Edge, (eid, src, dst, gen)))

    vertices = _read_directives(text, source, ComplexSyntaxError, "vertices", {
        "edge": (4, "id, src, dst, label", edge),
        "square": (4, "four edge ids", lambda ids: squares.append(tuple(ids)))})
    return CubeComplexMap(vertices, edges, squares or None)


def load_complex(path: str, g: DefiningGraph) -> CubeComplexMap:
    return parse_complex(_read_text(path, ComplexSyntaxError), g, source=path)


def parse_based_word(cx: CubeComplexMap, g: DefiningGraph, text: str) -> BasedWord:
    """CLI syntax ``<vertex>: <word>``."""
    base, sep, rest = text.partition(":")
    if not sep:
        raise ComplexSyntaxError(f"based word {text!r} lacks a ':' separator")
    return based_word(cx, base.strip(), parse_word(g, rest))
