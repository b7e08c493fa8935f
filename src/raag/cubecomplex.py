"""Labeled partial-deterministic model of a cubical map into a RAAG's
one-vertex complex, and the free-homotopy decision for loops.

Vertices and labeled oriented edges describe the 1-skeleton together
with its labeling; optional square records let us check the local
convexity hypothesis.  Paths are coded as based words: a start vertex
plus a word whose letters are followed through the edge lookup table.
Walks run on integer vertex ids, one letter -> next id map per vertex;
names appear only at the ends of ``trace`` and ``reach_by_centralizer``.
The decider answers YES as soon as the aligned base of the first loop
is the second loop's base, without building the centralizer.
"""
from __future__ import annotations

from itertools import combinations, product
from typing import Iterable, NamedTuple

from .core import DefiningGraph, Letter, Word, inverse_word, letter_table, parse_word
from .conjugacy import CyclicNormalFactors, cyclic_equal, cyclic_normal_factors
from .centralizer import CentralizerGens, centralizer_generators


class ComplexSyntaxError(ValueError):
    pass


class NotALoop(ValueError):
    pass


class UntraceableWord(ValueError):
    pass


class ReplayFailure(RuntimeError):
    """An event letter could not be traced from the current base vertex;
    impossible for a validated complex and a genuine based loop."""


class Edge(NamedTuple):
    eid: str
    src: str
    dst: str
    label: int  # generator index; positive orientation pulled back from the target complex


class CubeComplexMap:
    """Immutable after construction; the (vertex, letter) -> vertex
    lookup table ``delta`` is precomputed once and shared read-only.

    ``delta`` keeps the first edge for each (vertex, letter) key.  For
    the walks, every name that a vertex record or an edge mentions gets
    an integer id, and ``_out[k]`` maps a letter to the id that ``delta``
    leads to from the vertex with id k: the same table on ids, O(edges)
    entries like ``delta``."""

    def __init__(self, vertices: Iterable[str], edges: Iterable[Edge],
                 squares: Iterable[tuple[str, str, str, str]] | None = None):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self.squares = tuple(tuple(sq) for sq in squares) if squares is not None else None
        self.delta: dict[tuple[str, Letter], str] = {}
        self._multi_keys: set[tuple[str, Letter]] = set()
        for e in self.edges:
            for key, dest in (((e.src, Letter(e.label, 1)), e.dst),
                              ((e.dst, Letter(e.label, -1)), e.src)):
                if key in self.delta:
                    self._multi_keys.add(key)
                else:
                    self.delta[key] = dest
        names = dict.fromkeys(self.vertices)
        for e in self.edges:
            names[e.src] = names[e.dst] = None
        self._names = tuple(names)
        self._ids = {x: k for k, x in enumerate(self._names)}
        self._out: list[dict[Letter, int]] = [{} for _ in self._names]
        for (x, l), y in self.delta.items():
            self._out[self._ids[x]][l] = self._ids[y]


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
        if self.convexity_checked:
            lines.append(f"convexity: {'ok' if self.convexity_ok else 'VIOLATED'}")
        else:
            lines.append("convexity: not checked (no squares given; hypothesis assumed)")
        lines.append("injectivity of universal covers: not checked (assumed)")
        lines.extend(self.problems)
        return "\n".join(lines)


def _square_corners(by_id: dict[str, Edge], g: DefiningGraph, square, problems):
    """Corners contributed by one square record: for each orientation
    assignment that closes the boundary with opposite sides equal and
    commuting labels, each corner yields (vertex, {letter, letter})."""
    try:
        e1, e2, e3, e4 = (by_id[eid] for eid in square)
    except KeyError as exc:
        problems.append(f"square {square}: unknown edge id {exc.args[0]!r}")
        return set(), False
    corners = set()
    closed = False

    def endpoints(e: Edge, s: int):
        return (e.src, e.dst) if s == 1 else (e.dst, e.src)

    # labels and their commutation do not depend on the orientation
    labels_fit = (e1.label == e3.label and e2.label == e4.label
                  and g.commutes(e1.label, e2.label))
    orientations = product((1, -1), repeat=2) if labels_fit else ()
    rows = letter_table(g.n)  # labels are range-checked before squares
    for s1, s2 in orientations:
        s3, s4 = -s1, -s2
        a1, b1 = endpoints(e1, s1)
        a2, b2 = endpoints(e2, s2)
        a3, b3 = endpoints(e3, s3)
        a4, b4 = endpoints(e4, s4)
        if not (b1 == a2 and b2 == a3 and b3 == a4 and b4 == a1):
            continue
        closed = True
        r1, r2 = rows[e1.label], rows[e2.label]
        corners.add((a1, frozenset({r1[s1], r2[s2]})))
        corners.add((a2, frozenset({r1[-s1], r2[s2]})))
        corners.add((a3, frozenset({r1[-s1], r2[-s2]})))
        corners.add((a4, frozenset({r1[s1], r2[-s2]})))
    if not closed:
        problems.append(
            f"square {square}: no orientation closes the boundary with "
            "matching opposite labels and commuting sides")
    return corners, closed


def validate(cx: CubeComplexMap, g: DefiningGraph) -> ValidationReport:
    """Checks local determinism, label ranges, and (when squares are
    given) the convexity hypothesis at every vertex.  Global injectivity
    of universal covers is assumed, never verified."""
    problems: list[str] = []

    vertex_set = set(cx.vertices)
    vertices_ok = True
    for e in cx.edges:
        for v in (e.src, e.dst):
            if v not in vertex_set:
                vertices_ok = False
                problems.append(f"edge {e.eid}: unknown vertex {v!r}")

    determinism_ok = not cx._multi_keys
    for (v, l) in sorted(cx._multi_keys):
        problems.append(
            f"determinism violation at vertex {v}: more than one edge "
            f"realizes generator {l.gen} with sign {l.sign:+d}")

    labels_ok = True
    for e in cx.edges:
        if not 1 <= e.label <= g.n:
            labels_ok = False
            problems.append(f"edge {e.eid}: label {e.label} out of range 1..{g.n}")

    squares_ok = True
    convexity_ok: bool | None = None
    convexity_checked = cx.squares is not None
    if convexity_checked and labels_ok and vertices_ok:
        provided = set()
        by_id = {e.eid: e for e in cx.edges}
        for sq in cx.squares:
            corners, closed = _square_corners(by_id, g, sq, problems)
            squares_ok = squares_ok and closed
            provided |= corners
        convexity_ok = True
        directions: dict[str, list[Letter]] = {x: [] for x in cx.vertices}
        for (v, l) in cx.delta:
            directions[v].append(l)
        # labels are range-checked by now, so commutation is a set lookup
        noncommute = g.noncommute
        for x in cx.vertices:
            for d1, d2 in combinations(directions[x], 2):
                if d1.gen == d2.gen or d2.gen in noncommute[d1.gen]:
                    continue
                if (x, frozenset({d1, d2})) not in provided:
                    convexity_ok = False
                    problems.append(
                        f"convexity violation at vertex {x}: commuting "
                        f"directions {d1} and {d2} have no square corner")
    elif convexity_checked:
        squares_ok = False

    return ValidationReport(determinism_ok, labels_ok, vertices_ok,
                            squares_ok, convexity_checked, convexity_ok, problems)


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
    if base not in cx.vertices:
        raise UntraceableWord(f"unknown vertex {base!r}")
    end = trace(cx, base, w)
    if end is None:
        raise UntraceableWord(f"word does not trace from vertex {base}")
    return BasedWord(base, w, end)


def normalize_based(cx: CubeComplexMap, g: DefiningGraph,
                    bw: BasedWord) -> tuple[str, CyclicNormalFactors]:
    """Cyclic-normal-factor the loop word and carry the base vertex
    along the conjugator word ``events``; cancellations and
    commutations leave the base fixed, so that word is all that
    matters."""
    if bw.base != bw.end:
        raise NotALoop(f"based word runs {bw.base} -> {bw.end}")
    factors = cyclic_normal_factors(g, bw.word)
    base = trace(cx, bw.base, factors.events)
    if base is None:
        raise ReplayFailure(f"event letters untraceable from {bw.base}")
    return base, factors


def reach_by_centralizer(cx: CubeComplexMap, x_start: str,
                         gens: CentralizerGens) -> set[str]:
    """Fixpoint of tracing each centralizer generator word (and its
    inverse) from already-reached vertices; monotone, at most one new
    vertex per expansion."""
    moves: list[Word] = []
    for z, _r in gens.roots:
        moves.append(z)
        moves.append(inverse_word(z))
    for l in sorted(gens.link_gens):
        moves.append((Letter(l, 1),))
        moves.append((Letter(l, -1),))
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

    Normalize both loops (carrying the base vertex along), compare the
    factor collections, align the first loop's factors onto the second's
    by based cyclings, then ask whether some centralizer word of the
    common cyclic normal form traces from the first base to the second.
    The empty centralizer word leads from a base to itself, so when the
    aligned base already is the second base the answer is YES without
    that search.
    """
    b1, f1 = normalize_based(cx, g, bw1)
    b2, f2 = normalize_based(cx, g, bw2)
    if f1.components != f2.components:
        return False
    # Align loop 1's factors onto loop 2's words; each cycled letter
    # moves the base one edge along that factor.
    for u, v in zip(f1.factors, f2.factors):
        t = cyclic_equal(u, v)
        if t is None:
            return False
        nxt = trace(cx, b1, u[:t])
        if nxt is None:
            raise ReplayFailure(f"alignment letters untraceable from {b1}")
        b1 = nxt
    if b1 == b2:
        return True
    return b2 in reach_by_centralizer(cx, b1, centralizer_generators(g, f2))


def parse_complex(text: str, g: DefiningGraph, source: str = "<string>") -> CubeComplexMap:
    """Complex file format: ``vertices <name>+``, lines
    ``edge <id> <src> <dst> <label>``, optional ``square <e> <e> <e> <e>``
    (boundary order); ``#`` starts a comment."""
    vertices: tuple[str, ...] | None = None
    edges: list[Edge] = []
    squares: list[tuple[str, str, str, str]] = []
    saw_square = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kw = fields[0]
        if kw == "vertices":
            if vertices is not None:
                raise ComplexSyntaxError(f"{source}:{lineno}: repeated 'vertices' line")
            if len(fields) < 2:
                raise ComplexSyntaxError(f"{source}:{lineno}: 'vertices' needs at least one name")
            vertices = tuple(fields[1:])
        elif kw == "edge":
            if len(fields) != 5:
                raise ComplexSyntaxError(
                    f"{source}:{lineno}: 'edge' takes id, src, dst, label")
            eid, src, dst, label = fields[1:]
            try:
                gen = g.index(label)
            except ValueError:
                raise ComplexSyntaxError(
                    f"{source}:{lineno}: unknown generator label {label!r}") from None
            edges.append(Edge(eid, src, dst, gen))
        elif kw == "square":
            if len(fields) != 5:
                raise ComplexSyntaxError(f"{source}:{lineno}: 'square' takes four edge ids")
            saw_square = True
            squares.append(tuple(fields[1:]))
        else:
            raise ComplexSyntaxError(f"{source}:{lineno}: unknown directive {kw!r}")
    if vertices is None:
        raise ComplexSyntaxError(f"{source}: missing 'vertices' line")
    return CubeComplexMap(vertices, edges, squares if saw_square else None)


def load_complex(path: str, g: DefiningGraph) -> CubeComplexMap:
    with open(path, encoding="utf-8") as fh:
        return parse_complex(fh.read(), g, source=path)


def parse_based_word(cx: CubeComplexMap, g: DefiningGraph, text: str) -> BasedWord:
    """CLI syntax ``<vertex>: <word>``."""
    base, sep, rest = text.partition(":")
    if not sep:
        raise ComplexSyntaxError(f"based word {text!r} lacks a ':' separator")
    base = base.strip()
    w = parse_word(g, rest)
    return based_word(cx, base, w)
