"""Brute-force reference deciders for small instances.

Everything here works by computing closures of words (or based loops)
under elementary rewriting moves, or by enumerating words literally,
with explicit bounds.  None of it shares code with the piling pipeline;
that independence is the point.  Likewise the loop oracles read a
complex's ``vertices`` and ``edges`` only: each call builds its own
(vertex, letter) -> vertex table from the edges, never the complex's
walk table.

Each search raises ``BoundExceeded`` past its bound: ``_MAX_LEN`` letters
in both words together, ``_MAX_STATES`` words in a word closure, or
``_MAX_LOOP_STATES`` based loops in a loop closure.
"""
from __future__ import annotations

from .centralizer import CentralizerGens
from .core import DefiningGraph, InputError, Letter, Word, inverse_word
from .cubecomplex import CubeComplexMap

_MAX_LEN = 16
_MAX_STATES = 500_000
_MAX_LOOP_STATES = 200_000


class BoundExceeded(InputError, RuntimeError):
    """The input is too large for a brute-force search."""


def _swap_moves(g: DefiningGraph, w: Word):
    for i in range(len(w) - 1):
        a, b = w[i], w[i + 1]
        if a.gen != b.gen and g.commutes(a.gen, b.gen):
            yield w[:i] + (b, a) + w[i + 2:]


def _cancel_moves(w: Word):
    for i in range(len(w) - 1):
        if w[i].gen == w[i + 1].gen and w[i].sign == -w[i + 1].sign:
            yield w[:i] + w[i + 2:]


def _closure(g: DefiningGraph, w: Word, rotate: bool) -> frozenset:
    seen = {w}
    frontier = [w]
    while frontier:
        nxt = []
        for word in frontier:
            succs = list(_swap_moves(g, word))
            succs.extend(_cancel_moves(word))
            if rotate and word:
                succs.append(word[1:] + word[:1])
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
            if len(seen) > _MAX_STATES:
                raise BoundExceeded(f"closure exceeded {_MAX_STATES} states")
        frontier = nxt
    return frozenset(seen)


def _closures_meet(g: DefiningGraph, w: Word, v: Word, rotate: bool) -> bool:
    if len(w) + len(v) > _MAX_LEN:
        raise BoundExceeded(f"combined length {len(w) + len(v)} exceeds {_MAX_LEN}")
    return not _closure(g, w, rotate).isdisjoint(_closure(g, v, rotate))


def oracle_equal(g: DefiningGraph, w: Word, v: Word) -> bool:
    """Equality in the group by intersecting the closures of both words
    under adjacent commutation swaps and adjacent cancellations."""
    return _closures_meet(g, w, v, rotate=False)


def oracle_conjugate(g: DefiningGraph, w: Word, v: Word) -> bool:
    """Conjugacy by intersecting closures under swaps, cancellations,
    and one-step cyclings: all three moves preserve the conjugacy
    class, and two conjugate words always share a cyclically reduced
    descendant."""
    return _closures_meet(g, w, v, rotate=True)


def _edge_table(cx: CubeComplexMap) -> dict[tuple[str, Letter], str]:
    """(vertex, letter) -> vertex, read off ``cx.edges``: an edge leads
    from src along its label and back from dst along the inverse, and
    the first edge wins for each key."""
    delta: dict[tuple[str, Letter], str] = {}
    for e in cx.edges:
        delta.setdefault((e.src, Letter(e.label, 1)), e.dst)
        delta.setdefault((e.dst, Letter(e.label, -1)), e.src)
    return delta


def _delta_trace(delta: dict, x: str, word: Word):
    """End of the walk along word through an ``_edge_table``, or None;
    kept apart from the production walk on vertex ids."""
    for l in word:
        x = delta.get((x, l))
        if x is None:
            return None
    return x


def _loop_closure(delta: dict, g: DefiningGraph, base: str, w: Word) -> frozenset:
    """Closure of a based loop under the four pullback-able moves:
    commutation swap, adjacent cancellation, based cycling, and
    parallel transport of the base along an edge whose label commutes
    with the loop's whole support."""
    all_letters = [Letter(i, s) for i in range(1, g.n + 1) for s in (1, -1)]

    start = (base, w)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for x, word in frontier:
            succs = []
            for s in _swap_moves(g, word):
                succs.append((x, s))
            for s in _cancel_moves(word):
                succs.append((x, s))
            if word:
                y = delta.get((x, word[0]))
                if y is not None:
                    succs.append((y, word[1:] + word[:1]))
            support = {l.gen for l in word}
            for l in all_letters:
                if all(g.commutes(l.gen, s) for s in support):
                    y = delta.get((x, l))
                    if y is not None and _delta_trace(delta, y, word) is not None:
                        succs.append((y, word))
            for s in succs:
                if s not in seen:
                    seen.add(s)
                    nxt.append(s)
            if len(seen) > _MAX_LOOP_STATES:
                raise BoundExceeded(f"loop closure exceeded {_MAX_LOOP_STATES} states")
        frontier = nxt
    return frozenset(seen)


def oracle_groupoid_conjugate(cx, g: DefiningGraph, bw1, bw2) -> bool:
    """Free homotopy of based loops by intersecting their closures
    under the non-length-increasing loop moves."""
    delta = _edge_table(cx)
    return not _loop_closure(delta, g, bw1.base, bw1.word).isdisjoint(
        _loop_closure(delta, g, bw2.base, bw2.word))


def loop_class_key(cx, g: DefiningGraph, bw):
    """A free-homotopy class invariant: the minimal state of the loop
    closure.  Two loops are freely homotopic iff their keys coincide
    (the minimal-length stratum of a class is mutually reachable, so it
    is shared exactly by homotopic loops)."""
    closure = _loop_closure(_edge_table(cx), g, bw.base, bw.word)
    return min((len(word), word, x) for x, word in closure)


def reach_by_preferred_enumeration(cx: CubeComplexMap, x_start: str,
                                   gens: CentralizerGens, norm_bound: int) -> set[str]:
    """Literal enumeration of preferred-form centralizer words: root
    powers in factor order followed by a link-letter tail, total norm
    bounded.  Cross-check oracle for the reachability fixpoint."""
    roots = [z for z, _r in gens.roots]
    link_letters = [Letter(l, s) for l in sorted(gens.link_gens) for s in (1, -1)]
    delta = _edge_table(cx)
    results: set[str] = set()

    def tail(x: str, budget: int, seen: set):
        # depth-first on an explicit stack: a tail may run norm_bound
        # letters, past the recursion limit
        stack = [(x, budget)]
        while stack:
            state = stack.pop()
            if state in seen:
                continue
            seen.add(state)
            x, budget = state
            results.add(x)
            if budget == 0:
                continue
            for l in link_letters:
                y = delta.get((x, l))
                if y is not None:
                    stack.append((y, budget - 1))

    def blocks(i: int, x: str, budget: int):
        if i == len(roots):
            tail(x, budget, set())
            return
        z = roots[i]
        for zword in (z, inverse_word(z)):
            y, spent = x, 0
            while True:
                blocks(i + 1, y, budget - spent)
                if spent == budget:
                    break
                y = _delta_trace(delta, y, zword)
                if y is None:
                    break
                spent += 1
            if not z:
                break

    blocks(0, x_start, norm_bound)
    return results
