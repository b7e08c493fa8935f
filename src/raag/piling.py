"""The piling data structure and its linear-time algorithms.

A piling is one stack of beads per generator, beads drawn from
``{+1, -1, 0}``.  A letter a_i^e contributes a *tile*: one signed bead
on stack i plus a 0 bead on every stack whose generator does not
commute with a_i.  Tiles are never stored explicitly; the footprint is
recomputed from the defining graph whenever a tile is moved.

All public operations are pure: they copy their input piling and
return fresh values.  They are built from a private kernel of three
in-place operations: the push rule (``_fold``), removal of one bottom
tile (``_pop_bottom_tile``) and the largest-index extraction loop
(``_extract``).

A tile can be removed from the bottom exactly when its stack starts
with a signed bead (in a valid piling its non-commuting neighbours then
start with 0 beads).  ``_extract`` keeps the set of such stacks as an
int bit mask, so the next letter is the mask's highest bit.  Removing a
tile changes the bottoms of its own stack and its non-commuting
neighbours only; ``_pop_bottom_tile`` walks those stacks once and
returns which of them are ready now.  Extraction therefore costs
O(deg) per letter after an O(n) start, and emits letters from a table
built once per generator count (``_letters``).
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import lru_cache

from .core import DefiningGraph, Letter, Word, support_graph_of_gens

PLUS = 1
MINUS = -1
ZERO = 0

_BEAD_CHAR = {PLUS: "+", MINUS: "-", ZERO: "0"}


class PilingError(ValueError):
    pass


class ExtractionStuck(PilingError):
    """A nonempty stack remains but no stack starts with a signed bead:
    the abstract piling is not in the image of the word-to-piling map."""


class EmptyPiling(PilingError):
    pass


class NoBottomTile(PilingError):
    pass


class SplitInput(PilingError):
    pass


class NotCyclicallyReduced(PilingError):
    pass


@dataclass(frozen=True, slots=True)
class CyclingEvent:
    """One replayable base-vertex-affecting step: the letter of a tile
    that was cycled bottom-to-top, or the bottom letter of a cyclic
    reduction (a cyclic reduction is a cycling followed by a
    cancellation, so it moves a base vertex the same way)."""

    letter: Letter
    kind: str  # "cycling" or "reduction"


class Piling:
    """N bead stacks over {+,-,0}; bottom of each stack is the left end."""

    __slots__ = ("graph", "stacks", "signed_count")

    def __init__(self, graph: DefiningGraph):
        self.graph = graph
        self.stacks: list[deque] = [deque() for _ in range(graph.n + 1)]  # slot 0 unused
        self.signed_count = 0

    def copy(self) -> "Piling":
        q = Piling(self.graph)
        q.stacks = [deque(s) for s in self.stacks]
        q.signed_count = self.signed_count
        return q

    def is_empty(self) -> bool:
        return all(not s for s in self.stacks)

    def push(self, letter: Letter) -> None:
        """Append one tile, cancelling against an opposite signed bead
        on top of the letter's own stack if present (in which case the
        trailing 0 beads of the non-commuting stacks go too)."""
        _fold(self, (letter,))

    def support(self) -> frozenset[int]:
        return frozenset(
            i for i in range(1, self.graph.n + 1)
            if any(b != ZERO for b in self.stacks[i]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Piling):
            return NotImplemented
        return (self.graph == other.graph
                and all(tuple(a) == tuple(b) for a, b in zip(self.stacks, other.stacks)))

    def __repr__(self) -> str:
        return f"<Piling {self.signed_count} signed beads>"


def format_piling(p: Piling) -> str:
    """Debug serialization: one line per stack, beads bottom-to-top."""
    lines = []
    for i in range(1, p.graph.n + 1):
        beads = " ".join(_BEAD_CHAR[b] for b in p.stacks[i])
        lines.append(f"{p.graph.name(i)}: {beads}".rstrip())
    return "\n".join(lines)


def _fold(p: Piling, w: Word) -> None:
    """The push rule, in place, for each letter of w in turn: cancel the
    top tile of the letter's stack if it carries the opposite sign,
    else add a tile on top."""
    stacks = p.stacks
    nbrs = p.graph.noncommute
    count = p.signed_count
    for gen, sign in w:
        s = stacks[gen]
        if s and s[-1] == -sign:
            s.pop()
            for j in nbrs[gen]:
                stacks[j].pop()
            count -= 1
        else:
            s.append(sign)
            for j in nbrs[gen]:
                stacks[j].append(ZERO)
            count += 1
    p.signed_count = count


@lru_cache
def _letters(n: int) -> tuple[tuple[Letter | None, ...], ...]:
    """Interned letters of an n-generator group: ``_letters(n)[i][sign]``
    is ``Letter(i, sign)`` (a sign of -1 indexes the last entry).  Row 0
    is unused, like stack 0."""
    return tuple((None, Letter(i, PLUS), Letter(i, MINUS)) for i in range(n + 1))


def _pop_bottom_tile(p: Piling, i: int) -> tuple[int, int]:
    """Remove the bottom a_i-tile in place, whose stack must start with a
    signed bead.  Returns its sign and the bit mask of the touched stacks
    (i and its non-commuting neighbours) that now start with a signed
    bead.  Raises ExtractionStuck if a neighbour has no 0 bead at the
    bottom; the piling is then left partly popped."""
    stacks = p.stacks
    s = stacks[i]
    sign = s.popleft()
    now = 1 << i if s and s[0] != ZERO else 0
    for j in p.graph.noncommute[i]:
        s = stacks[j]
        if not s or s[0] != ZERO:
            raise ExtractionStuck(
                f"stack {j} does not start with a 0 bead under the bottom tile of {i}")
        s.popleft()
        if s and s[0] != ZERO:
            now |= 1 << j
    p.signed_count -= 1
    return sign, now


def _extract(p: Piling, exclude: int = 0) -> list[Letter]:
    """Repeatedly remove the bottom tile of the largest-index stack
    other than ``exclude`` that starts with a signed bead, in place,
    until there is none; returns the removed letters in order."""
    letters = _letters(p.graph.n)
    ready = 0
    for i, s in enumerate(p.stacks):
        if s and s[0] != ZERO:
            ready |= 1 << i
    skip = ~(1 << exclude)
    out: list[Letter] = []
    while True:
        i = (ready & skip).bit_length() - 1
        if i < 0:
            return out
        sign, now = _pop_bottom_tile(p, i)
        ready = ready & ~(1 << i) | now
        out.append(letters[i][sign])


def pi_star(g: DefiningGraph, w: Word) -> Piling:
    """Left fold of the push rule over the word; O(length) with a
    constant depending only on the graph."""
    p = Piling(g)
    _fold(p, w)
    return p


def sigma_star(p: Piling) -> Word:
    """Extract the normal word: always emit the largest generator index
    whose stack starts with a signed bead, then remove its bottom tile."""
    q = p.copy()
    out = _extract(q)
    if q.signed_count:
        raise ExtractionStuck("no stack starts with a signed bead")
    if not q.is_empty():
        raise ExtractionStuck("0 beads left over after extracting all signed beads")
    return tuple(out)


def is_cyclically_reduced(p: Piling) -> bool:
    return all(
        not (len(s) >= 2 and s[0] != ZERO and s[-1] == -s[0])
        for s in p.stacks[1:])


def cyclic_reduce(p: Piling) -> tuple[Piling, list[CyclingEvent]]:
    """Remove matching top/bottom tile pairs of opposite signs until no
    stack starts with one sign and ends with the other."""
    q = p.copy()
    letters = _letters(q.graph.n)
    events: list[CyclingEvent] = []
    changed = True
    while changed:
        changed = False
        for i in range(1, q.graph.n + 1):
            s = q.stacks[i]
            while len(s) >= 2 and s[0] != ZERO and s[-1] == -s[0]:
                # cycle the bottom tile to the top, where it cancels
                letter = letters[i][_pop_bottom_tile(q, i)[0]]
                _fold(q, (letter,))
                events.append(CyclingEvent(letter, "reduction"))
                changed = True
    return q, events


def _apex(p: Piling) -> int:
    """Smallest index whose stack contains a signed bead, or 0."""
    for i in range(1, p.graph.n + 1):
        if any(b != ZERO for b in p.stacks[i]):
            return i
    return 0


def decompose(p: Piling) -> tuple[Piling, Piling]:
    """Unique splitting p = p0 . p1 with p1 pyramidal (apex = smallest
    index carrying a signed bead) and p0 free of apex beads."""
    if p.is_empty():
        raise EmptyPiling("cannot decompose the empty piling")
    p1 = p.copy()
    return pi_star(p.graph, _extract(p1, exclude=_apex(p1))), p1


def cycle_bottom(p: Piling, i: int) -> tuple[Piling, CyclingEvent]:
    """Move the bottom a_i-tile to the top of its stacks."""
    s = p.stacks[i]
    if not s or s[0] == ZERO:
        raise NoBottomTile(f"stack {i} does not start with a signed bead")
    q = p.copy()
    letter = _letters(q.graph.n)[i][_pop_bottom_tile(q, i)[0]]
    _fold(q, (letter,))
    return q, CyclingEvent(letter, "cycling")


def is_pyramidal(p: Piling) -> bool:
    apex = _apex(p)
    if apex == 0:
        return False
    for i in range(1, p.graph.n + 1):
        s = p.stacks[i]
        if i != apex and s and s[0] != ZERO:
            return False
    return p.stacks[apex][0] != ZERO


def _pyramidalize(p: Piling) -> tuple[Piling, list[CyclingEvent], int]:
    """Returns (pyramidal piling, cycling events, number of passes).

    Each pass moves the whole 0-factor from the bottom to the top in
    place.  Cycling a tile never cancels in a cyclically reduced piling,
    so this equals cycling the 0-factor's tiles one at a time."""
    if p.is_empty():
        raise EmptyPiling("cannot pyramidalize the empty piling")
    if not is_cyclically_reduced(p):
        raise NotCyclicallyReduced("input piling admits a cyclic reduction")
    supp = p.support()
    if len(support_graph_of_gens(p.graph, supp).components) != 1:
        raise SplitInput("support graph is disconnected")
    q = p.copy()
    apex = min(supp)
    events: list[CyclingEvent] = []
    passes = 0
    while True:
        letters = _extract(q, exclude=apex)
        if not letters:
            return q, events, passes
        passes += 1
        _fold(q, letters)
        events.extend(CyclingEvent(l, "cycling") for l in letters)


def pyramidalize(p: Piling) -> tuple[Piling, list[CyclingEvent]]:
    """Cycle 0-factor tiles bottom-to-top until the piling is pyramidal.
    The number of passes is bounded by the eccentricity of the apex in
    the support graph, hence by the number of generators."""
    q, events, _ = _pyramidalize(p)
    return q, events


def split_components(p: Piling) -> list[Piling]:
    """One piling per connected component of the support graph, ordered
    by minimal generator index; the factors commute pairwise and their
    product is equivalent to p.

    Every bead on a support stack comes from a letter of the same
    component, so a factor keeps its component's stacks as they are.
    A stack outside the support holds only 0 beads, one per signed bead
    on its non-commuting support stacks; a factor keeps the ones its own
    component put there."""
    g = p.graph
    signed = [len(s) - s.count(ZERO) for s in p.stacks]
    supp = [i for i in range(1, g.n + 1) if signed[i]]
    if not supp:
        return []
    outside = [j for j in range(1, g.n + 1) if not signed[j]]
    out = []
    for comp in support_graph_of_gens(g, supp).components:
        f = Piling(g)
        for i in comp:
            f.stacks[i] = deque(p.stacks[i])
            f.signed_count += signed[i]
        for j in outside:
            zeros = sum(signed[i] for i in comp if i in g.noncommute[j])
            f.stacks[j] = deque([ZERO] * zeros)
        out.append(f)
    return out
