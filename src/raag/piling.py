"""The piling data structure and its linear-time algorithms.

A piling is one stack of beads per generator, beads drawn from
``{+1, -1, 0}``.  A letter a_i^e contributes a *tile*: one signed bead
on stack i plus a 0 bead on every stack whose generator does not
commute with a_i.  Tiles are never stored explicitly; the footprint is
recomputed from the defining graph whenever a tile is moved.

A 0 bead carries nothing but its position, so a stack is stored
run-length: a deque of its signed beads, bottom first, and a deque of
the length of the 0 run under each of them.  The 0 run on top of stack
i is a 32-bit field of one int, ``Piling._top``, at bits 32(i-1) up to
32i.  A field holds 2^31 plus its run, so its top bit, the guard bit,
is set while the run is at most 2^31-1 beads.  With ``low`` the ones of
a set of fields and ``high = low << 31`` their guard bits, ``x - low``
shortens each of those runs by one without borrowing from the next
field, and a run that was 0 shows as a cleared guard bit; ``x + low``
lengthens them.  A tile's footprint therefore costs a constant number of
whole-int operations, whatever the degree of its generator.  No stack
holds more than 2^31-1 beads, so no run can pass its field.  The limit
is checked only where beads enter a piling: ``pi_star`` takes at most
2^31-1 letters, each adding at most one bead to a stack, and
``Piling.from_stacks`` checks each stack; both raise ``PilingTooLarge``.
Every other operation keeps or lowers each stack's bead count: a cancel,
a cyclic-reduction pair and a dropping extraction remove beads, and a
relay only rotates a stack and moves 0 runs between its ends.  The field
masks of a graph are built on first use (``_layout``).  ``Piling.stacks``
spells the beads out on demand for display and tests;
``Piling.from_stacks`` builds a piling from such a spelling.

All public operations are pure: they copy their input piling and
return fresh values, and leave it unchanged also when they raise.  They
are built from a private kernel of the push rule (``_fold``) and two
loops on one packed *bottom field*: the largest-index extraction loop
(``_extract``), which skips a given set of stacks and either removes the
tiles it takes or lays them back on top, and the pair loop of
``_cyclic_reduce``.  Each public operation on a piling is a copy
followed by a private form that works in place, for callers that own a
fresh piling: ``_drain`` is ``sigma_star`` and ``_cyclic_reduce``
``cyclic_reduce`` without the copy; ``_pyramidalize`` also skips
``pyramidalize``'s input checks and takes the apexes from its caller.
The deciders own every piling they build, so they copy none.

A tile can be removed from the bottom exactly when its stack starts
with a signed bead (in a valid piling its non-commuting neighbours then
start with 0 beads).  The bottom field packs the bottom 0 runs of all
stacks into one int, each field holding 2^31 *minus* its run; an empty
stack's single run is its bottom run.  ``_bottoms`` builds it in O(n)
once per call, and ``_drop`` or ``_relay`` writes it back.  A
field's guard bit is set exactly when its stack starts with a signed
bead, and removing a tile adds ``low`` once: each neighbour's run drops
by one, and one that falls to 0 carries into its guard bit with no
further work.  In ``_extract`` the ready stacks are the bottom field
ANDed with the guard bits of the stacks that hold a signed bead, and the
next letter is the highest set bit.  Extraction therefore costs a
handful of int operations per letter after an O(n) start, and emits the
interned letters of ``core.letter_table``.  The loop reads each stack
through an iterator over its signed beads and one over its runs, and
changes no deque; one O(n) loop at the end either drops the beads that
each iterator passed (``_drop``) or rotates them to the top of their
stacks (``_relay``), and writes each stack's bottom run back.  A
pyramidalize pass is one relaying extraction: a tile of a cyclically
reduced piling that is cycled to the top never cancels, so the rotated
stacks are what a fold of the extracted letters would build, and no
letter goes through the kernel twice.

``cyclic_reduce`` keeps the bottom field ``cb`` beside a copy ``top`` of
``_top``.  A stack wraps, starting with a signed bead and ending with
the opposite one, when its guard bit in ``cb`` is set, its top run is
0, and its first and last signed beads differ.  With ``opp`` the guard
bits of the stacks whose end beads differ and ``ones`` the low bit of
every field, the wrap mask is ``cb & opp & ~(top - ones)``.  Removing a
wrapping pair is one add to ``cb`` and one subtract from ``top``: each
neighbour loses a 0 bead at both ends, an empty neighbour two beads of
its single run.  Only the fields of the pair's own stack are rewritten,
and ``_drop``, with no beads to drop, writes both fields back at the end.

The kernel loops unpack only exact tuples: ``_Layout.tiles`` holds
plain 4-tuples, and ``_extract`` joins each stack's masks, iterators
and letter row into one tuple per call.  CPython unpacks an exact tuple
directly but a NamedTuple, a tuple subclass, through its generic
iterator path: 57 against 20 ns on 3.11, and 1.7x to 3.7x slower on
3.10, 3.12 and 3.13, once per letter in both loops.
"""
from __future__ import annotations

import struct
from collections import deque
from functools import lru_cache
from itertools import repeat
from operator import length_hint, sub
from typing import Collection, Iterable, NamedTuple, Sequence

from .core import DefiningGraph, Letter, Word, letter_table, support_components

PLUS = 1
MINUS = -1
ZERO = 0

_GUARD = 1 << 31      # the top bit of a field, always set
_RUN = _GUARD - 1     # the bits of a field below it: a 0 run, at most 2^31-1


class PilingError(ValueError):
    pass


class ExtractionStuck(PilingError):
    """A nonempty stack remains but no stack starts with a signed bead:
    the abstract piling is not in the image of the word-to-piling map."""


class PilingTooLarge(PilingError):
    """A stack would hold 2^31 or more beads, past what its packed fields
    can count."""


class EmptyPiling(PilingError):
    pass


class NotCyclicallyReduced(PilingError):
    pass


class _Layout(NamedTuple):
    """The packed fields of one graph, built on first use."""

    # One exact 4-tuple (shift, low, high, keep) per generator index i,
    # entry 0 unused: the offset of field i; the ones of the fields of
    # a_i's non-commuting neighbours; their guard bits; and every bit but
    # the run bits of field i.
    tiles: tuple[tuple[int, int, int, int], ...]
    empty: int                # ``Piling._top`` of the empty piling: the guard bits
    fields: struct.Struct     # n little-endian 32-bit fields


def _shift(i: int) -> int:
    return (i - 1) << 5


@lru_cache
def _layout(g: DefiningGraph) -> _Layout:
    tiles = [(0, 0, 0, 0)]
    ones = (1 << _shift(g.n + 1)) - 1
    for i in range(1, g.n + 1):
        low = sum(1 << _shift(j) for j in g.noncommute[i])
        tiles.append((_shift(i), low, low << 31, ones ^ _RUN << _shift(i)))
    empty = sum(_GUARD << t[0] for t in tiles[1:])
    return _Layout(tuple(tiles), empty, struct.Struct(f"<{g.n}I"))


def _unpack(lay: _Layout, x: int) -> list[int]:
    """The fields of x, indexed from 1 (entry 0 is 0)."""
    return [0, *lay.fields.unpack(x.to_bytes(lay.fields.size, "little"))]


def _pack(lay: _Layout, fields: list[int]) -> int:
    return int.from_bytes(lay.fields.pack(*fields[1:]), "little")


class Piling:
    """N bead stacks over {+,-,0}, stored run-length; bottom of each stack
    is the left end."""

    __slots__ = ("graph", "_beads", "_under", "_top", "_lay")

    def __init__(self, graph: DefiningGraph):
        self.graph = graph
        self._lay = _layout(graph)
        self._beads: list[deque] = [deque() for _ in self._lay.tiles]  # slot 0 unused
        self._under: list[deque] = [deque() for _ in self._lay.tiles]
        self._top = self._lay.empty

    @classmethod
    def from_stacks(cls, graph: DefiningGraph, stacks: Sequence[Sequence[int]]) -> "Piling":
        """A piling with the given bead stacks, indexed by generator like
        ``stacks`` (slot 0 empty, bottom first), whether or not any word
        folds to it."""
        if len(stacks) != graph.n + 1 or stacks[0]:
            raise PilingError(f"expected an empty slot 0 and {graph.n} stacks")
        p = cls(graph)
        fields = [0] * (graph.n + 1)
        for i in range(1, graph.n + 1):
            if len(stacks[i]) > _RUN:
                raise PilingTooLarge(f"stack {i} holds 2^31 or more beads")
            run = 0
            for b in stacks[i]:
                if b not in (PLUS, MINUS, ZERO):
                    raise PilingError(f"bead {b!r} on stack {i} is not +1, -1 or 0")
                if b == ZERO:
                    run += 1
                    continue
                p._beads[i].append(b)
                p._under[i].append(run)
                run = 0
            fields[i] = _GUARD | run
        p._top = _pack(p._lay, fields)
        return p

    @property
    def signed_count(self) -> int:
        """The number of tiles, counted from the stacks in O(n)."""
        return sum(map(len, self._beads))

    @property
    def stacks(self) -> list[tuple[int, ...]]:
        """The beads of each stack, bottom first, spelled out on demand;
        slot 0 is empty."""
        out: list[tuple[int, ...]] = [()]
        for i in range(1, self.graph.n + 1):
            beads, under = self._beads[i], self._under[i]
            s = [ZERO] * (sum(under) + len(beads) + _top_run(self, i))
            at = -1
            for sign, run in zip(beads, under):
                at += run + 1
                s[at] = sign
            out.append(tuple(s))
        return out

    def copy(self) -> "Piling":
        q = Piling.__new__(Piling)
        q.graph, q._lay, q._top = self.graph, self._lay, self._top
        q._beads = list(map(deque, self._beads))
        q._under = list(map(deque, self._under))
        return q

    def is_empty(self) -> bool:
        return self._top == self._lay.empty and not any(self._beads)

    def support(self) -> frozenset[int]:
        return frozenset(i for i, s in enumerate(self._beads) if s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Piling):
            return NotImplemented
        return (self.graph == other.graph and self._top == other._top
                and self._beads == other._beads and self._under == other._under)

    def __repr__(self) -> str:
        return f"<Piling {self.signed_count} signed beads>"


def _top_run(p: Piling, i: int) -> int:
    return p._top >> _shift(i) & _RUN


def _lowest_field(bits: int) -> int:
    """Index of the lowest field whose guard bit is set in ``bits``."""
    return (bits & -bits).bit_length() >> 5


def _fold(p: Piling, w: Word) -> None:
    """The push rule, in place, for each letter of w in turn: cancel the
    top tile of the letter's stack if it carries the opposite sign,
    else add a tile on top.  A cancel whose neighbours do not all end
    with a 0 bead raises PilingError and leaves the piling as the
    letters before it made it.

    The caller keeps every stack at 2^31-1 beads or fewer, past which a
    run would carry into the next field; each letter adds at most one
    bead to a stack, so at most 2^31-1 letters on the empty piling, as
    ``pi_star`` folds, are safe.  Each letter unpacks its exact 4-tuple
    from ``_Layout.tiles`` (see the module docstring)."""
    top = p._top
    beads, under, tiles = p._beads, p._under, p._lay.tiles
    try:
        for gen, sign in w:
            sh, lo, h, keep = tiles[gen]
            run = top >> sh & _RUN
            if run:
                # a 0 bead on top: push, and empty the top run of stack gen
                beads[gen].append(sign)
                under[gen].append(run)
                top = (top & keep) + lo
                continue
            s = beads[gen]
            if s and s[-1] != sign:
                t = top - lo
                if t & h != h:
                    raise PilingError(
                        f"stack {_lowest_field(h & ~t)} does not end with a 0 bead "
                        f"over the top tile of {gen}")
                s.pop()
                top = t | under[gen].pop() << sh
                continue
            s.append(sign)
            under[gen].append(0)
            top += lo
    finally:
        p._top = top


def _bottoms(p: Piling) -> int:
    """The bottom field of p: field j holds 2^31 minus the bottom 0 run
    of stack j, a value from 1 to 2^31, so no field borrows or carries
    (see the module docstring)."""
    lay = p._lay
    return _pack(lay, [_GUARD - (u[0] if u else t & _RUN)
                       for u, t in zip(p._under, _unpack(lay, p._top))])


def _extract(p: Piling, exclude: Collection[int] = (), relay: bool = False) -> list[Letter]:
    """Repeatedly remove the bottom tile of the largest-index stack
    not in ``exclude`` that starts with a signed bead, in place,
    until there is none; returns the removed letters in order.  Raises
    ExtractionStuck, with the offending tile not removed, if a neighbour
    of that tile has no 0 bead at the bottom.

    With ``relay`` the removed tiles are laid back on top of the piling
    in the order removed, as a fold of the returned letters would lay
    them on a cyclically reduced piling, where none of them cancels:
    one pass of ``_pyramidalize``.

    Works on the bottom field ``cb``, whose guard bit of field j is set
    exactly when stack j starts with a signed bead.  An a_i-tile is
    stuck when ``cb & high`` is not 0; removing it is ``cb += low``, and
    then stack i's next bottom run (under its next signed bead, or its
    top run once it is empty) is subtracted from its field.  The loop
    reads each stack through an iterator over its signed beads and one
    over the runs under them, and changes no deque; on the way out, also
    when the extraction gets stuck, ``_drop`` or ``_relay`` settles each
    stack in one loop from the number of beads its iterator has passed.

    An O(n) start joins each stack's tile masks, iterators and letter
    row into one exact tuple, so each letter finds all it needs in one
    fast unpack (see the module docstring)."""
    beads, tiles = p._beads, p._lay.tiles
    letters = letter_table(p.graph.n)
    top = p._top
    cb = _bottoms(p)
    # guard bits of the stacks outside ``exclude`` that hold a signed bead
    occupied = sum(_GUARD << t[0] for j, t in enumerate(tiles) if beads[j] and j not in exclude)
    signs = list(map(iter, beads))
    runs = list(map(iter, p._under))
    list(map(next, runs, repeat(None)))  # step past each first run: cb holds it
    # per stack: (shift, low, high, keep, signs, runs, letter row)
    rows = list(map(tuple.__add__, tiles, zip(signs, runs, letters)))
    out: list[Letter] = []
    try:
        while ready := cb & occupied:
            i = ready.bit_length() >> 5
            sh, lo, h, _, b, u, row = rows[i]
            if cb & h:
                raise ExtractionStuck(
                    f"stack {_lowest_field(cb & h)} does not start with a 0 bead "
                    f"under the bottom tile of {i}")
            out.append(row[next(b)])
            cb += lo
            nxt = next(u, None)
            if nxt is None:
                occupied ^= _GUARD << sh
                nxt = top >> sh & _RUN
            if nxt:
                cb -= nxt << sh
    finally:
        if out:  # else cb is still what _bottoms read: nothing to settle
            # per stack, the signed beads its iterator passed, each read
            # before the settle changes that stack
            taken = map(sub, map(len, beads), map(length_hint, signs))
            (_relay if relay else _drop)(p, cb, top, taken)
    return out


def _drop(p: Piling, cb: int, top: int, taken: Iterable[int]) -> None:
    """Settle an extraction that removes its tiles, or a cyclic
    reduction, which takes none: each stack pops the k beads it gave
    from the bottom and takes its bottom run from cb, an empty stack its
    single run into the top field top, which becomes ``_top``."""
    lay = p._lay
    tops = _unpack(lay, top)
    for j, (b, u, k, f) in enumerate(zip(p._beads, p._under, taken, _unpack(lay, cb))):
        if k:
            if k == len(b):
                b.clear()
                u.clear()
            else:  # stopped by an excluded or a blocked tile
                for _ in range(k):
                    b.popleft()
                    u.popleft()
        if u:
            u[0] = _GUARD - f
        else:
            tops[j] = _GUARD | _GUARD - f
    p._top = _pack(lay, tops)


def _relay(p: Piling, cb: int, top: int, taken: Iterable[int]) -> None:
    """Settle an extraction that lays its tiles back on top.  A stack
    that gave k of its m signed beads rotates both deques by k.  Its
    bottom run r comes from cb, and the 0 beads that the pass took from
    the run under its next signed bead (or from its top run, once it is
    empty) become its new top run.  The old top run joins the run under
    the first relaid bead, the seam; a stack that gave no bead lays the
    0 beads it lost at the bottom on its top run instead.  A relay keeps
    each stack's bead count, so no seam passes 2^31-1 beads."""
    lay = p._lay
    tops = _unpack(lay, top)
    for j, (b, u, k, f) in enumerate(zip(p._beads, p._under, taken, _unpack(lay, cb))):
        if not u:  # an empty stack gets back on top the 0 beads it lost
            continue
        r = _GUARD - f
        if not k:
            tops[j] += u[0] - r
            u[0] = r
        elif k < len(u):
            b.rotate(-k)
            u.rotate(-k)
            u[-k] += tops[j] & _RUN
            tops[j] = _GUARD | u[0] - r
            u[0] = r
        else:  # its single run, left after the last bead went
            tops[j] -= r
            u[0] += r
    p._top = _pack(lay, tops)


def pi_star(g: DefiningGraph, w: Word) -> Piling:
    """Left fold of the push rule over the word; O(length) with a
    constant depending only on the graph.  A word of more than 2^31-1
    letters raises PilingTooLarge before any letter is read: it could
    put more beads on one stack than its fields can count."""
    if len(w) > _RUN:
        raise PilingTooLarge(f"word of {len(w)} letters; a piling takes at most {_RUN}")
    p = Piling(g)
    _fold(p, w)
    return p


def _drain(p: Piling) -> Word:
    """Extract the normal word of p in place, leaving p empty; raises
    ExtractionStuck if p is not the piling of a word."""
    out = _extract(p)
    if p.signed_count:
        raise ExtractionStuck("no stack starts with a signed bead")
    if not p.is_empty():
        raise ExtractionStuck("0 beads left over after extracting all signed beads")
    return tuple(out)


def sigma_star(p: Piling) -> Word:
    """Extract the normal word: always emit the largest generator index
    whose stack starts with a signed bead, then remove its bottom tile."""
    return _drain(p.copy())


def _letter_counts(p: Piling) -> tuple[tuple[int, int], ...]:
    """Per stack, the number of signed beads and of + beads among them:
    how often the piling's tiles use a_i and a_i^-1.  O(n) calls; the
    counting runs in C."""
    return tuple((len(s), s.count(PLUS)) for s in p._beads)


def is_cyclically_reduced(p: Piling) -> bool:
    """No stack starts with a signed bead and ends with the opposite one."""
    return not any(s and not u[0] and not _top_run(p, i) and s[-1] == -s[0]
                   for i, (s, u) in enumerate(zip(p._beads, p._under)))


def cyclic_reduce(p: Piling) -> tuple[Piling, list[Letter]]:
    """Remove matching bottom/top tile pairs of opposite signs until no
    stack starts with one sign and ends with the other.  Returns the
    cyclically reduced piling and the bottom letter of each removed
    pair, in the order removed: a reduction is a cycling followed by a
    cancellation, so these letters conjugate p to the result and move a
    base vertex the same way.  The pairs go highest stack first, so
    ``events`` may list commuting letters in another order than earlier
    versions, which swept the stacks from 1 to n, did; it is the same
    element with the same letters.  Raises
    ExtractionStuck or PilingError, leaving p unchanged, if a neighbour
    of a pair lacks the 0 bead at the bottom or top that the pair needs."""
    q = p.copy()
    return q, _cyclic_reduce(q)


def _cyclic_reduce(p: Piling) -> list[Letter]:
    """``cyclic_reduce`` in place: p becomes the cyclically reduced
    piling, and the bottom letters of the removed pairs are returned.
    A pair that cannot be removed raises with the pairs before it
    removed and p a valid piling.

    One loop on the bottom field ``cb`` and a copy ``top`` of ``_top``
    (see the module docstring): the highest stack in the wrap mask loses
    its pair, every neighbour's fields move by one add or subtract, and
    only that stack's own fields and ``opp`` bit are rewritten.  Both
    go back into p on the way out, as in ``_extract``."""
    beads, under, tiles = p._beads, p._under, p._lay.tiles
    letters = letter_table(p.graph.n)
    ones = p._lay.empty >> 31
    cb, top = _bottoms(p), p._top
    # the guard bits of the stacks whose end beads differ; the low bits of the empty stacks
    opp = sum(_GUARD << t[0] for t, s in zip(tiles[1:], beads[1:]) if s and s[0] != s[-1])
    elow = sum(1 << t[0] for t, s in zip(tiles[1:], beads[1:]) if not s)
    events: list[Letter] = []
    try:
        while wrap := cb & opp & ~(top - ones):
            i = wrap.bit_length() >> 5
            sh, lo, h, _ = tiles[i]
            if cb & h:
                raise ExtractionStuck(
                    f"stack {_lowest_field(cb & h)} does not start with a 0 bead "
                    f"under the bottom tile of {i}")
            # an empty neighbour's single run loses a bead at both ends
            d = lo + (lo & elow)
            t = top - d
            if t & h != h:
                raise PilingError(
                    f"stack {_lowest_field(h & ~t)} does not end with a 0 bead "
                    f"over the top tile of {i}")
            b, u = beads[i], under[i]
            events.append(letters[i][b.popleft()])
            b.pop()
            u.popleft()
            run = u.pop()
            top = t | run << sh
            if not u:
                elow |= 1 << sh
            if not b or b[0] == b[-1]:
                opp ^= _GUARD << sh
            # stack i's new bottom run: under its next signed bead, or its one run
            cb += d - ((u[0] if u else run) << sh)
    finally:
        _drop(p, cb, top, repeat(0))
    return events


def pyramidalize(p: Piling) -> tuple[Piling, list[Letter], int]:
    """Cycle 0-factor tiles bottom-to-top until each component of the
    support graph is pyramidal over its own apex, its least index.
    Returns the pyramidal piling, the cycled letters in the order cycled
    (a conjugator from p to the result) and the number of passes.

    Each pass moves the 0-factors of all components from the bottom to
    the top in place: one extraction that skips every component's apex
    and lays the tiles it takes back on top of their stacks.  Components
    never compete for a stack: a support stack holds beads of its own
    component's tiles only, and a stack outside the support holds only 0
    beads, which block no tile.  So the pass moves each component's
    0-factor in that component's own order, interleaved with the others.
    Cycling a tile never cancels in a cyclically reduced piling, so this
    equals cycling the 0-factors' tiles one at a time, and no letter is
    folded again.  The passes number at most the largest eccentricity of
    an apex in its component, which is below n; a pass beyond n raises
    PilingError instead of looping on."""
    if p.is_empty():
        raise EmptyPiling("cannot pyramidalize the empty piling")
    if not is_cyclically_reduced(p):
        raise NotCyclicallyReduced("input piling admits a cyclic reduction")
    q = p.copy()
    events, passes = _pyramidalize(q, {c[0] for c in support_components(p.graph, p.support())})
    return q, events, passes


def _pyramidalize(p: Piling, apexes: Collection[int]) -> tuple[list[Letter], int]:
    """``pyramidalize`` in place on a nonempty cyclically reduced piling
    p, given the apex of each component: p becomes the pyramidal piling,
    and the cycled letters and the number of passes are returned.  A
    pass is one relaying ``_extract``; the loop ends at the first pass
    that takes no tile."""
    events: list[Letter] = []
    passes = 0
    while letters := _extract(p, apexes, relay=True):
        passes += 1
        if passes > p.graph.n:
            raise PilingError(f"pyramidalize did not settle within {p.graph.n} passes")
        events += letters
    return events, passes
