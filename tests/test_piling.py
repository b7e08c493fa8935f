import random
import re
import sys
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from raag.core import _MAX_LETTERS, inverse_word, support_components
from raag.piling import (_RUN, ZERO, Piling, _cyclic_reduce, _extract, _fold, _layout,
                         _top_run, is_cyclically_reduced)
from raag import (
    EmptyPiling,
    ExtractionStuck,
    Letter,
    NotCyclicallyReduced,
    PilingError,
    PilingTooLarge,
    build_graph,
    cyclic_normal_factors,
    cyclic_reduce,
    parse_word,
    pi_star,
    pyramidalize,
    sigma_star,
)
from .conftest import random_equivalent_rewrite, random_graph, random_reduced_word, random_word

EXAMPLE_WORD = "a2^-2 a4^-1 a3 a2 a4 a1 a2 a1^-1 a2^2 a4^-1"


def apex(p):
    """Smallest index whose stack contains a signed bead, or 0."""
    return min(p.support(), default=0)


def starts_signed(p, i):
    return bool(p._beads[i]) and not p._under[i][0]


def is_pyramidal(p):
    """Only the apex stack starts with a signed bead."""
    a = apex(p)
    return a != 0 and all(starts_signed(p, i) == (i == a) for i in range(1, p.graph.n + 1))


def support_components_of(g, w):
    return support_components(g, {l.gen for l in w})


def cycle_bottom(p, i):
    """Move the bottom a_i-tile of a copy of p to the top of its stacks;
    also returns its letter.  The tile leaves the spelled-out stacks and
    is pushed back on top by the push rule.  Raises ExtractionStuck if
    stack i does not start with a signed bead or a neighbour does not
    start with a 0 bead."""
    stacks = [list(s) for s in p.stacks]
    tile = [i, *p.graph.noncommute[i]]
    if not stacks[i] or stacks[i][0] == ZERO or any(
            not stacks[j] or stacks[j][0] != ZERO for j in tile[1:]):
        raise ExtractionStuck(f"no bottom tile of {i} to cycle")
    l = Letter(i, stacks[i][0])
    for j in tile:
        del stacks[j][0]
    q = Piling.from_stacks(p.graph, stacks)
    _fold(q, (l,))
    return q, l


def decompose(p):
    """Unique splitting p = p0 . p1 with p1 pyramidal (apex = smallest
    index carrying a signed bead) and p0 free of apex beads."""
    p1 = p.copy()
    return pi_star(p.graph, _extract(p1, {apex(p1)})), p1


def format_piling(p):
    """One line per stack, beads bottom-to-top."""
    chars = {1: "+", -1: "-", ZERO: "0"}
    return "\n".join(f"{p.graph.name(i)}: {' '.join(chars[b] for b in s)}".rstrip()
                     for i, s in enumerate(p.stacks[1:], start=1))


def stacks_as_lists(p):
    return [list(s) for s in p.stacks[1:]]


def test_push_single_letter(example_graph):
    g = example_graph
    p = pi_star(g, ())
    _fold(p, (Letter(2, -1),))
    # a2 does not commute with a1 only, so the tile is a minus bead on
    # stack 2 and a zero bead on stack 1
    assert stacks_as_lists(p) == [[0], [-1], [], []]


def test_push_cancellation(example_graph):
    g = example_graph
    p = pi_star(g, parse_word(g, "a2 a2^-1"))
    assert p.is_empty()
    p = pi_star(g, parse_word(g, "a1 a4 a1^-1"))
    # a1 and a4 commute, so the a1 beads cancel through the a4 tile
    assert p == pi_star(g, parse_word(g, "a4"))


def test_pi_star_example_stacks(example_graph):
    g = example_graph
    p = pi_star(g, parse_word(g, EXAMPLE_WORD))
    assert stacks_as_lists(p) == [
        [0, 0, 1, 0, -1, 0, 0],
        [-1, 0, 1, 0, 1, 1],
        [0, 1, 0, 0],
        [-1, 0],
    ]
    assert p.signed_count == 8


def test_sigma_star_example(example_graph):
    g = example_graph
    p = pi_star(g, parse_word(g, EXAMPLE_WORD))
    assert sigma_star(p) == parse_word(g, "a4^-1 a3 a2^-1 a1 a2 a1^-1 a2 a2")


def test_sigma_star_prefers_largest_index(example_graph):
    g = example_graph
    # a1 and a4 commute, so both orders represent the same element and
    # the extraction rule picks a4 first
    assert sigma_star(pi_star(g, parse_word(g, "a1 a4"))) == \
        parse_word(g, "a4 a1")


def hand_built(g, *stacks):
    """A piling with the given stacks of a1, a2, ... (bottom first),
    whether or not any word folds to it."""
    return Piling.from_stacks(g, [(), *stacks])


def test_sigma_star_rejects_invalid_pilings():
    free = build_graph(("a1", "a2"), [])
    commuting = build_graph(("a1", "a2"), [("a1", "a2")])
    cases = [
        # the a1-tile needs a 0 bead on stack a2, which is empty
        (hand_built(free, [1], []), "stack 2 does not start with a 0 bead"),
        # the a2-tile needs a 0 bead at the bottom of stack a1, not a signed one
        (hand_built(free, [1], [-1]), "stack 1 does not start with a 0 bead"),
        # a 0 bead that no signed bead accounts for
        (hand_built(free, [], [0]), "0 beads left over"),
        # a signed bead buried under a 0 bead with no tile above it
        (hand_built(commuting, [0, 1], []), "no stack starts with a signed bead"),
    ]
    for p, message in cases:
        with pytest.raises(ExtractionStuck, match=message):
            sigma_star(p)


def test_from_stacks_round_trip_and_errors(example_graph):
    g = example_graph
    p = pi_star(g, parse_word(g, EXAMPLE_WORD))
    q = Piling.from_stacks(g, p.stacks)
    assert q == p and q.signed_count == p.signed_count
    assert [s[-1] for s in q.stacks[1:]] == [0, 1, 0, 0]
    with pytest.raises(PilingError, match="empty slot 0"):
        Piling.from_stacks(g, p.stacks[1:])
    with pytest.raises(PilingError, match="not \\+1, -1 or 0"):
        hand_built(g, [2], [], [], [])
    # the length is checked before any bead is read
    with pytest.raises(PilingTooLarge):
        hand_built(g, range(2 ** 31), [], [], [])


def test_cancel_needs_zero_beads_on_top():
    """a1 does not commute with a2 or a3.  Cancelling the top a1-tile
    needs a 0 bead on top of both stacks; stack a3 ends with a signed
    bead, so the push fails and changes nothing, not even stack a2."""
    g = build_graph(("a1", "a2", "a3"), [("a2", "a3")])
    p = hand_built(g, [1], [0, 0], [0, -1])
    before = p.stacks
    with pytest.raises(PilingError, match="stack 3 does not end with a 0 bead"):
        _fold(p, (Letter(1, -1),))
    assert p.stacks == before and p.signed_count == 2


def test_pi_star_past_the_run_limit_raises():
    """Beads enter a piling only through ``pi_star`` and
    ``Piling.from_stacks``, so those two are the only doors that check
    the 2^31-1 limit.  A word of 2^31 letters raises before a letter is
    read: a range holds ints, not letters, and reading one would fail
    otherwise.  The parser refuses longer words by the same bound."""
    g = build_graph(("a1", "a2"), [])
    with pytest.raises(PilingTooLarge):
        pi_star(g, range(2 ** 31))
    assert _MAX_LETTERS == _RUN


def test_format_piling_runs(example_graph):
    g = example_graph
    text = format_piling(pi_star(g, parse_word(g, "a2^-1")))
    assert "a1: 0" in text and "a2: -" in text


def test_roundtrip_random_words(example_graph):
    g = example_graph
    rng = random.Random(7)
    for _ in range(200):
        w = random_word(g, rng.randrange(0, 30), rng)
        nf = sigma_star(pi_star(g, w))
        assert pi_star(g, nf) == pi_star(g, w)
        # the normal form is stable
        assert sigma_star(pi_star(g, nf)) == nf


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pi_star_is_a_homomorphism_on_concatenation(data):
    g = build_graph(("a1", "a2", "a3", "a4"),
                    [("a1", "a4"), ("a2", "a3"), ("a2", "a4")])
    u = data.draw(st.lists(
        st.builds(Letter, st.integers(1, 4), st.sampled_from((1, -1))),
        max_size=12).map(tuple))
    v = data.draw(st.lists(
        st.builds(Letter, st.integers(1, 4), st.sampled_from((1, -1))),
        max_size=12).map(tuple))
    lhs = pi_star(g, u + v)
    rhs = pi_star(g, u)
    for letter in v:
        _fold(rhs, (letter,))
    assert lhs == rhs


def test_equality_compares_commutations():
    free = build_graph(("a1", "a2", "a3"), [])
    partly = build_graph(("a1", "a2", "a3"), [("a2", "a3")])
    a1 = (Letter(1, 1),)
    # same names and the same stacks, but different groups
    assert pi_star(free, a1) != pi_star(partly, a1)
    assert pi_star(free, ()) != pi_star(partly, ())
    assert pi_star(free, a1) == pi_star(build_graph(("a1", "a2", "a3"), []), a1)


def test_word_problem_via_piling(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a4 a2 a4^-1 a2^-1 a1^-1")
    # a2 and a4 commute so this is trivial
    assert pi_star(g, w).is_empty()
    assert not pi_star(g, parse_word(g, "a1 a2 a1^-1 a2^-1")).is_empty()


def test_cyclic_reduce_example(example_graph):
    g = example_graph
    p = pi_star(g, parse_word(g, EXAMPLE_WORD))
    q, events = cyclic_reduce(p)
    assert q.signed_count == 6
    assert is_cyclically_reduced(q)
    # each removed pair logged its bottom letter once
    assert events == [Letter(2, -1)]


def test_cyclic_reduce_conjugation_invariant(example_graph):
    g = example_graph
    rng = random.Random(3)
    for _ in range(100):
        w = random_word(g, rng.randrange(1, 16), rng)
        c = random_word(g, rng.randrange(0, 6), rng)
        p, _ = cyclic_reduce(pi_star(g, w))
        q, _ = cyclic_reduce(pi_star(g, c + w + inverse_word(c)))
        # cyclic reduction of conjugate words has the same size
        assert p.signed_count == q.signed_count


def test_cycle_bottom(example_graph):
    g = example_graph
    p = pi_star(g, parse_word(g, "a1 a2 a3"))
    q, l = cycle_bottom(p, 1)
    assert l == Letter(1, 1)
    assert q == pi_star(g, parse_word(g, "a2 a3 a1"))
    with pytest.raises(ExtractionStuck):
        cycle_bottom(pi_star(g, ()), 1)


def test_decompose_split_pieces(example_graph):
    g = example_graph
    # a4 and a2 commute: apex is 2, the 0-factor is a4 alone
    p = pi_star(g, parse_word(g, "a4 a2"))
    p0, p1 = decompose(p)
    assert apex(p1) == 2
    assert p0 == pi_star(g, parse_word(g, "a4"))
    assert p1 == pi_star(g, parse_word(g, "a2"))


def test_decompose_pyramidal_input(example_graph):
    g = example_graph
    # a3 a4 do not commute; apex 3 dominates everything here
    p = pi_star(g, parse_word(g, "a3 a4"))
    p0, p1 = decompose(p)
    assert apex(p1) == 3
    assert p0.is_empty()
    assert p1 == p


def test_is_pyramidal(example_graph):
    g = example_graph
    assert is_pyramidal(pi_star(g, parse_word(g, "a3 a4")))
    assert not is_pyramidal(pi_star(g, parse_word(g, "a4 a3")))
    assert not is_pyramidal(pi_star(g, parse_word(g, "a4 a2")))


def test_pyramidalize_example(example_graph):
    g = example_graph
    p, _ = cyclic_reduce(pi_star(g, parse_word(g, EXAMPLE_WORD)))
    q, events, passes = pyramidalize(p)
    assert is_pyramidal(q)
    assert sigma_star(q) == parse_word(g, "a1 a2 a1^-1 a3 a4^-1 a2")
    assert events == list(parse_word(g, "a4^-1 a3 a4^-1"))
    # iteration bound: eccentricity of the apex in the support graph
    assert passes <= 2


def test_pyramidalize_bounds_its_passes(example_graph, monkeypatch):
    """An extraction that never comes back empty ends in PilingError
    after n passes, not in an endless loop."""
    g = example_graph
    p, _ = cyclic_reduce(pi_star(g, parse_word(g, EXAMPLE_WORD)))
    calls = []

    def never_empty(q, exclude=(), relay=False):
        calls.append(1)
        return [Letter(1, 1)]

    monkeypatch.setattr("raag.piling._extract", never_empty)
    before = p.copy()
    with pytest.raises(PilingError, match="passes"):
        pyramidalize(p)
    assert len(calls) == g.n + 1
    assert p == before  # the public form cycled a copy


def test_pyramidalize_rejects_bad_input(example_graph):
    g = example_graph
    with pytest.raises(EmptyPiling, match="empty piling"):
        pyramidalize(pi_star(g, ()))
    with pytest.raises(NotCyclicallyReduced):
        pyramidalize(pi_star(g, parse_word(g, "a1 a2 a1^-1")))
    # a1 and a4 commute: two components, each pyramidal over its own apex
    p = pi_star(g, parse_word(g, "a1 a4"))
    q, events, _ = pyramidalize(p)
    assert q == p and events == []
    assert [i for i in range(1, 5) if starts_signed(q, i)] == [1, 4]


def test_pyramidalize_random_bound(example_graph):
    g = example_graph
    rng = random.Random(11)
    done = 0
    while done < 100:
        w = random_reduced_word(g, rng.randrange(1, 14), rng)
        p, _ = cyclic_reduce(pi_star(g, w))
        if p.is_empty():
            continue
        if len(support_components_of(g, sigma_star(p))) != 1:
            continue
        q, _, passes = pyramidalize(p)
        assert is_pyramidal(q)
        assert passes <= g.n
        done += 1


def test_pyramidalize_preserves_conjugacy_class(example_graph):
    g = example_graph
    p, _ = cyclic_reduce(pi_star(g, parse_word(g, EXAMPLE_WORD)))
    q, events, _ = pyramidalize(p)
    # cycling letter y sends w to y^-1 w y, so the product of the cycled
    # letters is a conjugating element from the input to the output
    w = sigma_star(p)
    assert pi_star(g, inverse_word(events) + w + tuple(events)) == q


def test_path_graph_pyramidalize_terminates():
    # a3 a2 a1 over the path a1-a2-a3 needs cycling through resurfacing
    # beads; this is the shape that defeats naive one-tile-at-a-time passes
    g = build_graph(("a1", "a2", "a3"), [("a1", "a3")])
    p = pi_star(g, parse_word(g, "a3 a2 a1"))
    q, _, passes = pyramidalize(p)
    assert is_pyramidal(q)
    assert passes <= 3


def test_pyramidalize_counts_are_linear(example_graph):
    """On (a3 a4)^m a1 every tile but a1 is cycled once, in one pass,
    whatever m: the work counted in tiles grows linearly."""
    g = example_graph
    counts = set()
    for m in (500, 1000, 2000):
        p, reductions = cyclic_reduce(pi_star(g, parse_word(g, "a3 a4 " * m + "a1")))
        assert len(support_components_of(g, sigma_star(p))) == 1
        _, events, passes = pyramidalize(p)
        counts.add((len(reductions), passes, len(events) - 2 * m))
        # the letters are interned: one object per letter, not per tile
        assert len(set(map(id, events))) == 2
    assert counts == {(0, 1, 0)}


def test_pyramidalize_copies_a_constant_number_of_times(example_graph, monkeypatch):
    """(a3 a4)^m a1 cycles nearly every tile; the number of piling
    copies must not grow with m."""
    g = example_graph
    real_copy = Piling.copy
    copies = []

    def counting_copy(p):
        copies.append(p)
        return real_copy(p)

    monkeypatch.setattr(Piling, "copy", counting_copy)
    counts = []
    for m in (500, 2000):
        copies.clear()
        cyclic_normal_factors(g, parse_word(g, "a3 a4 " * m + "a1"))
        counts.append(len(copies))
    assert counts[0] == counts[1]


def split_by_refolding(p):
    """Reference: extract the whole word, then fold each component's
    subword again."""
    if p.is_empty():
        return []
    w = sigma_star(p)
    comps = support_components_of(p.graph, w)
    return [pi_star(p.graph, tuple(l for l in w if l.gen in comp)) for comp in comps]


def pyramidalize_tile_by_tile(p):
    """Reference for a one-component piling: per pass, decompose and
    cycle the 0-factor's tiles one at a time, copying the piling for each
    tile."""
    q, events, passes = p, [], 0
    while True:
        p0, _ = decompose(q)
        letters = sigma_star(p0)
        if not letters:
            return q, events, passes
        passes += 1
        for gen, _ in letters:
            q, l = cycle_bottom(q, gen)
            events.append(l)


def fold_beads(g, w):
    """Reference: the push rule on explicit bead stacks, one Python step
    per non-commuting stack.  Returns the stacks (slot 0 unused) and the
    number of signed beads."""
    stacks = [deque() for _ in range(g.n + 1)]
    count = 0
    for gen, sign in w:
        s = stacks[gen]
        if s and s[-1] == -sign:
            s.pop()
            for j in g.noncommute[gen]:
                assert stacks[j].pop() == ZERO
            count -= 1
        else:
            s.append(sign)
            for j in g.noncommute[gen]:
                stacks[j].append(ZERO)
            count += 1
    return stacks, count


def extract_by_scanning(g, stacks, exclude=()):
    """Reference: the scan-from-n greedy loop on explicit bead stacks, in
    place.  Emit the largest-index stack not in ``exclude`` that starts
    with a signed bead, pop its tile, and scan again from n.  A tile that
    a neighbour without a 0 bead at the bottom blocks raises
    ExtractionStuck, naming the lowest such neighbour, and stays put."""
    out = []
    while True:
        for i in range(g.n, 0, -1):
            if i not in exclude and stacks[i] and stacks[i][0] != ZERO:
                break
        else:
            return out
        blocked = [j for j in sorted(g.noncommute[i]) if not stacks[j] or stacks[j][0] != ZERO]
        if blocked:
            raise ExtractionStuck(f"stack {blocked[0]} does not start with a 0 bead "
                                  f"under the bottom tile of {i}")
        out.append(Letter(i, stacks[i].popleft()))
        for j in g.noncommute[i]:
            stacks[j].popleft()


def cyclic_reduce_by_scanning(g, stacks):
    """Reference: the sweeps of earlier versions on explicit bead stacks,
    in place.  Sweep i from 1 to n; while stack i starts with a signed
    bead and ends with the opposite one, remove its bottom tile, then
    cancel the top one.  Sweep again until a sweep removes nothing.
    Returns the bottom letters of the removed pairs in order.  A
    neighbour with no 0 bead at the bottom raises ExtractionStuck, and
    one with no 0 bead on top once the bottom tile is gone raises
    PilingError; each names the lowest such neighbour."""
    def blocked(i, end):
        return [j for j in sorted(g.noncommute[i]) if not stacks[j] or stacks[j][end] != ZERO]

    events = []
    changed = True
    while changed:
        changed = False
        for i in range(1, g.n + 1):
            s = stacks[i]
            while s and s[0] != ZERO and s[-1] == -s[0]:
                if stuck := blocked(i, 0):
                    raise ExtractionStuck(f"stack {stuck[0]} does not start with a 0 bead "
                                          f"under the bottom tile of {i}")
                for j in g.noncommute[i]:
                    stacks[j].popleft()
                if stuck := blocked(i, -1):
                    raise PilingError(f"stack {stuck[0]} does not end with a 0 bead "
                                      f"over the top tile of {i}")
                for j in g.noncommute[i]:
                    stacks[j].pop()
                events.append(Letter(i, s.popleft()))
                s.pop()
                changed = True
    return events


def stacks_of(p):
    return [tuple(s) for s in p.stacks]


def bead_counts(p):
    return [len(s) for s in p.stacks]


def test_kernel_matches_references_on_random_graphs():
    rng = random.Random(2024)
    relay_rng = random.Random(2025)  # its own stream, so the other cases stay as they were
    relayed = Counter()  # (some tile relaid, every tile relaid)
    # 64 and 65 generators put fields past a 64-bit machine word, and
    # the packed ints past 2048 bits
    sizes = [rng.randrange(2, 8) for _ in range(1000)] + [16, 64, 65] * 40
    for k, n in enumerate(sizes):
        g = random_graph(rng, n)
        w = random_word(g, rng.randrange(0, 41 if n < 8 else 161), rng)
        if k % 2:
            # x . u . rewrite(u)^-1 folds to the piling of x through pushes
            # and cancels in every order
            v = w
            for _ in range(rng.randrange(1, 6)):
                v = random_equivalent_rewrite(g, v, rng)
            w = random_word(g, rng.randrange(0, 2 * n), rng) + w + inverse_word(v)
        folded = pi_star(g, w)
        ref, count = fold_beads(g, w)
        assert stacks_of(folded) == list(map(tuple, ref))
        assert folded.signed_count == count
        assert sigma_star(folded) == tuple(extract_by_scanning(g, [deque(s) for s in ref]))
        # any set of stacks, from none to all of them
        exclude = set(rng.sample(range(1, n + 1), rng.randrange(0, n + 1)))
        q = folded.copy()
        assert _extract(q, exclude) == extract_by_scanning(g, ref, exclude)
        assert stacks_of(q) == list(map(tuple, ref))
        # the invariant behind the one 2^31-1 check in pi_star: no stack
        # grows but by a fold
        assert all(x <= y for x, y in zip(bead_counts(q), bead_counts(folded)))
        assert q.signed_count == sum(len(s) - s.count(ZERO) for s in ref)
        assert q == Piling.from_stacks(g, q.stacks)
        p, events = cyclic_reduce(folded)
        assert all(x <= y for x, y in zip(bead_counts(p), bead_counts(folded)))
        ref = [deque(s) for s in folded.stacks]
        ref_events = cyclic_reduce_by_scanning(g, ref)
        assert stacks_of(p) == list(map(tuple, ref))
        # the same letters and the same element, perhaps in another order
        assert sorted(events) == sorted(ref_events)
        assert pi_star(g, events) == pi_star(g, ref_events)
        # the removed pairs' bottom letters conjugate the input to the result
        assert pi_star(g, inverse_word(events) + sigma_star(folded) + tuple(events)) == p
        if p.is_empty():
            continue
        # a relay lays the extracted tiles back on top: the refold of the
        # remaining piling's word followed by the extracted letters
        exclude = set(relay_rng.sample(range(1, n + 1), relay_rng.randrange(0, n + 1)))
        q, rest = p.copy(), p.copy()
        letters = _extract(q, exclude, relay=True)
        assert letters == _extract(rest, exclude)
        assert q == pi_star(g, sigma_star(rest) + tuple(letters))
        assert bead_counts(q) == bead_counts(p)
        relayed[bool(letters), rest.is_empty()] += 1
        # the joint passes against one reference run per component
        q, events, passes = pyramidalize(p)
        assert bead_counts(q) == bead_counts(p)
        refs = [pyramidalize_tile_by_tile(part) for part in split_by_refolding(p)]
        assert q == pi_star(g, tuple(l for r in refs for l in sigma_star(r[0])))
        assert passes == max(r[2] for r in refs)
        comp = {i: k for k, c in enumerate(support_components_of(g, sigma_star(p)))
                for i in c}
        assert sorted(events, key=lambda l: comp[l.gen]) == [l for r in refs for l in r[1]]
        # the joint cycling order is itself a conjugator from p to q
        assert pi_star(g, inverse_word(events) + sigma_star(p) + tuple(events)) == q
    assert set(relayed) == {(False, False), (True, False), (True, True)}, relayed


def test_tile_table_holds_exact_tuples():
    """Both kernel loops unpack a tile per letter, and CPython unpacks a
    NamedTuple or any other tuple subclass through its slow generic path
    (about 3x an exact tuple's cost on 3.11).  CI never runs the
    benchmark, so this test is the only thing that catches a NamedTuple
    coming back."""
    rng = random.Random(5)
    for n in (4, 64):
        tiles = _layout(random_graph(rng, n)).tiles
        assert len(tiles) == n + 1
        for t in tiles:
            assert type(t) is tuple and len(t) == 4
            assert all(type(x) is int for x in t)


def test_stuck_extraction_stops_at_the_blocked_tile():
    """A piling that no word folds to, stuck part-way through: the kernel
    raises the reference's message and leaves the stacks as the
    reference does at the blocked tile, with that tile still in place."""
    rng = random.Random(77)
    stuck_part_way = set()
    for k in range(600):
        n = rng.randrange(2, 8) if k % 3 else rng.choice((16, 64, 65))
        g = random_graph(rng, n)
        ref = [deque(s) for s in pi_star(g, random_word(g, rng.randrange(4, 60), rng)).stacks]
        # add a signed bead to one stack, and now and then drop a bead of it
        j = rng.choice([i for i in range(1, n + 1) if ref[i]] or [1])
        ref[j].insert(rng.randrange(len(ref[j]) + 1), rng.choice((1, -1)))
        if rng.random() < 0.5 and len(ref[j]) > 1:
            del ref[j][rng.randrange(len(ref[j]))]
        exclude = set(rng.sample(range(1, n + 1), rng.randrange(0, 3) if k % 2 else 0))
        p = Piling.from_stacks(g, ref)
        before = p.signed_count
        try:
            letters = extract_by_scanning(g, ref, exclude)
        except ExtractionStuck as err:
            with pytest.raises(ExtractionStuck) as stuck:
                _extract(p, exclude)
            assert str(stuck.value) == str(err)
            if p.signed_count < before:
                stuck_part_way.add(bool(exclude))
        else:
            assert _extract(p, exclude) == letters
        assert stacks_of(p) == list(map(tuple, ref))
        assert p == Piling.from_stacks(g, ref)
    assert stuck_part_way == {False, True}


def test_extract_keeps_a_bottom_run_of_2_31_minus_1():
    """The longest 0 runs, at the bottom of a stack with signed beads
    and on an empty stack, sit in fields beside other fields and
    come back from extraction exact."""
    g = build_graph(("a1", "a2", "a3"), [])
    # stacks a1: 0 +, a2: + 0, a3: 0 0
    p = pi_star(g, (Letter(2, 1), Letter(1, 1)))
    p._under[1][0] = 2 ** 31 - 1
    p._top += (2 ** 31 - 3) << 64  # the run on empty stack a3: 2 -> 2^31 - 1
    q = p.copy()
    assert _extract(q, {2}) == [] and q == p
    # removing the a2-tile shortens both long runs by one bead
    assert _extract(q) == [Letter(2, 1)]
    assert (q._under[1][0], _top_run(q, 1), _top_run(q, 2), _top_run(q, 3)) == (
        2 ** 31 - 2, 0, 1, 2 ** 31 - 2)
    assert list(q._beads[1]) == [1] and q.signed_count == 1


def test_relay_keeps_a_seam_run_of_2_31_minus_1():
    """A relaying pass joins an old top run to the 0 beads under the
    relaid tiles: a stack that gives a bead joins it to the run under its
    first relaid bead, and one that gives none (the excluded a1) to the 0
    beads it lost at the bottom.  A seam of exactly 2^31-1 beads comes
    back exact.  A relay keeps each stack's bead count, so no seam can
    be longer on a piling that ``pi_star`` or ``Piling.from_stacks``
    built."""
    g = build_graph(("a1", "a2", "a3"), [])
    # stacks a1: 0 0 +, a2: 0 + 0, a3: + 0 0; and a1: 0 0 + 0, a2: 0 + 0 +,
    # a3: + 0 0 0, where a2 gives one of its two beads
    for word, j in (("a3 a2 a1", 2), ("a3 a2 a1 a2", 2), ("a3 a2 a1", 1)):
        p = pi_star(g, parse_word(g, word))
        small = p.copy()
        letters = _extract(small, {1}, relay=True)
        assert letters == list(parse_word(g, "a3 a2"))
        assert small == pi_star(g, parse_word(g, word)[2:] + tuple(letters))
        seam = small._under[j][-1] if j == 2 else _top_run(small, j)
        grow = 2 ** 31 - 1 - seam
        want = small.copy()
        if j == 2:
            want._under[j][-1] += grow
        else:
            want._top += grow << 32 * (j - 1)
        # the old top run of stack j is `grow` beads longer
        q = p.copy()
        q._top += grow << 32 * (j - 1)
        assert _extract(q, {1}, relay=True) == letters and q == want


def test_cyclic_reduce_rejects_invalid_pilings():
    """Pilings that no word folds to, blocked at the first pair: the
    messages are those of the earlier sweep (``cyclic_reduce_by_scanning``),
    and the input piling is left as it was."""
    free = build_graph(("a1", "a2"), [])
    cases = [
        # the bottom a1-tile needs a 0 bead at the bottom of stack a2
        (hand_built(free, [1, -1], [1, 0, 0]), ExtractionStuck,
         "stack 2 does not start with a 0 bead under the bottom tile of 1"),
        # the top a1-tile needs a 0 bead on top of stack a2
        (hand_built(free, [1, -1], [0, 1]), PilingError,
         "stack 2 does not end with a 0 bead over the top tile of 1"),
        # empty stack a2 holds one 0 bead, but the pair needs one at each end
        (hand_built(free, [1, -1], [0]), PilingError,
         "stack 2 does not end with a 0 bead over the top tile of 1"),
    ]
    for p, error, message in cases:
        before = p.stacks
        with pytest.raises(PilingError) as raised:
            cyclic_reduce(p)
        assert type(raised.value) is error and str(raised.value) == message
        assert p.stacks == before and p == Piling.from_stacks(free, before)


def test_cyclic_reduce_on_corrupted_pilings():
    """Conjugated words' pilings with one bead added, dropped or flipped:
    cyclic reduction returns a cyclically reduced piling or raises
    ExtractionStuck or PilingError, and never changes its input."""
    rng = random.Random(78)
    outcomes = set()
    for k in range(600):
        n = rng.randrange(2, 8) if k % 3 else rng.choice((16, 64, 65))
        g = random_graph(rng, n)
        c = random_word(g, rng.randrange(0, 30), rng)
        w = c + random_word(g, rng.randrange(1, 20), rng) + inverse_word(c)
        stacks = [list(s) for s in pi_star(g, w).stacks]
        j = rng.choice([i for i in range(1, n + 1) if stacks[i]] or [1])
        s = stacks[j]
        change = rng.randrange(3) if s else 0
        if change == 0:
            s.insert(rng.randrange(len(s) + 1), rng.choice((1, -1)))
        elif change == 1:
            del s[rng.randrange(len(s))]
        else:
            at = rng.randrange(len(s))
            s[at] = rng.choice([b for b in (1, -1, ZERO) if b != s[at]])
        p = Piling.from_stacks(g, stacks)
        try:
            q, _ = cyclic_reduce(p)
        except PilingError as err:
            assert type(err) in (ExtractionStuck, PilingError)
            outcomes.add(type(err))
        else:
            assert is_cyclically_reduced(q)
            outcomes.add(Piling)
        assert p == Piling.from_stacks(g, stacks)
    assert outcomes == {Piling, ExtractionStuck, PilingError}


def test_in_place_cyclic_reduce_stops_at_the_blocked_pair():
    """``_cyclic_reduce`` on the corrupted pilings above: where
    ``cyclic_reduce`` returns, it leaves its input as the public form's
    result with the same letters; where that raises, it raises the same
    error with the pairs before the blocked one removed and its fields
    written back, so the piling is one that ``from_stacks`` rebuilds
    exactly and a second call stops at the same pair, changing nothing."""
    rng = random.Random(79)
    outcomes = set()
    for k in range(600):
        n = rng.randrange(2, 8) if k % 3 else rng.choice((16, 64, 65))
        g = random_graph(rng, n)
        c = random_word(g, rng.randrange(0, 30), rng)
        stacks = [list(s) for s in pi_star(g, c + random_word(g, rng.randrange(1, 20), rng)
                                           + inverse_word(c)).stacks]
        j = rng.choice([i for i in range(1, n + 1) if stacks[i]] or [1])
        stacks[j].insert(rng.randrange(len(stacks[j]) + 1), rng.choice((1, -1, ZERO)))
        p = Piling.from_stacks(g, stacks)
        try:
            want = cyclic_reduce(p)
        except PilingError as err:
            want = err
        try:
            events = _cyclic_reduce(p)
        except PilingError as err:
            assert type(err) is type(want) and str(err) == str(want)
            assert p == Piling.from_stacks(g, p.stacks)
            q = p.copy()
            with pytest.raises(type(err), match=f"^{re.escape(str(err))}$"):
                _cyclic_reduce(p)
            assert p == q
            outcomes.add(type(err))
        else:
            assert (p, events) == want
            outcomes.add(Piling)
    assert outcomes == {Piling, ExtractionStuck, PilingError}


def path_graph(n):
    """a1 - a2 - ... - an: neighbours do not commute, all other pairs do."""
    names = [f"a{i}" for i in range(1, n + 1)]
    return build_graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 2:]])


def test_cyclic_reduce_lines_per_pair_do_not_grow_with_n():
    """Clock-free: the Python lines run in ``raag/piling.py`` per removed
    pair of c.a3.c^-1, c = (a2 a1)^1000, agree within 10% on path graphs
    of 4, 16 and 64 generators.  A loop that rescans the stacks or steps
    through a tile's neighbours in Python runs more lines per pair as n
    grows."""
    per_pair = []
    for n in (4, 16, 64):
        g = path_graph(n)
        c = parse_word(g, "a2 a1 " * 1000)
        p = pi_star(g, c + parse_word(g, "a3") + inverse_word(c))
        lines = 0

        def count_lines(frame, event, arg):
            nonlocal lines
            if event == "line":
                lines += 1
            return count_lines

        def trace_piling(frame, event, arg):
            if frame.f_code.co_filename == _fold.__code__.co_filename:
                return count_lines
            return None

        old = sys.gettrace()
        sys.settrace(trace_piling)
        try:
            q, events = cyclic_reduce(p)
        finally:
            sys.settrace(old)
        # the innermost a1 commutes with a3 and cancels in the fold
        assert len(events) == 1999 and q == pi_star(g, parse_word(g, "a3"))
        per_pair.append(lines / len(events))
    assert max(per_pair) <= 1.1 * min(per_pair), per_pair
