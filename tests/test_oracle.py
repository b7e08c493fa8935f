import random

import pytest

import raag.oracle
from raag import (
    BoundExceeded,
    based_word,
    build_graph,
    centralizer_generators,
    conjugate_in_raag,
    cyclic_normal_factors,
    groupoid_conjugate,
    parse_complex,
    parse_word,
    pi_star,
    validate,
)
from raag.core import letter_row
from raag.cubecomplex import trace
from raag.oracle import (loop_class_key, oracle_conjugate, oracle_equal,
                         oracle_groupoid_conjugate, reach_by_preferred_enumeration)
from .conftest import random_word

FREE2 = build_graph(("a1", "a2"), [])

TRAP_TEXT = """
vertices x1 x2
edge e1 x1 x1 a1
edge e2 x1 x2 a2
edge e3 x2 x2 a1
"""
TRAP = parse_complex(TRAP_TEXT, FREE2)


def test_oracle_equal_basic(example_graph):
    g = example_graph
    assert oracle_equal(g, parse_word(g, "a1 a4"), parse_word(g, "a4 a1"))
    assert oracle_equal(g, parse_word(g, "a1 a1^-1"), ())
    assert not oracle_equal(g, parse_word(g, "a1 a2"), parse_word(g, "a2 a1"))


def test_oracle_equal_agrees_with_piling(example_graph):
    g = example_graph
    rng = random.Random(17)
    for _ in range(150):
        u = random_word(g, rng.randrange(0, 7), rng)
        v = random_word(g, rng.randrange(0, 7), rng)
        want = pi_star(g, u) == pi_star(g, v)
        assert oracle_equal(g, u, v) == want


def test_oracle_conjugate_basic(example_graph):
    g = example_graph
    assert oracle_conjugate(g, parse_word(g, "a1 a2"), parse_word(g, "a2 a1"))
    assert not oracle_conjugate(g, parse_word(g, "a1"), parse_word(g, "a2"))


def test_oracle_conjugate_agrees_with_decider(example_graph):
    g = example_graph
    rng = random.Random(19)
    for _ in range(120):
        u = random_word(g, rng.randrange(0, 6), rng)
        v = random_word(g, rng.randrange(0, 6), rng)
        assert oracle_conjugate(g, u, v) == conjugate_in_raag(g, u, v)


def test_oracle_length_bound(example_graph):
    g = example_graph
    long_word = parse_word(g, "a1") * 40
    with pytest.raises(BoundExceeded):
        oracle_equal(g, long_word, long_word)
    with pytest.raises(BoundExceeded, match="combined length 17 exceeds 16"):
        oracle_conjugate(g, long_word[:9], long_word[:8])


def test_oracle_state_bounds(example_graph, monkeypatch):
    """Each closure stops with ``BoundExceeded`` once it holds more
    states than its bound allows."""
    g = example_graph
    monkeypatch.setattr(raag.oracle, "_MAX_STATES", 3)
    w = parse_word(g, "a1 a4 a1 a4")
    with pytest.raises(BoundExceeded, match="closure exceeded 3 states"):
        oracle_equal(g, w, w)
    with pytest.raises(BoundExceeded, match="closure exceeded 3 states"):
        oracle_conjugate(g, w, w)
    monkeypatch.setattr(raag.oracle, "_MAX_LOOP_STATES", 3)
    loop = based_word(TRAP, "x1", parse_word(FREE2, "a1 a2 a1 a2^-1"))
    with pytest.raises(BoundExceeded, match="loop closure exceeded 3 states"):
        oracle_groupoid_conjugate(TRAP, FREE2, loop, loop)
    with pytest.raises(BoundExceeded, match="loop closure exceeded 3 states"):
        loop_class_key(TRAP, FREE2, loop)


def test_oracle_groupoid_trap():
    A = based_word(TRAP, "x1", parse_word(FREE2, "a1"))
    B = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1"))
    C = based_word(TRAP, "x2", parse_word(FREE2, "a1"))
    assert not oracle_groupoid_conjugate(TRAP, FREE2, A, B)
    assert oracle_groupoid_conjugate(TRAP, FREE2, B, C)
    assert not oracle_groupoid_conjugate(TRAP, FREE2, A, C)


def test_oracle_groupoid_agrees_with_decider():
    rng = random.Random(23)
    loops = []
    for x in TRAP.vertices:
        for _ in range(40):
            w = random_word(FREE2, rng.randrange(0, 5), rng)
            if trace(TRAP, x, w) == x:
                loops.append(based_word(TRAP, x, w))
    assert loops
    for i in range(0, len(loops), 7):
        for j in range(0, len(loops), 5):
            a, b = loops[i], loops[j]
            assert (oracle_groupoid_conjugate(TRAP, FREE2, a, b)
                    == groupoid_conjugate(TRAP, FREE2, a, b))


def test_loop_class_key_matches_oracle():
    rng = random.Random(29)
    loops = []
    for x in TRAP.vertices:
        for _ in range(30):
            w = random_word(FREE2, rng.randrange(0, 5), rng)
            if trace(TRAP, x, w) == x:
                loops.append(based_word(TRAP, x, w))
    keys = [loop_class_key(TRAP, FREE2, bw) for bw in loops]
    for i in range(0, len(loops), 6):
        for j in range(0, len(loops), 4):
            same = keys[i] == keys[j]
            assert same == oracle_groupoid_conjugate(TRAP, FREE2, loops[i], loops[j])


def test_loop_oracles_read_the_edges_not_the_walk_table():
    """Corrupt one entry of a validated complex's walk table: ``trace``
    follows it, and the loop oracles answer as on an intact copy,
    because they read the complex's edges only."""
    intact, broken = parse_complex(TRAP_TEXT, FREE2), parse_complex(TRAP_TEXT, FREE2)
    assert validate(broken, FREE2).ok
    a2 = letter_row(2)[1]
    x1 = broken._ids["x1"]
    broken._out[x1][a2] = x1  # a2 now loops at x1 instead of leading to x2
    assert trace(broken, "x1", (a2,)) == "x1"
    assert trace(intact, "x1", (a2,)) == "x2"
    loops = [based_word(intact, x, parse_word(FREE2, text))
             for x, text in (("x1", "a1"), ("x1", "a2 a1 a2^-1"), ("x2", "a1"),
                             ("x1", "a2 a1 a1 a2^-1"), ("x2", "a2^-1 a1 a2"))]
    for bw in loops:
        assert loop_class_key(broken, FREE2, bw) == loop_class_key(intact, FREE2, bw)
        for other in loops:
            assert (oracle_groupoid_conjugate(broken, FREE2, bw, other)
                    == oracle_groupoid_conjugate(intact, FREE2, bw, other))
        gens = centralizer_generators(FREE2, cyclic_normal_factors(FREE2, bw.word))
        for x in intact.vertices:
            assert (reach_by_preferred_enumeration(broken, x, gens, 4)
                    == reach_by_preferred_enumeration(intact, x, gens, 4))
