import random
from itertools import product

import pytest

from raag import (
    Letter,
    centralizer_generators,
    conjugate_in_raag,
    cyclic_normal_factors,
    normal_form,
    parse_word,
    pi_star,
)
from raag.centralizer import EmptyFactor, minimal_root
from raag.core import inverse_word
from .conftest import random_graph, random_reduced_word, random_word


def test_minimal_root_power(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a2 a1 a2 a1 a2")
    assert minimal_root(w) == (parse_word(g, "a1 a2"), 3)


def test_minimal_root_primitive(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a2 a2")
    assert minimal_root(w) == (w, 1)
    assert minimal_root(parse_word(g, "a1")) == (parse_word(g, "a1"), 1)


def test_minimal_root_of_the_empty_word_raises():
    with pytest.raises(EmptyFactor):
        minimal_root(())


def test_minimal_root_even_power(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a3^-1 a1 a3^-1")
    assert minimal_root(w) == (parse_word(g, "a1 a3^-1"), 2)


def test_minimal_root_random_aperiodic(example_graph):
    g = example_graph
    rng = random.Random(21)
    # reduced words, then arbitrary (often unreduced, often periodic) powers
    words = [random_reduced_word(g, rng.randrange(1, 12), rng) for _ in range(100)]
    words += [random_word(g, rng.randrange(1, 6), rng) * rng.randrange(1, 4)
              for _ in range(300)]
    for w in words:
        z, r = minimal_root(w)
        assert z * r == w
        # cross-check with a direct prefix-period scan
        periods = [t for t in range(1, len(w) + 1)
                   if len(w) % t == 0 and w[:t] * (len(w) // t) == w]
        assert len(z) == min(periods)


def test_centralizer_single_factor(example_graph):
    g = example_graph
    gens = centralizer_generators(
        g, cyclic_normal_factors(g, parse_word(g, "a1 a2 a1 a2 a1 a2")))
    assert gens.roots == ((parse_word(g, "a1 a2"), 3),)
    assert gens.link_gens == frozenset({4})


def test_centralizer_no_link(example_graph):
    g = example_graph
    gens = centralizer_generators(
        g, cyclic_normal_factors(g, parse_word(g, "a1 a3")))
    assert gens.roots == ((parse_word(g, "a1 a3"), 1),)
    assert gens.link_gens == frozenset()


def test_centralizer_split_word(example_graph):
    g = example_graph
    gens = centralizer_generators(
        g, cyclic_normal_factors(g, parse_word(g, "a1 a4")))
    roots = dict(gens.roots)
    assert set(roots) == {parse_word(g, "a1"), parse_word(g, "a4")}
    assert gens.link_gens == frozenset()


def test_centralizer_identity(example_graph):
    g = example_graph
    gens = centralizer_generators(g, cyclic_normal_factors(g, ()))
    assert gens.roots == ()
    assert gens.link_gens == frozenset({1, 2, 3, 4})


def test_link_gens_match_the_commutes_definition():
    """On random graphs, the link generators are exactly those outside
    the factors' support that commute with every generator in it, the
    empty word's being every generator."""
    rng = random.Random(41)
    for k in range(300):
        g = random_graph(rng, rng.randrange(1, 12))
        w = random_word(g, rng.randrange(0, 12) if k % 10 else 0, rng)
        factors = cyclic_normal_factors(g, w)
        support = {l.gen for f in factors.factors for l in f}
        assert centralizer_generators(g, factors).link_gens == {
            j for j in range(1, g.n + 1)
            if j not in support and all(g.commutes(j, s) for s in support)}


def commutes_with(g, u, w):
    return pi_star(g, u + w + inverse_word(u) + inverse_word(w)).signed_count == 0


def test_centralizer_gens_commute_soundness(example_graph):
    g = example_graph
    rng = random.Random(33)
    from raag import Letter
    for _ in range(60):
        w = random_reduced_word(g, rng.randrange(1, 10), rng)
        factors = cyclic_normal_factors(g, w)
        v = factors.concat()
        gens = centralizer_generators(g, factors)
        for z, _ in gens.roots:
            assert commutes_with(g, z, v)
        for j in gens.link_gens:
            assert commutes_with(g, (Letter(j, 1),), v)


def test_minimal_root_exhaustive_binary():
    """Every word over {a1, a2} up to length 12, including those whose
    least period does not divide their length (a1 a2 a1), against a
    direct prefix-period scan."""
    letters = (Letter(1, 1), Letter(2, 1))
    for n in range(1, 13):
        for w in product(letters, repeat=n):
            periods = [t for t in range(1, n + 1)
                       if n % t == 0 and w[:t] * (n // t) == w]
            assert minimal_root(w) == (w[:periods[0]], n // periods[0])
