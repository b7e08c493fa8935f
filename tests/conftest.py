import random

import pytest

from raag import DefiningGraph, Letter, build_graph
from raag.cli import random_reduced_word  # noqa: F401  (re-exported for the tests)


@pytest.fixture
def example_graph() -> DefiningGraph:
    """Four generators; a1 commutes with a4, a2 with a3 and a4."""
    return build_graph(("a1", "a2", "a3", "a4"),
                       [("a1", "a4"), ("a2", "a3"), ("a2", "a4")])


@pytest.fixture
def free_graph_2() -> DefiningGraph:
    return build_graph(("a1", "a2"), [])


@pytest.fixture
def free_graph_3() -> DefiningGraph:
    return build_graph(("a1", "a2", "a3"), [])


@pytest.fixture
def abelian_graph() -> DefiningGraph:
    return build_graph(("a1", "a2"), [("a1", "a2")])


def random_graph(rng: random.Random, n: int) -> DefiningGraph:
    """n generators; each pair commutes with one probability drawn per graph."""
    names = [f"a{i}" for i in range(1, n + 1)]
    density = rng.random()
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if rng.random() < density]
    return build_graph(names, pairs)


def random_word(g: DefiningGraph, length: int, rng: random.Random):
    return tuple(Letter(rng.randrange(1, g.n + 1), rng.choice((1, -1)))
                 for _ in range(length))


def random_equivalent_rewrite(g: DefiningGraph, w, rng: random.Random):
    """One random legal rewrite: swap a commuting adjacent pair, insert a
    cancelling pair, or delete an adjacent cancelling pair."""
    w = list(w)
    moves = ["insert"]
    swaps = [i for i in range(len(w) - 1) if g.commutes(w[i].gen, w[i + 1].gen)]
    if swaps:
        moves.append("swap")
    dels = [i for i in range(len(w) - 1)
            if w[i].gen == w[i + 1].gen and w[i].sign == -w[i + 1].sign]
    if dels:
        moves.append("delete")
    move = rng.choice(moves)
    if move == "swap":
        i = rng.choice(swaps)
        w[i], w[i + 1] = w[i + 1], w[i]
    elif move == "delete":
        i = rng.choice(dels)
        del w[i:i + 2]
    else:
        i = rng.randrange(len(w) + 1)
        letter = Letter(rng.randrange(1, g.n + 1), rng.choice((1, -1)))
        w[i:i] = [letter, letter.inverse()]
    return tuple(w)
