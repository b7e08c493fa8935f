import contextlib
import faulthandler
import os
import random
import resource
from itertools import combinations

import pytest

from raag import DefiningGraph, Letter, build_graph, normal_form, pi_star
from raag.core import letter_row
from raag.piling import _fold, _top_run

# Seconds one test may run before the session dumps every thread's
# traceback and exits; the slowest test takes about 6 s under -X dev.
TEST_TIME_LIMIT = 120

# Bytes of address space the test process may map (its soft RLIMIT_AS);
# a clean tier-1 run under -X dev peaks near 230 MB, so a test whose
# memory runs away fails with MemoryError rather than exhausting the host.
TEST_MEMORY_LIMIT = 1 << 30


@pytest.fixture(scope="session")
def terminal_stderr(request):
    """A copy of the stderr that output capture replaces during tests,
    so that a dump written just before the process exits is seen."""
    capman = request.config.pluginmanager.getplugin("capturemanager")
    with capman.global_and_fixture_disabled() if capman else contextlib.nullcontext():
        fd = os.dup(2)
    with os.fdopen(fd, "w") as stream:
        yield stream


@pytest.fixture(scope="session", autouse=True)
def memory_guard():
    """Lower the soft address-space limit to TEST_MEMORY_LIMIT for the
    session; a lower limit already set is kept."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = min(x for x in (soft, hard, TEST_MEMORY_LIMIT) if x != resource.RLIM_INFINITY)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    yield
    resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.fixture(autouse=True)
def hang_guard(terminal_stderr):
    """Turn a test that hangs into a failed run with a traceback."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True, file=terminal_stderr)
    yield
    faulthandler.cancel_dump_traceback_later()


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


def random_reduced_word(g: DefiningGraph, length: int, rng: random.Random):
    """Random reduced word by rejection: retry any letter that would
    cancel against the top of its stack in the piling built so far."""
    p = pi_star(g, ())
    letters = []
    while len(letters) < length:
        gen = rng.randrange(1, g.n + 1)
        sign = rng.choice((1, -1))
        s = p._beads[gen]
        if not _top_run(p, gen) and s and s[-1] == -sign:
            continue
        l = Letter(gen, sign)
        _fold(p, (l,))
        letters.append(l)
    return tuple(letters)


def is_normal(g: DefiningGraph, w) -> bool:
    return w == normal_form(g, w)


def is_cyclic_normal(g: DefiningGraph, w) -> bool:
    """A cyclically reduced word all of whose rotations are normal.
    Every rotation is a factor of the doubled word and factors of
    normal words are normal, so one normality check of ww suffices:
    w itself is a prefix of ww, and if a stack of pi(w) starts with
    one sign and ends with the other, then ww puts a letter next to its
    inverse up to commutation, so ww is not reduced, let alone normal."""
    return not w or is_normal(g, w + w)


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
        w[i:i] = [letter, letter_row(letter.gen)[-letter.sign]]
    return tuple(w)


def _free_cyclic_image(w, s) -> str:
    """The image of w in the free group on s, where every letter outside
    s is deleted, freely and then cyclically reduced, one character per
    letter."""
    out = []
    for gen, sign in w:
        if gen in s:
            if out and out[-1] == (gen, -sign):
                out.pop()
            else:
                out.append((gen, sign))
    i, j = 0, len(out)
    while j - i > 1 and out[i] == (out[j - 1][0], -out[j - 1][1]):
        i, j = i + 1, j - 1
    return "".join(chr(2 * gen + (sign > 0)) for gen, sign in out[i:j])


def free_retraction_certificate(g: DefiningGraph, w, v, max_size: int = 3):
    """A set S of 2 to ``max_size`` pairwise non-commuting generators
    whose free retraction separates w and v, or None.  Deleting every
    letter outside S maps the RAAG onto the free group on S, and
    homomorphisms keep conjugacy: if the two cyclically reduced images
    are not rotations of each other, w and v are not conjugate.  Shares
    no code with pilings.  One-sided: no certificate proves nothing."""
    gens = sorted({l.gen for l in w} | {l.gen for l in v})
    for size in range(2, max_size + 1):
        for s in combinations(gens, size):
            if any(g.commutes(a, b) for a, b in combinations(s, 2)):
                continue
            x, y = _free_cyclic_image(w, s), _free_cyclic_image(v, s)
            if len(x) != len(y) or y not in x + x:
                return frozenset(s)
    return None
