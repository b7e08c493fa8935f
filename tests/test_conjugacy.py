import random
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from raag import (
    Letter,
    Piling,
    build_graph,
    conjugate_in_raag,
    cyclic_normal_factors,
    cyclic_reduce,
    normal_form,
    parse_word,
    pi_star,
    pyramidalize,
    sigma_star,
)
import raag.conjugacy
from raag.centralizer import minimal_root
from raag.conjugacy import _align, _factor_rotations, _pyramid, _reduce, cyclic_equal
from raag.core import inverse_word, letter_row, support_components
from raag.oracle import oracle_conjugate
from raag.piling import _letter_counts, is_cyclically_reduced
from .conftest import (free_retraction_certificate, is_cyclic_normal, is_normal,
                       random_equivalent_rewrite, random_graph, random_reduced_word, random_word)

EXAMPLE_WORD = "a2^-2 a4^-1 a3 a2 a4 a1 a2 a1^-1 a2^2 a4^-1"


def test_normal_form_golden(example_graph):
    g = example_graph
    nf = normal_form(g, parse_word(g, EXAMPLE_WORD))
    assert nf == parse_word(g, "a4^-1 a3 a2^-1 a1 a2 a1^-1 a2 a2")


def test_is_normal(example_graph):
    g = example_graph
    assert is_normal(g, parse_word(g, "a4 a1"))
    assert not is_normal(g, parse_word(g, "a1 a4"))
    assert is_normal(g, ())


def test_is_cyclic_normal(example_graph):
    g = example_graph
    assert is_cyclic_normal(g, parse_word(g, "a1 a2 a1^-1 a3 a4^-1 a2"))
    # normal, but a rotation is not normal
    assert not is_cyclic_normal(g, parse_word(g, "a4^-1 a3 a2^-1 a1 a2 a1^-1 a2 a2"))
    # not even reduced
    assert not is_cyclic_normal(g, parse_word(g, "a1 a1^-1"))


def test_is_cyclic_normal_matches_definition():
    """One normality check of ww agrees with the definition: w normal,
    pi(w) cyclically reduced and ww normal."""
    rng = random.Random(31)
    yes = 0
    for _ in range(4000):
        g = random_graph(rng, rng.randrange(1, 7))
        w = random_word(g, rng.randrange(0, 13), rng)
        factors = cyclic_normal_factors(g, w).factors
        if factors and rng.random() < 0.5:
            # a rotation of a cyclic normal factor: mostly YES cases
            f = rng.choice(factors)
            t = rng.randrange(len(f))
            w = f[t:] + f[:t]
        want = not w or (is_normal(g, w) and is_cyclically_reduced(pi_star(g, w))
                         and is_normal(g, w + w))
        assert is_cyclic_normal(g, w) == want, w
        yes += want
    assert 1000 < yes < 3000


def test_events_conjugate_input_to_factors():
    """The whole log, reductions and cyclings alike, is a conjugator
    from the input word to the concatenated cyclic normal factors."""
    rng = random.Random(37)
    sizes = [rng.randrange(2, 8) for _ in range(1500)] + [16] * 100
    events = reductions = 0
    for n in sizes:
        g = random_graph(rng, n)
        c = random_word(g, rng.randrange(0, 8), rng)
        w = c + random_word(g, rng.randrange(0, 16), rng) + inverse_word(c)
        f = cyclic_normal_factors(g, w)
        assert pi_star(g, inverse_word(f.events) + w + f.events) == pi_star(g, f.concat())
        events += len(f.events)
        reductions += len(cyclic_reduce(pi_star(g, w))[1])
    assert 0 < reductions < events


def test_cyclic_normal_factors_golden(example_graph):
    g = example_graph
    factors = cyclic_normal_factors(g, parse_word(g, EXAMPLE_WORD))
    assert len(factors.factors) == 1
    assert factors.factors[0] == parse_word(g, "a1 a2 a1^-1 a3 a4^-1 a2")
    assert factors.components == ((1, 2, 3, 4),)
    assert is_cyclic_normal(g, factors.factors[0])


def test_cyclic_normal_factors_split(example_graph):
    g = example_graph
    # a1 and a4 commute and are separated into two factors
    factors = cyclic_normal_factors(g, parse_word(g, "a1 a4 a1"))
    assert factors.components == ((1,), (4,))
    assert factors.factors == (parse_word(g, "a1 a1"), parse_word(g, "a4"))
    assert conjugate_in_raag(g, parse_word(g, "a1 a4 a1"), factors.concat())


def by_component(components, w):
    """The letters of w, one tuple per component, each in w's order."""
    return tuple(tuple(l for l in w if l.gen in c) for c in components)


def block_graph(rng: random.Random, k: int):
    """k blocks of 1-3 generators: pairs in different blocks commute,
    pairs inside a block commute with one probability drawn per graph."""
    sizes = [rng.randrange(1, 4) for _ in range(k)]
    names = [f"a{i}" for i in range(1, sum(sizes) + 1)]
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    density = rng.random()
    pairs = [(a, b) for i, a in enumerate(names) for j, b in enumerate(names[i + 1:], i + 1)
             if block[i] != block[j] or rng.random() < density]
    return build_graph(names, pairs)


def test_cyclic_normal_factors_are_the_component_extractions():
    """Each factor is its component's letters of the pyramidal piling's
    normal word, in that word's order; the components are those of the
    pyramidal piling's support; and ``events`` is ``cyclic_reduce``'s
    letters followed by ``pyramidalize``'s, as each returns them.  First
    on F2 x F2, where both components cycle in one joint pass, a4 before
    a2, then on random graphs of 1-8 blocks whose supports have every
    number of components from 1 to 8, and more."""
    g = build_graph(("a1", "a2", "a3", "a4"),
                    [("a1", "a3"), ("a1", "a4"), ("a2", "a3"), ("a2", "a4")])
    factors = cyclic_normal_factors(g, parse_word(g, "a4 a2 a3 a1"))
    assert factors.components == ((1, 2), (3, 4))
    assert factors.factors == (parse_word(g, "a1 a2"), parse_word(g, "a3 a4"))
    assert factors.events == parse_word(g, "a4 a2")
    rng = random.Random(83)
    seen = set()
    for _ in range(1200):
        g = block_graph(rng, rng.randrange(1, 9))
        w = random_word(g, rng.randrange(0, 6 * g.n), rng)
        f = cyclic_normal_factors(g, w)
        p, events = cyclic_reduce(pi_star(g, w))
        if p.is_empty():
            assert f == ((), (), tuple(events)), (g, w)
            continue
        q, cycled, _ = pyramidalize(p)
        components = support_components(g, q.support())
        assert f.components == components, (g, w)
        assert f.factors == by_component(components, sigma_star(q)), (g, w)
        assert f.events == tuple(events + cycled), (g, w)
        assert pi_star(g, inverse_word(f.events) + w + f.events) == pi_star(g, f.concat())
        seen.add(len(components))
    assert set(range(1, 9)) <= seen


def test_cyclic_normal_factors_identity(example_graph):
    g = example_graph
    factors = cyclic_normal_factors(g, parse_word(g, "a1 a1^-1"))
    assert factors.factors == ()
    assert factors.concat() == ()


def least_rotation(u, v):
    return next((t for t in range(max(len(u), 1)) if u[t:] + u[:t] == v), None)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from("ab"), max_size=12).map(tuple),
       st.lists(st.sampled_from("ab"), max_size=12).map(tuple), st.integers(0, 11))
def test_cyclic_equal_is_the_least_rotation(u, v, t):
    """The least t with u[t:] + u[:t] == v, found by brute force, or
    None (always, for lengths that differ); against an arbitrary v and
    against a rotation of u."""
    for other in (v, u[t:] + u[:t]):
        assert cyclic_equal(u, other) == least_rotation(u, other), other


class Counted:
    """An item that counts its ``==`` and ``!=`` calls."""

    __slots__ = ("value",)
    __hash__ = None
    calls = 0

    def __init__(self, value):
        self.value = value

    def __eq__(self, other):
        Counted.calls += 1
        return self.value == other.value

    def __ne__(self, other):
        Counted.calls += 1
        return self.value != other.value


def comparisons(f, *args):
    Counted.calls = 0
    return f(*args), Counted.calls


def test_rotation_compare_is_linear_on_the_periodic_worst_case():
    """On a^(L-1) b, rotated by L/2 and with one item changed, the
    rotation compare and the minimal root make at most 3 comparisons per
    item of text and pattern (the root matches w against itself), at
    every L.  Counted, not timed: a search that backs up, as
    ``str.find`` does below its two-way cutoff, reads quadratic here."""
    a, b, c = Counted("a"), Counted("b"), Counted("c")
    for L in (1000, 2000, 4000, 8000):
        w = (a,) * (L - 1) + (b,)
        v = w[L // 2:] + w[:L // 2]
        changed = v[:L // 4] + (c,) + v[L // 4 + 1:]
        doubled = w + w[:-1]
        for pattern, want in ((v, L // 2), (changed, None)):
            got, calls = comparisons(cyclic_equal, w, pattern)
            assert got == want and calls <= 3 * (len(doubled) + L)
        for word, root in ((w, (w, 1)), (changed, (changed, 1)), (w + w, (w, 2))):
            got, calls = comparisons(minimal_root, word)
            assert got == root and calls <= 3 * 2 * len(word)


def test_cyclic_equal_returns_shift():
    assert cyclic_equal((1, 2, 3), (2, 3, 1)) == 1
    assert cyclic_equal((1, 2, 3), (1, 2, 3)) == 0
    assert cyclic_equal((), ()) == 0
    assert cyclic_equal((1, 2, 3), (1, 3, 2)) is None
    assert cyclic_equal((1, 2), (1, 2, 1)) is None


def test_conjugate_golden_pair(example_graph):
    g = example_graph
    assert conjugate_in_raag(g, parse_word(g, EXAMPLE_WORD),
                             parse_word(g, "a1 a2 a1^-1 a3 a4^-1 a2"))


def test_conjugate_basic(example_graph):
    g = example_graph
    assert conjugate_in_raag(g, parse_word(g, "a1 a2"), parse_word(g, "a2 a1"))
    assert not conjugate_in_raag(g, parse_word(g, "a1"), parse_word(g, "a2"))
    assert not conjugate_in_raag(g, parse_word(g, "a1"), parse_word(g, "a1^-1"))
    assert conjugate_in_raag(g, (), parse_word(g, "a1 a1^-1"))
    assert not conjugate_in_raag(g, (), parse_word(g, "a1"))


def test_conjugate_component_mismatch(example_graph):
    g = example_graph
    # same total length, different non-split pieces
    assert not conjugate_in_raag(g, parse_word(g, "a1 a4"), parse_word(g, "a1 a3"))


def test_conjugate_by_explicit_conjugator(example_graph):
    g = example_graph
    rng = random.Random(5)
    for _ in range(150):
        w = random_word(g, rng.randrange(0, 12), rng)
        c = random_word(g, rng.randrange(0, 8), rng)
        assert conjugate_in_raag(g, w, c + w + inverse_word(c))


def test_normal_form_invariant_under_rewrites(example_graph):
    g = example_graph
    rng = random.Random(9)
    for _ in range(60):
        w = random_word(g, rng.randrange(0, 12), rng)
        nf = normal_form(g, w)
        v = w
        for _ in range(15):
            v = random_equivalent_rewrite(g, v, rng)
        assert normal_form(g, v) == nf


def test_equal_letter_counts_decided_as_the_oracle():
    """The NO answers that the letter counts cannot give: a word against
    a permutation of its letters, kept when both cyclically reduced
    pilings hold the same letters, so that the decision runs the whole
    pipeline.  Both answers occur."""
    rng = random.Random(43)
    answers = []
    while len(answers) < 400:
        g = random_graph(rng, rng.randrange(3, 6))
        w = random_word(g, rng.randrange(1, 9), rng)
        v = tuple(rng.sample(w, len(w)))
        if (_letter_counts(cyclic_reduce(pi_star(g, w))[0])
                != _letter_counts(cyclic_reduce(pi_star(g, v))[0])):
            continue
        got = conjugate_in_raag(g, w, v)
        assert got == oracle_conjugate(g, w, v), (g, w, v)
        answers.append(got)
    assert answers.count(True) >= 20 and answers.count(False) >= 20


def test_free_retractions_check_long_answers():
    """An independent check of long answers on pairs with equal letter
    counts: v is w with two adjacent letters of distinct generators
    swapped, then rotated.  Swapping a commuting pair keeps the element,
    so v is conjugate to w; swapping a non-commuting pair almost always
    changes the class.  No YES may have a free-retraction certificate,
    and each NO has one or is counted and reported as uncertified, since
    the check is one-sided.  Some NOs keep equal letter counts after
    cyclic reduction, so they run the relays and factor extractions."""
    rng = random.Random(2029)
    answers, uncertified, deep_no = [], 0, 0
    while len(answers) < 150:
        n = rng.randrange(6, 17)
        names = [f"a{i}" for i in range(1, n + 1)]
        density = rng.uniform(0.3, 0.7)
        g = build_graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
                                if rng.random() < density])
        w = random_word(g, rng.randrange(600, 801), rng)
        i = rng.choice([i for i in range(len(w) - 1) if w[i].gen != w[i + 1].gen])
        v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
        k = rng.randrange(len(v))
        v = v[k:] + v[:k]
        got = conjugate_in_raag(g, w, v)
        certificate = free_retraction_certificate(g, w, v)
        if got:
            assert certificate is None, (g, w, v, certificate)
        elif certificate is None:
            uncertified += 1
        elif (_letter_counts(cyclic_reduce(pi_star(g, w))[0])
              == _letter_counts(cyclic_reduce(pi_star(g, v))[0])):
            deep_no += 1
        answers.append(got)
    if uncertified:
        warnings.warn(f"{uncertified} of {answers.count(False)} NO answers have no "
                      f"free-retraction certificate")
    assert answers.count(True) and answers.count(False) and deep_no, (answers, deep_no)


def test_equal_pyramids_decided_as_the_rotation_search():
    """Equal pyramidal pilings answer YES before anything is extracted.
    On random graphs of 2-65 generators, a random reduced word against
    itself, a rotation, a conjugate c.w.c^-1, a one-sign flip or a
    permutation of its letters gets the answer of the rotation search
    over both full factorizations.  Equal pyramids occur, always with
    YES, and unequal ones with both answers."""
    rng = random.Random(59)
    seen = set()
    for _ in range(400):
        g = random_graph(rng, rng.randrange(2, 66))
        w = random_reduced_word(g, rng.randrange(1, 40), rng)
        t = rng.randrange(len(w))
        v = rng.choice((
            w,
            w[t:] + w[:t],
            (c := random_word(g, rng.randrange(1, 6), rng)) + w + inverse_word(c),
            w[:t] + (Letter(w[t].gen, -w[t].sign),) + w[t + 1:],
            tuple(rng.sample(w, len(w)))))
        got = conjugate_in_raag(g, w, v)
        assert got == (_factor_rotations(cyclic_normal_factors(g, w),
                                         cyclic_normal_factors(g, v)) is not None), (g, w, v)
        (pw, ew), (pv, ev) = _reduce(g, w), _reduce(g, v)
        equal = None
        if _letter_counts(pw) == _letter_counts(pv):
            _pyramid(g, pw, ew)  # pyramidalizes pw in place
            _pyramid(g, pv, ev)
            equal = pw == pv
        seen.add((equal, got))
    assert (True, False) not in seen
    assert {(True, True), (False, True), (False, False), (None, False)} <= seen


def test_equal_reductions_decided_as_the_rotation_search(monkeypatch):
    """Equal cyclically reduced pilings answer YES before either is
    pyramidalized.  On random graphs of 2-65 generators, a random word
    against itself, a rotation, a conjugate c.w.c^-1, a one-sign flip or
    a permutation of its letters gets the answer of the rotation search
    over both full factorizations.  Equal reductions occur, always with
    YES and no pyramidalize; unequal ones occur with both answers."""
    pyramidalized = []
    real = raag.conjugacy._pyramidalize
    monkeypatch.setattr(raag.conjugacy, "_pyramidalize",
                        lambda p, apexes: pyramidalized.append(p) or real(p, apexes))
    rng = random.Random(61)
    seen = set()
    for _ in range(400):
        g = random_graph(rng, rng.randrange(2, 66))
        w = random_word(g, rng.randrange(1, 40), rng)
        t = rng.randrange(len(w))
        v = rng.choice((
            w,
            w[t:] + w[:t],
            (c := random_word(g, rng.randrange(1, 6), rng)) + w + inverse_word(c),
            w[:t] + (Letter(w[t].gen, -w[t].sign),) + w[t + 1:],
            tuple(rng.sample(w, len(w)))))
        pyramidalized.clear()
        got = conjugate_in_raag(g, w, v)
        calls = len(pyramidalized)
        assert got == (_factor_rotations(cyclic_normal_factors(g, w),
                                         cyclic_normal_factors(g, v)) is not None), (g, w, v)
        (pw, _), (pv, _) = _reduce(g, w), _reduce(g, v)
        equal = None if _letter_counts(pw) != _letter_counts(pv) else pw == pv
        if equal:
            assert got and calls == 0, (g, w, v)
        seen.add((equal, got))
    assert {(True, True), (False, True), (False, False), (None, False)} <= seen


def test_align_conjugators_reach_the_common_form(monkeypatch):
    """Every YES of ``_align`` holds what it claims, checked with
    ``pi_star`` alone: c_w^-1 w c_w = c_v^-1 v c_v, and the factors f
    that ``factors_v()`` returns are v's cyclic normal factors, whose
    events begin with c_v; the rest of them, d, carries that element to
    f, d^-1 (c_v^-1 v c_v) d = concat(f).  On random graphs of 2-65
    generators, and on inputs of 2k-4k letters that no oracle reaches:
    the path family rotated and conjugated, and a random reduced word
    rotated at 64 generators.  The tier is read from the kernel calls
    ``_align`` makes (none pyramidalized for equal reductions, nothing
    drained for equal pyramids), and all three occur; ``factors_v``
    drains v's piling alone, or nothing after the rotation search."""
    calls = []
    for name in ("_pyramidalize", "_drain"):
        real = getattr(raag.conjugacy, name)
        monkeypatch.setattr(raag.conjugacy, name,
                            lambda *args, name=name, real=real: calls.append(name) or real(*args))
    tiers = {(0, 0): "reductions", (2, 0): "pyramids", (2, 2): "rotation"}

    def check(g, w, v):
        calls.clear()
        aligned = _align(g, w, v)
        if aligned is None:
            return None
        tier = tiers[calls.count("_pyramidalize"), calls.count("_drain")]
        cw, cv, factors_v = aligned
        cw, cv = tuple(cw), tuple(cv)
        left = inverse_word(cw) + w + cw
        right = inverse_word(cv) + v + cv
        assert pi_star(g, left + inverse_word(right)).signed_count == 0, (g, w, v)
        calls.clear()
        f = factors_v()
        assert calls.count("_drain") == (tier != "rotation")
        assert calls.count("_pyramidalize") <= (tier == "reductions")
        assert f == cyclic_normal_factors(g, v), (g, w, v)
        assert f.events[:len(cv)] == cv, (g, w, v)
        d = f.events[len(cv):]
        assert (pi_star(g, inverse_word(d) + right + d + inverse_word(f.concat())).signed_count
                == 0), (g, w, v)
        return tier

    rng = random.Random(79)
    seen = []
    for _ in range(300):
        g = random_graph(rng, rng.randrange(2, 66))
        w = random_word(g, rng.randrange(1, 40), rng)
        t = rng.randrange(len(w))
        v = rng.choice((
            w,
            w[t:] + w[:t],
            (c := random_word(g, rng.randrange(1, 6), rng)) + w + inverse_word(c),
            tuple(rng.sample(w, len(w)))))
        seen.append(check(g, w, v))
    assert {"reductions", "pyramids", "rotation", None} <= set(seen)

    names = [f"a{i}" for i in range(1, 7)]  # a path: only neighbours do not commute
    path = build_graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 2:]])
    w = parse_word(path, "a6 a5 a4 a3 a2 " * 400 + "a1")
    t = len(w) // 3
    c = parse_word(path, "a3 a5")
    assert check(path, w, w[t:] + w[:t]) == "pyramids"
    assert check(path, w, c + w + inverse_word(c)) == "reductions"
    g = random_graph(rng, 64)
    w = random_reduced_word(g, 2000, rng)
    t = len(w) // 3
    assert check(g, w, w[t:] + w[:t]) == "rotation"


def test_free_group_conjugacy():
    g = build_graph(("a1", "a2"), [])
    assert conjugate_in_raag(g, parse_word(g, "a1 a2"),
                             parse_word(g, "a2 a2 a1 a2^-1"))
    assert not conjugate_in_raag(g, parse_word(g, "a1 a2"),
                                 parse_word(g, "a1 a2^-1"))


def test_abelian_conjugacy_is_equality():
    g = build_graph(("a1", "a2"), [("a1", "a2")])
    w = parse_word(g, "a1 a2 a1")
    assert conjugate_in_raag(g, w, parse_word(g, "a2 a1 a1"))
    assert not conjugate_in_raag(g, w, parse_word(g, "a1 a2"))


def test_one_piling_per_decision_whatever_the_rank(monkeypatch):
    """On a1 ... an in the free abelian group every letter is a component
    of its own.  A decision builds one piling and copies it a fixed
    number of times, for 64 generators as for 4: no piling per component."""
    made = []
    real_init, real_copy = Piling.__init__, Piling.copy

    def counting_init(p, graph):
        made.append("build")
        real_init(p, graph)

    def counting_copy(p):
        made.append("copy")
        return real_copy(p)

    monkeypatch.setattr(Piling, "__init__", counting_init)
    monkeypatch.setattr(Piling, "copy", counting_copy)
    counts = []
    for n in (4, 16, 64):
        names = [f"a{i}" for i in range(1, n + 1)]
        g = build_graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])
        made.clear()
        factors = cyclic_normal_factors(g, tuple(Letter(i, 1) for i in range(1, n + 1)))
        assert factors.components == tuple((i,) for i in range(1, n + 1))
        counts.append((made.count("build"), made.count("copy")))
    assert counts[0][0] == 1
    assert counts[0] == counts[1] == counts[2]


@st.composite
def graphs_and_words(draw):
    """A graph on 1-12 generators whose pairs commute with a probability
    drawn from [0, 1], so that supports split into many components, and
    two words of at most 40 letters."""
    n = draw(st.integers(1, 12))
    density = draw(st.floats(0, 1))
    names = [f"a{i}" for i in range(1, n + 1)]
    pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if draw(st.floats(0, 1, exclude_max=True)) < density]
    letters = st.builds(Letter, st.integers(1, n), st.sampled_from((1, -1)))
    words = st.lists(letters, max_size=40).map(tuple)
    return build_graph(names, pairs), draw(words), draw(words)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_and_words())
def test_random_graph_conjugates_share_components(case):
    g, w, u = case
    v = u + w + inverse_word(u)
    assert conjugate_in_raag(g, w, v)
    assert cyclic_normal_factors(g, w).components == cyclic_normal_factors(g, v).components


@settings(max_examples=150, deadline=None, derandomize=True)
@given(graphs_and_words())
def test_random_graph_normal_form_is_idempotent(case):
    g, w, u = case
    for x in (w, u, u + w):
        nf = normal_form(g, x)
        assert normal_form(g, nf) == nf


def test_answers_do_not_depend_on_generator_numbering():
    """Normal forms depend on the order of the generators; the answers
    must not.  Each random graph is built again with its generators
    renumbered by a random permutation, and every word is mapped letter
    by letter.  Conjugacy answers on YES pairs (a conjugate, rotated),
    on sign-flip NO pairs and on equal-count pairs (one adjacent
    transposition of non-commuting letters, then a rotation), word
    problems and the length of the normal form all stay the same."""
    rng = random.Random(31)
    swapped = []
    for _ in range(300):
        n = rng.randrange(2, 13)
        g = random_graph(rng, n)
        perm = rng.sample(range(1, n + 1), n)  # generator i is perm[i - 1] in h
        names = [None] * n
        for i, name in enumerate(g.names):
            names[perm[i] - 1] = name
        h = build_graph(names, [(g.name(i), g.name(j)) for i in range(1, n + 1)
                                for j in range(i + 1, n + 1) if g.commutes(i, j)])
        assert all(h.noncommute[perm[i - 1]] == {perm[j - 1] for j in g.noncommute[i]}
                   for i in range(1, n + 1))

        def renumber(w):
            return tuple(letter_row(perm[l.gen - 1])[l.sign] for l in w)

        w = random_word(g, rng.randrange(1, 40), rng)
        c = random_word(g, rng.randrange(0, 8), rng)
        k = rng.randrange(len(w))
        pairs = {"yes": inverse_word(c) + w[k:] + w[:k] + c}
        i = rng.randrange(len(w))
        pairs["flip"] = w[:i] + (letter_row(w[i].gen)[-w[i].sign],) + w[i + 1:]
        seams = [i for i in range(len(w) - 1)
                 if w[i].gen != w[i + 1].gen and not g.commutes(w[i].gen, w[i + 1].gen)]
        if seams:
            i = rng.choice(seams)
            v = w[:i] + (w[i + 1], w[i]) + w[i + 2:]
            pairs["swap"] = v[k:] + v[:k]
        for kind, v in pairs.items():
            got = conjugate_in_raag(g, w, v)
            assert conjugate_in_raag(h, renumber(w), renumber(v)) is got, (kind, g, w, v)
            if kind == "swap":
                swapped.append(got)
            else:
                assert got is (kind == "yes")
        x = w
        for _ in range(rng.randrange(0, 4)):
            x = random_equivalent_rewrite(g, x, rng)
        for u in (w + inverse_word(x), w + inverse_word(pairs["flip"])):
            trivial = pi_star(g, u).signed_count == 0
            assert (pi_star(h, renumber(u)).signed_count == 0) is trivial
            assert trivial is (u[len(w):] == inverse_word(x))
        assert len(normal_form(h, renumber(w))) == len(normal_form(g, w))
    assert swapped.count(False) >= 50 and True in swapped, swapped
