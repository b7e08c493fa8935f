"""End-to-end acceptance checks.

Each test prints one PASS line on success; run with `pytest -s
tests/test_acceptance.py` to see the report.  Tolerances and budgets are
asserted explicitly.
"""
import gc
import random
import statistics
import time
from collections import Counter

import pytest

import raag.conjugacy
import raag.piling
from raag import (
    CyclicNormalFactors,
    Letter,
    build_graph,
    based_word,
    centralizer_generators,
    conjugate_in_raag,
    cyclic_normal_factors,
    groupoid_conjugate,
    normal_form,
    parse_complex,
    parse_word,
    pi_star,
    pyramidalize,
    sigma_star,
    validate,
)
from raag.centralizer import minimal_root
from raag.conjugacy import cyclic_equal
from raag.core import inverse_word, support_components
from raag.cubecomplex import reach_by_centralizer, trace
from raag.oracle import _edge_table, loop_class_key, oracle_conjugate, oracle_groupoid_conjugate
from raag.piling import cyclic_reduce
from .conftest import is_cyclic_normal, random_equivalent_rewrite, random_reduced_word, random_word

EXAMPLE_WORD = "a2^-2 a4^-1 a3 a2 a4 a1 a2 a1^-1 a2^2 a4^-1"


def example():
    return build_graph(("a1", "a2", "a3", "a4"),
                       [("a1", "a4"), ("a2", "a3"), ("a2", "a4")])


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_acceptance_01_golden_normal_form():
    g = example()
    w = parse_word(g, EXAMPLE_WORD)
    want = parse_word(g, "a4^-1 a3 a2^-1 a1 a2 a1^-1 a2 a2")
    normal_form(g, w)  # warm up
    t0 = time.perf_counter()
    got = normal_form(g, w)
    dt = time.perf_counter() - t0
    assert got == want
    assert dt < 1e-3
    report(1, f"golden normal form matches letter for letter ({dt * 1e6:.0f} us)")


def test_acceptance_02_split_regression():
    g = example()
    factors = cyclic_normal_factors(g, parse_word(g, "a1^-1 a2 a3 a1 a4^-1"))
    assert factors.components == ((2,), (3, 4))
    assert [pi_star(g, f) for f in factors.factors] == [
        pi_star(g, parse_word(g, "a2")), pi_star(g, parse_word(g, "a3 a4^-1"))]
    report(2, "cyclic reduction + split gives components {a2} and {a3,a4}")


def test_acceptance_03_cyclic_normal_classifier():
    g = example()
    assert not is_cyclic_normal(g, parse_word(g, "a4^-1 a3 a2^-1 a1 a2 a1^-1 a2 a2"))
    assert is_cyclic_normal(g, parse_word(g, "a1 a2 a1^-1 a3 a4^-1 a2"))
    report(3, "classifier rejects the normal form and accepts the cyclic one")


def trap_complex():
    g = build_graph(("a1", "a2"), [])
    cx = parse_complex("""
    vertices x1 x2
    edge e1 x1 x1 a1
    edge e2 x1 x2 a2
    edge e3 x2 x2 a1
    """, g)
    return g, cx


def test_acceptance_04_basepoint_counterexample():
    g, cx = trap_complex()
    assert validate(cx, g).ok
    A = based_word(cx, "x1", parse_word(g, "a1"))
    B = based_word(cx, "x1", parse_word(g, "a2 a1 a2^-1"))
    assert conjugate_in_raag(g, A.word, B.word)
    assert not groupoid_conjugate(cx, g, A, B)
    report(4, "conjugate in the group, not freely homotopic in the complex")


def test_acceptance_05_oracle_equivalence_raag():
    budget = 60.0
    t0 = time.perf_counter()
    graphs = [example(), build_graph(("a1", "a2", "a3"), [])]
    rng = random.Random(101)
    pairs_done = 0
    for g in graphs:
        for k in range(500):
            if k % 3 == 0:
                # guarantee a stream of YES instances, still length <= 8
                u = random_word(g, rng.randrange(0, 7), rng)
                c = random_word(g, 1, rng)
                v = c + u + inverse_word(c)
            else:
                u = random_word(g, rng.randrange(0, 9), rng)
                v = random_word(g, rng.randrange(0, 9), rng)
            assert oracle_conjugate(g, u, v) == conjugate_in_raag(g, u, v)
            pairs_done += 1
    dt = time.perf_counter() - t0
    assert pairs_done == 1000
    assert dt < budget
    report(5, f"decider matches brute force on 1000 pairs ({dt:.1f} s)")


def acceptance_complexes():
    g1, cx1 = trap_complex()

    g2 = build_graph(("a1", "a2"), [("a1", "a2")])
    cx2 = parse_complex("""
    vertices y1 y2
    edge f1 y1 y2 a1
    edge f2 y1 y1 a2
    edge f3 y2 y2 a2
    square f1 f3 f1 f2
    """, g2)

    g3 = example()
    cx3 = parse_complex("""
    vertices z1 z2 z3 z4
    edge k1 z1 z2 a2
    edge k2 z1 z1 a4
    edge k3 z2 z2 a4
    edge k4 z2 z3 a3
    edge k5 z1 z4 a3
    edge k6 z4 z3 a2
    square k1 k3 k1 k2
    square k1 k4 k6 k5
    """, g3)
    return [(g1, cx1), (g2, cx2), (g3, cx3)]


def letters_at(delta, x):
    return [l for (v, l) in delta if v == x]


def enumerate_loops(cx, g, max_len):
    """Every based loop of at most max_len letters, walked through the
    oracle's table read off the edges."""
    delta = _edge_table(cx)
    loops = []
    for base in cx.vertices:
        stack = [(base, ())]
        while stack:
            x, w = stack.pop()
            if x == base:
                loops.append(based_word(cx, base, w))
            if len(w) == max_len:
                continue
            for l in letters_at(delta, x):
                stack.append((delta[(x, l)], w + (l,)))
    return loops


def main_loop_key(cx, g, bw):
    """Canonical free-homotopy key computed by the production pipeline:
    lex-minimal factor rotations, base carried along, orbit minimum of
    the centralizer reachability."""
    factors = cyclic_normal_factors(g, bw.word)
    base = trace(cx, bw.base, factors.events)
    canon = []
    for u in factors.factors:
        m = min(u[i:] + u[:i] for i in range(len(u)))
        base = trace(cx, base, u[:cyclic_equal(u, m)])
        canon.append(m)
    canon_factors = CyclicNormalFactors(tuple(canon), factors.components, ())
    gens = centralizer_generators(g, canon_factors)
    orbit = reach_by_centralizer(cx, base, gens)
    return (factors.components, tuple(canon), min(orbit))


def test_acceptance_06_oracle_equivalence_groupoid():
    budget = 120.0
    t0 = time.perf_counter()
    rng = random.Random(202)
    total_loops = 0
    for g, cx in acceptance_complexes():
        assert validate(cx, g).ok
        loops = enumerate_loops(cx, g, 6)
        total_loops += len(loops)
        main_keys = [main_loop_key(cx, g, bw) for bw in loops]
        oracle_keys = [loop_class_key(cx, g, bw) for bw in loops]
        # identical partitions <=> agreement on every pair of loops
        by_main, by_oracle = {}, {}
        for i, (mk, ok) in enumerate(zip(main_keys, oracle_keys)):
            by_main.setdefault(mk, set()).add(i)
            by_oracle.setdefault(ok, set()).add(i)
        assert (set(map(frozenset, by_main.values()))
                == set(map(frozenset, by_oracle.values())))
        # tie the pairwise decision procedure itself to the key partition
        for _ in range(200):
            i, j = rng.randrange(len(loops)), rng.randrange(len(loops))
            got = groupoid_conjugate(cx, g, loops[i], loops[j])
            assert got == (main_keys[i] == main_keys[j])
            assert got == oracle_groupoid_conjugate(cx, g, loops[i], loops[j])
    dt = time.perf_counter() - t0
    assert dt < budget
    report(6, f"groupoid decider matches brute force on all pairs of "
              f"{total_loops} loops across 3 complexes ({dt:.1f} s)")


def test_acceptance_07_normal_form_uniqueness():
    budget = 10.0
    g = example()
    rng = random.Random(303)
    t0 = time.perf_counter()
    for _ in range(500):
        w = random_word(g, rng.randrange(0, 12), rng)
        nf = normal_form(g, w)
        v = w
        for _ in range(20):
            v = random_equivalent_rewrite(g, v, rng)
            assert normal_form(g, v) == nf
    dt = time.perf_counter() - t0
    assert dt < budget
    report(7, f"one normal form across 500 words x 20 rewrites ({dt:.1f} s)")


def eccentricity(g, comp, v):
    """Of v in the non-commutation graph on the generators comp."""
    dist = {v: 0}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.noncommute[x].intersection(comp):
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return max(dist.values())


def test_acceptance_08_pyramidalize_iteration_bound():
    budget = 10.0
    g = example()
    rng = random.Random(404)
    t0 = time.perf_counter()
    done = 0
    while done < 500:
        w = random_reduced_word(g, rng.randrange(1, 16), rng)
        p, _ = cyclic_reduce(pi_star(g, w))
        if p.is_empty():
            continue
        components = support_components(g, {l.gen for l in sigma_star(p)})
        if len(components) != 1:
            continue
        q, _, passes = pyramidalize(p)
        assert passes <= eccentricity(g, components[0], min(p.support()))
        done += 1
    dt = time.perf_counter() - t0
    assert dt < budget
    report(8, f"pyramidalize passes within the eccentricity bound on 500 "
              f"pilings ({dt:.1f} s)")


def test_acceptance_09_centralizer_soundness():
    budget = 30.0
    g = example()
    rng = random.Random(505)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        factors = cyclic_normal_factors(
            g, random_reduced_word(g, rng.randrange(1, 12), rng))
        w = factors.concat()
        gens = centralizer_generators(g, factors)
        produced = [z for z, _r in gens.roots]
        produced += [(Letter(j, 1),) for j in gens.link_gens]
        for u in produced:
            assert normal_form(g, u + w + inverse_word(u)) == normal_form(g, w)
            checked += 1
    dt = time.perf_counter() - t0
    assert checked > 0
    assert dt < budget
    report(9, f"all {checked} centralizer generators commute with their "
              f"words ({dt:.1f} s)")


def test_acceptance_10_linearity():
    g = example()
    rng = random.Random(606)
    sizes = [10_000 * 2 ** k for k in range(5)]
    pairs = {n: [(random_reduced_word(g, n // 2, rng), random_reduced_word(g, n - n // 2, rng))
                 for _ in range(3)] for n in sizes}
    samples = {n: [] for n in sizes}
    gc.disable()
    try:
        # each round times one pair of every size, so a stretch of a slow
        # host slows one sample of each size, not all three of one size
        for k in range(3):
            for n in sizes:
                u, v = pairs[n][k]
                # CPU time: the time this process waits for a shared CPU
                # does not count
                t0 = time.process_time()
                conjugate_in_raag(g, u, v)
                samples[n].append(time.process_time() - t0)
    finally:
        gc.enable()
    medians = [statistics.median(samples[n]) for n in sizes]
    ratios = [medians[i + 1] / medians[i] for i in range(len(sizes) - 1)]
    for r in ratios[-3:]:
        assert 1.5 <= r <= 2.7, (ratios, medians)
    report(10, "doubling ratios "
               + ", ".join(f"{r:.2f}" for r in ratios[-3:])
               + " all in [1.5, 2.7]")


def count_kernel_letters(monkeypatch) -> Counter:
    """Wrap the piling kernel so that the returned counter holds, per
    kernel function, the letters that passed through it: folded,
    extracted, or removed by cyclic reduction, two per removed pair (its
    bottom and its top letter)."""
    traffic = Counter()

    def count(module, name, letters, key=None):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            out = real(*args, **kwargs)
            traffic[key or name] += letters(args, out)
            return out

        monkeypatch.setattr(module, name, wrapper)

    count(raag.piling, "_fold", lambda args, out: len(args[1]))
    count(raag.piling, "_extract", lambda args, out: len(out))
    # the factors are extracted where the deciders look ``_extract`` up
    count(raag.conjugacy, "_extract", lambda args, out: len(out))
    # wrapped where the deciders look it up: the in-place form, which
    # returns the removed pairs' bottom letters
    count(raag.conjugacy, "_cyclic_reduce", lambda args, out: 2 * len(out), "cyclic_reduce")
    return traffic


def path_graph(n=6):
    """a1 - a2 - ... - an: neighbours do not commute, all other pairs do."""
    return build_graph([f"a{i}" for i in range(1, n + 1)],
                       [(f"a{i}", f"a{j}") for i in range(1, n + 1) for j in range(i + 2, n + 1)])


def test_acceptance_10_kernel_traffic_is_linear(monkeypatch):
    """The clock-free side of the check above: the letters that pass
    through the piling kernel (folded, extracted, cyclically reduced)
    in one conjugacy decision double with the input, on random reduced
    words and on the path-graph family that cycles nearly every tile."""
    traffic = count_kernel_letters(monkeypatch)

    g = example()
    rng = random.Random(808)
    path = path_graph()

    def random_words(n):
        return g, random_reduced_word(g, n, rng)

    def path_words(n):  # (a6 a5 a4 a3 a2)^m a1
        return path, parse_word(path, "a6 a5 a4 a3 a2 " * (n // 5) + "a1")

    bound = 6  # letters of kernel traffic per input letter
    lines = []
    for family, words in (("random", random_words), ("path", path_words)):
        counts = []
        for n in (2000, 4000):
            h, w = words(n)
            t = len(w) // 3
            traffic.clear()
            assert conjugate_in_raag(h, w, w[t:] + w[:t])
            total = traffic.total()
            assert total < bound * 2 * len(w), (family, n, total)
            counts.append(total)
        ratio = counts[1] / counts[0]
        assert 1.8 <= ratio <= 2.2, (family, counts)
        lines.append(f"{family} {ratio:.3f}")
    report(10, "kernel letters per decision double with the input: "
               + ", ".join(lines) + f"; under {bound} per input letter")


def test_acceptance_10_deciders_fold_only_their_input(monkeypatch):
    """Pyramidalize lays each pass's tiles back on top instead of folding
    them again, so the deciders fold exactly their input letters however
    many passes they take, and ``pyramidalize`` folds none.  Checked on
    F_k = a_k^m ... a_2^m a_1 over the path graph of k generators, whose
    apex a1 has eccentricity k-1, and on (a3 a4)^m a1, which cycles every
    tile but a1."""
    traffic = count_kernel_letters(monkeypatch)
    cases = []
    for k in (8, 16, 32):
        g = path_graph(k)
        cases.append((f"F_{k}", g, parse_word(g, " ".join(f"a{i}^40" for i in range(k, 1, -1))
                                               + " a1"), k - 1))
    g = example()
    cases.append(("(a3 a4)^m a1", g, parse_word(g, "a3 a4 " * 500 + "a1"), 1))
    lines = []
    for name, g, w, least in cases:
        p, _ = cyclic_reduce(pi_star(g, w))
        traffic.clear()
        _, events, passes = pyramidalize(p)
        assert passes >= least and traffic["_fold"] == 0, (name, passes, traffic)
        v = w[1:] + w[:1]
        traffic.clear()
        assert conjugate_in_raag(g, w, v)
        assert traffic["_fold"] == len(w) + len(v), (name, traffic)
        traffic.clear()
        cyclic_normal_factors(g, w)
        assert traffic["_fold"] == len(w), (name, traffic)
        lines.append(f"{name} {passes} passes, {len(events)} cycled")
    report(10, "the deciders fold only their input letters: " + ", ".join(lines))


# kernel letters of the YES decisions below.  The path rotation has
# unequal cyclic reductions but equal pyramidal pilings, so only
# pyramidalize extracts, and each of its passes lays the letters it
# extracts back on top, so the fold takes the two input words alone (the
# path pair drained both pyramids as well, 7,355 extracted letters,
# before equal pyramids answered YES); the
# based rotation's pyramids differ, so both are drained and
# rotation-compared.  The conjugated path and the conjugated loop have
# equal cyclic reductions, which answer YES with nothing pyramidalized,
# so nothing is extracted (the conjugated path pyramidalized both words
# before, 8,026 folded and 4,020 extracted letters).
YES_TRAFFIC = {
    "path": Counter(_fold=4002, _extract=3353),
    "conjugated path": Counter(_fold=4006, _extract=0, cyclic_reduce=4),
    "loop": Counter(_fold=800, _extract=800),
    "conjugated loop": Counter(_fold=802, _extract=0, cyclic_reduce=2),
}


def test_acceptance_10_count_check_extracts_nothing_on_no(monkeypatch):
    """Pairs whose cyclically reduced pilings hold different letter
    counts are NO before anything is pyramidalized or extracted: a word
    of the path family against itself with one letter inverted, and a
    loop against itself with a closed power inserted.  Their YES
    partners move exactly the kernel letters pinned in ``YES_TRAFFIC``:
    a rotation of the path word, whose pyramidal piling equals its
    partner's and is never drained; conjugates of the path word and of
    the loop, whose cyclically reduced pilings equal their partners' and
    are never pyramidalized; and a based rotation of the loop, whose
    pyramids differ."""
    traffic = count_kernel_letters(monkeypatch)

    path = path_graph()
    w = parse_word(path, "a6 a5 a4 a3 a2 " * 400 + "a1")  # (a6 ... a2)^400 a1
    t = len(w) // 3
    v = w[:t] + (Letter(w[t].gen, -w[t].sign),) + w[t + 1:]
    assert not conjugate_in_raag(path, w, v)
    assert traffic["_extract"] == 0
    traffic.clear()
    assert conjugate_in_raag(path, w, w[t:] + w[:t])
    assert traffic == YES_TRAFFIC["path"]
    c = parse_word(path, "a3 a5")
    traffic.clear()
    assert conjugate_in_raag(path, w, c + w + inverse_word(c))
    assert traffic == YES_TRAFFIC["conjugated path"]

    g, cx = trap_complex()
    z = parse_word(g, "a1 a2 a1 a2^-1")  # a loop at x1 through x2
    loop = based_word(cx, "x1", z * 100)
    inserted = based_word(cx, "x1", z[:1] + z * 100)  # a1 is closed at x1
    traffic.clear()
    assert not groupoid_conjugate(cx, g, loop, inserted)
    assert traffic["_extract"] == 0
    rotated = based_word(cx, "x2", (z[2:] + z[:2]) * 100)
    traffic.clear()
    assert groupoid_conjugate(cx, g, loop, rotated)
    assert traffic == YES_TRAFFIC["loop"]
    conjugated = based_word(cx, "x1", z[:1] + z * 100 + inverse_word(z[:1]))
    traffic.clear()
    assert groupoid_conjugate(cx, g, loop, conjugated)
    assert traffic == YES_TRAFFIC["conjugated loop"]
    report(10, "letter counts answer NO with 0 extracted letters; YES traffic "
               + ", ".join(f"{k} {c.total()}" for k, c in YES_TRAFFIC.items()))


def test_acceptance_11_minimal_root():
    budget = 5.0
    g = example()
    t0 = time.perf_counter()
    w = parse_word(g, "a1 a2") * 3
    assert minimal_root(w) == (parse_word(g, "a1 a2"), 3)
    rng = random.Random(707)
    aperiodic = 0
    while aperiodic < 100:
        factors = cyclic_normal_factors(
            g, random_reduced_word(g, rng.randrange(1, 12), rng))
        for u in factors.factors:
            periods = [t for t in range(1, len(u) + 1)
                       if len(u) % t == 0 and u[:t] * (len(u) // t) == u]
            z, r = minimal_root(u)
            assert len(z) == min(periods) and z * r == u
            if r == 1:
                aperiodic += 1
    dt = time.perf_counter() - t0
    assert dt < budget
    report(11, f"minimal roots exact on (a1 a2)^3 and {aperiodic} aperiodic "
               f"words ({dt:.1f} s)")
