import random

import pytest

import raag.cubecomplex
from raag import (
    BasedWord,
    CentralizerGens,
    ComplexSyntaxError,
    CubeComplexMap,
    Edge,
    Letter,
    NotALoop,
    UntraceableWord,
    based_word,
    build_graph,
    centralizer_generators,
    conjugate_in_raag,
    cyclic_normal_factors,
    groupoid_conjugate,
    inverse_word,
    normalize_based,
    parse_based_word,
    parse_complex,
    parse_word,
    reach_by_centralizer,
    reach_by_preferred_enumeration,
    validate,
)
from raag.cubecomplex import trace
from .conftest import random_word

FREE2 = build_graph(("a1", "a2"), [])

# two a1-loops joined by an a2-edge; the classic basepoint trap
TRAP = parse_complex("""
vertices x1 x2
edge e1 x1 x1 a1
edge e2 x1 x2 a2
edge e3 x2 x2 a1
""", FREE2)


def square_complex():
    """One a1-edge between two vertices, an a2-loop at each end, and the
    square between them; a1 and a2 commute."""
    g = build_graph(("a1", "a2"), [("a1", "a2")])
    cx = parse_complex("""
    vertices y1 y2
    edge f1 y1 y2 a1
    edge f2 y1 y1 a2
    edge f3 y2 y2 a2
    square f1 f3 f1 f2
    """, g)
    return g, cx


def test_parse_complex_basics():
    assert TRAP.vertices == ("x1", "x2")
    assert len(TRAP.edges) == 3
    assert TRAP.squares is None


def test_parse_complex_errors():
    with pytest.raises(ComplexSyntaxError):
        parse_complex("edge e1 x1 x1 a1", FREE2)  # no vertices line
    with pytest.raises(ComplexSyntaxError):
        parse_complex("vertices x1\nedge e1 x1 x1 zz", FREE2)
    with pytest.raises(ComplexSyntaxError):
        parse_complex("vertices x1\nbogus", FREE2)
    with pytest.raises(ComplexSyntaxError):
        parse_complex("vertices x1\nedge e1 x1", FREE2)


def test_validate_ok():
    report = validate(TRAP, FREE2)
    assert report.ok
    assert report.determinism_ok
    assert not report.convexity_checked
    assert "valid" in report.summary()


def test_validate_determinism_violation():
    cx = parse_complex("""
    vertices x1 x2 x3
    edge e1 x1 x2 a1
    edge e2 x1 x3 a1
    """, FREE2)
    report = validate(cx, FREE2)
    assert not report.ok
    assert not report.determinism_ok
    assert any("determinism" in p for p in report.problems)


def test_validate_unknown_vertex():
    cx = parse_complex("""
    vertices x1
    edge e1 x1 x9 a1
    """, FREE2)
    report = validate(cx, FREE2)
    assert not report.ok
    assert not report.vertices_ok


def test_validate_square_convexity_ok():
    g, cx = square_complex()
    report = validate(cx, g)
    assert report.ok
    assert report.convexity_checked
    assert report.convexity_ok


def test_validate_missing_square_is_convexity_violation():
    g = build_graph(("a1", "a2"), [("a1", "a2")])
    cx = parse_complex("""
    vertices y1 y2
    edge f1 y1 y2 a1
    edge f2 y1 y1 a2
    square f1 f2 f1 f2   # nonsense record: does not close
    """, g)
    report = validate(cx, g)
    assert not report.ok
    assert not report.squares_ok
    # the square complex's record closes, but over non-commuting labels
    _, cx = square_complex()
    report = validate(cx, FREE2)
    assert not report.squares_ok
    assert report.problems == [
        "square ('f1', 'f3', 'f1', 'f2'): no orientation closes the boundary "
        "with matching opposite labels and commuting sides"]


def test_trace_and_based_word():
    assert trace(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1")) == "x1"
    assert trace(TRAP, "x1", parse_word(FREE2, "a2 a2")) is None
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1"))
    assert bw.end == "x2"
    with pytest.raises(UntraceableWord):
        based_word(TRAP, "x1", parse_word(FREE2, "a2 a2"))
    with pytest.raises(UntraceableWord):
        based_word(TRAP, "zz", ())


def based_cycle(cx, bw):
    """Move the base along the loop's first edge and rotate the word."""
    if bw.base != bw.end:
        raise NotALoop(f"based word runs {bw.base} -> {bw.end}")
    if not bw.word:
        raise NotALoop("cannot cycle an empty loop word")
    nb = cx.delta.get((bw.base, bw.word[0]))
    if nb is None:
        raise UntraceableWord(f"letter {bw.word[0]} does not trace from {bw.base}")
    return BasedWord(nb, bw.word[1:] + bw.word[:1], nb)


def test_based_cycle():
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1"))
    c = based_cycle(TRAP, bw)
    assert c.base == "x2"
    assert c.word == parse_word(FREE2, "a1 a2^-1 a2")
    with pytest.raises(NotALoop):
        based_cycle(TRAP, based_word(TRAP, "x1", parse_word(FREE2, "a2")))


def test_normalize_based_moves_base():
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1"))
    base, factors = normalize_based(TRAP, FREE2, bw)
    assert base == "x2"
    assert factors.factors == (parse_word(FREE2, "a1"),)


def test_normalize_based_identity_loop():
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a1 a1^-1"))
    base, factors = normalize_based(TRAP, FREE2, bw)
    assert base == "x1"
    assert factors.factors == ()


@pytest.fixture(params=["bfs", "enumerate"])
def method(request, monkeypatch):
    """Run groupoid_conjugate as shipped ("bfs"), or with its reachability
    step replaced by the literal preferred-form enumeration ("enumerate")."""
    if request.param == "enumerate":
        monkeypatch.setattr(
            "raag.cubecomplex.reach_by_centralizer",
            lambda cx, x, gens: reach_by_preferred_enumeration(
                cx, x, gens, len(cx.vertices)))
    return request.param


def test_basepoint_trap(method):
    """Conjugate in the group, yet not freely homotopic in the complex."""
    A = based_word(TRAP, "x1", parse_word(FREE2, "a1"))
    B = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1"))
    C = based_word(TRAP, "x2", parse_word(FREE2, "a1"))
    assert conjugate_in_raag(FREE2, A.word, B.word)
    assert not groupoid_conjugate(TRAP, FREE2, A, B)
    assert groupoid_conjugate(TRAP, FREE2, B, C)
    assert not groupoid_conjugate(TRAP, FREE2, A, C)
    assert groupoid_conjugate(TRAP, FREE2, A, A)


def test_parallel_transport_across_square(method):
    g, cx = square_complex()
    A = based_word(cx, "y1", parse_word(g, "a2"))
    B = based_word(cx, "y2", parse_word(g, "a2"))
    # moving the base along the a1 edge is a parallel transport
    assert groupoid_conjugate(cx, g, A, B)


def test_root_power_conjugator(method):
    g = FREE2
    # a1 a1 loop must travel x1 -> x2 by the a2 edge; conjugator a2
    cx = TRAP
    A = based_word(cx, "x1", parse_word(g, "a2 a1 a1 a2^-1"))
    B = based_word(cx, "x2", parse_word(g, "a1 a1"))
    assert groupoid_conjugate(cx, g, A, B)


def test_reach_matches_preferred_enumeration():
    """The reachability fixpoint finds exactly the vertices reached by
    literally enumerating preferred-form centralizer words."""
    g_sq, cx_sq = square_complex()
    cases = [
        (FREE2, TRAP, ["a1", "a2 a1 a2^-1", "a1 a2"]),  # trap
        (g_sq, cx_sq, ["a2", "a1", "a1 a2"]),  # square
        (FREE2, TRAP, ["a1 a1", "a2 a1 a1 a2^-1"]),  # root power
    ]
    for g, cx, words in cases:
        for text in words:
            gens = centralizer_generators(
                g, cyclic_normal_factors(g, parse_word(g, text)))
            for x in cx.vertices:
                assert reach_by_centralizer(cx, x, gens) == \
                    reach_by_preferred_enumeration(cx, x, gens, len(cx.vertices))


def delta_trace(cx, x, w):
    """Reference walk through the public ``delta`` table."""
    for l in w:
        x = cx.delta.get((x, l))
        if x is None:
            return None
    return x


def delta_reach(cx, x_start, gens):
    """Reference fixpoint of the centralizer moves on vertex names."""
    moves = [m for z, _r in gens.roots for m in (z, inverse_word(z))]
    moves += [(Letter(l, s),) for l in sorted(gens.link_gens) for s in (1, -1)]
    visited, frontier = {x_start}, [x_start]
    while frontier:
        x = frontier.pop()
        for mv in moves:
            y = delta_trace(cx, x, mv)
            if y is not None and y not in visited:
                visited.add(y)
                frontier.append(y)
    return visited


def random_partial_complex(rng):
    """A random partial complex: some edges run to undeclared vertices,
    some (vertex, letter) keys carry two edges, and generators above
    ``n_used`` label no edge at all."""
    n = rng.randrange(1, 5)
    g = build_graph([f"a{i}" for i in range(1, n + 1)], [])
    declared = [f"v{i}" for i in range(rng.randrange(1, 7))]
    ends = declared + [f"u{i}" for i in range(rng.randrange(0, 3))]
    n_used = rng.randrange(1, n + 1)
    edges = [Edge(f"e{i}", rng.choice(ends), rng.choice(ends), rng.randrange(1, n_used + 1))
             for i in range(rng.randrange(0, 4 * len(ends)))]
    if edges:
        e = rng.choice(edges)
        edges.append(Edge("dup", e.src, rng.choice(ends), e.label))
    return g, CubeComplexMap(declared, edges), ends + ["nowhere"]


def test_trace_and_reach_match_delta_walk():
    rng = random.Random(606)
    for _ in range(400):
        g, cx, starts = random_partial_complex(rng)
        for x in starts:
            for w in [()] + [random_word(g, rng.randrange(1, 9), rng) for _ in range(6)]:
                assert trace(cx, x, w) == delta_trace(cx, x, w)
            roots = tuple((random_word(g, rng.randrange(1, 4), rng), 1)
                          for _ in range(rng.randrange(0, 3)))
            link = frozenset(j for j in range(1, g.n + 1) if rng.random() < 0.3)
            gens = CentralizerGens(roots, link)
            assert reach_by_centralizer(cx, x, gens) == delta_reach(cx, x, gens)


def test_aligned_base_answers_yes_without_centralizer(monkeypatch):
    """The README's YES line: loop 2's base, carried along its events,
    is loop 1's base, so neither centralizer step runs; the trap's NO
    pair still runs both."""
    def boom(*args):
        raise AssertionError("centralizer search ran")

    monkeypatch.setattr(raag.cubecomplex, "centralizer_generators", boom)
    monkeypatch.setattr(raag.cubecomplex, "reach_by_centralizer", boom)
    A = based_word(TRAP, "x1", parse_word(FREE2, "a1"))
    B = based_word(TRAP, "x2", parse_word(FREE2, "a2^-1 a1 a2"))
    assert groupoid_conjugate(TRAP, FREE2, A, B)
    assert groupoid_conjugate(TRAP, FREE2, A, A)

    calls = []

    def counted(real):
        def fn(*args):
            calls.append(real.__name__)
            return real(*args)
        return fn

    monkeypatch.setattr(raag.cubecomplex, "centralizer_generators",
                        counted(centralizer_generators))
    monkeypatch.setattr(raag.cubecomplex, "reach_by_centralizer",
                        counted(reach_by_centralizer))
    C = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1"))
    assert not groupoid_conjugate(TRAP, FREE2, A, C)
    assert calls == ["centralizer_generators", "reach_by_centralizer"]


def test_groupoid_conjugate_rejects_non_loops():
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2"))
    loop = based_word(TRAP, "x1", parse_word(FREE2, "a1"))
    with pytest.raises(NotALoop):
        groupoid_conjugate(TRAP, FREE2, bw, loop)


def test_parse_based_word():
    bw = parse_based_word(TRAP, FREE2, "x1: a1 a1")
    assert bw.base == "x1" and bw.end == "x1"
    with pytest.raises(ComplexSyntaxError):
        parse_based_word(TRAP, FREE2, "a1 a1")


def test_single_vertex_complex_degenerates_to_group_conjugacy():
    """With one vertex, free homotopy is exactly conjugacy of the words."""
    import random
    from .conftest import random_word
    g = build_graph(("a1", "a2", "a3", "a4"),
                    [("a1", "a4"), ("a2", "a3"), ("a2", "a4")])
    cx = parse_complex("""
    vertices v
    edge e1 v v a1
    edge e2 v v a2
    edge e3 v v a3
    edge e4 v v a4
    square e1 e4 e1 e4
    square e2 e3 e2 e3
    square e2 e4 e2 e4
    """, g)
    assert validate(cx, g).ok
    rng = random.Random(41)
    for _ in range(80):
        u = random_word(g, rng.randrange(0, 7), rng)
        w = random_word(g, rng.randrange(0, 7), rng)
        a = based_word(cx, "v", u)
        b = based_word(cx, "v", w)
        assert groupoid_conjugate(cx, g, a, b) == conjugate_in_raag(g, u, w)
