import pytest

from raag import (
    ComplexSyntaxError,
    NotALoop,
    UntraceableWord,
    based_cycle,
    based_word,
    build_graph,
    centralizer_generators,
    conjugate_in_raag,
    cyclic_normal_factors,
    groupoid_conjugate,
    normalize_based,
    parse_based_word,
    parse_complex,
    parse_word,
    reach_by_centralizer,
    reach_by_preferred_enumeration,
    validate,
)
from raag.cubecomplex import trace

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


def test_trace_and_based_word():
    assert trace(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1")) == "x1"
    assert trace(TRAP, "x1", parse_word(FREE2, "a2 a2")) is None
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1"))
    assert bw.end == "x2"
    with pytest.raises(UntraceableWord):
        based_word(TRAP, "x1", parse_word(FREE2, "a2 a2"))
    with pytest.raises(UntraceableWord):
        based_word(TRAP, "zz", ())


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
