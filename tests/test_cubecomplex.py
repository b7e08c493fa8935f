import random
import sys
import tracemalloc
from itertools import combinations, product

import pytest

import raag.conjugacy
import raag.cubecomplex
from raag import (
    BasedWord,
    CentralizerGens,
    ComplexSyntaxError,
    CubeComplexMap,
    Edge,
    Letter,
    NotALoop,
    Piling,
    UntraceableWord,
    based_word,
    build_graph,
    centralizer_generators,
    conjugate_in_raag,
    cyclic_normal_factors,
    groupoid_conjugate,
    parse_based_word,
    parse_complex,
    parse_word,
    validate,
)
from raag.conjugacy import _pyramid, _reduce
from raag.core import inverse_word, letter_row, letter_table
from raag.cubecomplex import ValidationReport, reach_by_centralizer, trace
from raag.oracle import oracle_groupoid_conjugate, reach_by_preferred_enumeration
from raag.piling import _letter_counts
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
    for text, message in (
            ("edge e1 x1 x1 a1", "<string>: missing 'vertices' line"),
            ("vertices x1\nedge e1 x1 x1 zz", "<string>:2: unknown generator label 'zz'"),
            ("vertices x1\nbogus", "<string>:2: unknown directive 'bogus'"),
            ("vertices x1\nedge e1 x1", "<string>:2: 'edge' takes id, src, dst, label"),
            ("vertices x1\nvertices x2", "<string>:2: repeated 'vertices' line"),
            ("# none\nvertices", "<string>:2: 'vertices' needs at least one name"),
            ("vertices x1\nsquare e1 e1 e1", "<string>:2: 'square' takes four edge ids"),
            ("bogus\nvertices x1", "<string>:1: unknown directive 'bogus'")):
        with pytest.raises(ComplexSyntaxError) as err:
            parse_complex(text, FREE2)
        assert str(err.value) == message


def test_complex_line_syntax():
    """Comments after fields or glued to the last token (``a1#x`` is the
    label a1), tabs, CRLF line ends, comment-only lines and trailing
    blank lines all read as the plain file does."""
    plain = parse_complex("vertices x1 x2\nedge e1 x1 x1 a1\nedge e2 x1 x2 a2\n"
                          "square e1 e2 e1 e2", FREE2)
    for text in ("vertices x1 x2 # two\nedge e1 x1 x1 a1 # loop\nedge e2 x1 x2 a2\n"
                 "square e1 e2 e1 e2 # not closing",
                 "vertices x1 x2#\nedge e1 x1 x1 a1#x\nedge e2 x1 x2 a2#\nsquare e1 e2 e1 e2#e3",
                 "vertices\tx1 x2\n\tedge e1\tx1 x1\t\ta1\nedge e2 x1 x2 a2\t\nsquare e1 e2 e1 e2",
                 "vertices x1 x2\r\nedge e1 x1 x1 a1\r\nedge e2 x1 x2 a2\r\nsquare e1 e2 e1 e2\r\n",
                 "# head\n  # indented\nvertices x1 x2\n#\nedge e1 x1 x1 a1\nedge e2 x1 x2 a2\n"
                 "square e1 e2 e1 e2\n\n\n  \n"):
        cx = parse_complex(text, FREE2)
        assert (cx.vertices, cx.edges, cx.squares) == (plain.vertices, plain.edges, plain.squares)
        assert cx._out == plain._out
    assert plain.edges[0] == Edge("e1", "x1", "x1", 1)
    assert plain.squares == (("e1", "e2", "e1", "e2"),)


def test_complex_reports_the_earlier_of_two_errors():
    """A label error raised while an edge line is read comes before a
    later line's error, and a line error before a later label's."""
    for text, message in (
            ("vertices x1\nedge e1 x1 x1 zz\nbogus", "<string>:2: unknown generator label 'zz'"),
            ("vertices x1\nedge e1 x1\nedge e2 x1 x1 zz",
             "<string>:2: 'edge' takes id, src, dst, label"),
            ("vertices x1\r\n\r\nsquare e1\r\nvertices x2",
             "<string>:3: 'square' takes four edge ids"),
            ("vertices x1\nedge e1 x1 x1 a1#\nedge e2 x1 x1 a3 # zz\nedge e3",
             "<string>:3: unknown generator label 'a3'")):
        with pytest.raises(ComplexSyntaxError) as err:
            parse_complex(text, FREE2)
        assert str(err.value) == message


def test_square_records_are_read_id_by_id():
    """A record's ids are looked up in order, so one that is not four
    ids still gets the problem line of its first unknown id; with all
    of its ids known it cannot be unpacked."""
    g, cx = square_complex()
    for record, problem in ((("f1", "zz", "f1"), "unknown edge id 'zz'"),
                            (("f1", "f3", "f1", "f2", "zz"), "unknown edge id 'zz'"),
                            (("zz",), "unknown edge id 'zz'")):
        report = validate(CubeComplexMap(cx.vertices, cx.edges, [record]), g)
        assert report.problems[0] == f"square {record}: {problem}"
        assert not report.squares_ok
    for record in (("f1", "f3", "f1"), ("f1", "f3", "f1", "f2", "f2")):
        with pytest.raises(ValueError):
            validate(CubeComplexMap(cx.vertices, cx.edges, [record]), g)


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
    # a vertex declared twice is reported by name
    report = validate(parse_complex("vertices x1 x1", FREE2), FREE2)
    assert not report.ok and not report.vertices_ok
    assert report.problems == ["repeated vertex 'x1'"]


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
    # a repeated edge id makes a square record ambiguous: it is named, and
    # no convexity violation is blamed on the square
    cx = parse_complex("""
    vertices x1 x2
    edge e1 x1 x1 a1
    edge e2 x1 x1 a2
    square e1 e2 e1 e2
    edge e1 x2 x2 a1
    """, g)
    report = validate(cx, g)
    assert not report.ok and not report.squares_ok
    assert report.problems == ["repeated edge id 'e1'"]
    # without squares, edge ids name nothing
    assert validate(CubeComplexMap(cx.vertices, cx.edges), g).ok


def test_validate_summary_says_why_convexity_was_not_checked():
    """Squares were given, but an earlier problem left them unusable: the
    summary says convexity was not checked, and why, as the report's
    ``convexity_ok`` of None does."""
    g = build_graph(("a1", "a2"), [("a1", "a2")])
    for text, why in (
            ("vertices x1\nedge e1 x1 x9 a1\nedge e2 x1 x1 a2\nsquare e1 e2 e1 e2",
             "unknown or repeated vertex"),
            ("vertices x1 x2\nedge e1 x1 x1 a1\nedge e2 x1 x1 a2\nsquare e1 e2 e1 e2\n"
             "edge e1 x2 x2 a1", "repeated edge id")):
        report = validate(parse_complex(text, g), g)
        assert report.convexity_checked and report.convexity_ok is None
        lines = report.summary().splitlines()
        assert lines[:4] == ["INVALID", "determinism: ok", "labels: ok",
                             f"convexity: not checked ({why})"]
        assert "VIOLATED" not in report.summary()
    # a label out of range, beside an unknown vertex
    cx = CubeComplexMap(["x1"], [Edge("e1", "x1", "x9", 1), Edge("e2", "x1", "x1", 3)],
                        [("e1", "e2", "e1", "e2")])
    report = validate(cx, g)
    assert ("convexity: not checked (unknown or repeated vertex, label out of range)"
            in report.summary().splitlines())


EXAMPLE = build_graph(("a1", "a2", "a3", "a4"), [("a1", "a4"), ("a2", "a3"), ("a2", "a4")])

# squareless complexes over EXAMPLE that are deterministic but leave a
# commuting corner open: at v1 a4^-1 leads to v0, where no a2 leaves
# (the conjugator of a loop pair once failed to trace there), and x's
# a1-loop meets a4-edges that close no square ([s, t]·s and s, with
# s = a1 and t = a4^2, are not freely homotopic)
OPEN_CORNERS = {
    "replay": ("vertices v0 v1\nedge e0 v0 v1 a4\nedge e1 v1 v0 a2\nedge e2 v1 v1 a3",
               "convexity violation at vertex v1: commuting directions "
               f"{Letter(4, -1)} and {Letter(2, 1)} close no square"),
    "wrong_yes": ("vertices x y\nedge e1 x x a1\nedge e2 x y a4\nedge e3 y x a4",
                  "convexity violation at vertex x: commuting directions "
                  f"{Letter(1, 1)} and {Letter(4, 1)} close no square"),
}


@pytest.mark.parametrize("case", OPEN_CORNERS)
def test_squareless_complex_with_an_open_corner_is_not_convex(case):
    text, problem = OPEN_CORNERS[case]
    report = validate(parse_complex(text, EXAMPLE), EXAMPLE)
    assert not report.ok and not report.convexity_checked
    assert (report.determinism_ok, report.labels_ok, report.vertices_ok,
            report.squares_ok, report.convexity_ok) == (True, True, True, True, False)
    assert problem in report.problems
    assert "convexity: VIOLATED" in report.summary().splitlines()


def test_squareless_complex_closing_its_corners_is_convex():
    """Implied squares: the corners of an a2-edge and a3-loops at both
    ends close, and pairs of one generator or of non-commuting ones are
    no corners."""
    cx = parse_complex("vertices x y\nedge e1 x y a2\nedge e2 x x a3\nedge e3 y y a3\n"
                       "edge e4 x x a1", EXAMPLE)
    report = validate(cx, EXAMPLE)
    assert report.ok and report.convexity_ok and not report.convexity_checked
    assert report.summary().splitlines()[3] == "convexity: ok"
    # the a3-loop at y moved to x: two a3-edges leave x, so the walk
    # table cannot stand for the squares and convexity goes unchecked
    cx = parse_complex("vertices x y\nedge e1 x y a2\nedge e2 x x a3\nedge e3 x x a3", EXAMPLE)
    report = validate(cx, EXAMPLE)
    assert report.convexity_ok is None and not report.determinism_ok


def test_squareless_convexity_verdict_ignores_record_order():
    """Two a1-edges leave x, one of them a loop that closes a square
    with the a2-loop and one that does not.  Either record order gives
    one report: convexity is not checked, for the repeated direction,
    rather than a verdict read from whichever edge the walk table kept."""
    g = build_graph(("a1", "a2"), [("a1", "a2")])
    records = ["edge e1 x x a1", "edge e2 x y a1", "edge e3 x x a2"]
    reports = [validate(parse_complex("\n".join(["vertices x y", *order]), g), g)
               for order in (records, records[1::-1] + records[2:])]
    assert reports[0] == reports[1]
    assert (reports[0].determinism_ok, reports[0].convexity_ok) == (False, None)
    assert reports[0].summary().splitlines()[3] == (
        "convexity: not checked (more than one edge per direction)")


def random_squareless_complex(rng):
    """One to three vertices and up to eight edges over EXAMPLE."""
    vs = [f"v{i}" for i in range(rng.randrange(1, 4))]
    edges = [Edge(f"e{i}", rng.choice(vs), rng.choice(vs), rng.randrange(1, 5))
             for i in range(rng.randrange(1, 9))]
    return CubeComplexMap(vs, edges)


def random_walk(cx, k, length, rng):
    """Letters of a random walk of at most ``length`` steps from the
    vertex with id k, and the ids it visits, k first."""
    w, ids = [], [k]
    for _ in range(length):
        if not cx._out[k]:
            break
        l = rng.choice(list(cx._out[k]))
        k = cx._out[k][l]
        w.append(l)
        ids.append(k)
    return tuple(w), ids


def random_freely_homotopic_pairs(cx, rng, count):
    """Pairs of based loops, the second a loop of the first's free
    homotopy class: a closed walk from a random vertex, conjugated along
    a random path and then rotated, so the decider has conjugator
    letters to carry its bases along."""
    names = cx._names
    for _ in range(count):
        k = rng.randrange(len(cx.vertices))
        w, ids = random_walk(cx, k, rng.randrange(1, 12), rng)
        w = w[:max(i for i, x in enumerate(ids) if x == k)]  # cut at the last return
        p, ids = random_walk(cx, k, rng.randrange(0, 5), rng)
        w2 = inverse_word(p) + w + p
        r = rng.randrange(len(w2) + 1)
        yield (based_word(cx, names[k], w),
               based_word(cx, trace(cx, names[ids[-1]], w2[:r]), w2[r:] + w2[:r]))


def test_loops_on_valid_squareless_complexes_always_replay():
    """On squareless complexes that validate, every conjugator letter
    traces: no ReplayFailure, and the pairs built freely homotopic are
    answered YES.  Without the implied-square check the same seed draws
    346 complexes that validate rather than 228, and 44 of their pairs,
    on 27 complexes, raise ReplayFailure."""
    rng = random.Random(32)
    valid = pairs = 0
    for _ in range(1000):
        cx = random_squareless_complex(rng)
        if not validate(cx, EXAMPLE).ok:
            continue
        valid += 1
        for bw1, bw2 in random_freely_homotopic_pairs(cx, rng, 10):
            assert groupoid_conjugate(cx, EXAMPLE, bw1, bw2)
            pairs += 1
    assert valid > 200 and pairs == 10 * valid


def test_trace_and_based_word():
    assert trace(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1")) == "x1"
    assert trace(TRAP, "x1", parse_word(FREE2, "a2 a2")) is None
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1"))
    assert bw.end == "x2"
    with pytest.raises(UntraceableWord):
        based_word(TRAP, "x1", parse_word(FREE2, "a2 a2"))
    with pytest.raises(UntraceableWord):
        based_word(TRAP, "zz", ())


def test_based_word_needs_a_vertex_record():
    """A name that only an edge mentions is no vertex: ``trace`` walks
    from it, but ``based_word`` rejects it as a base, as it rejects a
    name that nothing mentions.  A repeated vertex record is a vertex."""
    cx = CubeComplexMap(["x1", "x2", "x1"], [Edge("e1", "x1", "x9", 1),
                                             Edge("e2", "x9", "x1", 2)])
    w = parse_word(FREE2, "a2 a1")
    assert trace(cx, "x9", w) == "x9"
    for base in ("x9", "zz"):
        with pytest.raises(UntraceableWord, match=f"^unknown vertex '{base}'$"):
            based_word(cx, base, w)
    assert based_word(cx, "x1", parse_word(FREE2, "a1 a2")) == BasedWord("x1", w[::-1], "x1")
    assert based_word(cx, "x2", ()) == BasedWord("x2", (), "x2")


def based_cycle(cx, bw):
    """Move the base along the loop's first edge and rotate the word."""
    if bw.base != bw.end:
        raise NotALoop(f"based word runs {bw.base} -> {bw.end}")
    if not bw.word:
        raise NotALoop("cannot cycle an empty loop word")
    nb = trace(cx, bw.base, bw.word[:1])
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
    """A loop's base carried along the events of its cyclic normal
    factors."""
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2 a1 a2^-1"))
    f = cyclic_normal_factors(FREE2, bw.word)
    assert trace(TRAP, bw.base, f.events) == "x2"
    assert f.factors == (parse_word(FREE2, "a1"),)


def test_normalize_based_identity_loop():
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a1 a1^-1"))
    f = cyclic_normal_factors(FREE2, bw.word)
    assert trace(TRAP, bw.base, f.events) == "x1"
    assert f.factors == ()


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


def test_preferred_enumeration_runs_past_the_recursion_limit():
    """A link-letter tail of 400 letters, back and forth along the
    square complex's a1-edge, under a recursion limit of 150."""
    g, cx = square_complex()
    gens = centralizer_generators(g, cyclic_normal_factors(g, parse_word(g, "a2")))
    assert gens.link_gens == {1}
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(150)
    try:
        for x in cx.vertices:
            assert reach_by_preferred_enumeration(cx, x, gens, 400) == {"y1", "y2"}
    finally:
        sys.setrecursionlimit(limit)


def delta_trace(delta, x, w):
    """Reference walk through an ``eager_delta`` table."""
    for l in w:
        x = delta.get((x, l))
        if x is None:
            return None
    return x


def delta_reach(delta, x_start, gens):
    """Reference fixpoint of the centralizer moves on vertex names,
    through an ``eager_delta`` table."""
    moves = [m for z, _r in gens.roots for m in (z, inverse_word(z))]
    moves += [(Letter(l, s),) for l in sorted(gens.link_gens) for s in (1, -1)]
    visited, frontier = {x_start}, [x_start]
    while frontier:
        x = frontier.pop()
        for mv in moves:
            y = delta_trace(delta, x, mv)
            if y is not None and y not in visited:
                visited.add(y)
                frontier.append(y)
    return visited


def random_partial_complex(rng):
    """A random partial complex: some edges run to undeclared vertices,
    some (vertex, letter) keys carry two edges, and generators above
    ``n_used`` label no edge at all.  Then some generator pairs commute,
    and the square records are None or a list from ``random_squares``;
    now and then an edge carries a label outside 1..n, a vertex is
    declared twice or an edge id repeats."""
    n = rng.randrange(1, 5)
    declared = [f"v{i}" for i in range(rng.randrange(1, 7))]
    ends = declared + [f"u{i}" for i in range(rng.randrange(0, 3))]
    n_used = rng.randrange(1, n + 1)
    edges = [Edge(f"e{i}", rng.choice(ends), rng.choice(ends), rng.randrange(1, n_used + 1))
             for i in range(rng.randrange(0, 4 * len(ends)))]
    if edges:
        e = rng.choice(edges)
        edges.append(Edge("dup", e.src, rng.choice(ends), e.label))
    names = [f"a{i}" for i in range(1, n + 1)]
    g = build_graph(names, [(a, b) for a, b in combinations(names, 2) if rng.random() < 0.6])
    squares = None if rng.random() < 0.2 else random_squares(g, declared, edges, rng)
    if rng.random() < 0.05:
        edges.append(Edge("bad", rng.choice(ends), rng.choice(ends), rng.choice((0, n + 1))))
    if rng.random() < 0.05:
        declared.append(rng.choice(declared))
    if rng.random() < 0.05 and edges:
        edges.append(rng.choice(edges)._replace(dst=rng.choice(ends)))
    return g, CubeComplexMap(declared, edges, squares), ends + ["nowhere"]


def random_squares(g, vertices, edges, rng):
    """Square records of every kind, appending the edges they need:
    closing squares on fresh edges between random vertices (loop edges
    where the vertices coincide), rotated or reversed; the same shapes
    with a wrong label on one side, with a last side that may miss the
    first vertex, or over non-commuting or equal labels; records over
    random edges (rarely closing); unknown edge ids; and repeats of
    earlier records."""
    pairs = [(i, j) for i, j in combinations(range(1, g.n + 1), 2) if g.commutes(i, j)]
    squares = []
    for t in range(rng.randrange(0, 9)):
        kind = rng.random()
        if kind < 0.6:
            if kind < 0.45 and pairs:
                i, j = rng.choice(pairs)
            else:
                i, j = rng.randrange(1, g.n + 1), rng.randrange(1, g.n + 1)
            k = rng.randrange(1, g.n + 1) if rng.random() < 0.1 else i
            s1, s2 = rng.choice((1, -1)), rng.choice((1, -1))
            a, b, c, d = (rng.choice(vertices) for _ in range(4))
            z = rng.choice(vertices) if rng.random() < 0.15 else a  # may leave it open
            sides = []
            for x, y, label, sign in ((a, b, i, s1), (b, c, j, s2), (c, d, k, -s1), (d, z, j, -s2)):
                eid = f"s{t}_{len(sides)}"
                edges.append(Edge(eid, x, y, label) if sign == 1 else Edge(eid, y, x, label))
                sides.append(eid)
            r = rng.randrange(4)
            sides = sides[r:] + sides[:r]
            squares.append(tuple(sides[::-1] if rng.random() < 0.5 else sides))
        elif kind < 0.8 and edges:
            squares.append(tuple(rng.choice(edges).eid for _ in range(4)))
        elif kind < 0.9 and edges:
            sq = [rng.choice(edges).eid for _ in range(4)]
            sq[rng.randrange(4)] = "nope"
            squares.append(tuple(sq))
        elif squares:
            squares.append(rng.choice(squares))
    return squares


def eager_delta(cx):
    """The (vertex, letter) -> vertex table built from the edges alone:
    first edge wins, fresh letters as keys; also the keys that more than
    one edge realizes."""
    delta, multi = {}, set()
    for e in cx.edges:
        for key, dest in (((e.src, Letter(e.label, 1)), e.dst),
                          ((e.dst, Letter(e.label, -1)), e.src)):
            if key in delta:
                multi.add(key)
            else:
                delta[key] = dest
    return delta, multi


def reference_square_corners(by_id, g, square, problems):
    """Per-record corners as (vertex, frozenset of two letters), trying
    all four orientations of the record's first two sides."""
    try:
        e1, e2, e3, e4 = (by_id[eid] for eid in square)
    except KeyError as exc:
        problems.append(f"square {square}: unknown edge id {exc.args[0]!r}")
        return set(), False
    corners = set()
    closed = False

    def endpoints(e, s):
        return (e.src, e.dst) if s == 1 else (e.dst, e.src)

    labels_fit = (e1.label == e3.label and e2.label == e4.label
                  and g.commutes(e1.label, e2.label))
    rows = letter_table(g.n)
    for s1, s2 in product((1, -1), repeat=2) if labels_fit else ():
        a1, b1 = endpoints(e1, s1)
        a2, b2 = endpoints(e2, s2)
        a3, b3 = endpoints(e3, -s1)
        a4, b4 = endpoints(e4, -s2)
        if not (b1 == a2 and b2 == a3 and b3 == a4 and b4 == a1):
            continue
        closed = True
        r1, r2 = rows[e1.label], rows[e2.label]
        corners.add((a1, frozenset({r1[s1], r2[s2]})))
        corners.add((a2, frozenset({r1[-s1], r2[s2]})))
        corners.add((a3, frozenset({r1[-s1], r2[-s2]})))
        corners.add((a4, frozenset({r1[s1], r2[-s2]})))
    if not closed:
        problems.append(
            f"square {square}: no orientation closes the boundary with "
            "matching opposite labels and commuting sides")
    return corners, closed


def reference_validate(cx, g):
    """``validate`` by pairs: collect every square corner, then look up
    each commuting pair of directions at each vertex."""
    problems = []
    delta, multi = eager_delta(cx)
    vertex_set = set(cx.vertices)
    repeated = [x for x in dict.fromkeys(cx.vertices) if cx.vertices.count(x) > 1]
    vertices_ok = not repeated
    problems += [f"repeated vertex {x!r}" for x in repeated]
    for e in cx.edges:
        for v in (e.src, e.dst):
            if v not in vertex_set:
                vertices_ok = False
                problems.append(f"edge {e.eid}: unknown vertex {v!r}")
    for (v, l) in sorted(multi):
        problems.append(
            f"determinism violation at vertex {v}: more than one edge "
            f"realizes generator {l.gen} with sign {l.sign:+d}")
    labels_ok = True
    for e in cx.edges:
        if not 1 <= e.label <= g.n:
            labels_ok = False
            problems.append(f"edge {e.eid}: label {e.label} out of range 1..{g.n}")
    squares_ok = True
    convexity_ok = None
    convexity_checked = cx.squares is not None
    if convexity_checked:
        eids = [e.eid for e in cx.edges]
        repeated = [x for x in dict.fromkeys(eids) if eids.count(x) > 1]
        squares_ok = not repeated
        problems += [f"repeated edge id {x!r}" for x in repeated]
    if convexity_checked and squares_ok and labels_ok and vertices_ok:
        provided = set()
        by_id = {e.eid: e for e in cx.edges}
        for sq in cx.squares:
            corners, closed = reference_square_corners(by_id, g, sq, problems)
            squares_ok = squares_ok and closed
            provided |= corners
        convexity_ok = True
        directions = {x: [] for x in cx.vertices}
        for (v, l) in delta:
            directions[v].append(l)
        for x in cx.vertices:
            for d1, d2 in combinations(directions[x], 2):
                if not g.commutes(d1.gen, d2.gen):
                    continue
                if (x, frozenset({d1, d2})) not in provided:
                    convexity_ok = False
                    problems.append(
                        f"convexity violation at vertex {x}: commuting "
                        f"directions {d1} and {d2} have no square corner")
    elif convexity_checked:
        squares_ok = False
    elif labels_ok and vertices_ok and not multi:
        # no squares: each commuting corner implies its square, so both
        # two-letter walks over the eager table must trace and meet
        convexity_ok = True
        directions = {x: [] for x in cx.vertices}
        for (v, l) in delta:
            directions[v].append(l)
        for x in cx.vertices:
            for d1, d2 in combinations(directions[x], 2):
                if not g.commutes(d1.gen, d2.gen):
                    continue
                ends = [delta.get((delta.get((x, a)), b)) for a, b in ((d1, d2), (d2, d1))]
                if None in ends or ends[0] != ends[1]:
                    convexity_ok = False
                    problems.append(
                        f"convexity violation at vertex {x}: commuting "
                        f"directions {d1} and {d2} close no square")
    return ValidationReport(not multi, labels_ok, vertices_ok, squares_ok,
                            convexity_checked, convexity_ok, problems)


def named_walk_table(cx):
    """``cx._out`` keyed by (vertex name, letter), values by name."""
    names = cx._names
    return {(names[k], l): names[y] for k, row in enumerate(cx._out) for l, y in row.items()}


def test_validate_matches_reference_by_pairs():
    """Counted convexity gives the per-pair reports, problems in the
    same order, on random complexes broken in every way; and the walk
    table, read by vertex name, is the eager table, with interned
    letters as keys."""
    rng = random.Random(2024)
    seen = set()
    for _ in range(2000):
        g, cx, _starts = random_partial_complex(rng)
        report, ref = validate(cx, g), reference_validate(cx, g)
        assert report._asdict() == ref._asdict()
        assert report.summary() == ref.summary()
        seen.add((report.convexity_ok, report.squares_ok))
        delta, multi = eager_delta(cx)
        by_name = named_walk_table(cx)
        assert by_name == delta
        assert cx._multi_keys == multi
        for x in cx.vertices:
            assert [l for (v, l) in by_name if v == x] == [l for (v, l) in delta if v == x]
        assert all(l is letter_row(l.gen)[l.sign] for row in cx._out for l in row)
    # every outcome of the convexity and square checks occurs
    assert seen >= {(None, True), (None, False), (True, True), (True, False),
                    (False, True), (False, False)}


def abelian_cover(g, m1, m2, phi):
    """The Z_m1 x Z_m2 cover of g's one-vertex complex in which a_i
    moves v by phi[i - 1], with every square lifted."""
    size = m1 * m2

    def add(v, d):
        x, y = divmod(v, m2)
        return (x + d[0]) % m1 * m2 + (y + d[1]) % m2

    edges = [Edge(f"e{i}_{v}", f"v{v}", f"v{add(v, phi[i - 1])}", i)
             for v in range(size) for i in range(1, g.n + 1)]
    squares = [(f"e{i}_{v}", f"e{j}_{add(v, phi[i - 1])}", f"e{i}_{add(v, phi[j - 1])}", f"e{j}_{v}")
               for v in range(size) for i, j in combinations(range(1, g.n + 1), 2)
               if g.commutes(i, j)]
    return CubeComplexMap([f"v{v}" for v in range(size)], edges, squares)


def test_validate_memory_per_square(example_graph):
    """Corners are ints, not (vertex, frozenset) pairs: on the 1,024-vertex
    cover with 3,072 squares, validate's tracemalloc peak stays under
    640 bytes a square (about 460 here; the per-pair check peaked at
    about 1,300)."""
    g = example_graph
    cx = abelian_cover(g, 32, 32, [(1, 0), (0, 1), (5, 3), (2, 7)])
    tracemalloc.start()
    try:
        report = validate(cx, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.ok and report.convexity_checked
    assert peak < 640 * len(cx.squares), peak / len(cx.squares)


def test_walk_table_keys_are_interned(example_graph):
    g = example_graph
    assert letter_table(4)[1][1] is letter_table(64)[1][1]
    cx = abelian_cover(g, 3, 4, [(1, 0), (0, 1), (2, 1), (1, 3)])
    assert sum(map(len, cx._out)) == 2 * len(cx.edges)
    assert all(l is letter_table(g.n)[l.gen][l.sign] for row in cx._out for l in row)


def test_trace_and_reach_match_delta_walk():
    rng = random.Random(606)
    for _ in range(400):
        g, cx, starts = random_partial_complex(rng)
        delta, _multi = eager_delta(cx)
        for x in starts:
            for w in [()] + [random_word(g, rng.randrange(1, 9), rng) for _ in range(6)]:
                assert trace(cx, x, w) == delta_trace(delta, x, w)
            roots = tuple((random_word(g, rng.randrange(1, 4), rng), 1)
                          for _ in range(rng.randrange(0, 3)))
            link = frozenset(j for j in range(1, g.n + 1) if rng.random() < 0.3)
            gens = CentralizerGens(roots, link)
            assert reach_by_centralizer(cx, x, gens) == delta_reach(delta, x, gens)


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


def test_equal_pyramids_with_apart_bases_drain_one_piling(monkeypatch):
    """Loop pairs x: w and y: c.w.c^-1 whose pyramidal pilings are equal
    but whose carried bases differ, on the trap and the square complex,
    and the README's NO pair.  Neither rotation search nor loop 1's
    extraction runs: only loop 2's piling is drained, for its
    centralizer, and the answer is the brute-force oracle's.  When the
    cyclically reduced pilings are equal too, only loop 2's piling is
    pyramidalized.  Both answers occur, also among equal reductions."""
    drained, pyramidalized = [], []
    real_drain, real_pyramidalize = raag.conjugacy._drain, raag.conjugacy._pyramidalize
    monkeypatch.setattr(raag.conjugacy, "_drain", lambda p: drained.append(p) or real_drain(p))
    monkeypatch.setattr(raag.conjugacy, "_pyramidalize",
                        lambda p, apexes: pyramidalized.append(p) or real_pyramidalize(p, apexes))
    rng = random.Random(67)
    answers, equal_answers = [], set()
    readme_no = ("x1", parse_word(FREE2, "a1")), ("x1", parse_word(FREE2, "a2 a1 a2^-1"))
    cases = [(FREE2, TRAP, readme_no)]
    for g, cx in [(FREE2, TRAP), square_complex()] * 200:
        w = random_word(g, rng.randrange(1, 5), rng)
        c = random_word(g, rng.randrange(0, 3), rng)
        pair = (rng.choice(cx.vertices), w), (rng.choice(cx.vertices), c + w + inverse_word(c))
        if all(trace(cx, x, u) == x for x, u in pair):
            cases.append((g, cx, pair))
    for g, cx, ((x, w), (y, v)) in cases:
        r1, r2 = _reduce(g, w), _reduce(g, v)
        if _letter_counts(r1[0]) != _letter_counts(r2[0]):
            continue
        equal_reductions = r1[0] == r2[0]
        (_, e1), (_, e2) = _pyramid(g, *r1), _pyramid(g, *r2)  # both in place
        if r1[0] != r2[0] or trace(cx, x, e1) == trace(cx, y, e2):
            continue
        bw1, bw2 = based_word(cx, x, w), based_word(cx, y, v)
        drained.clear()
        pyramidalized.clear()
        got = groupoid_conjugate(cx, g, bw1, bw2)
        assert len(drained) == 1
        # the trivial loop's empty piling is never pyramidalized
        assert len(pyramidalized) == (0 if r2[0].is_empty() else 1 if equal_reductions else 2)
        assert got == oracle_groupoid_conjugate(cx, g, bw1, bw2), (bw1, bw2)
        answers.append(got)
        if equal_reductions:
            equal_answers.add(got)
    assert answers[0] is False  # the README pair
    assert answers.count(True) >= 5 and answers.count(False) >= 5
    assert equal_answers == {True, False}


def test_equal_reductions_decided_as_the_oracle(monkeypatch):
    """Loop pairs x: w and y: c.w.c^-1 whose cyclically reduced pilings
    are equal, on the trap and the square complex, with the README's
    two pairs.  Bases that meet along their own reduction letters are
    YES with nothing pyramidalized or drained; apart ones pyramidalize
    and drain loop 2's piling alone, at most once each.  Every answer is
    the brute-force oracle's, and both kinds occur, the apart ones with
    both answers."""
    pyramidalized, drained = [], []
    real_pyramidalize, real_drain = raag.conjugacy._pyramidalize, raag.conjugacy._drain
    monkeypatch.setattr(raag.conjugacy, "_pyramidalize",
                        lambda p, apexes: pyramidalized.append(p) or real_pyramidalize(p, apexes))
    monkeypatch.setattr(raag.conjugacy, "_drain", lambda p: drained.append(p) or real_drain(p))
    rng = random.Random(71)
    cases = [(FREE2, TRAP, (("x1", parse_word(FREE2, "a1")), (y, parse_word(FREE2, v))))
             for y, v in (("x1", "a2 a1 a2^-1"), ("x2", "a2^-1 a1 a2"))]
    for g, cx in [(FREE2, TRAP), square_complex()] * 200:
        w = random_word(g, rng.randrange(1, 6), rng)
        c = random_word(g, rng.randrange(0, 4), rng)
        pair = (rng.choice(cx.vertices), w), (rng.choice(cx.vertices), c + w + inverse_word(c))
        if all(trace(cx, x, u) == x for x, u in pair):
            cases.append((g, cx, pair))
    seen = []
    for g, cx, ((x, w), (y, v)) in cases:
        (p1, e1), (p2, e2) = _reduce(g, w), _reduce(g, v)
        if p1 != p2:  # unequal letter counts or unequal reductions
            continue
        met = trace(cx, x, e1) == trace(cx, y, e2)
        bw1, bw2 = based_word(cx, x, w), based_word(cx, y, v)
        pyramidalized.clear()
        drained.clear()
        got = groupoid_conjugate(cx, g, bw1, bw2)
        assert got == oracle_groupoid_conjugate(cx, g, bw1, bw2), (bw1, bw2)
        if met:
            assert got and pyramidalized == drained == []
        else:
            assert len(pyramidalized) <= 1 and len(drained) == 1
        seen.append((met, got))
    assert seen[:2] == [(False, False), (True, True)]  # the README pairs
    assert {(True, True), (False, True), (False, False)} == set(seen)


def test_deciders_copy_no_piling(monkeypatch):
    """Clock-free: the deciders own every piling they build and work on
    it in place, so ``Piling.copy`` is never called by
    ``conjugate_in_raag``, ``groupoid_conjugate`` or
    ``cyclic_normal_factors``, whichever way the decision goes."""
    copies = []
    real_copy = Piling.copy
    monkeypatch.setattr(Piling, "copy", lambda p: copies.append(p) or real_copy(p))
    rng = random.Random(73)
    answers = set()
    for g, cx in [(FREE2, TRAP), square_complex()] * 100:
        w = random_word(g, rng.randrange(1, 8), rng)
        t = rng.randrange(len(w))
        c = random_word(g, rng.randrange(0, 4), rng)
        for v in (w, w[t:] + w[:t], c + w + inverse_word(c), tuple(rng.sample(w, len(w)))):
            cyclic_normal_factors(g, v)
            answers.add(("words", conjugate_in_raag(g, w, v)))
            x, y = rng.choice(cx.vertices), rng.choice(cx.vertices)
            if trace(cx, x, w) == x and trace(cx, y, v) == y:
                bw1, bw2 = based_word(cx, x, w), based_word(cx, y, v)
                answers.add(("loops", groupoid_conjugate(cx, g, bw1, bw2)))
    assert answers == {("words", True), ("words", False), ("loops", True), ("loops", False)}
    assert copies == []


def test_groupoid_conjugate_rejects_non_loops():
    bw = based_word(TRAP, "x1", parse_word(FREE2, "a2"))
    loop = based_word(TRAP, "x1", parse_word(FREE2, "a1"))
    with pytest.raises(NotALoop):
        groupoid_conjugate(TRAP, FREE2, bw, loop)


def test_groupoid_conjugate_checks_both_loops_before_counting():
    """NotALoop for loop 1 first, then for loop 2, even when the letter
    counts alone would answer NO."""
    loop = based_word(TRAP, "x1", parse_word(FREE2, "a1"))
    open1 = based_word(TRAP, "x1", parse_word(FREE2, "a2"))
    open2 = based_word(TRAP, "x2", parse_word(FREE2, "a2^-1 a1"))
    with pytest.raises(NotALoop, match="^not a loop: based word runs x1 -> x2$"):
        groupoid_conjugate(TRAP, FREE2, loop, open1)
    with pytest.raises(NotALoop, match="^not a loop: based word runs x1 -> x2$"):
        groupoid_conjugate(TRAP, FREE2, open1, open2)
    with pytest.raises(NotALoop, match="^not a loop: based word runs x2 -> x1$"):
        groupoid_conjugate(TRAP, FREE2, loop, open2)


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
