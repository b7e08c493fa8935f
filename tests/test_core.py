import random

import pytest

import raag.core
from raag.core import inverse_word, letter_table, support_components
from raag import (
    Letter,
    PresentationError,
    WordSyntaxError,
    build_graph,
    format_word,
    parse_presentation,
    parse_word,
    pi_star,
)


def test_build_graph_complement(example_graph):
    g = example_graph
    assert g.n == 4
    assert g.commutes(1, 4) and g.commutes(2, 3) and g.commutes(2, 4)
    assert not g.commutes(1, 2)
    assert not g.commutes(1, 3)
    assert not g.commutes(3, 4)
    # a generator never "commutes" with itself in the defining-graph sense
    assert not g.commutes(2, 2)


def test_build_graph_rejects_bad_input():
    with pytest.raises(PresentationError):
        build_graph(("a", "a"), [])
    with pytest.raises(PresentationError):
        build_graph(("a", "b"), [("a", "c")])
    with pytest.raises(PresentationError):
        build_graph(("a", "b"), [("a", "a")])
    with pytest.raises(PresentationError, match="at least one generator required"):
        build_graph((), [])


def test_build_graph_rejects_names_no_word_can_spell():
    """A word token is a name or ``name^k``: a name that is empty or
    holds whitespace or '^' could not be read back from a word."""
    for bad in ("", " ", "b c", "b\tc", "b\n", "b^c", "^"):
        with pytest.raises(PresentationError, match="generator name"):
            build_graph(("a", bad), [])
    with pytest.raises(PresentationError, match=r"<string>: generator name 'b\^c'"):
        parse_presentation("gens a b^c\n")
    g = build_graph(("a", "b#", "c_1", "é"), [])
    w = parse_word(g, "a b#^2 c_1^-1 é")
    assert parse_word(g, format_word(g, w)) == w


def test_index_and_name_roundtrip(example_graph):
    g = example_graph
    for i in range(1, g.n + 1):
        assert g.index(g.name(i)) == i
    with pytest.raises(WordSyntaxError, match="unknown generator name 'nope'"):
        g.index("nope")
    for i in (0, g.n + 1):
        with pytest.raises(IndexError, match=f"generator index {i} out of range 1..{g.n}"):
            g.name(i)
    # names are matched exactly, not by prefix or case
    for near in ("a", "A1", "a1 ", "a11"):
        with pytest.raises(WordSyntaxError):
            g.index(near)


def test_parse_word_basic(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a2^-2 a3")
    assert w == (Letter(1, 1), Letter(2, -1), Letter(2, -1), Letter(3, 1))


def test_parse_word_errors(example_graph):
    g = example_graph
    for bad in ("a5", "a1^", "a1^0", "a1^x", "^2", "a1^-"):
        with pytest.raises(WordSyntaxError):
            parse_word(g, bad)
    # the first bad token in text order raises, also after the same name
    # (or the same token) already parsed cleanly
    for text, message in (
            ("a5", "unknown generator name 'a5'"),
            ("^2", "unknown generator name ''"),
            ("a1^", "malformed exponent in token 'a1^'"),
            ("a1^x", "malformed exponent in token 'a1^x'"),
            ("a1^-", "malformed exponent in token 'a1^-'"),
            # int() would read these as 1000 and 3
            ("a1^1_000", "malformed exponent in token 'a1^1_000'"),
            ("a1^\uff13", "malformed exponent in token 'a1^\uff13'"),
            ("a1^0", "zero exponent in token 'a1^0'"),
            ("a1 a1^-2 a1^0", "zero exponent in token 'a1^0'"),
            ("a1 a2 a1 a2 a5 a1^x", "unknown generator name 'a5'"),
            ("a2^x a5 a2^x", "malformed exponent in token 'a2^x'")):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(g, text)
        assert str(err.value) == message


def test_parse_word_caps_exponents_and_length(example_graph, monkeypatch):
    """An exponent of more than 10 digits, and a word longer than a
    piling can take, raise before any token is expanded.  The length cap
    is lowered here, so that no word near the real one is built."""
    g = example_graph
    for text in ("a1^" + "9" * 5000, "a1^00000000001", "a2 a1^-" + "1" * 11):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(g, text)
        assert str(err.value) == "exponent of more than 10 digits in token 'a1^...'"
    assert parse_word(g, "a1^-0000000001") == parse_word(g, "a1^-1")
    monkeypatch.setattr(raag.core, "_MAX_LETTERS", 10)
    assert len(parse_word(g, "a1^5 a2^-5")) == len(parse_word(g, "a1 " * 10)) == 10
    for text in ("a1^5 a2^-5 a3", "a1^11", "a1 " * 11, "a1^3 a2 a1^3 a2 a1^3"):
        with pytest.raises(WordSyntaxError) as err:
            parse_word(g, text)
        assert str(err.value) == "word of 11 letters; at most 10 are allowed"


def test_format_word_collapses_runs(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a1 a2^-3 a1")
    assert format_word(g, w) == "a1^2 a2^-3 a1"
    assert format_word(g, ()) == ""


def parse_word_per_token(g, text):
    """Reference: one fresh Letter per token, no memo."""
    letters = []
    for tok in text.split():
        name, sep, exp = tok.partition("^")
        if sep:
            try:
                k = int(exp)
            except ValueError:
                raise WordSyntaxError(f"malformed exponent in token {tok!r}") from None
            if k == 0:
                raise WordSyntaxError(f"zero exponent in token {tok!r}")
        else:
            k = 1
        i = g.index(name)
        letters.extend([Letter(i, 1 if k > 0 else -1)] * abs(k))
    return tuple(letters)


def format_word_per_run(g, w):
    """Reference: scan each run and spell it, no memo."""
    out = []
    i = 0
    while i < len(w):
        j = i
        while j < len(w) and w[j] == w[i]:
            j += 1
        k = (j - i) * w[i].sign
        name = g.name(w[i].gen)
        out.append(name if k == 1 else f"{name}^{k}")
        i = j
    return " ".join(out)


def test_format_parse_roundtrip(example_graph):
    g = example_graph
    for text in ("a1", "a1^-1 a2 a2 a3^4", "a4 a3 a2 a1"):
        w = parse_word(g, text)
        assert parse_word(g, format_word(g, w)) == w
    # seeded random texts: few distinct tokens, so most repeat, with odd
    # exponent spellings, odd spacing and runs longer than 3
    rng = random.Random(2718)
    for n in (4, 16, 64):
        g = build_graph([f"a{i}" for i in range(1, n + 1)], [])
        rows = letter_table(n)
        for _ in range(60):
            names = rng.sample(g.names, min(n, rng.randint(1, 6)))
            toks = [rng.choice(names) + rng.choice(("", "^1", "^-1", "^2", "^-3", "^+4",
                                                    "^07", f"^{rng.randint(-9, 9) or 1}"))
                    for _ in range(rng.randint(0, 120))]
            text = "".join(tok + rng.choice((" ", "  ", "\t", "\n")) for tok in toks)
            w = parse_word(g, text)
            assert w == parse_word_per_token(g, text)
            assert all(l is rows[l.gen][l.sign] for l in w)
            assert format_word(g, w) == format_word_per_run(g, w)
            assert parse_word(g, format_word(g, w)) == w


def test_inverse_word(example_graph):
    g = example_graph
    w = parse_word(g, "a1 a2^-1 a3")
    assert inverse_word(w) == parse_word(g, "a3^-1 a2 a1^-1")
    assert inverse_word(inverse_word(w)) == w
    assert inverse_word(()) == ()
    # the inverse letters are the interned ones the piling emits too
    assert inverse_word(w)[0] is letter_table(3)[3][-1]


def test_support(example_graph):
    g = example_graph
    assert pi_star(g, parse_word(g, "a1 a3 a1^-1")).support() == {1, 3}
    # a1 and a4 commute, so the a1 beads cancel through the a4 tile
    assert pi_star(g, parse_word(g, "a1 a4 a1^-1")).support() == {4}


def test_support_graph_components(example_graph):
    g = example_graph
    # a1-a3 non-commuting: connected
    assert support_components(g, {1, 3}) == ((1, 3),)
    # a1 and a4 commute, so they fall in separate pieces
    assert support_components(g, {4, 1}) == ((1,), (4,))


def test_parse_presentation():
    g = parse_presentation("""
    # comment
    gens a1 a2 a3
    commute a1 a3
    """)
    assert g.names == ("a1", "a2", "a3")
    assert g.commutes(1, 3)
    assert not g.commutes(1, 2)


def test_parse_presentation_errors():
    for text, message in (
            ("commute a b", "<string>: missing 'gens' line"),
            ("gens a b\ncommute a c", "<string>: unknown name 'c' in commuting pair"),
            ("gens a b\nfrobnicate a", "<string>:2: unknown directive 'frobnicate'"),
            ("gens a\n\n  # note\ngens b", "<string>:4: repeated 'gens' line"),
            ("gens # a b", "<string>:1: 'gens' needs at least one name"),
            ("gens a b\ncommute a", "<string>:2: 'commute' takes exactly two names"),
            ("gens a a", "<string>: duplicate generator name")):
        with pytest.raises(PresentationError) as err:
            parse_presentation(text)
        assert str(err.value) == message


def test_presentation_line_syntax():
    """Comments after fields or glued to the last token, tabs, CRLF line
    ends, comment-only lines and trailing blank lines all read as the
    plain file does."""
    plain = parse_presentation("gens a b c\ncommute a b\ncommute b c")
    for text in ("gens a b c # three\ncommute a b # one pair\ncommute b c",
                 "gens a b c#three\ncommute a b#c\ncommute b c#",
                 "gens\ta b\t\tc\n\tcommute a\tb\ncommute b c\t",
                 "gens a b c\r\ncommute a b\r\ncommute b c\r\n",
                 "# head\n  # indented\ngens a b c\n#\ncommute a b\ncommute b c\n\n\n  \n"):
        assert parse_presentation(text) == plain, text


def test_presentation_reports_the_earlier_of_two_errors():
    for text, message in (
            ("gens a b\ncommute a\nfrobnicate a", "<string>:2: 'commute' takes exactly two names"),
            ("gens a b\nfrobnicate a\ncommute a", "<string>:2: unknown directive 'frobnicate'"),
            ("gens a b\r\n# c\r\ngens c\r\ncommute", "<string>:3: repeated 'gens' line")):
        with pytest.raises(PresentationError) as err:
            parse_presentation(text)
        assert str(err.value) == message
