"""Group presentations, letters, words, and support-graph components.

A right-angled Artin group is given by its generators and the list of
commuting pairs.  Internally we store the *non*-commutation adjacency,
because that is what every algorithm downstream consumes: the tile of a
generator touches exactly the stacks of its non-commuting neighbours.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import chain, groupby
from typing import Iterable, NamedTuple


class InputError(ValueError):
    """An error that the input causes: a file that cannot be read,
    malformed text, or a word or loop that a decider cannot take.  Every
    such error of the package is one, and the CLI reports it on stderr
    and exits 2; internal faults are not."""


class PresentationError(InputError):
    """Bad generator names or commutation pairs."""


class WordSyntaxError(InputError):
    """Malformed word text."""


class Letter(NamedTuple):
    gen: int   # generator index, 1-based
    sign: int  # +1 or -1


# A word is a plain tuple of Letters; the empty tuple is the empty word.
Word = tuple


@lru_cache(maxsize=None)
def letter_row(i: int) -> tuple[None, Letter, Letter]:
    """The interned letters of generator i: ``(None, Letter(i, 1),
    Letter(i, -1))``, so that ``letter_row(i)[sign]`` is ``Letter(i,
    sign)`` (a sign of -1 indexes the last entry).  One object per i for
    the life of the process."""
    return (None, Letter(i, 1), Letter(i, -1))


@lru_cache
def letter_table(n: int) -> tuple[tuple[Letter | None, ...], ...]:
    """Interned letters of an n-generator group: ``letter_table(n)[i]`` is
    ``letter_row(i)``, so ``letter_table(n)[i][sign]`` is ``Letter(i,
    sign)`` and is the same object for every n >= i.  Words that the
    parser and the piling kernel emit, and the keys of a complex's walk
    table, all come from these rows, so dict lookups match by identity.
    Row 0 is unused, like generator index 0."""
    return tuple(map(letter_row, range(n + 1)))


@lru_cache
def _inverses(n: int) -> dict[Letter, Letter]:
    rows = letter_table(n)
    return {l: rows[l.gen][-l.sign] for row in rows[1:] for l in row[1:]}


def inverse_word(w: Word) -> Word:
    if not w:
        return ()
    return tuple(map(_inverses(max(w)[0]).__getitem__, reversed(w)))


class DefiningGraph(NamedTuple):
    """A RAAG presentation: ordered generator names plus the
    non-commutation adjacency (an edge joins generators that do NOT
    commute).  Generator order is part of the contract: normal forms
    depend on it."""

    names: tuple[str, ...]
    noncommute: tuple[frozenset[int], ...]  # index 0 unused

    @property
    def n(self) -> int:
        return len(self.names)

    def check_gen(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise IndexError(f"generator index {i} out of range 1..{self.n}")

    def commutes(self, i: int, j: int) -> bool:
        """True iff a_i and a_j commute.  A generator does not count as
        commuting with itself (its tile puts a signed bead, not a 0, on
        its own stack)."""
        self.check_gen(i)
        self.check_gen(j)
        return i != j and j not in self.noncommute[i]

    def index(self, name: str) -> int:  # shadows tuple.index on purpose
        try:
            return _index_of(self.names)[name]
        except KeyError:
            raise WordSyntaxError(f"unknown generator name {name!r}") from None

    def name(self, i: int) -> str:
        self.check_gen(i)
        return self.names[i - 1]


@lru_cache
def _index_of(names: tuple[str, ...]) -> dict[str, int]:
    return {nm: i for i, nm in enumerate(names, start=1)}


def build_graph(names: Iterable[str], commuting_pairs: Iterable[tuple[str, str]]) -> DefiningGraph:
    names = tuple(names)
    if len(set(names)) != len(names):
        raise PresentationError("duplicate generator name")
    if not names:
        raise PresentationError("at least one generator required")
    for nm in names:
        # a word token is a name, or a name, '^' and an exponent
        if nm.split() != [nm] or "^" in nm:
            raise PresentationError(f"generator name {nm!r} is empty or holds whitespace or '^'")
    idx = {nm: i + 1 for i, nm in enumerate(names)}
    n = len(names)
    # commuting[i]: the generators that commute with a_i, and a_i itself
    commuting = [{i} for i in range(n + 1)]
    for a, b in commuting_pairs:
        if a == b or a not in idx or b not in idx:
            _check_pair(idx, a, b)
        i, j = idx[a], idx[b]
        commuting[i].add(j)
        commuting[j].add(i)
    everyone = frozenset(range(1, n + 1))
    nbrs = [frozenset()]  # dummy slot 0
    nbrs += (everyone - commuting[i] for i in range(1, n + 1))
    return DefiningGraph(names, tuple(nbrs))


def _check_pair(names, a: str, b: str) -> None:
    """Raise ``PresentationError`` unless a and b are distinct members of
    names, the generator names."""
    if a not in names or b not in names:
        bad = a if a not in names else b
        raise PresentationError(f"unknown name {bad!r} in commuting pair")
    if a == b:
        raise PresentationError(f"self-pair ({a}, {b}) is not allowed")


def support_components(g: DefiningGraph, gens: Iterable[int]) -> tuple[tuple[int, ...], ...]:
    """The connected components of the non-commutation graph on gens in
    canonical order, without the edge set: one set intersection per
    vertex, so O(|gens|) set operations."""
    left = set(gens)
    components = []
    for start in sorted(left):
        if start not in left:
            continue
        left.remove(start)
        comp = [start]
        frontier = [start]
        while frontier:
            new = g.noncommute[frontier.pop()] & left
            left -= new
            frontier += new
            comp += new
        components.append(tuple(sorted(comp)))
    return tuple(components)


_MAX_LETTERS = 2**31 - 1  # the longest word that a piling takes (piling._RUN)


def parse_word(g: DefiningGraph, text: str) -> Word:
    """Parse whitespace-separated tokens ``name`` or ``name^k`` (k a
    nonzero integer in ASCII ``[+-]?[0-9]+`` of at most 10 digits,
    expanded to |k| letters).  Each distinct token is parsed once per
    call, in order of first occurrence, so the first bad token raises.
    A word of more than 2^31-1 letters, which no piling can take, raises
    before any token is expanded.  The letters are the interned ones of
    ``letter_table``."""
    tokens = text.split()
    rows = letter_table(g.n)
    syllables = {tok: _syllable(g, rows, tok) for tok in dict.fromkeys(tokens)}
    if max((k for _, k in syllables.values()), default=0) * len(tokens) > _MAX_LETTERS:
        counts = {tok: k for tok, (_, k) in syllables.items()}
        total = sum(map(counts.__getitem__, tokens))
        if total > _MAX_LETTERS:
            raise WordSyntaxError(f"word of {total} letters; at most {_MAX_LETTERS} are allowed")
    runs = {tok: (l,) * k for tok, (l, k) in syllables.items()}
    return tuple(chain.from_iterable(map(runs.__getitem__, tokens)))


_EXPONENT = re.compile(r"[+-]?[0-9]+")  # int() also takes "1_000" and non-ASCII digits


def _syllable(g: DefiningGraph, rows, tok: str) -> tuple[Letter, int]:
    """The letter of a token and how many times it repeats."""
    name, sep, exp = tok.partition("^")
    if sep:
        if not _EXPONENT.fullmatch(exp):
            raise WordSyntaxError(f"malformed exponent in token {tok!r}")
        if len(exp.lstrip("+-")) > 10:  # int() refuses more than 4,300 digits
            raise WordSyntaxError(f"exponent of more than 10 digits in token '{name}^...'")
        k = int(exp)
        if k == 0:
            raise WordSyntaxError(f"zero exponent in token {tok!r}")
    else:
        k = 1
    i = g.index(name)
    return rows[i][1 if k > 0 else -1], abs(k)


def format_word(g: DefiningGraph, w: Word) -> str:
    """Canonical spelling: runs of one letter collapse to ``name^k``.
    Each distinct (letter, run length) is spelled once per call."""
    spelled: dict[tuple[Letter, int], str] = {}
    out: list[str] = []
    for l, run in groupby(w):
        key = (l, len(list(run)))
        tok = spelled.get(key)
        if tok is None:
            name = g.name(l.gen)
            k = key[1] * l.sign
            tok = spelled[key] = name if k == 1 else f"{name}^{k}"
        out.append(tok)
    return " ".join(out)


def _read_directives(text: str, source: str, error: type[InputError], header: str,
                     directives: dict, take_header=None) -> tuple[str, ...]:
    """The line syntax of presentation and complex files: ``#`` starts a
    comment, blank lines are skipped, and a line is a directive keyword
    followed by whitespace-separated fields.  The ``header`` directive
    must appear exactly once and name at least one thing; its names are
    returned, and handed to ``take_header``, if given, as soon as its
    line is read.  ``directives`` maps every other keyword to its field
    count, what the fields are (for the message) and a function that
    takes the list of fields.  Every message starts ``source:lineno``,
    also that of an ``error`` either function raises."""
    names = None
    directive = directives.get
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = (raw.split("#", 1)[0] if "#" in raw else raw).split()
        if not fields:
            continue
        kw = fields[0]
        del fields[0]
        entry = directive(kw)
        if entry is None:
            if kw != header:
                raise error(f"{source}:{lineno}: unknown directive {kw!r}")
            if names is not None:
                raise error(f"{source}:{lineno}: repeated {kw!r} line")
            if not fields:
                raise error(f"{source}:{lineno}: {kw!r} needs at least one name")
            names = tuple(fields)
            if take_header is not None:
                take_header(names)
            continue
        count, what, take = entry
        if len(fields) != count:
            raise error(f"{source}:{lineno}: {kw!r} takes {what}")
        try:
            take(fields)
        except error as e:
            raise error(f"{source}:{lineno}: {e}") from None
    if names is None:
        raise error(f"{source}: missing {header!r} line")
    return names


def _read_text(path: str, error: type[InputError]) -> str:
    """The UTF-8 text of a file; one that cannot be opened or decoded
    raises ``error`` naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise error(f"{path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise error(f"{path}: {e}") from None


def parse_presentation(text: str, source: str = "<string>") -> DefiningGraph:
    """Presentation file format: one ``gens <name>+`` line, then zero or
    more ``commute <name> <name>`` lines; ``#`` starts a comment.  A
    ``commute`` line below ``gens`` that names an unknown generator, or
    one twice, is reported at its line, and the earliest bad line wins;
    one above ``gens`` is reported once the file has been read."""
    pairs: list[list[str]] = []
    try:
        names = _read_directives(text, source, PresentationError, "gens",
                                 {"commute": (2, "exactly two names", pairs.append)})
        return build_graph(names, pairs)
    except PresentationError as e:
        error = e
    # Some line is bad, so read again, checking each commute line as it is
    # read once the gens line has named the generators: the earliest bad
    # line raises.  This read raises whenever the first one did, so what
    # it lets through is an error of build_graph, which names no line.
    known: set[str] = set()

    def commute(fields):
        if known:
            _check_pair(known, *fields)

    _read_directives(text, source, PresentationError, "gens",
                     {"commute": (2, "exactly two names", commute)}, known.update)
    raise PresentationError(f"{source}: {error}") from None


def load_presentation(path: str) -> DefiningGraph:
    return parse_presentation(_read_text(path, PresentationError), source=path)
