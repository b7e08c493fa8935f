"""Seeded input generators for the benchmark.

Words are kept compact as ``bytes`` of letter codes: code ``2*i`` is the
generator a_(i+1) and ``2*i + 1`` its inverse, so inverting a letter is
``code ^ 1``.  Every answer a decision is checked against comes from how
its input was built here (identities are built as identities, conjugates
as conjugates, NO cases change an exponent sum), never from raag.
"""
from __future__ import annotations

from itertools import groupby

# bytes.translate table that inverts every letter code
_INVERT = bytes(c ^ 1 for c in range(256))


class Group:
    """A generated presentation over generators a1..an.  ``commute[i]`` is
    the bit mask of the generators that commute with a_(i+1)."""

    def __init__(self, n: int, commuting: list[tuple[int, int]]):
        self.n = n
        self.commuting = sorted(commuting)
        self.commute = [0] * n
        for i, j in self.commuting:
            self.commute[i] |= 1 << j
            self.commute[j] |= 1 << i
        full = (1 << n) - 1
        self.noncommute = [full & ~self.commute[i] & ~(1 << i) for i in range(n)]

    def names(self) -> list[str]:
        return [f"a{i + 1}" for i in range(self.n)]

    def text(self) -> str:
        lines = ["gens " + " ".join(self.names())]
        lines += [f"commute a{i + 1} a{j + 1}" for i, j in self.commuting]
        return "\n".join(lines) + "\n"


def random_group(n: int, p_commute: float, rng) -> Group:
    return Group(n, [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p_commute])


# a1 commutes with a4, a2 with a3 and a4 (the package's example group)
EXAMPLE = Group(4, [(0, 3), (1, 2), (1, 3)])


def path_group(k: int) -> Group:
    """Non-commutation graph is the path a1 - a2 - ... - ak."""
    return Group(k, [(i, j) for i in range(k) for j in range(i + 2, k)])


def reduced_word(grp: Group, length: int, rng, max_run: int = 1) -> bytes:
    """Random reduced word: a letter is redrawn when it would cancel.

    Without cancellation, a_i^s cancels exactly when the last letter among
    a_i and the generators not commuting with it was a_i^-s; ``open_[s]``
    is the mask of generators whose last such letter was a_i^s.  Runs of
    up to ``max_run`` equal letters give the text form exponents.
    """
    n = grp.n
    noncomm = grp.noncommute
    open_ = [0, 0]
    out = bytearray()
    rand = rng.random
    while len(out) < length:
        i = int(rand() * n)
        s = 1 if rand() < 0.5 else 0
        if open_[s ^ 1] >> i & 1:
            continue
        keep = ~noncomm[i]
        open_[0] &= keep
        open_[1] &= keep
        open_[s] |= 1 << i
        run = 1 if max_run == 1 else min(1 + int(rand() * max_run), length - len(out))
        out.extend(bytes((2 * i + s,)) * run)
    return bytes(out)


def inverse(w: bytes) -> bytes:
    return w[::-1].translate(_INVERT)


def rotate(w: bytes, t: int) -> bytes:
    return w[t:] + w[:t]


def flip_sign(w: bytes, i: int) -> bytes:
    """Invert one letter: the exponent sum of its generator moves by 2."""
    return w[:i] + bytes((w[i] ^ 1,)) + w[i + 1:]


def rewrite(grp: Group, w: bytes, rng, p_swap: float = 0.3,
            p_insert: float = 0.01) -> bytes:
    """One pass of legal rewrites: swap adjacent commuting letters and
    insert cancelling pairs.  The result is equal to w in the group."""
    out = bytearray()
    rand = rng.random
    two_n = 2 * grp.n
    commute = grp.commute
    i, length = 0, len(w)
    while i < length:
        r = rand()
        if r < p_insert:
            c = int(rand() * two_n)
            out += bytes((c, c ^ 1))
        a = w[i]
        if r < p_swap and i + 1 < length and commute[a >> 1] >> (w[i + 1] >> 1) & 1:
            out += bytes((w[i + 1], a))
            i += 2
            continue
        out.append(a)
        i += 1
    return bytes(out)


def exponent_sums(w: bytes, n: int) -> tuple[int, ...]:
    return tuple(w.count(2 * i) - w.count(2 * i + 1) for i in range(n))


def conjugate_variant(grp: Group, w: bytes, rng, conj_len: int,
                      p_insert: float = 0.01) -> bytes:
    """rotate(rewrite(c w c^-1)) for a random reduced c: conjugate to w."""
    c = reduced_word(grp, conj_len, rng)
    v = rewrite(grp, c + w + inverse(c), rng, p_insert=p_insert)
    return rotate(v, int(rng.random() * len(v)))


def word_text(w: bytes) -> str:
    """Text form with exponents, e.g. ``a2^-3 a1``."""
    out = []
    for code, run in groupby(w):
        k = len(tuple(run)) * (-1 if code & 1 else 1)
        name = f"a{(code >> 1) + 1}"
        out.append(name if k == 1 else f"{name}^{k}")
    return " ".join(out)


def text_codes(text: str) -> bytes:
    """Inverse of ``word_text`` for words printed by the CLI."""
    out = bytearray()
    for tok in text.split():
        name, _, exp = tok.partition("^")
        k = int(exp) if exp else 1
        code = 2 * (int(name[1:]) - 1) + (k < 0)
        out.extend(bytes((code,)) * abs(k))
    return bytes(out)


def spread(count: int, rng) -> list[float]:
    """``count`` values evenly spread over [0, 1) in an order whose every
    prefix is spread too (golden-ratio sequence with a seeded offset), so
    a run that stops early still sees the whole size range."""
    start = rng.random()
    return [(start + k * 0.6180339887498949) % 1.0 for k in range(count)]


class Cover:
    """Finite abelian cover of the one-vertex square complex of a group.

    Vertices are the elements of Z_m1 x Z_m2 and a_i moves x to
    x + phi[i].  Every square of the one-vertex complex is lifted, so the
    cover is deterministic, complete and passes validation; a word is a
    loop exactly when its exponent sums, weighted by phi, vanish.
    """

    def __init__(self, grp: Group, m1: int, m2: int, phi: list[tuple[int, int]]):
        self.grp, self.m1, self.m2, self.phi = grp, m1, m2, phi

    @property
    def size(self) -> int:
        return self.m1 * self.m2

    def name(self, v: int) -> str:
        return f"v{v}"

    def add(self, v: int, d: tuple[int, int], k: int = 1) -> int:
        x, y = divmod(v, self.m2)
        return (x + k * d[0]) % self.m1 * self.m2 + (y + k * d[1]) % self.m2

    def end(self, base: int, w: bytes) -> int:
        for i, e in enumerate(exponent_sums(w, self.grp.n)):
            if e:
                base = self.add(base, self.phi[i], e)
        return base

    def order(self, d: tuple[int, int]) -> int:
        k, v = 1, self.add(0, d)
        while v:
            v, k = self.add(v, d), k + 1
        return k

    def span(self, ds: list[tuple[int, int]]) -> int:
        """Size of the subgroup generated by the vectors ds."""
        seen, frontier = {0}, [0]
        while frontier:
            nxt = []
            for v in frontier:
                for d in ds:
                    u = self.add(v, d)
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
            frontier = nxt
        return len(seen)

    def close(self, w: bytes) -> bytes:
        """Append a1^x a2^y so that w becomes a loop; needs
        phi[0] = (1, 0) and phi[1] = (0, 1)."""
        x, y = divmod(self.end(0, w), self.m2)
        return w + bytes((0,)) * ((-x) % self.m1) + bytes((2,)) * ((-y) % self.m2)

    def text(self) -> str:
        n = self.grp.n
        names = [self.name(v) for v in range(self.size)]
        lines = ["vertices " + " ".join(names)]
        for v in range(self.size):
            for i in range(n):
                lines.append(f"edge e{i}_{v} {names[v]} {names[self.add(v, self.phi[i])]} a{i + 1}")
        for v in range(self.size):
            for i, j in self.grp.commuting:
                # boundary: a_i from v, a_j, a_i backwards, a_j backwards
                lines.append(f"square e{i}_{v} e{j}_{self.add(v, self.phi[i])} "
                             f"e{i}_{self.add(v, self.phi[j])} e{j}_{v}")
        return "\n".join(lines) + "\n"


def random_cover(grp: Group, m1: int, m2: int, rng) -> Cover:
    phi = [(1, 0), (0, 1)] + [(int(rng.random() * m1), int(rng.random() * m2))
                              for _ in range(grp.n - 2)]
    return Cover(grp, m1, m2, phi)


def loop_partner(cover: Cover, base: int, w: bytes, how: str, rng,
                 path_len: int) -> tuple[int, bytes]:
    """A second based loop: freely homotopic to the loop (base, w) by a
    based rotation, inserted backtracks or conjugation by a path of
    ``path_len`` letters; or, for ``how == "no"``, w with a closed power of
    one of its generators inserted, which changes that generator's
    exponent sum and so cannot be freely homotopic."""
    if how == "rotation":
        t = 1 + int(rng.random() * (len(w) - 1))
        return cover.end(base, w[:t]), rotate(w, t)
    if how == "backtracks":
        w2 = bytearray(w)
        for _ in range(1 + len(w) // 100):
            i, x = int(rng.random() * len(w2)), int(rng.random() * 2 * cover.grp.n)
            w2[i:i] = bytes((x, x ^ 1))
        return base, bytes(w2)
    if how == "path":
        q = reduced_word(cover.grp, path_len, rng)
        return cover.end(base, q), inverse(q) + w + q
    x = min({c >> 1 for c in w}, key=lambda i: cover.order(cover.phi[i]))
    i = int(rng.random() * len(w))
    return base, w[:i] + bytes((2 * x,)) * cover.order(cover.phi[x]) + w[i:]
