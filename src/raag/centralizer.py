"""Canonical centralizer generating set of a cyclically reduced element:
the minimal root of each non-split factor, plus every generator that
commutes with the whole support without occurring in it."""
from __future__ import annotations

from dataclasses import dataclass

from .core import DefiningGraph, Word
from .conjugacy import CyclicNormalFactors, kmp_first_occurrence


class EmptyFactor(ValueError):
    pass


@dataclass(frozen=True)
class CentralizerGens:
    roots: tuple[tuple[Word, int], ...]  # (z_i, r_i) with z_i^r_i == w_i letterwise
    link_gens: frozenset[int]


def minimal_root(w: Word) -> tuple[Word, int]:
    """Shortest prefix z and maximal r with z^r == w letter-for-letter.

    The first occurrence of w inside ww minus its first letter starts at
    the least t > 0 with rotate(w, t) == w.  The rotations fixing w form
    a subgroup of Z_|w|, so t divides |w| and w == w[:t]^(|w|/t) for
    any word w.
    """
    if not w:
        raise EmptyFactor("the empty word has no minimal root")
    t = kmp_first_occurrence((w + w)[1:], w) + 1
    return w[:t], len(w) // t


def centralizer_generators(g: DefiningGraph, factors: CyclicNormalFactors) -> CentralizerGens:
    roots = tuple(minimal_root(f) for f in factors.factors)
    support = {l.gen for f in factors.factors for l in f}
    link = frozenset(
        j for j in range(1, g.n + 1)
        if j not in support and all(g.commutes(j, s) for s in support))
    return CentralizerGens(roots, link)
