"""Canonical centralizer generating set of a cyclically reduced element:
the minimal root of each non-split factor, plus every generator that
commutes with the whole support without occurring in it."""
from __future__ import annotations

from typing import NamedTuple

from .core import DefiningGraph, Word
from .conjugacy import CyclicNormalFactors, _prefix_function


class EmptyFactor(ValueError):
    pass


class CentralizerGens(NamedTuple):
    roots: tuple[tuple[Word, int], ...]  # (z_i, r_i) with z_i^r_i == w_i letterwise
    link_gens: frozenset[int]


def minimal_root(w: Word) -> tuple[Word, int]:
    """Shortest prefix z and maximal r with z^r == w letter-for-letter.

    With b the longest proper border of w (last entry of its prefix
    function), p = |w| - b is the least period of w.  If p divides |w|
    then w == w[:p]^(|w|/p), and no shorter root exists since a root's
    length is a period.  Otherwise a period q < |w| dividing |w| would
    give p < q <= |w|/2, so by Fine and Wilf gcd(p, q) would be a period,
    forcing p | q | |w|; hence w is its own root.  O(|w|).
    """
    if not w:
        raise EmptyFactor("the empty word has no minimal root")
    p = len(w) - _prefix_function(w)[-1]
    if len(w) % p:
        return w, 1
    return w[:p], len(w) // p


def centralizer_generators(g: DefiningGraph, factors: CyclicNormalFactors) -> CentralizerGens:
    roots = tuple(minimal_root(f) for f in factors.factors)
    support = frozenset().union(*factors.components)
    # the generators outside the support that commute with all of it
    link = frozenset(range(1, g.n + 1)).difference(support, *(g.noncommute[s] for s in support))
    return CentralizerGens(roots, link)
