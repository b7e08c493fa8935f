"""Normal forms, cyclic normal forms, and the conjugacy decision.

The whole pipeline is: word -> piling -> cyclic reduction -> pyramidalize
every component of the support graph at once -> extract each
component's stacks alone, one factor per component.  Each factor then
carries a cyclic normal form, unique for its conjugacy class up to
rotation, so conjugacy reduces to cyclic string equality per factor.
``_align`` runs that pipeline on two words, with exact shortcuts that
stop it early; the word and the loop decider share it.  It owns every
piling it builds, so each stage works on it in place and none is copied.
"""
from __future__ import annotations

from itertools import chain, islice
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import DefiningGraph, Letter, Word, support_components
from .piling import (Piling, _cyclic_reduce, _drain, _extract, _letter_counts, _pyramidalize,
                     pi_star)


class CyclicNormalFactors(NamedTuple):
    """Mutually commuting cyclic normal forms, one per connected
    component of the support graph, with the letters the cycling moved:
    the bottom letters of the cyclic reduction, then the cycled letters,
    each as ``cyclic_reduce`` and ``pyramidalize`` return them.
    ``events`` is a conjugator c with pi(c^-1 w c) = pi(concat()) for the
    input word w, so a loop's base vertex is carried along c."""

    factors: tuple[Word, ...]
    components: tuple[tuple[int, ...], ...]
    events: Word

    def concat(self) -> Word:
        return tuple(l for f in self.factors for l in f)


def normal_form(g: DefiningGraph, w: Word) -> Word:
    return _drain(pi_star(g, w))


def cyclic_normal_factors(g: DefiningGraph, w: Word) -> CyclicNormalFactors:
    """Pyramidalize all components of the cyclically reduced piling
    together, then extract each component's factor alone.  Components
    never share a stack, so factor k is exactly the letters that an
    extraction of component k's stacks emits, in its own order."""
    p, events = _reduce(g, w)
    return _drain_factors(p, *_pyramid(g, p, events))


def _reduce(g: DefiningGraph, w: Word) -> tuple[Piling, list[Letter]]:
    """The cyclically reduced piling of w and the letters of its
    reduction, as ``cyclic_reduce(pi_star(g, w))`` gives them, built in
    place on one piling."""
    p = pi_star(g, w)
    return p, _cyclic_reduce(p)


def _pyramid(g: DefiningGraph, p: Piling, events: Sequence[Letter]
             ) -> tuple[tuple[tuple[int, ...], ...], Word]:
    """The first step of ``cyclic_normal_factors`` from the cyclic
    reduction on: pyramidalize the cyclically reduced piling p in place,
    and return its components and a fresh events tuple, the letters of
    its reduction followed by the cycled letters as ``pyramidalize``
    returns them."""
    if p.is_empty():
        return (), tuple(events)
    components = support_components(g, p.support())
    return components, (*events, *_pyramidalize(p, {c[0] for c in components})[0])


def _drain_factors(p: Piling, components: tuple[tuple[int, ...], ...],
                   events: Word) -> CyclicNormalFactors:
    """The second step: extract the pyramidal piling p one component at a
    time, skipping the stacks of all the others; ``_drain`` takes the last
    component, once the others are empty, and checks that nothing is left."""
    stacks = frozenset(chain.from_iterable(components))
    factors = [tuple(_extract(p, stacks.difference(c))) for c in components[:-1]]
    last = _drain(p)
    if components:
        factors.append(last)
    return CyclicNormalFactors(tuple(factors), components, events)


def _prefix_function(pattern) -> list[int]:
    """KMP failure table: entry i is the length of the longest proper
    prefix of pattern[:i+1] that is also its suffix; O(|pattern|)."""
    fail = [0] * len(pattern)
    k = 0
    for i in range(1, len(pattern)):
        while k and pattern[i] != pattern[k]:
            k = fail[k - 1]
        if pattern[i] == pattern[k]:
            k += 1
        fail[i] = k
    return fail


def cyclic_equal(u: Word, v: Word):
    """Smallest t >= 0 with rotate_left(u, t) == v, else None.

    A KMP scan for v in u + u[:-1], over the letters, rather than
    ``str.find`` on a code string per word: CPython's ``str.find`` is
    quadratic below its two-way cutoff.  On a^(L-1) b it read 340-510
    ns/char at L = 2,000 on 3.11, against 6 ns/char from L = 2,400 on,
    and still 349 ns/char at L = 4,000 on 3.10.  Spelling the letters as
    a code string also costs about 115 ns/letter, so it would win only
    about 2x over KMP."""
    if len(u) != len(v):
        return None
    if not u:
        return 0
    fail = _prefix_function(v)
    k = 0
    for i, item in enumerate(u + u[:-1]):
        while k and item != v[k]:
            k = fail[k - 1]
        if item == v[k]:
            k += 1
            if k == len(v):
                return i - k + 1
    return None


def _factor_rotations(fw: CyclicNormalFactors, fv: CyclicNormalFactors) -> list[int] | None:
    """The rotation t_k that ``cyclic_equal`` finds for each factor k,
    with rotate_left(fw.factors[k], t_k) == fv.factors[k]; None when the
    component collections differ, or at the first factor that is no
    rotation of its partner, without comparing the rest."""
    if fw.components != fv.components:
        return None
    rotations = []
    for u, v in zip(fw.factors, fv.factors):
        t = cyclic_equal(u, v)
        if t is None:
            return None
        rotations.append(t)
    return rotations


def _align(g: DefiningGraph, w: Word, v: Word
           ) -> tuple[Iterable[Letter], Sequence[Letter],
                      Callable[[], CyclicNormalFactors]] | None:
    """The conjugacy decision of w and v, as both deciders share it: None
    for NO, else ``(c_w, c_v, factors_v)`` with c_w^-1 w c_w = c_v^-1 v c_v.
    ``factors_v()``, called at most once, returns exactly
    ``cyclic_normal_factors(g, v)``, and c_v is a prefix of its events.
    The rest of those events is the word d along which both carried
    bases go on together to v's cyclic normal form, d^-1 (c_v^-1 v c_v) d
    = concat(factors), whose centralizer a loop decision searches.

    The tiers, each exact, cheapest first:

    - Cyclically reduced pilings that differ in letter counts are NO,
      before anything is pyramidalized or extracted.  Pyramidalize never
      cancels a tile of a cyclically reduced piling and extraction emits
      every tile, so the factors hold exactly the reduced piling's
      letters, and factors that are rotations of each other hold the
      same letters.
    - Equal cyclically reduced pilings are YES before either is
      pyramidalized, with c_w and c_v the letters of the two reductions.
      Pyramidalize is deterministic, so equal pilings cycle the same
      letters into equal pyramids and equal factors.  ``factors_v``
      pyramidalizes and drains v's piling alone; d is its cycled letters.
    - Equal pyramidal pilings are YES before either is extracted, with
      c_w and c_v the two events: equal pilings extract to equal
      factors, so every rotation is 0.  ``factors_v`` drains v's pyramid
      alone; d is empty.
    - Otherwise both are extracted, and ``_factor_rotations`` finds the
      rotation t_k that carries each factor u_k of w onto v's; none is
      NO.  c_w is w's events followed by every prefix u_k[:t_k] (the
      factors commute, so in any order), chained lazily; c_v is v's
      events and d is empty.  sigma* is injective on valid pilings
      (pi*(sigma*(P)) = P), so only pairs that need some t_k > 0 get
      here."""
    pw, ew = _reduce(g, w)
    pv, ev = _reduce(g, v)
    if _letter_counts(pw) != _letter_counts(pv):
        return None
    if pw == pv:
        return ew, ev, lambda: _drain_factors(pv, *_pyramid(g, pv, ev))
    yw, yv = _pyramid(g, pw, ew), _pyramid(g, pv, ev)
    if pw == pv:
        return yw[1], yv[1], lambda: _drain_factors(pv, *yv)
    fw, fv = _drain_factors(pw, *yw), _drain_factors(pv, *yv)
    rotations = _factor_rotations(fw, fv)
    if rotations is None:
        return None
    return chain(fw.events, *map(islice, fw.factors, rotations)), fv.events, lambda: fv


def conjugate_in_raag(g: DefiningGraph, w: Word, v: Word) -> bool:
    """Linear-time conjugacy decision: equal component collections and
    rotation-equal cyclic normal forms factor by factor, decided by
    ``_align``.  Its conjugator words stay unbuilt (c_w is a lazy
    chain), and its ``factors_v`` is never called."""
    return _align(g, w, v) is not None
