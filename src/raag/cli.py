"""Command-line front end.

Exit codes: 0 for completed decisions (YES and NO alike), 2 for parse
or validation errors in the inputs, 1 for internal failures.

Each process loads only what its subcommand needs: ``word-problem``,
``normal-form``, ``cyclic-normal-form`` and ``conjugate`` run on
``core``, ``piling`` and ``conjugacy``, which this module imports.
``centralizer`` also loads ``raag.centralizer``; ``validate-complex``
and ``groupoid-conjugate`` load ``raag.cubecomplex`` (and through it
``raag.centralizer``); the ``oracle-*`` subcommands load ``raag.oracle``
(and through it both).
"""
from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .core import (
    DefiningGraph,
    PresentationError,
    WordSyntaxError,
    format_word,
    load_presentation,
    parse_word,
)
from .piling import pi_star
from .conjugacy import _same_class, cyclic_normal_factors, normal_form


class _InputError(Exception):
    pass


def _load_group(path: str) -> DefiningGraph:
    try:
        return load_presentation(path)
    except (OSError, PresentationError) as e:
        raise _InputError(str(e)) from None


def _word(g: DefiningGraph, text: str):
    try:
        return parse_word(g, text)
    except WordSyntaxError as e:
        raise _InputError(f"bad word {text!r}: {e}") from None


def _emit(args, payload, human) -> None:
    """Print ``payload()`` as JSON with ``--json``, else the text
    ``human()``; only the one printed is built."""
    out = payload() if args.json else human()
    if not args.no_timing:
        elapsed = round(time.perf_counter() - args._t0, 6)
        if args.json:
            out["elapsed_s"] = elapsed
        else:
            out += f"\n# elapsed: {elapsed} s"
    print(json.dumps(out, sort_keys=True) if args.json else out)


def _factor_report(g, factors):
    return {
        "factors": [format_word(g, f) for f in factors.factors],
        "components": [[g.name(i) for i in comp] for comp in factors.components],
    }


def cmd_normal_form(args):
    g = _load_group(args.group)
    w = _word(g, args.word)
    nf = normal_form(g, w)
    text = format_word(g, nf)
    _emit(args, lambda: {"normal_form": text, "length": len(nf)}, lambda: text)


def cmd_cyclic_normal_form(args):
    g = _load_group(args.group)
    w = _word(g, args.word)
    factors = cyclic_normal_factors(g, w)
    payload = _factor_report(g, factors)  # the text prints every factor too
    lines = [f"{len(factors.factors)} factor(s)"]
    for comp, f in zip(payload["components"], payload["factors"]):
        lines.append(f"  [{' '.join(comp)}]: {f}")
    _emit(args, lambda: payload, lambda: "\n".join(lines))


def cmd_word_problem(args):
    g = _load_group(args.group)
    w = _word(g, args.word)
    trivial = pi_star(g, w).signed_count == 0
    _emit(args, lambda: {"identity": trivial},
          lambda: "YES (identity)" if trivial else "NO (non-trivial)")


def cmd_conjugate(args):
    g = _load_group(args.group)
    w = _word(g, args.word)
    v = _word(g, args.other)
    fw = cyclic_normal_factors(g, w)
    fv = cyclic_normal_factors(g, v)
    ans = _same_class(fw, fv)
    _emit(args, lambda: {"conjugate": ans, "left": _factor_report(g, fw),
                         "right": _factor_report(g, fv)},
          lambda: "YES" if ans else "NO")


def cmd_centralizer(args):
    from .centralizer import centralizer_generators

    g = _load_group(args.group)
    w = _word(g, args.word)
    factors = cyclic_normal_factors(g, w)
    gens = centralizer_generators(g, factors)
    link_gens = [g.name(i) for i in sorted(gens.link_gens)]

    def payload():
        out = _factor_report(g, factors)
        out["roots"] = [{"z": format_word(g, z), "r": r} for z, r in gens.roots]
        out["link_gens"] = link_gens
        return out

    def human():
        lines = ["centralizer of the cyclically reduced conjugate "
                 + (format_word(g, factors.concat()) or "<identity>")]
        for z, r in gens.roots:
            lines.append(f"  root: {format_word(g, z)}  (power {r})")
        for name in link_gens:
            lines.append(f"  link generator: {name}")
        return "\n".join(lines)

    _emit(args, payload, human)


def cmd_validate_complex(args):
    from .cubecomplex import ComplexSyntaxError, load_complex, validate

    g = _load_group(args.group)
    try:
        cx = load_complex(args.complex, g)
    except (OSError, ComplexSyntaxError) as e:
        raise _InputError(str(e)) from None
    report = validate(cx, g)
    _emit(args, lambda: {
        "ok": report.ok,
        "determinism_ok": report.determinism_ok,
        "labels_ok": report.labels_ok,
        "convexity_checked": report.convexity_checked,
        "convexity_ok": report.convexity_ok,
        "problems": report.problems,
    }, report.summary)


def cmd_groupoid_conjugate(args):
    from .cubecomplex import (ComplexSyntaxError, UntraceableWord, groupoid_conjugate,
                              load_complex, parse_based_word, validate)

    g = _load_group(args.group)
    try:
        cx = load_complex(args.complex, g)
        report = validate(cx, g)
        if not report.ok:
            raise _InputError("complex failed validation:\n" + report.summary())
        bw1 = parse_based_word(cx, g, args.loop1)
        bw2 = parse_based_word(cx, g, args.loop2)
    except (OSError, ComplexSyntaxError, UntraceableWord, WordSyntaxError) as e:
        raise _InputError(str(e)) from None
    if bw1.base != bw1.end or bw2.base != bw2.end:
        raise _InputError("both based words must be loops")
    ans = groupoid_conjugate(cx, g, bw1, bw2)
    _emit(args, lambda: {"freely_homotopic": ans}, lambda: "YES" if ans else "NO")


def cmd_oracle_equal(args):
    from .oracle import BoundExceeded, oracle_equal

    g = _load_group(args.group)
    try:
        ans = oracle_equal(g, _word(g, args.word), _word(g, args.other))
    except BoundExceeded as e:
        raise _InputError(str(e)) from None
    _emit(args, lambda: {"equal": ans}, lambda: "YES" if ans else "NO")


def cmd_oracle_conjugate(args):
    from .oracle import BoundExceeded, oracle_conjugate

    g = _load_group(args.group)
    try:
        ans = oracle_conjugate(g, _word(g, args.word), _word(g, args.other))
    except BoundExceeded as e:
        raise _InputError(str(e)) from None
    _emit(args, lambda: {"conjugate": ans}, lambda: "YES" if ans else "NO")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raag",
        description="Word, conjugacy, and free-homotopy deciders for "
                    "right-angled Artin groups and cube complexes over them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("-g", "--group", required=True, help="presentation file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--no-timing", action="store_true",
                       help="omit timings for byte-identical reports")
        return p

    p = add("normal-form", cmd_normal_form, help="print the normal form of a word")
    p.add_argument("-w", "--word", required=True)

    p = add("cyclic-normal-form", cmd_cyclic_normal_form,
            help="print the cyclic normal forms of the non-split factors")
    p.add_argument("-w", "--word", required=True)

    p = add("word-problem", cmd_word_problem, help="decide if a word is the identity")
    p.add_argument("-w", "--word", required=True)

    p = add("conjugate", cmd_conjugate, help="decide conjugacy of two words")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("-v", "--other", required=True)

    p = add("centralizer", cmd_centralizer,
            help="canonical centralizer generators of the cyclically reduced conjugate")
    p.add_argument("-w", "--word", required=True)

    p = add("validate-complex", cmd_validate_complex, help="check a complex file")
    p.add_argument("-x", "--complex", required=True, help="complex file")

    p = add("groupoid-conjugate", cmd_groupoid_conjugate,
            help="decide free homotopy of two based loops")
    p.add_argument("-x", "--complex", required=True, help="complex file")
    p.add_argument("--loop1", required=True, help="based word '<vertex>: <word>'")
    p.add_argument("--loop2", required=True, help="based word '<vertex>: <word>'")

    p = add("oracle-equal", cmd_oracle_equal, help="brute-force equality (small inputs)")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("-v", "--other", required=True)

    p = add("oracle-conjugate", cmd_oracle_conjugate,
            help="brute-force conjugacy (small inputs)")
    p.add_argument("-w", "--word", required=True)
    p.add_argument("-v", "--other", required=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        args.fn(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
