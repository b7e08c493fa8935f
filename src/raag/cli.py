"""Command-line front end.

Exit codes: 0 for completed decisions (YES and NO alike), 2 for an
``InputError``, which the library raises for every error that the
inputs cause (``main`` alone catches it), 1 with a traceback for any
other exception, an internal failure.

``main`` alone reads and prints: it loads the presentation, parses
``-w`` and ``-v`` and loads ``-x`` where the subcommand declares them,
and hands them to the subcommand's ``cmd_*(args, g, *inputs)``, which
decides and returns the pair of closures that ``_emit`` prints.

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
from .core import InputError, format_word, load_presentation, parse_word
from .piling import pi_star
from .conjugacy import _factor_rotations, cyclic_normal_factors, normal_form


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


def cmd_normal_form(args, g, w):
    nf = normal_form(g, w)
    text = format_word(g, nf)
    return lambda: {"normal_form": text, "length": len(nf)}, lambda: text


def cmd_cyclic_normal_form(args, g, w):
    factors = cyclic_normal_factors(g, w)
    payload = _factor_report(g, factors)  # the text prints every factor too
    lines = [f"{len(factors.factors)} factor(s)"]
    for comp, f in zip(payload["components"], payload["factors"]):
        lines.append(f"  [{' '.join(comp)}]: {f}")
    return lambda: payload, lambda: "\n".join(lines)


def cmd_word_problem(args, g, w):
    trivial = pi_star(g, w).signed_count == 0
    return (lambda: {"identity": trivial},
            lambda: "YES (identity)" if trivial else "NO (non-trivial)")


def cmd_conjugate(args, g, w, v):
    fw, fv = cyclic_normal_factors(g, w), cyclic_normal_factors(g, v)
    ans = _factor_rotations(fw, fv) is not None
    return (lambda: {"conjugate": ans, "left": _factor_report(g, fw),
                     "right": _factor_report(g, fv)},
            lambda: "YES" if ans else "NO")


def cmd_centralizer(args, g, w):
    from .centralizer import centralizer_generators

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

    return payload, human


def cmd_validate_complex(args, g, cx):
    from .cubecomplex import validate

    report = validate(cx, g)
    return lambda: {"ok": report.ok, **report._asdict()}, report.summary


def cmd_groupoid_conjugate(args, g, cx):
    from .cubecomplex import groupoid_conjugate, parse_based_word, validate

    report = validate(cx, g)
    if not report.ok:
        raise InputError("complex failed validation:\n" + report.summary())
    ans = groupoid_conjugate(cx, g, parse_based_word(cx, g, args.loop1),
                             parse_based_word(cx, g, args.loop2))
    return lambda: {"freely_homotopic": ans}, lambda: "YES" if ans else "NO"


def cmd_oracle(args, g, w, v):
    """``oracle-equal`` and ``oracle-conjugate``: the brute-force decider
    ``oracle_<key>``, whose answer goes under ``key`` in the JSON."""
    from . import oracle

    ans = getattr(oracle, f"oracle_{args.key}")(g, w, v)
    return lambda: {args.key: ans}, lambda: "YES" if ans else "NO"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raag",
        description="Word, conjugacy, and free-homotopy deciders for "
                    "right-angled Artin groups and cube complexes over them.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help, words=0, on_complex=False, **defaults):
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn, **defaults)
        p.add_argument("-g", "--group", required=True, help="presentation file")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--no-timing", action="store_true",
                       help="omit timings for byte-identical reports")
        if words:
            p.add_argument("-w", "--word", required=True)
        if words == 2:
            p.add_argument("-v", "--other", required=True)
        if on_complex:
            p.add_argument("-x", "--complex", required=True, help="complex file")
        return p

    add("normal-form", cmd_normal_form, "print the normal form of a word", 1)
    add("cyclic-normal-form", cmd_cyclic_normal_form,
        "print the cyclic normal forms of the non-split factors", 1)
    add("word-problem", cmd_word_problem, "decide if a word is the identity", 1)
    add("conjugate", cmd_conjugate, "decide conjugacy of two words", 2)
    add("centralizer", cmd_centralizer,
        "canonical centralizer generators of the cyclically reduced conjugate", 1)
    add("validate-complex", cmd_validate_complex, "check a complex file", on_complex=True)
    p = add("groupoid-conjugate", cmd_groupoid_conjugate,
            "decide free homotopy of two based loops", on_complex=True)
    p.add_argument("--loop1", required=True, help="based word '<vertex>: <word>'")
    p.add_argument("--loop2", required=True, help="based word '<vertex>: <word>'")
    for key, what in (("equal", "equality"), ("conjugate", "conjugacy")):
        add(f"oracle-{key}", cmd_oracle, f"brute-force {what} (small inputs)", 2, key=key)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args._t0 = time.perf_counter()
    try:
        g = load_presentation(args.group)
        # the word options are declared only for the subcommands that take them
        inputs = [parse_word(g, getattr(args, k)) for k in ("word", "other") if hasattr(args, k)]
        if hasattr(args, "complex"):
            from .cubecomplex import load_complex
            inputs.append(load_complex(args.complex, g))
        _emit(args, *args.fn(args, g, *inputs))
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
