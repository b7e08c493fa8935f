"""Linear-time word and conjugacy deciders for right-angled Artin groups,
plus free-homotopy decision for loops in square complexes built over them.

The names below are loaded on first use (PEP 562), so ``import raag`` and
the CLI load only the modules they touch.
"""

__version__ = "0.1.0"

# exported name -> home module; the keys double as __all__
_HOME = {name: home for home, names in (
    ("core", "DefiningGraph InputError Letter PresentationError WordSyntaxError build_graph "
             "format_word load_presentation parse_presentation parse_word"),
    ("piling", "EmptyPiling ExtractionStuck NotCyclicallyReduced Piling PilingError "
               "PilingTooLarge cyclic_reduce pi_star pyramidalize sigma_star"),
    ("conjugacy", "CyclicNormalFactors conjugate_in_raag cyclic_normal_factors normal_form"),
    ("centralizer", "CentralizerGens centralizer_generators"),
    ("cubecomplex", "BasedWord ComplexSyntaxError CubeComplexMap Edge NotALoop "
                    "ReplayFailure UntraceableWord ValidationReport based_word "
                    "groupoid_conjugate load_complex parse_based_word parse_complex "
                    "trace validate"),
    ("oracle", "BoundExceeded"),
) for name in names.split()}

__all__ = tuple(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
