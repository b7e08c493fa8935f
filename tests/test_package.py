"""The package root exports its API lazily: each name is loaded from its
home module on first use."""
import importlib
import re
from pathlib import Path

import pytest

import raag

README = Path(__file__).resolve().parent.parent / "README.md"

# the names the package root exports, by home module
EXPORTS = {
    "core": ["DefiningGraph", "Letter", "PresentationError", "WordSyntaxError",
             "build_graph", "format_word", "inverse_word", "load_presentation",
             "parse_presentation", "parse_word", "support_graph", "support_of"],
    "piling": ["EmptyPiling", "ExtractionStuck", "NoBottomTile", "NotCyclicallyReduced",
               "Piling", "PilingError", "PilingTooLarge", "cycle_bottom", "cyclic_reduce",
               "is_cyclically_reduced", "pi_star", "pyramidalize", "sigma_star"],
    "conjugacy": ["CyclicNormalFactors", "conjugate_in_raag", "cyclic_equal",
                  "cyclic_normal_factors", "is_cyclic_normal", "is_normal",
                  "kmp_first_occurrence", "normal_form"],
    "centralizer": ["CentralizerGens", "centralizer_generators", "minimal_root"],
    "cubecomplex": ["BasedWord", "ComplexSyntaxError", "CubeComplexMap", "Edge",
                    "NotALoop", "ReplayFailure", "UntraceableWord", "ValidationReport",
                    "based_word", "groupoid_conjugate", "load_complex",
                    "normalize_based", "parse_based_word", "parse_complex",
                    "reach_by_centralizer", "trace", "validate"],
    "oracle": ["BoundExceeded", "loop_class_key", "oracle_conjugate", "oracle_equal",
               "oracle_groupoid_conjugate", "reach_by_preferred_enumeration"],
}


def test_lazy_exports_match_their_home_modules():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 59
    assert sorted(raag.__all__) == sorted(names)
    listed = dir(raag)
    for home, names in EXPORTS.items():
        module = importlib.import_module(f"raag.{home}")
        for name in names:
            assert getattr(raag, name) is getattr(module, name)
            assert name in listed
    with pytest.raises(AttributeError, match="'nope'"):
        raag.nope
    namespace = {}
    exec("from raag import *", namespace)
    assert {k: v for k, v in namespace.items() if k != "__builtins__"} == {
        name: getattr(raag, name) for name in raag.__all__}
    # every lower-level piece the README names is exported
    text = README.read_text(encoding="utf-8")
    pieces = re.findall(r"`(\w+)`", re.search(
        r"Lower-level pieces \((.*?)\) are exported", text, re.S).group(1))
    assert pieces and set(pieces) <= set(raag.__all__)
