"""Linear-time word and conjugacy deciders for right-angled Artin groups,
plus free-homotopy decision for loops in square complexes built over them."""

__version__ = "0.1.0"

from .core import (
    DefiningGraph,
    Letter,
    PresentationError,
    WordSyntaxError,
    build_graph,
    format_word,
    inverse_word,
    load_presentation,
    parse_presentation,
    parse_word,
    support_graph,
    support_of,
)
from .piling import (
    EmptyPiling,
    ExtractionStuck,
    NoBottomTile,
    NotCyclicallyReduced,
    Piling,
    PilingError,
    PilingTooLarge,
    SplitInput,
    cycle_bottom,
    cyclic_reduce,
    decompose,
    format_piling,
    is_cyclically_reduced,
    is_pyramidal,
    pi_star,
    pyramidalize,
    sigma_star,
    split_components,
)
from .conjugacy import (
    CyclicNormalFactors,
    conjugate_in_raag,
    cyclic_equal,
    cyclic_normal_factors,
    is_cyclic_normal,
    is_normal,
    kmp_first_occurrence,
    normal_form,
)
from .centralizer import CentralizerGens, centralizer_generators, minimal_root
from .cubecomplex import (
    BasedWord,
    ComplexSyntaxError,
    CubeComplexMap,
    Edge,
    NotALoop,
    ReplayFailure,
    UntraceableWord,
    ValidationReport,
    based_cycle,
    based_word,
    groupoid_conjugate,
    load_complex,
    normalize_based,
    parse_based_word,
    parse_complex,
    reach_by_centralizer,
    trace,
    validate,
)
from .oracle import (
    BoundExceeded,
    loop_class_key,
    oracle_conjugate,
    oracle_equal,
    oracle_groupoid_conjugate,
    reach_by_preferred_enumeration,
)
