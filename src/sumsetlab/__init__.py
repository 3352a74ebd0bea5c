"""Finite laboratory for additive partition relations on rational vectors.

The core objects are finitely supported rational vectors (qvec), the
halved-pattern calculus over them (pattern), pluggable coloring oracles
(oracle), homogeneous-set searches (ramsey), the two-color and general
witness pipelines (pipeline2, pipeline_r), coherence checkers for support
assignments (deltasys), and empirical threshold searches over colorings of
initial segments of the naturals (search).
"""

from .deltasys import (
    OrderIso,
    SupportAssignment,
    check_cl3,
    check_cl4,
    generate_canonical,
    order_iso,
    relabel,
)
from .oracle import (
    ColoringOracle,
    ConstantOracle,
    FloorSumOracle,
    FourCountOracle,
    LookupTableOracle,
    OrderInvariantOracle,
    PipelineFailure,
    SeededHashOracle,
    SupportSizeOracle,
    UnmappedVector,
    WitnessCertificate,
    WitnessFailure,
    certified_witness,
    derived,
    level_pattern_table,
    make_oracle,
    verify_witness,
)
from .pattern import (
    TOP,
    CanonicalTuple,
    IndexFamily,
    PatternString,
    canonical_tuple,
    is_index_strictly_increasing,
    is_l_canonical,
    is_top,
    make_string,
    pigeonhole_pair,
    star,
)
from .pipeline2 import Case, Pipeline2Certificate, case_of, construct2
from .pipeline_r import (
    FamilySystem,
    PipelineRCertificate,
    check_levels,
    construct_r,
    layout_families,
    make_witness_tuples,
    replacement_search,
    shrink,
    system_from_universe,
    verify_saturation,
)
from .qvec import QVec, sumset
from .ramsey import (
    HomogeneousSet,
    NoHomogeneousSet,
    TupleColoring,
    brute_homogeneous,
    greedy_end_homogeneous,
    multi_homogeneous,
    verify_homogeneous,
)
from .search import (
    BadSearch,
    NatColoring,
    ThresholdRecord,
    find_bad_coloring,
    has_mono_sumset,
    threshold_scan,
)
