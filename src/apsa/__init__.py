"""Strings whose suffix arrays are arithmetic progressions.

The package synthesizes, for any arithmetically progressed permutation, the
unique (or canonical) string over the smallest possible alphabet having it as
a suffix array, predicts the Burrows-Wheeler transform of such strings in
closed form, generates Christoffel and Fibonacci words with known index
shapes, enumerates and counts all strings sharing a suffix array, and
produces and verifies ground-truth corpora for testing suffix-array
construction code at scale.
"""

from .core import (
    APPerm,
    ap_detect,
    ap_inverse,
    ap_materialize,
    ap_position_of,
    ap_rotate,
    canonical_residue,
    mod_inverse,
)
from .christoffel import (
    ChristoffelParams,
    LatticePath,
    adjacent_diff_columns,
    bwt_matrix_adjacent_diffs,
    christoffel_bwt,
    christoffel_path,
    christoffel_sa_params,
    christoffel_upper,
    christoffel_word,
    closest_path_point,
    factorization_index,
)
from .enumeration import (
    CountReport,
    brute_force_strings,
    candidate_strings,
    count_bounds,
    enumerate_strings,
    sigma_min,
)
from .lyndonlab import (
    Factorization,
    FibonacciWord,
    balanced2_factorization,
    balanced_via_bwt,
    balanced_via_slope,
    duval_factorization,
    fibonacci_closed_form,
    fibonacci_lengths,
    fibonacci_swapped,
    fibonacci_word,
    is_balanced,
    is_balanced2,
    is_lyndon,
    left_factorization,
    right_factorization,
)
from .synthesis import (
    SplitSpec,
    SynthCase,
    SynthResult,
    binary_closed_form,
    classify,
    render_ranks,
    required_splits,
    synth,
    synth_binary,
    synth_general,
    synth_ternary,
    synth_unary_family,
)
from .textindex import (
    BwtProfile,
    SuffixArrayView,
    bwt_definitions_agree,
    bwt_from_matrix,
    bwt_from_sa,
    bwt_predict,
    bwt_predict_ternary,
    compact_runs,
    expand_runs,
    inverse_sa,
    parse_compact_runs,
    progression_holds,
    progression_of,
    rotate_runs,
    run_count,
    runs_of,
    suffix_array,
)

__version__ = "0.1.0"
