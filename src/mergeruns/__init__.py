"""Quantitative analysis of the interleaved runs of tree-structured processes."""

__version__ = "0.1.0"

from .trees import (
    BudgetError,
    FOREST_ROOT_LABEL,
    ParseError,
    SemanticTree,
    SuspendedView,
    SyntaxTree,
    build_semantic_tree,
    degree_sequence_of_tree,
    enumerate_trees,
    parse_process,
    suspended_view,
    tree_from_degree_sequence,
    validate_run_prefix,
)
from .counts import (
    Approx,
    asymptotic_size,
    catalan,
    cumulative_size,
    geometric_mean_width,
    hook_count,
    increasing_count,
    log_constant_L,
    mean_level_width,
    mean_size,
    mean_width,
    mean_width_asymptotic,
    nonplane_count,
    r_sequence,
)
from .profiles import (
    AdmissibleCut,
    count_admissible_cuts,
    cut_count_sequence,
    enumerate_admissible_cuts,
    level_profile,
    limit_profile,
    limit_profile_error_bound,
    semantic_size,
)
from .sampling import (
    PartialSumTree,
    Rng,
    count_runs_via_probability,
    prefix_probability,
    sample_run,
    uniform_random_tree,
)

_SUBMODULES = {"trees", "counts", "profiles", "sampling", "cli"}
__all__ = [name for name in dir() if not name.startswith("_") and name not in _SUBMODULES]
