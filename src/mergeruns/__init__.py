"""Quantitative analysis of the interleaved runs of tree-structured processes.

The four library modules (trees, counts, profiles, sampling) load on first
use: importing the package registers each of them in sys.modules and as a
package attribute, and a module's body is compiled and run the first time a
name is read from it.  The public names below are served from their modules
on demand, so ``import mergeruns`` runs none of them and a command pays only
for the modules it uses.
"""

import importlib.util as _util
import sys as _sys

__version__ = "0.1.0"
# the generator Rng runs, named by --version and Rng's repr
RNG_ALGORITHM = "mt19937"

# the public names, by the module that defines them
_EXPORTS = {
    "trees": (
        "BudgetError",
        "FOREST_ROOT_LABEL",
        "ParseError",
        "SyntaxTree",
        "degree_sequence_of_tree",
        "parse_process",
        "tree_from_degree_sequence",
        "validate_run_prefix",
    ),
    "counts": (
        "Approx",
        "asymptotic_size",
        "catalan",
        "cumulative_size",
        "geometric_mean_width",
        "hook_count",
        "increasing_count",
        "log_constant_L",
        "mean_level_width",
        "mean_size",
        "mean_width",
        "mean_width_asymptotic",
        "nonplane_count",
        "r_sequence",
    ),
    "profiles": (
        "count_admissible_cuts",
        "cut_count_sequence",
        "cut_profile",
        "level_profile",
        "limit_profile",
        "limit_profile_error_bound",
        "semantic_expansion",
        "semantic_levels",
        "semantic_size",
    ),
    "sampling": (
        "PartialSumTree",
        "Rng",
        "count_runs_via_probability",
        "prefix_probability",
        "sample_run",
        "uniform_random_tree",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def _lazy_module(name: str):
    """Register mergeruns.<name> unexecuted: the importlib lazy-import recipe."""
    spec = _util.find_spec(f"{__name__}.{name}")
    spec.loader = _util.LazyLoader(spec.loader)
    module = _util.module_from_spec(spec)
    _sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


trees = _lazy_module("trees")
counts = _lazy_module("counts")
profiles = _lazy_module("profiles")
sampling = _lazy_module("sampling")


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[module], name)


def __dir__():
    return sorted({*globals(), *__all__})
