"""Analysis of finite classification schemes under attribute-query observation.

Detects information barriers, computes the distinguishing-set structure,
evaluates observer strategies in the tag/query/distortion tradeoff space,
simulates identification over noisy queries, and executes the dual-axis
configuration resolver.

``import discern`` loads no submodule: each public name below imports its
module on first access (PEP 562), so a command loads only what it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "barrier": (
        "CapacityResult",
        "CollisionReport",
        "collisions",
        "identification_capacity",
        "information_loss",
        "quotient",
    ),
    "errors": (
        "BarrierError",
        "ConfigError",
        "EmptyInputError",
        "LimitError",
        "ParseError",
        "ValidationError",
    ),
    "matroid": (
        "DimensionResult",
        "MatroidReport",
        "closure",
        "distinguishing_dimension",
        "enumerate_minimal_distinguishing",
        "is_distinguishing",
        "x_equivalent",
    ),
    "noisy": ("NoiseConfig", "NoiseResult", "simulate_noisy_identification", "simulate_tagged"),
    "resolver": (
        "ConfigInstance",
        "ResolveResult",
        "ResolveScenario",
        "getattribute",
        "normalize",
        "resolution_query_count",
        "resolve",
        "well_formed",
    ),
    "scheme": (
        "ClassRecord",
        "Profile",
        "Scheme",
        "load_scheme",
        "parse_scheme",
        "profile_of",
        "serialize_scheme",
    ),
    "strategies": (
        "StrategyDescriptor",
        "TAG_READ",
        "TagPlan",
        "Transcript",
        "decode_distortion",
        "hybrid_tag_plan",
        "identify",
        "identify_all",
        "tag_partition",
        "witness_eq_cost",
        "witness_id_cost",
    ),
    "tradeoff": (
        "TradeoffPoint",
        "achievable_points",
        "converse_check",
        "localization_counts",
        "lossy_budget",
        "pareto_frontier",
    ),
    "trees": ("DecisionTree", "TreeNode", "greedy_decision_tree", "optimal_decision_tree"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    # Any other name raises, so ``from . import matroid`` falls through to
    # importing the submodule.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
