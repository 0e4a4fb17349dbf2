"""Analysis of finite classification schemes under attribute-query observation.

Detects information barriers, computes the distinguishing-set structure,
evaluates observer strategies in the tag/query/distortion tradeoff space,
simulates identification over noisy queries, and executes the dual-axis
configuration resolver.
"""

__version__ = "0.1.0"

from .barrier import (
    CapacityResult,
    CollisionReport,
    collisions,
    identification_capacity,
    information_loss,
    quotient,
)
from .errors import (
    BarrierError,
    ConfigError,
    EmptyInputError,
    LimitError,
    ParseError,
    ValidationError,
)
from .matroid import (
    DimensionResult,
    MatroidReport,
    closure,
    distinguishing_dimension,
    enumerate_minimal_distinguishing,
    is_distinguishing,
    x_equivalent,
)
from .noisy import NoiseConfig, NoiseResult, simulate_noisy_identification, simulate_tagged
from .resolver import (
    ConfigInstance,
    ResolveResult,
    ResolveScenario,
    getattribute,
    normalize,
    resolution_query_count,
    resolve,
    well_formed,
)
from .scheme import (
    ClassRecord,
    Profile,
    Scheme,
    load_scheme,
    parse_scheme,
    profile_of,
    serialize_scheme,
)
from .strategies import (
    StrategyDescriptor,
    TAG_READ,
    TagPlan,
    Transcript,
    decode_distortion,
    hybrid_tag_plan,
    identify,
    identify_all,
    tag_partition,
    witness_eq_cost,
    witness_id_cost,
)
from .tradeoff import (
    TradeoffPoint,
    achievable_points,
    converse_check,
    localization_counts,
    lossy_budget,
    pareto_frontier,
)
from .trees import DecisionTree, TreeNode, greedy_decision_tree, optimal_decision_tree
