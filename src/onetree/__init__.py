"""One aggregation tree that simultaneously approximates the optimum for
every concave, nondecreasing edge-cost function.

The pipeline: solve a rent-or-buy instance per cost threshold, monotonize
and geometrically prune the results into nested layers, then stitch the
layer cores together with light approximate shortest-path trees. An exact
subset-DP oracle verifies approximation ratios on instances with few demand
vertices.
"""

from .builder import (
    Parameters,
    SimultaneousTree,
    build_tree,
    check_layer_bounds,
    optimal_parameters,
)
from .errors import (
    ConfigError,
    DisconnectedError,
    InstanceError,
    InvalidTreeError,
    InvariantError,
    OneTreeError,
    OracleLimitError,
    ParseError,
)
from .evaluate import RatioReport, simultaneous_ratio
from .graph import (
    SUPERNODE,
    Edge,
    Instance,
    contract,
    load_instance,
    make_instance,
    minimum_spanning_tree,
    shortest_path_tree,
)
from .last import LastTree, build_last, verify_last
from .layers import LayerSet, compute_K, compute_layers, monotonize, prune, verify_layerset
from .routing import (
    RentBuyDecomposition,
    RoutedTree,
    basis_cost,
    basis_threshold,
    decompose,
    route,
)
from .ssrob import (
    ExactSolver,
    SampleAugmentSolver,
    exact_ssrob,
    get_solver,
    sample_and_augment,
)

__version__ = "0.1.0"

__all__ = [
    "SUPERNODE",
    "ConfigError",
    "DisconnectedError",
    "Edge",
    "ExactSolver",
    "Instance",
    "InstanceError",
    "InvalidTreeError",
    "InvariantError",
    "LastTree",
    "LayerSet",
    "OneTreeError",
    "OracleLimitError",
    "Parameters",
    "ParseError",
    "RatioReport",
    "RentBuyDecomposition",
    "RoutedTree",
    "SampleAugmentSolver",
    "SimultaneousTree",
    "basis_cost",
    "basis_threshold",
    "build_last",
    "build_tree",
    "check_layer_bounds",
    "compute_K",
    "compute_layers",
    "contract",
    "decompose",
    "exact_ssrob",
    "get_solver",
    "load_instance",
    "make_instance",
    "minimum_spanning_tree",
    "monotonize",
    "optimal_parameters",
    "prune",
    "route",
    "sample_and_augment",
    "shortest_path_tree",
    "simultaneous_ratio",
    "verify_last",
    "verify_layerset",
]
