"""Reeb graphs, extended persistence, and metrics between them.

Core objects: `ReebGraph` (level-labeled multigraph with monotone arcs),
`Diagram` (typed extended persistence diagram), exact `bottleneck` distance,
the `merge` / `simplify` / `full_transform` operators, certified functional
distortion bounds, and discretized path lengths in the space of Reeb graphs.
All values are exact rationals.
"""

__version__ = "0.1.0"

from .bottleneck import (
    BottleneckResult,
    PartialMatching,
    bottleneck,
    feasible,
    graph_bottleneck,
    matching_cost,
)
from .diagram import EXT0, EXT1, KINDS, ORD0, REL1, Diagram, DiagramPoint
from .distortion import (
    Correspondence,
    FDBoundCertificate,
    certify_fd_upper,
    distortion,
    fd_lower,
    fd_upper,
    natural_correspondence,
    projection_correspondence,
    sample_net,
    value_shift_upper,
)
from .experiments import EXPERIMENTS, ExperimentConfig, ExperimentReport, run_experiment
from .fileio import (
    ParseError,
    diagram_to_text,
    graph_from_json,
    graph_to_json,
    graph_to_text,
    load_graph_or_diagram,
    parse_diagram_text,
    parse_graph_text,
)
from .generators import (
    cycle,
    figure1_left,
    figure1_right,
    figure5,
    random_graph,
    segment,
    y_graph,
)
from .graph import (
    CriticalValues,
    GraphPoint,
    InvalidGraphError,
    ReebGraph,
    ValidationReport,
    canonicalize,
    critical_values,
    travel_distance,
    travel_distances,
    validate,
)
from .isomorphism import is_level_isomorphic, level_isomorphism, structure_isomorphisms
from .operators import (
    MergeParams,
    SimplifyResult,
    TransformParams,
    TransformResult,
    full_transform,
    merge,
    merge_sequence,
    simplify,
    snap_diagram,
)
from .paths import (
    GraphPath,
    PathLengthResult,
    contraction_path,
    intrinsic_upper,
    join_via_contractions,
    linear_path,
    path_length,
)
from .persistence import extended_diagram, reduce_extended_filtration

__all__ = [name for name in dir() if not name.startswith("_")]
