"""Terminal pairability in complete bipartite base graphs.

Construct pairwise edge-disjoint routings of bipartite demand
multigraphs in K_{a,b}: structured solvers for degree-bounded and
blocked instances, an inductive solver for instances with at most 2n-2
edges, an exact backtracking oracle, generators for the sharp
unresolvable families, and text formats for instances and resolutions.
"""

from .coloring import (
    choose_semiregular_targets,
    greedy_list_color,
    konig_decompose,
    regularize,
    vizing_color,
)
from .demand import (
    A,
    B,
    DemandGraph,
    Edge,
    Path,
    Resolution,
    V,
    extract_resolution,
    lift,
    verify_resolution,
)
from .edge_solver import (
    CaseContext,
    CaseTrace,
    LevelState,
    check_conditions,
    edge_lift,
    find_cover_F,
    pad_to_full,
    place_F,
    solve_edge_version,
)
from .errors import (
    DomainError,
    FormatError,
    NotFoundError,
    PreconditionError,
    StructuralError,
    TpbError,
)
from .instances import (
    gen_chain,
    gen_random_blocked,
    gen_random_edge,
    gen_random_semiregular,
    gen_sharp_conjecture,
    gen_sharp_edge,
    parse_instance,
    parse_resolution,
    serialize_instance,
    serialize_resolution,
)
from .oracle import (
    RESOLVABLE,
    UNKNOWN,
    UNRESOLVABLE,
    OracleVerdict,
    SearchBudget,
    decide,
    enumerate_demands,
)
from .structured import (
    repartition_matchings,
    solve_blocked,
    solve_quarter,
)

__all__ = [name for name in dir() if not name.startswith("_")]
