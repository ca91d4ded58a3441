"""dicycles: directed-cycle counting, extremal constructions, and bounds
for oriented graphs."""

__version__ = "0.1.0"

from .graphs import (
    DIRECTED,
    ORIENTED,
    OrientedGraph,
    PatternSpec,
    blow_up,
    directed_cycle,
    iterated_blow_up,
    new_graph,
    random_bipartite_orientation,
    read_graph,
    write_graph,
)
from .counting import (
    CountReport,
    arc_cycle_multiplicities,
    check_neighbor_condition,
    clear,
    count_closed_walks,
    count_cycle_copies,
    count_paths,
    has_closed_walk,
    has_cycle_subgraph,
    vertex_cycle_counts,
)
