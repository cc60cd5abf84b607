"""Mycielskian graphs and their topological indices, with verification.

The package builds the Mycielskian of a simple connected graph, computes
degree- and distance-based indices (Wiener, first Zagreb, Randić, degree
distance), evaluates the closed-form degree distance of the Mycielskian
of a diameter-2 graph and sandwich bounds for its Randić index, and
machine-checks all of those closed forms against brute-force BFS oracles
over exhaustive and randomized corpora.
"""

from .errors import (
    DiameterNotTwoError,
    DisconnectedError,
    EdgeListParseError,
    GraphError,
    InvalidParameterError,
    NoEdgesError,
    SelfLoopError,
    TooLargeError,
    TooSmallError,
    VertexOutOfRangeError,
)
from .generators import (
    FAMILIES,
    build_family,
    complete,
    complete_bipartite,
    connected_classes,
    cycle,
    enumerate_connected,
    erdos_renyi_connected,
    path,
    petersen,
    star,
)
from .graph import (
    Graph,
    all_pairs_distances,
    diameter,
    format_edge_list,
    parse_edge_list,
    read_edge_list,
)
from .indices import (
    IndexReport,
    RandicBounds,
    dd_mycielskian_closed,
    degree_distance,
    distance2_degree_sum,
    first_zagreb,
    index_report,
    randic,
    randic_bounds,
    wiener,
)
from .transform import (
    MycielskianLayout,
    mu_degrees,
    mu_distance_matrix,
    mycielskian,
)
from .verify import (
    CLAIM_IDS,
    Failure,
    VerificationOutcome,
    verify_classes,
    verify_corpus,
    verify_graph,
)

__version__ = "0.1.0"
