"""Scramble orders, restricted connectivity, and chip-firing gonality
bounds for small multigraphs."""

from .chipfiring import (
    DivisorFileError,
    GonalityResult,
    SeparatorBound,
    StrongSeparatorReport,
    check_strong_separator,
    degree,
    fire_subset,
    fire_vertex,
    format_divisor,
    gonality_bruteforce,
    gonality_upper_by_separator,
    has_positive_rank,
    is_equivalent,
    parse_divisor,
    q_reduce,
)
from .flow import min_edge_cut
from .graphs import (
    INF,
    EdgeListError,
    InputFormatError,
    Multigraph,
    complete_bipartite,
    complete_graph,
    count_to_json,
    crown,
    cycle_graph,
    enumerate_connected_subsets,
    fmt_count,
    folded_cube,
    format_edge_list,
    generate,
    herschel_graph,
    hypercube,
    parse_edge_list,
    path_graph,
    random_connected_multigraph,
)
from .invariants import (
    component_independence_number,
    compute_invariant,
    independence_number,
    max_component_independent_set,
    min_connected_outdegree,
    restricted_edge_connectivity,
)
from .scramble import (
    HittingSearchResult,
    Scramble,
    ScrambleFileError,
    best_uniform_order,
    egg_cut_number,
    has_finite_egg_cut,
    hitting_number,
    hitting_search,
    make_scramble,
    parse_scramble,
    scramble_order,
    uniform_egg_cut_number,
    uniform_hitting_number,
    uniform_hitting_search,
    uniform_order_via_invariants,
    uniform_scramble,
)
from .verify import (
    CrossCheck,
    HypothesisCheck,
    TheoremReport,
    render_report,
    report_to_json,
    verify_bipartite,
    verify_girth_family,
    verify_main,
    verify_order_ek,
)

__version__ = "0.1.0"
