"""Perfect pseudo-matchings in cubic graphs.

Snark family generators, pseudo-matching classification (planarizing /
K5-minor-free), contraction to transitioned eulerian graphs, compatible
cycle decompositions and cycle double covers, pseudo-matching-avoiding
drawings, and the crossing-replacement construction.
"""

from .canonical import CanonicalForm, are_isomorphic, canonical_form
from .coloring import EdgeColoring, coloring_is_proper, find_3_edge_coloring, is_snark
from .connectivity import cyclic_cuts_up_to, cyclic_edge_connectivity_at_least
from .constructions import (
    CrossingReplacementRecord,
    InjectivityReport,
    StarResult,
    extend_cdc,
    injectivity_experiment,
    replace_crossing,
    star_construction,
    suppress_degree_two,
    through_path_subgraph,
)
from .cycles import (
    CCD,
    CDC,
    Cycle,
    CycleSet,
    cdc_from_ccd,
    ccd_from_coloring,
    chromatic_number,
    cycle_from_vertices,
    cycles_containing,
    enumerate_ccds,
    find_ccd,
    find_dominating_cycles,
    intersection_graph,
    is_dominating,
    is_stable,
    sabidussi_reduce,
    verify_ccd_compatible,
    verify_cycle_set,
)
from .drawing import (
    Drawing,
    crossings_component_local,
    draw_m_avoiding,
    drawing_to_dot,
    seek_planarizing_drawing,
    validate_drawing,
)
from .embedding import PlanarEmbedding
from .eulerian import Association, associate, eulerian_trail_transitions
from .families import (
    BlanusaBlock,
    FamilyInstance,
    blanusa_snark,
    flower_graph,
    flower_snark,
    goldberg_snark,
    petersen,
)
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .minors import KMinorUndecidedError, has_k5_minor, is_planar, planar
from .multigraph import (
    CubicGraph,
    GraphError,
    Multigraph,
    parse_edge_list,
    write_edge_list,
)
from .ppm import (
    ClawComponent,
    ContractedGraph,
    K2Component,
    K5_MINOR_FREE_ONLY,
    NEITHER,
    PLANARIZING,
    PseudoMatching,
    TransitionSystem,
    classify_ppm,
    complement_cycles,
    contract,
    enumerate_ppms,
    parse_ppm,
    ppm_from_dominating_cycle,
    quotient,
    quotient_skeleton,
    validate_ppm,
    write_ppm,
)
