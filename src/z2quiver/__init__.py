"""Exact quiver computations for representations of free products of
order-2 groups: component and orbit censuses, the character quiver and its
Euler matrices, simplicity and smoothness classification, local quiver
settings with their degeneration graphs, and DOT/JSON/CSV export."""

from .combinat import (
    DimVector,
    bn_canonicalize,
    multiset_coeff,
    parse_dim_vector,
    parse_subset,
    subset_str,
)
from .freeprod import (
    CharacterMultiset,
    build_one_quiver,
    build_Qn,
    chain_of,
    component_count,
    is_iss_smooth,
    is_simple_alpha,
    is_simple_alpha_oracle,
    iss_dim,
    one_quiver_euler_closed,
    orbit_count,
    orbit_representatives,
    parse_characters,
    simple_alpha_report,
    treelike_census,
)
from .localquiver import (
    DegenerationGraph,
    LocalSetting,
    count_settings_for_young,
    degenerates_class,
    degeneration_graph,
    elementary_moves,
    enumerate_settings,
    graph_json_obj,
    local_euler_matrix,
    local_quiver,
    setting_json_obj,
    smooth_point,
    young_diagram_slice,
)
from .quiver import (
    Quiver,
    QuiverSetting,
    UnsupportedInputError,
    euler_form,
    is_simple_dimvector,
    is_smooth_setting,
    is_strongly_connected,
    support,
)

__version__ = "0.1.0"
