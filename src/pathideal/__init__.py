"""Path ideals of the line graph: exact Betti tables, closed forms, topology."""

from .betti import (
    BettiTable,
    betti_hochster,
    betti_interval,
    betti_table,
    betti_taylor_tor,
    depth_of,
    invariants_of,
)
from .caps import CapExceeded
from .complexes import SimplicialComplex, reduced_homology_dims
from .fields import GF2, QQ, FieldSpec, parse_field
from .monomials import (
    Monomial,
    MonomialIdeal,
    contains,
    ideal_from_text,
    ideal_intersect,
    ideal_product_disjoint,
    ideal_sum,
    ideal_to_text,
    minimalize,
)
from .pathfamily import (
    Branch,
    FormulaResult,
    PathParams,
    Regime,
    classify,
    classify_branch,
    formula_depth,
    formula_full_path,
    formula_pd,
    formula_reg,
    formula_result,
    make_full_path_ideal,
    make_path_ideal,
)
from .splitting import (
    DisjointReport,
    FhtResult,
    SplitCase,
    fht_condition,
    has_linear_resolution,
    is_betti_splitting,
    splitting_invariant_bounds,
    verify_disjoint_identities,
)
from .topology import (
    Clutter,
    clutter_from_text,
    clutter_of,
    cover_complex,
    find_shelling,
    free_vertex_property,
    has_free_vertex,
    is_interval_clutter,
    is_sequentially_cm,
    is_shelling,
    minimal_vertex_covers,
)

__version__ = "0.1.0"
