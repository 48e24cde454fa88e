"""Recovering hidden operation tables from oracle queries.

The package has three layers:

* `algebra` builds canonical tables (abelian groups, max tables of chains,
  small rings and finite fields) and checks their axioms.
* `oracle` hides a relabeled table behind a counting query interface, and
  `recovery` reconstructs it within proved worst case budgets.
* `bounds` computes candidate counts and information lower bounds, while
  `treesearch` finds exactly optimal query trees on small instances.
"""

from .algebra import (
    AbelianSpec,
    MaxChainSpec,
    OpTable,
    RingSpec,
    RingTables,
    StructureSpec,
    abelian_invariant_factorizations,
    abelian_type,
    build_abelian,
    build_gf,
    build_max_chain,
    build_ring,
    build_zn_ring,
    canonical_table,
    check_axioms,
    count_automorphisms,
    count_ring_automorphisms,
    distributive_laws_hold,
    invariant_factors_from_cyclic,
    is_prime,
)
from .bounds import (
    BoundsReport,
    abelian_automorphism_count,
    abelian_lower_bound,
    average_query_lower_bound,
    bounds_for_abelian,
    bounds_for_max_chain,
    bounds_for_ring,
    family_orbit_size,
    field_lower_bound,
    max_chain_lower_bound,
    multiplication_orbit_size,
    orbit_size,
    reports_to_csv,
)
from .errors import CapabilityError, NotInClassError, ValidationError
from .oracle import (
    HiddenInstance,
    HiddenRingInstance,
    Oracle,
    load_instance,
    load_transcript,
    new_hidden,
    new_hidden_ring,
    oracle_for,
    random_permutation,
    replay_matches,
    ring_oracles,
    save_instance,
    save_transcript,
    verify_recovery,
)
from .recovery import (
    METHODS,
    RecoveryResult,
    greedy_generating_set,
    merge_sort_worst_case,
    query_budget,
    recover_abelian,
    recover_abelian_prime,
    recover_max_chain,
    recover_order11,
    recover_ring_full,
    recover_ring_multiplication,
)
from .treesearch import (
    Leaf,
    Node,
    OperationSet,
    SearchStats,
    TreeColumns,
    enumerate_orbit,
    minimal_worst_case,
    render_tree,
    tree_from_dict,
    tree_stats,
    tree_to_dict,
    verify_query_tree,
)

__version__ = "0.1.0"
