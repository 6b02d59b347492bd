"""Generator and machine verifier for a family of non-reconstructable tournaments.

For every order p = 2**n >= 4 the package builds a pair of antisymmetric
weighted matrices, the point-deletion mappings joining them, and the
digraph pairs obtained from proper binary assignments, and verifies all
of their defining identities exactly: by exhaustive scans, or, for the
hypomorphism identity, both digraph pairs, lemma 3 and the point-1
isomorphism, by a finite automaton over the binary digits of the points
at every order.  A dense deletion sweep
(``check_theorem1``, ``verify_hypomorphic_by_sigma``) is the library's
route to the same identities at small orders, and the automaton's oracle.
"""

from recon_census.deletion_maps import (
    build_all_maps,
    build_map,
    check_lemma2,
    extend_sigma_p1,
    sigma,
    sigma_reference,
    sigma_table_tsv,
    sigma_values,
)
from recon_census.digraph_builder import (
    BinaryAssignment,
    CensusRow,
    CensusTable,
    Digraph,
    apply_assignment,
    assignment_census,
    assignment_from_bits,
    assignment_from_mapping,
    forced_isomorphism,
    standard_pair,
    swap_involution,
    threshold_scores,
    tournament_assignment,
    variant_assignment,
    variant_pair,
)
from recon_census.errors import BudgetExhausted, ContradictionError
from recon_census.hypomorphism_verifier import (
    check_lemma3,
    check_theorem1,
    sample_theorem1,
)
from recon_census.iso_engine import (
    IsoStatus,
    IsoVerdict,
    NonIsoTrace,
    TraceStep,
    are_isomorphic,
    deck,
    decks_match_independent,
    verify_hypomorphic_by_sigma,
    verify_nonisomorphic_inductive,
)
from recon_census.report import SCHEMA_VERSION, VerificationReport
from recon_census.theorem1_automaton import decide_hypomorphisms, decide_theorem1
from recon_census.weight_matrix import (
    DENSE_ORDER_LIMIT,
    MatrixVariant,
    ORACLE_ORDER_LIMIT,
    WeightedMatrix,
    base_matrix,
    build_dense,
    check_lemma1,
    entry_at,
    entry_grid,
    entry_values,
    level_bound,
    order_exponent,
    sign_flip,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryAssignment",
    "BudgetExhausted",
    "CensusRow",
    "CensusTable",
    "ContradictionError",
    "DENSE_ORDER_LIMIT",
    "Digraph",
    "IsoStatus",
    "IsoVerdict",
    "MatrixVariant",
    "NonIsoTrace",
    "ORACLE_ORDER_LIMIT",
    "SCHEMA_VERSION",
    "TraceStep",
    "VerificationReport",
    "WeightedMatrix",
    "apply_assignment",
    "are_isomorphic",
    "assignment_census",
    "assignment_from_bits",
    "assignment_from_mapping",
    "base_matrix",
    "build_all_maps",
    "build_dense",
    "build_map",
    "check_lemma1",
    "check_lemma2",
    "check_lemma3",
    "check_theorem1",
    "deck",
    "decide_hypomorphisms",
    "decide_theorem1",
    "decks_match_independent",
    "entry_at",
    "entry_grid",
    "entry_values",
    "extend_sigma_p1",
    "forced_isomorphism",
    "level_bound",
    "order_exponent",
    "sample_theorem1",
    "sigma",
    "sigma_reference",
    "sigma_table_tsv",
    "sigma_values",
    "sign_flip",
    "standard_pair",
    "swap_involution",
    "threshold_scores",
    "tournament_assignment",
    "variant_assignment",
    "variant_pair",
    "verify_hypomorphic_by_sigma",
    "verify_nonisomorphic_inductive",
]
