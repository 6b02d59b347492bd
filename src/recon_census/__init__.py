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

import importlib

#: Each exported name and the module that defines it.  The package imports
#: a module when one of its names is first read (PEP 562), so importing the
#: package, or only the numpy-free ``blocks`` and ``cli``, loads no numpy.
_EXPORTS = {
    "BinaryAssignment": "blocks",
    "DENSE_ORDER_LIMIT": "blocks",
    "MatrixVariant": "blocks",
    "ORACLE_ORDER_LIMIT": "blocks",
    "assignment_from_mapping": "blocks",
    "order_exponent": "blocks",
    "tournament_assignment": "blocks",
    "variant_assignment": "blocks",
    "build_all_maps": "deletion_maps",
    "build_map": "deletion_maps",
    "check_lemma2": "deletion_maps",
    "extend_sigma_p1": "deletion_maps",
    "sigma": "deletion_maps",
    "sigma_reference": "deletion_maps",
    "sigma_table_tsv": "deletion_maps",
    "sigma_values": "deletion_maps",
    "CensusRow": "digraph_builder",
    "CensusTable": "digraph_builder",
    "Digraph": "digraph_builder",
    "apply_assignment": "digraph_builder",
    "assignment_census": "digraph_builder",
    "forced_isomorphism": "digraph_builder",
    "standard_pair": "digraph_builder",
    "swap_involution": "digraph_builder",
    "threshold_scores": "digraph_builder",
    "variant_pair": "digraph_builder",
    "BudgetExhausted": "errors",
    "ContradictionError": "errors",
    "check_lemma3": "hypomorphism_verifier",
    "check_theorem1": "hypomorphism_verifier",
    "sample_theorem1": "hypomorphism_verifier",
    "IsoStatus": "iso_engine",
    "IsoVerdict": "iso_engine",
    "NonIsoTrace": "iso_engine",
    "TraceStep": "iso_engine",
    "are_isomorphic": "iso_engine",
    "deck": "iso_engine",
    "decks_match_independent": "iso_engine",
    "verify_hypomorphic_by_sigma": "iso_engine",
    "verify_nonisomorphic_inductive": "iso_engine",
    "SCHEMA_VERSION": "report",
    "VerificationReport": "report",
    "decide_hypomorphisms": "theorem1_automaton",
    "WeightedMatrix": "weight_matrix",
    "build_dense": "weight_matrix",
    "check_lemma1": "weight_matrix",
    "entry_at": "weight_matrix",
    "entry_grid": "weight_matrix",
    "entry_values": "weight_matrix",
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted([*globals(), *_EXPORTS])
