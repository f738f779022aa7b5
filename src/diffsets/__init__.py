"""Exact toolkit for abelian difference sets with projective-geometry
parameters: Singer construction, verification, subgroup dissection,
multiplier and intersection-number tests, and exhaustive search."""

from .analysis import (MannWitness, MultiplierReport, TheoremReport,
                       check_dintk, check_hk, check_lemma_mfix,
                       check_lemma_size, check_main, check_minimal_embedding,
                       check_ho, check_planar_subset,
                       check_thm_classical_profile, check_tower_restriction,
                       conjecture_scan, hall_check, is_multiplier,
                       main_theorem_hypotheses, mann_test)
from .dset import (DifferenceSet, Params, VerificationReport,
                   classical_params, difference_counts,
                   distribution_bound_check, intersection_profile,
                   make_difference_set, normalize, read_set_file, restrict,
                   translate, verify, write_set_file)
from .field import FieldSizeError, FiniteField, make_field
from .groups import (AbelianGroup, GroupSizeError, Subgroup,
                     cyclic_subgroup_of_order, generated_subgroup,
                     multiplier_orbits, parse_group, subgroup_as_group,
                     subgroups_of_order, sylow)
from .search import (SearchResult, SearchSpec, brute_force_search,
                     canonical_class, orbit_union_search)
from .singer import hyperplane_containment, singer_construct, singer_restriction

__version__ = "1.0.0"

__all__ = [
    "AbelianGroup", "DifferenceSet", "FieldSizeError", "FiniteField",
    "GroupSizeError", "MannWitness", "MultiplierReport", "Params",
    "SearchResult", "SearchSpec", "Subgroup", "TheoremReport",
    "VerificationReport", "brute_force_search", "canonical_class",
    "check_dintk", "check_hk", "check_ho", "check_lemma_mfix",
    "check_lemma_size", "check_main", "check_minimal_embedding",
    "check_planar_subset", "check_thm_classical_profile",
    "check_tower_restriction", "classical_params",
    "conjecture_scan", "cyclic_subgroup_of_order", "difference_counts",
    "distribution_bound_check", "generated_subgroup", "hall_check",
    "hyperplane_containment", "intersection_profile", "is_multiplier",
    "main_theorem_hypotheses", "make_difference_set", "make_field",
    "mann_test", "multiplier_orbits", "normalize", "orbit_union_search",
    "parse_group", "read_set_file", "restrict", "singer_construct",
    "singer_restriction", "subgroup_as_group", "subgroups_of_order", "sylow", "translate",
    "verify", "write_set_file",
]
