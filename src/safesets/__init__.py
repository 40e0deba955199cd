"""Exact weighted safe set computations on small graphs, recognition of the
graph families where the connected variant never costs more, and tooling to
certify the graphs where it does."""

from .campaign import run_characterization_campaign, study_graph
from .contraction import (
    PatternMatch,
    QuotientGraph,
    beta,
    find_pattern,
    lift_weights,
    pattern_graph,
    quotient_of_partition,
    validate_match,
)
from .enumerate import enumerate_connected_graphs
from .family import (
    FamilyClassification,
    MEMBER,
    NON_MEMBER,
    UNDECIDED,
    build_d_family,
    classify,
    classify_bipartite,
    classify_chordal,
    recognize_d_family,
)
from .graph import Graph, InputError, components, is_connected, vlist, vset
from .graph6 import parse_graph6, to_graph6
from .solver import (
    SafeSetSolution,
    all_minimum_safe_sets,
    is_safe_set,
    solve_pair,
)
from .weights import make_weights, parse_rational, parse_weights_json
from .witness import (
    WitnessCertificate,
    WitnessParams,
    certify_non_membership,
    default_params,
    verify_certificate,
    weights_for_h1,
    weights_for_h2,
    weights_for_h3,
    weights_for_kmn,
)

__version__ = "0.1.0"

__all__ = [
    "FamilyClassification",
    "Graph",
    "InputError",
    "MEMBER",
    "NON_MEMBER",
    "PatternMatch",
    "QuotientGraph",
    "SafeSetSolution",
    "UNDECIDED",
    "WitnessCertificate",
    "WitnessParams",
    "all_minimum_safe_sets",
    "beta",
    "build_d_family",
    "certify_non_membership",
    "classify",
    "classify_bipartite",
    "classify_chordal",
    "components",
    "default_params",
    "enumerate_connected_graphs",
    "find_pattern",
    "is_connected",
    "is_safe_set",
    "lift_weights",
    "make_weights",
    "parse_graph6",
    "parse_rational",
    "parse_weights_json",
    "pattern_graph",
    "quotient_of_partition",
    "recognize_d_family",
    "run_characterization_campaign",
    "solve_pair",
    "study_graph",
    "to_graph6",
    "validate_match",
    "verify_certificate",
    "vlist",
    "vset",
    "weights_for_h1",
    "weights_for_h2",
    "weights_for_h3",
    "weights_for_kmn",
]
