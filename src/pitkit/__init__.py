"""Blackbox polynomial identity testing via algebraic independence.

The pieces fit together like this: polynomials.SparsePoly is the exact
arithmetic core; independence computes transcendence degrees and
annihilators with re-checkable certificates; varmaps builds substitutions
to few variables that provably keep the transcendence degree; depth4
decomposes powered-product circuits and certifies structure-preserving
reductions; hitting turns all of that into deterministic point sets and a
PIT driver; cli exposes the lot as the `pitkit` command.
"""

from .fields import DEFAULT_PRIME, FieldError, FieldSpec
from .polynomials import (
    BudgetExceeded,
    ExactDivisionError,
    ParseError,
    SparsePoly,
    divide_exact,
    divides,
    gcd_poly,
    normalize_monic,
    poly_from_text,
    poly_to_text,
)
from .circuits import (
    Circuit,
    ComposedCircuit,
    Depth4Circuit,
    circuit_from_json_dict,
)
from .independence import (
    TrdegCertificate,
    annihilator,
    jacobian,
    trdeg,
    verify_trdeg_certificate,
)
from .varmaps import (
    AffineMap,
    FaithfulResult,
    KroneckerMap,
    ParamSchedule,
    SearchExhausted,
    VandermondeMap,
    ceil_log2,
    map_from_json_dict,
    schedule,
    search_kronecker_map,
    search_vandermonde_map,
)
from .depth4 import (
    CoprimeBasis,
    Depth4MapResult,
    coprime_basis,
    gcd_and_simple_part,
    gcd_part,
    is_minimal,
    lift_identity,
    rank as depth4_rank,
    search_depth4_map,
    simple_part,
    verify_simple_preservation,
)
from .hitting import (
    HittingSet,
    PitVerdict,
    bad_prime_bound,
    bad_prime_census,
    hitting_set_arbitrary_char,
    hitting_set_depth4,
    hitting_set_sparse_inputs,
    pit,
    pit_circuit,
    sz_grid,
)
from .primes import is_prime, iter_primes, primes_in

__all__ = [
    "DEFAULT_PRIME",
    "FieldError",
    "FieldSpec",
    "BudgetExceeded",
    "ExactDivisionError",
    "ParseError",
    "SparsePoly",
    "divide_exact",
    "divides",
    "gcd_poly",
    "normalize_monic",
    "poly_from_text",
    "poly_to_text",
    "Circuit",
    "ComposedCircuit",
    "Depth4Circuit",
    "circuit_from_json_dict",
    "TrdegCertificate",
    "annihilator",
    "jacobian",
    "trdeg",
    "verify_trdeg_certificate",
    "AffineMap",
    "FaithfulResult",
    "KroneckerMap",
    "ParamSchedule",
    "SearchExhausted",
    "VandermondeMap",
    "ceil_log2",
    "map_from_json_dict",
    "schedule",
    "search_kronecker_map",
    "search_vandermonde_map",
    "CoprimeBasis",
    "Depth4MapResult",
    "coprime_basis",
    "depth4_rank",
    "gcd_and_simple_part",
    "gcd_part",
    "is_minimal",
    "lift_identity",
    "search_depth4_map",
    "simple_part",
    "verify_simple_preservation",
    "HittingSet",
    "PitVerdict",
    "bad_prime_bound",
    "bad_prime_census",
    "hitting_set_arbitrary_char",
    "hitting_set_depth4",
    "hitting_set_sparse_inputs",
    "pit",
    "pit_circuit",
    "sz_grid",
    "is_prime",
    "iter_primes",
    "primes_in",
]
