"""Abelian primitive words: recognition, roots, constructions, counting.

A word is an Abelian k-th power when it splits into k equal-length
blocks whose letter counts all agree; a word that is no such power for
any k >= 2 is Abelian primitive (A-primitive). This package decides
A-primitivity, enumerates A-roots, builds words with prescribed root
structure, counts A-primitive words exactly, and tests the related
block-equivalence relations.
"""

from .constructions import (
    FAMILIES,
    ConstructionBudgetError,
    ConstructionSpec,
    antichain_word,
    first_primes,
    is_in_M,
    m_word,
    multiroot_word,
)
from .counting import (
    DEFAULT_BUDGET,
    CountRow,
    CountTable,
    EnumerationBudgetError,
    count_table,
    delta,
    delta_prime_power,
    psi,
    psi_a,
)
from .numtheory import (
    Factorization,
    arith,
    divisors,
    factorize,
    is_division_free,
    is_prime,
    middle_antichain,
    mobius,
    multiples_closure,
)
from .parikh import (
    ParikhVector,
    Word,
    block_parikhs,
    has_a_root_of_length,
    parikh,
)
from .primitivity import (
    PrimitivityVerdict,
    is_a_primitive,
    is_a_primitive_linear,
    is_a_primitive_oracle,
)
from .relations import (
    CommutationWitness,
    commute_check,
    shared_root_check,
    sim_n,
    simeq_n,
    witness_is_valid,
)
from .roots import (
    RootProfile,
    a_primitive_roots,
    count_distinct_a_primitive_roots,
    root_profile,
)

__version__ = "0.1.0"

__all__ = [
    "CommutationWitness",
    "ConstructionBudgetError",
    "ConstructionSpec",
    "CountRow",
    "CountTable",
    "DEFAULT_BUDGET",
    "EnumerationBudgetError",
    "FAMILIES",
    "Factorization",
    "ParikhVector",
    "PrimitivityVerdict",
    "RootProfile",
    "Word",
    "a_primitive_roots",
    "antichain_word",
    "arith",
    "block_parikhs",
    "commute_check",
    "count_distinct_a_primitive_roots",
    "count_table",
    "delta",
    "delta_prime_power",
    "divisors",
    "factorize",
    "first_primes",
    "has_a_root_of_length",
    "is_a_primitive",
    "is_a_primitive_linear",
    "is_a_primitive_oracle",
    "is_division_free",
    "is_in_M",
    "is_prime",
    "m_word",
    "middle_antichain",
    "mobius",
    "multiples_closure",
    "multiroot_word",
    "parikh",
    "psi",
    "psi_a",
    "root_profile",
    "shared_root_check",
    "sim_n",
    "simeq_n",
    "witness_is_valid",
]
