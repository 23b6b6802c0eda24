"""S-convolutions of arithmetical functions.

For a set S of positive integers, call d an S-divisor of n when d | n and
gcd(d, n/d) lies in S. The S-convolution

    (f * g)(n) = sum over S-divisors d of n of f(d) g(n/d)

interpolates between the Dirichlet convolution (S = all of N) and the
unitary convolution (S = {1}). This package provides the operator algebra
with its structure tests and witnesses, the Moebius companions mu_S, the
S-inverse of 1 and its k-full case mu_k, the Dirichlet series zeta_S, the
restricted divisor functions tau_S / sigma_S / phi_S with identity
cross-checks and bulk sieves, and numerical verification of their
average and maximal orders.
"""

from .arith import (
    divisors,
    eval_multiplicative,
    factorize,
    multiplicative_table,
    prime_array,
    sieve_primes,
)
from .asymptotics import (
    EULER_GAMMA,
    AsymptoticReport,
    MaximalConstant,
    WitnessSequence,
    asymptotic_report,
    gronwall_range_max,
    sigma_main_term,
    sigma_maximal_constant,
    sigma_maximal_constant_uniform,
    tau_main_term,
    tau_maximal_ratio,
    witness_sequence,
)
from .convolve import (
    DEFAULT_SEED,
    NAMED_FUNCTIONS,
    ArithFunc,
    ZeroDivisorPair,
    associativity_violation_functions,
    indicator,
    random_arith_func,
    random_multiplicative_func,
    s_convolve,
    s_convolve_at,
    s_convolve_table,
    s_divisors,
    s_inverse,
    zero_divisor_pair,
)
from .divisor_functions import (
    phi_S_at,
    phi_S_table,
    sigma_S_at,
    sigma_S_prime_power,
    sigma_S_table,
    tau_S_at,
    tau_S_table,
)
from .errors import ConsistencyError, LimitError, ParseError
from .mobius import (
    MuKStatistics,
    ZetaEvaluation,
    inverse_of_I,
    mu_k_at,
    mu_k_prime_power,
    mu_k_statistics,
    mu_set_at,
    mu_set_table,
    mu_table,
    verify_mobius_identity,
    zeta_S,
    zeta_S_derivative,
)
from .sets import (
    ExponentRule,
    GeneralSSet,
    MultiplicativeSSet,
    PrimeClassification,
    SSet,
    Verdict,
    check_assoc_identity,
    classify_prime,
    is_associative,
    is_multiplicative,
    make_general_sset,
    make_mult_sset,
    parse_sset,
    rho,
    rho_table,
)

__version__ = "0.1.0"

__all__ = [
    "ArithFunc", "AsymptoticReport", "ConsistencyError", "DEFAULT_SEED",
    "EULER_GAMMA", "ExponentRule",
    "GeneralSSet", "LimitError", "MaximalConstant", "MuKStatistics",
    "MultiplicativeSSet", "NAMED_FUNCTIONS", "ParseError",
    "PrimeClassification", "SSet", "Verdict", "WitnessSequence",
    "ZeroDivisorPair", "ZetaEvaluation", "associativity_violation_functions",
    "asymptotic_report",
    "check_assoc_identity", "classify_prime", "divisors",
    "eval_multiplicative", "factorize",
    "gronwall_range_max", "indicator", "inverse_of_I", "is_associative",
    "is_multiplicative", "make_general_sset", "make_mult_sset", "mu_k_at",
    "mu_k_prime_power", "mu_k_statistics", "mu_set_at", "mu_set_table",
    "mu_table", "multiplicative_table",
    "parse_sset", "phi_S_at", "phi_S_table", "prime_array",
    "random_arith_func", "random_multiplicative_func", "rho",
    "rho_table", "s_convolve", "s_convolve_at", "s_convolve_table",
    "s_divisors", "s_inverse", "sieve_primes", "sigma_S_at",
    "sigma_S_prime_power", "sigma_S_table",
    "sigma_main_term", "sigma_maximal_constant",
    "sigma_maximal_constant_uniform", "tau_S_at", "tau_S_table",
    "tau_main_term", "tau_maximal_ratio",
    "verify_mobius_identity", "witness_sequence",
    "zero_divisor_pair", "zeta_S", "zeta_S_derivative",
]
