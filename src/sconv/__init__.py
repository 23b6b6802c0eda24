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

`import sconv` loads arith and errors, which every module needs (numpy
comes with arith). Every other name below is imported from its module on
first access (PEP 562), so a caller, or a CLI command, compiles only the
modules it uses. _EXPORTS is the one list of public names: __all__ and
dir() are read from it.
"""

import importlib

from . import arith, errors  # eager: every module imports both

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("divisors", "eval_multiplicative", "factorize", "multiplicative_table",
              "prime_array", "sieve_primes"),
    "errors": ("ConsistencyError", "LimitError", "ParseError"),
    "sets": ("ExponentRule", "GeneralSSet", "MultiplicativeSSet", "PrimeClassification",
             "SSet", "Verdict", "check_assoc_identity", "classify_prime", "is_associative",
             "is_multiplicative", "make_general_sset", "make_mult_sset", "parse_sset",
             "rho", "rho_table", "s_divisors"),
    "convolve": ("DEFAULT_SEED", "NAMED_FUNCTIONS", "ArithFunc", "ZeroDivisorPair",
                 "associativity_violation_functions", "indicator", "normalized_unit",
                 "random_arith_func", "random_multiplicative_func", "s_convolve",
                 "s_convolve_at", "s_convolve_table", "s_inverse", "zero_divisor_pair"),
    "mobius": ("MuKStatistics", "ZetaEvaluation", "inverse_of_I", "mu_k_at",
               "mu_k_prime_power", "mu_k_statistics", "mu_set_at", "mu_set_table",
               "mu_table", "verify_mobius_identity", "zeta_S", "zeta_S_derivative"),
    "divisor_functions": ("phi_S_at", "phi_S_table", "sigma_S_at", "sigma_S_prime_power",
                          "sigma_S_table", "tau_S_at", "tau_S_table"),
    "asymptotics": ("EULER_GAMMA", "AsymptoticReport", "MaximalConstant", "WitnessSequence",
                    "asymptotic_report", "gronwall_range_max", "sigma_main_term",
                    "sigma_maximal_constant", "sigma_maximal_constant_uniform",
                    "tau_main_term", "tau_maximal_ratio", "witness_sequence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
