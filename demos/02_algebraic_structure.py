"""Which sets make the restricted convolution a ring?

Commutativity and distributivity always hold. Associativity is the
interesting axiom: it holds exactly when membership at each prime is
upward-closed in the exponent. The squarefree sets break it, and the
break is witnessed by three concrete functions.
"""

import random

from sconv import (
    DEFAULT_SEED,
    associativity_violation_functions,
    is_associative,
    is_multiplicative,
    parse_sset,
    random_arith_func,
    s_convolve,
    s_convolve_at,
    zero_divisor_pair,
)

SPECS = ["N", "1", "Q2", "Q3", "L2", "L3", "P{2,3}"]


def main() -> None:
    print("structure verdicts:")
    for spec in SPECS:
        S = parse_sset(spec)
        mult = "yes" if is_multiplicative(S) else "no"
        av = is_associative(S)
        assoc = "yes" if av else f"no, witness triple {av.witness}"
        print(f"  S={spec:7s} multiplicative: {mult:3s}  associative: {assoc}")

    print("\nthe Q2 witness, made concrete:")
    S = parse_sset("Q2")
    f, g, h, n = associativity_violation_functions(is_associative(S).witness)
    lhs = s_convolve_at(S, s_convolve(S, f, g), h, n)
    rhs = s_convolve_at(S, f, s_convolve(S, g, h), n)
    print(f"  ((f*g)*h)({n}) = {lhs}   but   (f*(g*h))({n}) = {rhs}")

    print("\nzero divisors (the ring has them whenever some integer is excluded):")
    for spec in SPECS:
        z = zero_divisor_pair(parse_sset(spec))
        if z is None:
            print(f"  S={spec:7s} none: every gcd value is admitted")
        else:
            print(f"  S={spec:7s} indicator of {z.excluded} squares to zero "
                  f"(checked exactly at n = {z.checked_at}: its one candidate term)")

    print("\nrandom sanity pass (seeded):")
    rng = random.Random(DEFAULT_SEED)
    f = random_arith_func(rng, 60)
    g = random_arith_func(rng, 60)
    for spec in SPECS:
        S = parse_sset(spec)
        sym = all(s_convolve_at(S, f, g, n) == s_convolve_at(S, g, f, n)
                  for n in range(1, 61))
        print(f"  S={spec:7s} f*g == g*f on 1..60: {sym}")


if __name__ == "__main__":
    main()
