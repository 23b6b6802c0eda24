"""Sets of positive integers with decidable membership, used to restrict
which divisor pairs a convolution may use.

A set S is "multiplicative" when 1 is in S and its indicator rho_S is a
multiplicative function; membership of p^a then depends only on (p, a), so S
is described by one exponent rule per prime. Rules:

    all         every exponent a >= 1 in S
    none        no exponent in S
    below k     a in S iff a < k          (k-free local part, k >= 2)
    at_least e  a in S iff a >= e         (e-full local part, e >= 2)
    finite F    a in S iff a in F         (finite exponent set)

Sets that are not of this shape (or not known to be) are held as an explicit
membership table up to a bound. A verdict about them holds to that bound,
unless a witness makes it an absolute "no"; with 1 in S, associativity is
decided per prime as for the rules, on the exponents the bound reaches.

Text expressions (--sset in the CLI):

    N           all positive integers
    1           just {1}
    Qk          k-free integers, e.g. Q2 = squarefree
    Lk          k-full integers, e.g. L2 = squarefull
    P{2,3}      products of powers of the listed primes (and 1)
    F{1,2,6}    explicit finite membership list
    FILE:path   explicit membership from a file: "bound B", then the
                members (ASCII decimal), separated by whitespace,
                conventionally one per line
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .arith import (
    _abs_max,
    divisors,
    eval_multiplicative,
    factorize,
    is_prime,
    multiplicative_table,
    sieve_primes,
)
from .errors import ConsistencyError, LimitError, ParseError

MAX_FINITE_EXPONENT = 64   # largest member a finite exponent rule may list
DEFAULT_FINITE_BOUND = 100
_SCAN_BLOCK = 1 << 16  # bounds the temporaries of coprime_product_failure
POINTWISE_SPAN = 1000  # lo..hi with hi - lo below this: pointwise beats a table to hi


@dataclass(frozen=True)
class ExponentRule:
    kind: str  # 'all' | 'none' | 'below' | 'at_least' | 'finite'
    k: int = 0
    members: frozenset[int] = frozenset()

    @staticmethod
    def all_() -> "ExponentRule":
        return ExponentRule("all")

    @staticmethod
    def none_() -> "ExponentRule":
        return ExponentRule("none")

    @staticmethod
    def below(k: int) -> "ExponentRule":
        if k < 1:
            raise ParseError(f"below-rule needs k >= 1, got {k}")
        if k == 1:
            return ExponentRule("none")  # a < 1 never holds
        return ExponentRule("below", k=k)

    @staticmethod
    def at_least(e: int) -> "ExponentRule":
        if e < 1:
            raise ParseError(f"at-least rule needs e >= 1, got {e}")
        if e == 1:
            return ExponentRule("all")  # a >= 1 always holds
        return ExponentRule("at_least", k=e)

    @staticmethod
    def finite(members) -> "ExponentRule":
        ms = frozenset(int(a) for a in members)
        if any(a < 1 for a in ms):
            raise ParseError("finite exponent rule members must be >= 1")
        if not ms:
            return ExponentRule("none")
        if max(ms) > MAX_FINITE_EXPONENT:
            raise LimitError(
                f"finite exponent rule deeper than {MAX_FINITE_EXPONENT} unsupported"
            )
        return ExponentRule("finite", members=ms)

    def contains(self, a: int) -> bool:
        """Is exponent a >= 1 admitted at this prime?"""
        if a < 1:
            raise ValueError("exponent must be >= 1")
        if self.kind == "all":
            return True
        if self.kind == "none":
            return False
        if self.kind == "below":
            return a < self.k
        if self.kind == "at_least":
            return a >= self.k
        return a in self.members

    def least_excluded(self) -> int | None:
        """Least a >= 1 not admitted; None when the rule admits everything."""
        if self.kind == "all":
            return None
        if self.kind == "none" or self.kind == "at_least":
            return 1
        if self.kind == "below":
            return self.k
        a = 1
        while a in self.members:
            a += 1
        return a

    def settled_from(self) -> int:
        """Least exponent a >= 1 from which membership no longer changes."""
        return max(self.members) + 1 if self.kind == "finite" else max(self.k, 1)


@dataclass(frozen=True)
class MultiplicativeSSet:
    default_rule: ExponentRule
    overrides: dict[int, ExponentRule] = field(default_factory=dict)

    def rule_at(self, p: int) -> ExponentRule:
        return self.overrides.get(p, self.default_rule)

    def rho_prime_power(self, p: int, a: int) -> int:
        if a == 0:
            return 1
        return 1 if self.rule_at(p).contains(a) else 0

    def mu_prime_power(self, p: int, a: int) -> int:
        """mu_S(p^a) = rho_S(p^a) - rho_S(p^(a-1)), for a >= 1."""
        return self.rho_prime_power(p, a) - self.rho_prime_power(p, a - 1)

    def rho_primes(self, q: np.ndarray) -> np.ndarray:
        """SSet.rho_primes: the default rule's value, patched at the overrides."""
        out = np.full(len(q), self.default_rule.contains(1))
        for p, r in self.overrides.items():  # the slice is [i] when q[i] == p, else empty
            out[q.searchsorted(p) : q.searchsorted(p, "right")] = r.contains(1)
        return out

    def least_default_prime(self) -> int:
        """Least prime without an override, i.e. governed by default_rule."""
        p = 2
        while p in self.overrides or not is_prime(p):
            p += 1
        return p


@dataclass(frozen=True, eq=False)
class GeneralSSet:
    """Membership to bound (built by make_general_sset): members is sorted,
    duplicate-free, read-only int64; equal only to itself, its multiplicativity
    verdict computed once."""

    bound: int
    members: np.ndarray

    def __contains__(self, m: int) -> bool:
        i = self.members.searchsorted(min(m, (1 << 63) - 1))
        return bool(i < len(self.members) and self.members[i] == m)

    def table(self, limit: int, dtype=np.int64) -> np.ndarray:
        """0/1 indicator on 0..limit, limit <= bound."""
        t = np.empty(limit + 1, dtype=dtype)
        self.fill(t, 0)
        return t

    def fill(self, out: np.ndarray, a: int) -> None:
        """The 0/1 indicator of a .. a + len(out) - 1 written into out, from
        the slice of members in that window; the window lies inside 0..bound."""
        i, j = self.members.searchsorted((a, a + len(out)))
        out.fill(0)
        out[self.members[i:j] - a if a else self.members[i:j]] = 1

    def rho_prime_power(self, p: int, a: int) -> int:
        """Membership of p^a; LimitError past the bound."""
        if p ** a > self.bound:
            raise LimitError(f"membership of {p}^{a} unknown past bound {self.bound}")
        return int(p ** a in self)

    def rho_primes(self, q: np.ndarray) -> np.ndarray:
        """Membership of each entry of q, one searchsorted; LimitError past the bound."""
        if q.max(initial=0) > self.bound:
            raise LimitError(f"membership of {q.max()} unknown past bound {self.bound}")
        at = self.members.searchsorted(q)
        hit = at < len(self.members)
        hit[hit] = self.members[at[hit]] == q[hit]
        return hit

    def multiplicative_failure(self, limit: int) -> tuple | None:
        """None if 1 is in S and rho_S is multiplicative on 1..limit <= bound,
        else (1, 1) without 1, or coprime_product_failure's pair."""
        return coprime_product_failure(self.table(limit, bool), limit) if 1 in self else (1, 1)

    @cached_property
    def multiplicative(self) -> Verdict:
        w = self.multiplicative_failure(self.bound)
        return Verdict(w is None, bound=self.bound, witness=w)


@dataclass(frozen=True)
class SSet:
    """A set descriptor: exactly one of (mult, general) is set.

    spec is the canonical text form. The builtin forms (N, 1, Qk, Lk,
    P{..}, F{..}, FILE:path) parse back through parse_sset; the <...> form
    of other rule-based sets is descriptive (distinct rules give distinct
    text) and does not parse.
    """

    spec: str
    mult: MultiplicativeSSet | None = None
    general: GeneralSSet | None = None

    def rho_prime_power(self, p: int, a: int) -> int:
        """Membership of p^a, from the exponent rule or the table."""
        return (self.mult or self.general).rho_prime_power(p, a)

    def rho_primes(self, q: np.ndarray) -> np.ndarray:
        """rho_S at each prime of the ascending int64 array q, as a bool array."""
        return (self.mult or self.general).rho_primes(q)

    def multiplicative_to(self, limit: int) -> bool:
        """Does S hold 1 with rho_S multiplicative on 1..limit? A rule-based S
        always does; a table-backed S not past its bound (membership unknown)."""
        g = self.general
        return g is None or limit <= g.bound and g.multiplicative_failure(limit) is None


@dataclass(frozen=True)
class Verdict:
    """Result of a structural property check.

    holds      the property as far as it could be decided
    bound      None for an absolute verdict; else verified for inputs <= bound
    witness    a counterexample tuple when holds is False, if one was found
    """

    holds: bool
    bound: int | None = None
    witness: tuple | None = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class PrimeClassification:
    """How a single prime sits inside a multiplicative set.

    case is one of 'all-in', 'all-out', 'threshold' (no small powers, then
    everything from threshold up), or 'not-upward-closed'. least_excluded is
    the least a with p^a outside S, defined unless the prime is all-in.
    """

    prime: int
    case: str
    threshold: int | None = None
    least_excluded: int | None = None


# ---------------------------------------------------------------------------
# parsing / rendering

_BUILTIN_MULT = {
    "N": lambda: MultiplicativeSSet(ExponentRule.all_()),
    "1": lambda: MultiplicativeSSet(ExponentRule.none_()),
}


def _parse_int_list(body: str, what: str) -> list[int]:
    if not re.fullmatch(r"\s*\d+\s*(?:,\s*\d+\s*)*", body):
        raise ParseError(f"bad {what} list {body!r}")
    return list(map(int, body.split(",")))


def _canonical_mult_spec(m: MultiplicativeSSet) -> str:
    d = m.default_rule
    ov = {p: r for p, r in m.overrides.items() if r != d}
    if not ov:
        if d.kind == "all":
            return "N"
        if d.kind == "none":
            return "1"
        if d.kind == "below":
            return f"Q{d.k}"
        if d.kind == "at_least":
            return f"L{d.k}"
    if d.kind == "none" and ov and all(r.kind == "all" for r in ov.values()):
        return "P{" + ",".join(str(p) for p in sorted(ov)) + "}"
    # programmatic shape with no text form; describe it (not re-parseable)
    parts = [f"default={_rule_text(d)}"]
    parts += [f"{p}:{_rule_text(r)}" for p, r in sorted(ov.items())]
    return "<" + " ".join(parts) + ">"


def _rule_text(r: ExponentRule) -> str:
    """kind, then k (below, at_least) or the members (finite): below3, finite{1,3}."""
    if r.kind == "finite":
        return "finite{" + ",".join(str(a) for a in sorted(r.members)) + "}"
    return f"{r.kind}{r.k or ''}"


def make_mult_sset(default_rule: ExponentRule, overrides: dict[int, ExponentRule] | None = None) -> SSet:
    m = MultiplicativeSSet(default_rule, dict(overrides or {}))
    return SSet(spec=_canonical_mult_spec(m), mult=m)


def make_general_sset(members, bound: int, spec: str | None = None) -> SSet:
    """Table-backed set of the given members (ints, or decimal str or bytes)
    with membership known to bound; spec defaults to the F{...} form. A
    signed-integer ndarray is taken whole; any other iterable is read one
    member at a time."""
    if bound < 1:
        raise ParseError("bound must be >= 1")
    try:
        if isinstance(members, np.ndarray) and members.dtype.kind == "i":
            a = np.sort(np.asarray(members, dtype=np.int64))
        else:
            a = np.sort(np.fromiter(members, dtype=np.int64))
    except OverflowError as exc:
        raise ParseError(f"set members must fit int64: {exc}") from exc
    a = np.delete(a, np.flatnonzero(a[1:] == a[:-1]))
    bad = a[(a < 1) | (a > bound)]
    if len(bad):
        raise ParseError(f"members outside 1..{bound}: {bad[:5].tolist()}")
    a.flags.writeable = False
    if spec is None:
        spec = "F{" + ",".join(map(str, a.tolist())) + "}"
    return SSet(spec=spec, general=GeneralSSet(bound=bound, members=a))


def parse_sset(text: str) -> SSet:
    """Parse a set expression (grammar in the module docstring). An F{...}
    list is known to max(100, 2 * its largest member); make_general_sset
    takes any other bound."""
    text = text.strip()
    if not text:
        raise ParseError("empty set expression")
    if text in _BUILTIN_MULT:
        return SSet(spec=text, mult=_BUILTIN_MULT[text]())
    if text[0] in "QL" and text[1:].isdecimal():
        k = int(text[1:])
        if k < 1:
            raise ParseError(f"{text!r}: index must be >= 1")
        rule = ExponentRule.below(k) if text[0] == "Q" else ExponentRule.at_least(k)
        return SSet(spec=_canonical_mult_spec(MultiplicativeSSet(rule)),
                    mult=MultiplicativeSSet(rule))
    if text.startswith("P{") and text.endswith("}"):
        primes = _parse_int_list(text[2:-1], "prime")
        for p in primes:
            if not is_prime(p):
                raise ParseError(f"P-list entry {p} is not prime")
        ov = {p: ExponentRule.all_() for p in primes}
        m = MultiplicativeSSet(ExponentRule.none_(), ov)
        return SSet(spec=_canonical_mult_spec(m), mult=m)
    if text.startswith("F{") and text.endswith("}"):
        members = _parse_int_list(text[2:-1], "member")
        return make_general_sset(members, max(DEFAULT_FINITE_BOUND, 2 * max(members)))
    if text.startswith("FILE:"):
        path = text[5:]
        try:
            with open(path, "rb") as fh:
                tag, b, body = (fh.read().split(maxsplit=2) + [b""] * 3)[:3]
        except OSError as exc:
            raise ParseError(f"cannot read set file {path!r}: {exc}") from exc
        if not tag.lower().startswith(b"bound") or not b.isdigit():
            raise ParseError(f"set file {path!r} must start with 'bound B'")
        bad = len(body) - len(body.lstrip(b"0123456789 \t\n\r\x0b\x0c"))  # first other byte
        if bad < len(body):
            line = body[body.rfind(b"\n", 0, bad) + 1 :].split(b"\n", 1)[0].strip()
            raise ParseError(f"set file {path!r}: bad member line {line.decode(errors='replace')!r}")
        members = np.fromstring(body, dtype=np.int64, sep=" ")  # saturates past int64,
        if members.max(initial=0) == (1 << 63) - 1:  # so its top is parsed again exactly
            members = body.split()
        return make_general_sset(members, int(b), spec=text)
    raise ParseError(f"unrecognized set expression {text!r}")


# ---------------------------------------------------------------------------
# membership

def rho(S: SSet, m: int) -> int:
    """Indicator of S at m (0 or 1). GeneralSSet queries past the bound raise."""
    if m < 1:
        raise ValueError("rho is defined on positive integers")
    if S.general is not None:
        if m > S.general.bound:
            raise LimitError(f"membership of {m} unknown: set {S.spec!r} "
                             f"bounded at {S.general.bound}")
        return int(m in S.general)
    return eval_multiplicative(S.mult.rho_prime_power, m)


def _rho_many(S: SSet, ms: list[int]) -> list:
    """rho(S, m) for each m of ms (true values for members). A table-backed
    S answers all in one searchsorted of its member array, and raises rho's
    LimitError for the first m past its bound. Kept apart from
    GeneralSSet.rho_primes, which feeds the phi stream that _phi_direct,
    through this, checks."""
    if S.general is None:
        return [rho(S, m) for m in ms]
    if max(ms) > S.general.bound:
        rho(S, next(m for m in ms if m > S.general.bound))  # raises its LimitError
    members, g = S.general.members, np.array(ms, dtype=np.int64)
    at = members.searchsorted(g)
    hit = at < len(members)
    hit[hit] = members[at[hit]] == g[hit]
    return hit.tolist()


def s_divisors(S: SSet, n: int) -> list[int]:
    """Divisors d of n with gcd(d, n/d) in S, ascending: the S-divisors of n.
    A table-backed S looks up every gcd of n in one searchsorted of its
    member array."""
    divs = divisors(n)
    return [d for d, h in zip(divs, _rho_many(S, [math.gcd(d, n // d) for d in divs])) if h]


def rho_table(S: SSet, limit: int) -> np.ndarray:
    """int64 0/1 table of the indicator on 0..limit (index 0 unused, = 0)."""
    if S.general is not None:
        if limit > S.general.bound:
            raise LimitError(f"table to {limit} exceeds bound {S.general.bound} of {S.spec!r}")
        return S.general.table(limit)
    return multiplicative_table(limit, S.mult.rho_prime_power, (0, 0, S.rho_primes))


# ---------------------------------------------------------------------------
# structure

def is_multiplicative(S: SSet) -> Verdict:
    """Is 1 in S and rho_S multiplicative?

    Rule-based sets are multiplicative by construction (absolute verdict).
    Table-backed sets get an exhaustive scan of coprime pairs with product
    inside the bound; the verdict is only valid up to that bound.
    """
    return Verdict(True) if S.mult is not None else S.general.multiplicative


def coprime_product_failure(t, limit: int) -> tuple[int, int] | None:
    """First coprime pair (m, n), 2 <= m < n and m n <= limit, ascending in
    (m, n), with t[mn] != t[m] t[n]; None when t is multiplicative there.

    One numpy pass per m (per _SCAN_BLOCK values of n) over exact values,
    gcds only where t[mn] != t[m] t[n]: a bool t stays bool (t[m] & t[n]);
    any other ndarray is compared in int64 while no product t[m] t[n] can
    overflow, and as Python ints (object dtype) otherwise, as is a list.
    """
    if not isinstance(t, np.ndarray):
        t = np.array(t, dtype=object)
    if t.dtype != bool:
        exact = t.dtype == object or _abs_max(t, limit) ** 2 >= 1 << 63
        t = t[: limit + 1].astype(object if exact else np.int64, copy=False)
    for m in range(2, math.isqrt(limit) + 1):
        for lo in range(m + 1, limit // m + 1, _SCAN_BLOCK):
            hi = min(lo + _SCAN_BLOCK, limit // m + 1)  # n in [lo, hi), t[mn] a strided view
            n = np.flatnonzero(t[m * lo : m * hi : m] != t[m] * t[lo:hi]) + lo
            n = n[np.gcd(n, m) == 1]
            if len(n):
                return (m, int(n[0]))
    return None


def classify_prime(S: SSet, p: int) -> PrimeClassification:
    """Classify prime p inside a rule-based set; table-backed sets have no
    per-prime structure and are rejected."""
    if S.mult is None:
        raise ValueError("classify_prime needs a rule-based (multiplicative) set")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    r = S.mult.rule_at(p)
    if r.kind == "all":
        return PrimeClassification(p, "all-in")
    if r.kind == "none":
        return PrimeClassification(p, "all-out", least_excluded=1)
    if r.kind == "at_least":
        return PrimeClassification(p, "threshold", threshold=r.k, least_excluded=1)
    return PrimeClassification(p, "not-upward-closed", least_excluded=r.least_excluded())


def _rho_of_gcds_ok(r, n, d, e) -> bool:
    """The associativity identity at one triple (e | d | n), with r the
    indicator of S: r((d, n/d)) r((e, d/e)) == r((e, n/e)) r((d/e, n/d))."""
    lhs = r(math.gcd(d, n // d)) * r(math.gcd(e, d // e))
    rhs = r(math.gcd(e, n // e)) * r(math.gcd(d // e, n // d))
    return lhs == rhs


def check_assoc_identity(S: SSet, n: int, d: int, e: int) -> bool:
    """Point check of the associativity identity; requires e | d | n."""
    if n % d or d % e:
        raise ValueError("need e | d and d | n")
    return _rho_of_gcds_ok(lambda m: rho(S, m), n, d, e)


ASSOC_SCAN_CAP = 4096


def _assoc_scan(t: np.ndarray, limit: int) -> tuple | None:
    """First (n, d, e), e | d | n <= limit, ascending, at which the indicator
    table t violates the associativity identity; None if the scan is clean."""
    r = t.__getitem__
    divlists: list[list[int]] = [[] for _ in range(limit + 1)]
    for d in range(1, limit + 1):
        for m in range(d, limit + 1, d):
            divlists[m].append(d)
    for n in range(1, limit + 1):
        for d in divlists[n]:
            for e in divlists[d]:
                if not _rho_of_gcds_ok(r, n, d, e):
                    return (n, d, e)
    return None


def is_associative(S: SSet) -> Verdict:
    """Does the S-restricted convolution associate?

    A triple (n, d, e), e | d | n, that violates the associativity identity
    is the witness, and it makes a False verdict absolute (bound None).

    1 in S (every rule-based set): the paper's theorem. The convolution
    associates iff rho_S is multiplicative and no prime's exponents admit
    some j >= 1 yet exclude a later l. A multiplicativity witness (M, N)
    gives the triple ((MN)^2, MN, M), else the first gap of _gap_triples
    gives one; it is checked before it is returned, and a failed check
    raises ConsistencyError. With no triple the verdict is absolute for a
    rule-based set; a table-backed one holds to its bound, since the
    identity at n <= bound reads membership at prime powers <= bound.

    A table-backed set without 1 has no such argument: the identity is
    scanned up to min(bound, ASSOC_SCAN_CAP), and holds to that bound only.
    """
    g = S.general
    if g is not None and 1 not in g:
        limit = min(g.bound, ASSOC_SCAN_CAP)
        w = _assoc_scan(g.table(limit), limit)
        return Verdict(True, bound=limit) if w is None else Verdict(False, witness=w)
    w = is_multiplicative(S).witness
    trip = ((w[0] * w[1]) ** 2, w[0] * w[1], w[0]) if w else next(_gap_triples(S), None)
    if trip is None:
        return Verdict(True, bound=None if g is None else g.bound)
    if check_assoc_identity(S, *trip):
        raise ConsistencyError(f"triple {trip} does not violate associativity in {S.spec!r}")
    return Verdict(False, witness=trip)


def _require_associative(S: SSet) -> None:
    """ValueError unless 1 is in S and the S-convolution associates."""
    if rho(S, 1) != 1:
        raise ValueError(f"{S.spec!r} does not contain 1; no identity, no inverses")
    av = is_associative(S)
    if not av:
        raise ValueError(
            f"{S.spec!r} gives a non-associative convolution; sconv computes inverses "
            f"only under associative convolutions (witness triple {witness_text(av.witness)})"
        )


def witness_text(w) -> str:
    """A witness integer, or a tuple of them, as text: each integer in
    decimal, or as its factorisation p^a * q^b ... when the decimal form
    would pass sys.get_int_max_str_digits() (the triple of Q20000 starts at
    2^40000); a tuple as "(a, b, c)"."""
    if isinstance(w, tuple):
        return "(" + ", ".join(map(witness_text, w)) + ")"
    try:
        return str(w)
    except ValueError:  # past the int-to-str digit limit
        return " * ".join(f"{p}^{a}" if a > 1 else str(p) for p, a in factorize(w))


def _gap_triples(S: SSet):
    """_proof_triple(p, j, l), ascending in p, for each prime p whose least
    admitted exponent j >= 1 is followed by an excluded one, l the least:
    every exponent in [j, l) is then admitted, which makes the triple
    violate the identity. Rule-based: the override primes and the least
    default prime, each read to the exponent from which its rule settles.
    Table-backed: the primes with p^2 <= bound, read while p^a <= bound."""
    if S.mult is not None:
        m = S.mult
        ranges = [(p, m.rule_at(p).settled_from())
                  for p in sorted([*m.overrides, m.least_default_prime()])]
    else:
        B = S.general.bound
        ranges = [(p, next(a for a in range(2, B.bit_length()) if p ** (a + 1) > B))
                  for p in sieve_primes(math.isqrt(B))]
    for p, top in ranges:
        j = 0
        for a in range(1, top + 1):
            if S.rho_prime_power(p, a):
                j = j or a
            elif j:
                yield _proof_triple(p, j, a)
                break


def _proof_triple(p: int, j: int, ell: int) -> tuple[int, int, int]:
    if ell < 2 * j:
        return (p ** (ell + 2 * j), p ** (ell + j), p ** ell)
    return (p ** (2 * ell), p ** ell, p ** (ell - j))
