"""Exact coefficient fields: the rationals and prime fields F_p.

Every scalar in the toolkit is either a ``fractions.Fraction`` (rationals,
always in lowest terms) or a python int in ``[0, p)`` (prime field); no
scalar is ever a float.
"""
from __future__ import annotations

import re
from fractions import Fraction

# the wire format's scalars: an integer or a fraction of integers, nothing
# that Fraction() would also read (decimals, exponents, underscores)
_SCALAR = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for all n < 2**64."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ScalarField:
    """Descriptor of the exact coefficient field (Q or F_p, p prime < 2**63)."""

    __slots__ = ("kind", "p")

    def __init__(self, kind: str, p: int | None = None):
        if kind not in ("Q", "Fp"):
            raise ValueError(f"unknown field kind {kind!r}")
        if kind == "Fp":
            if p is None or not (2 <= p < 2**63) or not is_prime(p):
                raise ValueError(f"modulus {p!r} is not a prime < 2**63")
        elif p is not None:
            raise ValueError("rationals take no modulus")
        self.kind = kind
        self.p = p

    @classmethod
    def rationals(cls) -> "ScalarField":
        return cls("Q")

    @classmethod
    def prime_field(cls, p: int) -> "ScalarField":
        return cls("Fp", p)

    # -- basic arithmetic (elements: Fraction for Q, int in [0,p) for Fp) --

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "Q" else self.p

    def zero(self):
        return Fraction(0) if self.kind == "Q" else 0

    def one(self):
        return Fraction(1) if self.kind == "Q" else 1

    def from_int(self, n: int):
        return Fraction(n) if self.kind == "Q" else n % self.p

    def add(self, a, b):
        return a + b if self.kind == "Q" else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.kind == "Q" else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.kind == "Q" else (a * b) % self.p

    def neg(self, a):
        return -a if self.kind == "Q" else (-a) % self.p

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        return 1 / a if self.kind == "Q" else pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n: int):
        if self.kind == "Fp":
            return pow(a, n, self.p)
        return a**n

    def reduce(self, arr):
        """Canonical form of a scalar or numpy array: mod p, as is over Q."""
        return arr if self.kind == "Q" else arr % self.p

    def is_zero(self, a) -> bool:
        return a == 0

    def is_one(self, a) -> bool:
        return a == (Fraction(1) if self.kind == "Q" else 1)

    # -- parsing / formatting (the wire format keeps scalars as strings) --

    def parse(self, s: str):
        """``[+-]digits`` or ``[+-]digits/digits``, surrounding whitespace
        allowed; anything else raises ValueError, a zero denominator (mod p
        over F_p) ZeroDivisionError."""
        m = _SCALAR.fullmatch(s.strip())
        if m is None:
            raise ValueError(f"{s!r} is not an integer or a fraction a/b")
        num = self.from_int(int(m[1]))
        return num if m[2] is None else self.div(num, self.from_int(int(m[2])))

    def fmt(self, a) -> str:
        return str(a)

    def primitive_root_of_unity(self, n: int):
        """Smallest primitive n-th root of unity in F_p, or None.

        Exists iff n divides p - 1 (for Q only n in {1, 2}).  The direct
        scan is capped; past the cap the root of a small generator power
        is returned instead (still primitive, maybe not smallest).
        """
        if self.kind == "Q":
            return {1: Fraction(1), 2: Fraction(-1)}.get(n)
        if n == 1:
            return 1
        if (self.p - 1) % n != 0:
            return None
        proper = [d for d in range(1, n) if n % d == 0]
        for x in range(2, min(self.p, 100_000)):
            if pow(x, n, self.p) == 1 and all(pow(x, d, self.p) != 1 for d in proper):
                return x
        for g in range(2, self.p):
            x = pow(g, (self.p - 1) // n, self.p)
            if x != 1 and all(pow(x, d, self.p) != 1 for d in proper):
                return x
        return None

    def __eq__(self, other):
        return (
            isinstance(other, ScalarField)
            and self.kind == other.kind
            and self.p == other.p
        )

    def __hash__(self):
        return hash((self.kind, self.p))

    def __repr__(self):
        return "QQ" if self.kind == "Q" else f"GF({self.p})"


QQ = ScalarField.rationals()


def GF(p: int) -> ScalarField:
    return ScalarField.prime_field(p)
