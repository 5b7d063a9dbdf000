"""Exponents too large to materialize, and modular powers that accept them.

An exponent is stored either as a plain integer or in the shape
c * base**L + d.  The latter stays symbolic: only its residue modulo a
requested modulus is ever computed, via modular exponentiation, so L may
be far beyond anything whose power could be written down.  Reduction of
exponents on units uses the Carmichael function of p**E.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .padic import CapacityError, check_prime, euler_phi_prime_power

# Largest L for which c * base**L + d is materialized as a plain integer.
MATERIALIZE_CAP = 64


@dataclass(frozen=True)
class StructuredExponent:
    """A nonnegative integer exponent, possibly in the shape c * base**L + d.

    Plain integers are stored with c == 0 (base and L are then irrelevant
    and normalized away), and powers of base dividing c are folded into L.
    Equality compares these normalized fields, not the denoted values:
    2*3^4 equals 6*3^3, but 1*3^4+1 does not equal the plain 82.
    """

    c: int = 0
    base: int = 2
    L: int = 0
    d: int = 0

    def __post_init__(self):
        if min(self.c, self.L, self.d) < 0:
            raise ValueError(f"exponent parts must be >= 0: {self!r}")
        if self.base < 2:
            raise ValueError(f"exponent base must be >= 2, got {self.base}")
        c, base, L, d = self.c, self.base, self.L, self.d
        if c == 0 or L == 0:
            d = c * base**L + d if c else d
            c, base, L = 0, 2, 0
        else:
            while c % base == 0:
                c //= base
                L += 1
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "L", L)
        object.__setattr__(self, "d", d)

    @classmethod
    def plain(cls, k: int) -> "StructuredExponent":
        return cls(0, 2, 0, k)

    @property
    def is_plain(self) -> bool:
        return self.c == 0

    @property
    def materializable(self) -> bool:
        return self.c == 0 or self.L <= MATERIALIZE_CAP

    def value(self) -> int:
        """The denoted integer; refuses towers beyond the materialization cap."""
        if self.c == 0:
            return self.d
        if self.L > MATERIALIZE_CAP:
            raise CapacityError(
                f"refusing to materialize {self}: L={self.L} exceeds cap {MATERIALIZE_CAP}"
            )
        return self.c * self.base**self.L + self.d

    def mod(self, M: int) -> int:
        """The denoted value reduced mod M, without materializing it."""
        if M < 1:
            raise ValueError(f"modulus must be >= 1, got {M}")
        if self.c == 0:
            return self.d % M
        return (self.c * pow(self.base, self.L, M) + self.d) % M

    def __str__(self) -> str:
        if self.c == 0:
            return str(self.d)
        s = f"{self.c}*{self.base}^{self.L}"
        return f"{s}+{self.d}" if self.d else s


def as_exponent(k) -> StructuredExponent:
    """Coerce an int or StructuredExponent to StructuredExponent."""
    if isinstance(k, StructuredExponent):
        return k
    if isinstance(k, int):
        if k < 0:
            raise ValueError(f"exponents must be >= 0, got {k}")
        return StructuredExponent.plain(k)
    raise TypeError(f"cannot use {type(k).__name__} as an exponent")


def carmichael_prime_power(p: int, E: int) -> int:
    """Carmichael function of p**E: the exponent of the unit group (Z/p**E)*.

    For odd p the group is cyclic, so this is its order phi(p**E); powers
    of two need the special cases lambda(2)=1, lambda(4)=2 and
    lambda(2**E)=2**(E-2) for E >= 3, because the group is not cyclic there.
    """
    check_prime(p)
    if E < 1:
        raise ValueError(f"precision E must be >= 1, got E={E}")
    if p == 2:
        if E == 1:
            return 1
        if E == 2:
            return 2
        return 2 ** (E - 2)
    return euler_phi_prime_power(p, E)


def power_rule(k, p: int, E: int):
    """The map j -> j**k mod p**E, 0**0 = 1, that the Stirling scans read powers through.

    Units take k modulo the Carmichael number of p**E; a multiple of p takes
    min(k, E), as its E-th power is already 0 mod p**E.  The one copy of the
    rule: mstirling_mod calls it for every j, and stirling._powers for 0, 1,
    a prime unit and a multiple of p, building a composite unit's power as a
    product.
    """
    k = as_exponent(k)
    k_unit = k.mod(carmichael_prime_power(p, E))  # refuses a p or E it cannot take before p**E is formed
    M = p**E
    k_mult = min(k.value(), E) if k.materializable else E
    return lambda j: pow(j, k_unit if j % p else k_mult, M)


_PLAIN_RE = re.compile(r"^\d+$")
_TOWER_RE = re.compile(r"^(\d+)\*(\d+)\^(\d+|L)(?:\+(\d+))?$")


def _squeeze(text: str) -> str:
    """text without whitespace: the one spelling both exponent readers match."""
    return "".join(text.split())


def parse_exponent(text: str) -> StructuredExponent:
    """Parse "163" or "c*base^L+d" with a decimal height L (e.g. "2*3^40+28")."""
    if not isinstance(text, str):
        raise ValueError("empty exponent")
    text = _squeeze(text)
    if not text:
        raise ValueError("empty exponent")
    if _PLAIN_RE.match(text):
        return StructuredExponent.plain(int(text))
    m = _TOWER_RE.match(text)
    if m is None:
        for tok in re.split(r"([*^+])", text):
            if tok not in ("*", "^", "+", "") and not _PLAIN_RE.match(tok) and tok != "L":
                raise ValueError(f"bad exponent token {tok!r} in {text!r}")
        raise ValueError(f"exponent {text!r} is not 'c*base^L+d' or a decimal literal")
    c, base, height, d = m.group(1), m.group(2), m.group(3), m.group(4)
    if height == "L":
        raise ValueError(f"exponent {text!r} uses symbolic L but no L was given")
    return StructuredExponent(int(c), int(base), int(height), int(d or 0))


def symbolic_tower(text: str) -> tuple[int, int, int] | None:
    """(c, base, d) when text spells 'c*base^L+d' with the letter L as its height, else None."""
    match = _TOWER_RE.match(_squeeze(text))
    if not match or match.group(3) != "L":
        return None
    return int(match.group(1)), int(match.group(2)), int(match.group(4) or 0)
