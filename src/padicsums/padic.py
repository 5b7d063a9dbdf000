"""Exact p-adic arithmetic primitives.

Primality checks, p-adic orders of integers and factorials, and carry
counts, all as plain ints over exact integer arithmetic.  A quantity known
only modulo p**E is reported as a floor ("at least E") whenever the residue
cannot distinguish it from zero, never silently rounded.
"""

from __future__ import annotations


class CapacityError(Exception):
    """Raised when a request exceeds a hard size cap instead of churning forever."""


_KNOWN_PRIMES: set[int] = set()


def is_prime(p: int) -> bool:
    """Trial-division primality test, meant for the small primes used as bases."""
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


def check_prime(p: int) -> int:
    """Return p if prime, else raise ValueError naming the offending value."""
    if p in _KNOWN_PRIMES:
        return p
    if not is_prime(p):
        raise ValueError(f"p must be a prime, got p={p!r}")
    if p < 10**6:
        _KNOWN_PRIMES.add(p)
    return p


def trunc_val(residue: int, p: int, E: int) -> tuple[int, bool]:
    """(order, exact) of an integer known modulo p**E: (E, False) when the residue is 0.

    Nothing in the package calls it; perfbench/tracer.py names it as a
    per-layer target, so it stays until the next benchmark change.
    """
    residue %= p**E
    return (ord_nonzero(p, residue), True) if residue else (E, False)


def ord_nonzero(p: int, x: int) -> int:
    """p-adic order of a nonzero integer x, for a prime p the caller has checked.

    p = 2 reads the lowest set bit; other primes divide one step at a time
    (a p**(2**i) ladder measured no faster, as typical orders are small).
    x = 0 would never terminate for odd p.
    """
    if p == 2:
        return (x & -x).bit_length() - 1
    v = 0
    while x % p == 0:
        v += 1
        x //= p
    return v


def ord_int(p: int, x: int) -> int | None:
    """p-adic order of an integer; None stands for the infinite order of 0.

    Negative integers have the order of their absolute value.
    """
    check_prime(p)
    return None if x == 0 else ord_nonzero(p, x)


def ord_factorial(p: int, m: int) -> int:
    """p-adic order of m!, by Legendre's formula sum(floor(m/p**i))."""
    check_prime(p)
    if m < 0:
        raise ValueError(f"m must be >= 0, got m={m}")
    total = 0
    q = p
    while q <= m:
        total += m // q
        q *= p
    return total


def carries(p: int, a: int, b: int) -> int:
    """Number of carries when a and b are added in base p.

    By Kummer's theorem this equals the p-adic order of the binomial
    coefficient C(a+b, a).
    """
    check_prime(p)
    if a < 0 or b < 0:
        raise ValueError(f"carry counting needs a, b >= 0, got a={a}, b={b}")
    count = 0
    carry = 0
    while a or b or carry:
        s = a % p + b % p + carry
        carry = 1 if s >= p else 0
        count += carry
        a //= p
        b //= p
    return count


def euler_phi_prime_power(p: int, alpha: int) -> int:
    """Euler totient of p**alpha for alpha >= 1."""
    check_prime(p)
    if alpha < 1:
        raise ValueError(f"totient of p**alpha needs alpha >= 1, got alpha={alpha}")
    return (p - 1) * p ** (alpha - 1)
