"""Elementary number theory on Python integers, from the standard library:
primality, factoring, a prime sieve and the Jacobi symbol.

isprime is trial division by the primes below 1000, then Miller-Rabin on
the first 13 prime bases, which is a proof below MR_BOUND (J. Sorenson and
J. Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86
(2017)).  Above the bound it is the Baillie-PSW test (Miller-Rabin to base 2
and a strong Lucas test with Selfridge's parameters), for which no
counterexample is known.

factorint is trial division, then Pollard's rho with Brent's cycle finding
and batched gcds (R. P. Brent, "An improved Monte Carlo factorization
algorithm", BIT 20 (1980)).  Each composite cofactor gets at most RHO_STEPS
iterations, over all its starting constants; a cofactor that does not split
within them raises FactoringCapExceeded, so no input stalls the caller.
"""

from __future__ import annotations

import math

from .errors import BadInput, FactoringCapExceeded

#: The first 13 primes: as Miller-Rabin bases they decide primality of every
#: n < MR_BOUND.
MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981

#: Rho iterations allowed per composite cofactor.  A prime factor p takes
#: about sqrt(p) iterations: for 40 primes in [5*10^11, 10^12), each beside
#: a 41-digit prime, none needed more than 2^21.  At the cap a 50-digit
#: semiprime with two 25-digit factors is refused after about 5 s of CPU.
RHO_STEPS = 2 ** 22

_TRIAL_BOUND = 1000


def primerange(a, b):
    """The primes p with a <= p < b, ascending, by a sieve of [0, b)."""
    if b <= 2:
        return []
    sieve = bytearray([1]) * b
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(b - 1) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytes(len(range(i * i, b, i)))
    return [i for i in range(max(a, 2), b) if sieve[i]]


_SMALL_PRIMES = primerange(2, _TRIAL_BOUND)


def _strong_probable_prime(n, base):
    """Miller-Rabin: whether odd n > base passes the strong test to base."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    x = pow(base, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def jacobi(a, n):
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while not a & 1:
            a >>= 1
            if n & 7 in (3, 5):
                sign = -sign
        a, n = n, a
        if a & 3 == 3 and n & 3 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _half(x, n):
    """x / 2 mod odd n."""
    x %= n
    return (x + n) >> 1 if x & 1 else x >> 1


def _strong_lucas_probable_prime(n):
    """The strong Lucas test with Selfridge's parameters (D the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1, Q = (1 - D)/4), for odd
    n > 3 that is not divisible by the small primes."""
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D/n) = -1 exists
    D = 5
    while True:
        j = jacobi(D, n)
        if j == -1:
            break
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    # U_k, V_k and Q^k for k the leading bits of d, starting at k = 1
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(U + V, n), _half(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def isprime(n):
    """Whether n is a prime integer: a proof below MR_BOUND, the
    Baillie-PSW test above it.  Anything but an int is not prime."""
    if not isinstance(n, int) or n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _TRIAL_BOUND ** 2:
        return True
    if n < MR_BOUND:
        return all(_strong_probable_prime(n, b) for b in MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _rho_divisor(n):
    """A proper divisor of the odd composite n by Pollard-Brent rho,
    trying c = 1, 2, ... in x -> x^2 + c, within RHO_STEPS iterations."""
    steps, c = 0, 0
    while steps < RHO_STEPS:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps < RHO_STEPS:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:  # the batch overshot: step from its start one at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if 1 < g < n:
            return g
    raise FactoringCapExceeded(
        f"cannot factor a {len(str(n))}-digit integer: rho found no factor "
        f"within RHO_STEPS = {RHO_STEPS} iterations")


def factorint(n):
    """The factorisation of the integer n >= 1 as {prime: exponent}, primes
    ascending; FactoringCapExceeded if rho cannot split a cofactor."""
    if n < 1:
        raise BadInput(f"factorint needs n >= 1, got {n}")
    out = {}
    for p in _SMALL_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    pending = [n] if n > 1 else []
    while pending:
        m = pending.pop()
        if isprime(m):
            out[m] = out.get(m, 0) + 1
        else:
            g = _rho_divisor(m)
            pending += [g, m // g]
    return dict(sorted(out.items()))
