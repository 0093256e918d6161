"""Exact evaluation of Krawtchouk coefficients and the zero test they drive.

K_r(n, N) is the coefficient of z^r in (1-z)^n (1+z)^(N-n).  Everything is
big-integer arithmetic; the zero test must be exact, so no floating point
appears anywhere in this module.

:func:`delta_vanishes` is the refinement's zero test, K_{(deg-t)/2+1}(g, 2g-t)
of a rank-2 bundle of degree deg with s1 = t; ``bounds`` states its domain.
"""
from __future__ import annotations

from functools import lru_cache
from math import comb

from .errors import CongruenceViolation, IndexNegative, OracleRangeExceeded
from .invariants import _Record, _store

ORACLE_MAX_N = 64


class KrawtchoukQuery(_Record):
    """Coefficient index r and generating-function exponents n <= N."""

    __slots__ = ()
    _fields = ("r", "n", "N")

    def __init__(self, r: int, n: int, N: int):
        if r < 0 or n < 0 or N < 0:
            raise ValueError("r, n, N must be nonnegative")
        if n > N:
            raise ValueError(f"need n <= N, got n={n}, N={N}")
        _store(self, (r, n, N))


def krawtchouk(q: KrawtchoukQuery) -> int:
    """Closed-form evaluation: sum_j (-1)^j C(n,j) C(N-n, r-j).

    The sum is the definition.  At N = 2n the generating function is
    (1-z^2)^n, so the coefficient is 0 for odd r and (-1)^(r/2) C(n, r/2)
    for even r: one binomial instead of min(n, r) + 1 products.
    """
    r, n, N = q._values
    if N == 2 * n:
        if r % 2:
            return 0
        c = comb(n, r // 2)
        return -c if r % 4 else c
    return sum(
        (-1) ** j * comb(n, j) * comb(N - n, r - j)
        for j in range(min(n, r) + 1)
    )


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


@lru_cache(maxsize=None)
def _expand(n: int, N: int) -> tuple[int, ...]:
    poly = [1]
    for _ in range(n):
        poly = _poly_mul(poly, [1, -1])
    for _ in range(N - n):
        poly = _poly_mul(poly, [1, 1])
    return tuple(poly)


def krawtchouk_oracle(q: KrawtchoukQuery) -> int:
    """Same coefficient by literal expansion of the two factors.

    Uses no binomial identities, so it serves as an independent check on
    :func:`krawtchouk`.  Capped at N <= 64 (the expansions are cached).
    """
    r, n, N = q._values
    if N > ORACLE_MAX_N:
        raise OracleRangeExceeded(f"oracle capped at N <= {ORACLE_MAX_N}")
    poly = _expand(n, N)
    return poly[r] if r < len(poly) else 0


def delta_vanishes(g: int, deg: int, t: int) -> bool:
    """Whether K_{(deg-t)/2 + 1}(g, 2g-t), the refinement coefficient of a rank-2
    bundle of degree deg with s1 = t, is zero; odd deg - t or index < 0 raise."""
    if (deg - t) % 2:
        raise CongruenceViolation(1, f"deg - t = {deg - t} is odd")
    idx = (deg - t) // 2 + 1
    if idx < 0:
        raise IndexNegative(f"coefficient index {idx} is negative")
    return krawtchouk(KrawtchoukQuery(idx, g, 2 * g - t)) == 0
