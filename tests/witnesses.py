"""Split witnesses: direct sums of line bundles whose h^0 is known exactly.

Riemann-Roch fixes h^0 of a line bundle of degree e < 0 (0) or e > 2g-2
(e + 1 - g), of O (1), of K (g) and of a general line bundle of degree
0 <= e <= 2g-2 (max(0, e + 1 - g)); on a hyperelliptic curve
``h0_hyperelliptic_power`` gives the pencil powers.  h^0 of a sum is the sum
of the summands' h^0.

The invariants are computed, not asserted.  For degrees a <= b <= c every
line subbundle maps nonzero to some summand, so the largest has degree c;
the largest rank-2 subbundle has degree b + c, and the quotient by the
summand of degree c is the sum of degrees a and b.  So s1 = d - 3c,
s2 = 2d - 3(b + c) and s1f = a - b, the least s1f the rule admits.
"""
from itertools import combinations_with_replacement

from clifford3 import BundleInvariants, h0_hyperelliptic_power


def line_bundles(curve, degrees):
    """The distinct (degree, h0) of the line bundles above, one per degree
    in ``degrees`` and h^0."""
    g = curve.genus
    out = set()
    for e in degrees:
        out.add((e, max(0, e + 1 - g)))  # general, or any outside [0, 2g-2]
        if e == 0:
            out.add((0, 1))  # O
        if e == 2 * g - 2:
            out.add((e, g))  # K
        if curve.hyperelliptic and e % 2 == 0 and 0 <= e <= 2 * g - 2:
            out.add((e, h0_hyperelliptic_power(curve, e // 2)))
    return sorted(out)


def split_sums(curve, rank, degrees):
    """(inv, s1f, h0) for every sum of ``rank`` line bundles of
    ``line_bundles(curve, degrees)``; s1f is None below rank 3."""
    for summands in combinations_with_replacement(line_bundles(curve, degrees), rank):
        degs = [e for e, _ in summands]  # sorted, as the summands are
        d = sum(degs)
        h0 = sum(h for _, h in summands)
        if rank == 1:
            yield BundleInvariants(1, d), None, h0
        elif rank == 2:
            a, b = degs
            yield BundleInvariants(2, d, (a - b,)), None, h0
        else:
            a, b, c = degs
            yield BundleInvariants(3, d, (d - 3 * c, 2 * d - 3 * (b + c))), a - b, h0
