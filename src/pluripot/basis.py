"""Graded-lexicographic multi-index bases for the full polynomial space.

Everything downstream (Vandermonde matrices, Gram systems, Chebyshev
classes) is expressed in the monomial basis enumerated here, so the order
is fixed once and for all: ascending total degree, lexicographic within
each degree block with the first coordinate weighted heaviest.  This is the
only module that knows the order: callers ask for the full basis or for one
degree block, never slice one out of the other.
"""

from __future__ import annotations

import math

from .errors import InvalidInputError


def _check(n: int, d: int) -> None:
    if d < 1:
        raise InvalidInputError(f"dimension must be >= 1, got {d}")
    if n < 0:
        raise InvalidInputError(f"degree must be >= 0, got {n}")


def _block(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    if d == 1:
        return ((n,),)
    return tuple(
        (a0,) + tail for a0 in range(n, -1, -1) for tail in _block(n - a0, d - 1)
    )


def degree_block(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """All multi-indices in N^d with |alpha| = n (h_n of them), lex order.

    First coordinate descends fastest, matching e.g. (2,0), (1,1), (0,2).
    """
    _check(n, d)
    return _block(n, d)


def enumerate_basis(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The graded-lex monomial basis of P_n in d variables (m_n multi-indices).

    Deterministic; the degree blocks 0, 1, ..., n follow one another.
    """
    _check(n, d)
    return tuple(alpha for k in range(n + 1) for alpha in _block(k, d))


def dimension_counts(n: int, d: int) -> tuple[int, int, int, int]:
    """Return (m_n, h_n, l_n, r_n) for degree n in d variables.

    m_n = C(n+d, n) counts monomials of degree <= n, h_n those of degree
    exactly n, l_n the sum of degrees over all m_n monomials, and
    r_n = n * h_n the degree sum over the top block.  Exact integers.
    """
    _check(n, d)
    m_n = math.comb(n + d, n)
    h_n = 1 if n == 0 else m_n - math.comb(n - 1 + d, n - 1)
    l_n = d * math.comb(d + n, d + 1)
    r_n = n * h_n
    return m_n, h_n, l_n, r_n
