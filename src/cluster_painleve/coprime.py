"""Exact orbit values built in lowest terms from factors.

`Fraction(n, d)` divides both by `gcd(n, d)`, a quadratic-time gcd on the
full-size integers.  The orbit engines know in advance most of what their
values' numerators and denominators have in common, so they cancel factor by
factor and construct the result directly.  This is Henrici's
cross-cancellation (P. Henrici, "A subroutine for computations with rational
numbers", J. ACM 3, 1956), which Fraction's own `*` and `/` use on two
operands; here it spans every factor of one value.  `cancel` is the one way
the exact engines (the integer T-path, U, q-P_I and Y) build a value in
lowest terms.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Hashable, Sequence

Factor = tuple[int, int, Hashable]  # (base, exponent >= 0, group)


def _from_coprime_ints(n: int, d: int) -> Fraction:
    """The Fraction n/d for coprime n and d > 0, without a gcd.

    Sets the two slots as CPython's own `Fraction._from_coprime_ints` does
    (3.12 on; the slots have these names from 3.10 on).  This is the only
    code in the package that touches Fraction internals.
    """
    obj = object.__new__(Fraction)
    obj._numerator = n
    obj._denominator = d
    return obj


def cancel(num_factors: Sequence[Factor], den_factors: Sequence[Factor]) -> Fraction:
    """prod(base**exp of num_factors) / prod(base**exp of den_factors), reduced.

    A numerator and a denominator factor of the same group must have coprime
    bases, which the caller knows by construction (the numerator and
    denominator of one value, and their sum).  Every other pair of a
    numerator and a denominator factor is tested by the gcd of its bases;
    when that exceeds 1, both powered values are divided by their gcd.
    After that each numerator factor is coprime to each denominator factor,
    so the products are in lowest terms.  Denominator bases must be nonzero.
    """
    # [powered value, divided as it goes; base; exponent; group]
    num = [[b ** e, b, e, g] for b, e, g in num_factors if e]
    den = [[b ** e, b, e, g] for b, e, g in den_factors if e]
    for x in num:
        for y in den:
            # with both exponents 1 the gcd of the bases is no cheaper than
            # that of the (already divided) values, so take that at once
            if x[3] != y[3] and (x[2] == y[2] == 1 or gcd(x[1], y[1]) > 1):
                c = gcd(x[0], y[0])
                if c > 1:
                    x[0] //= c
                    y[0] //= c
    n = d = 1
    for x in num:
        n *= x[0]
    for y in den:
        d *= y[0]
    if d < 0:
        n, d = -n, -d
    return _from_coprime_ints(n, d)
