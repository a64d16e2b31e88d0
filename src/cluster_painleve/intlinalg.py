"""Exact integer and rational linear algebra on small dense matrices.

Everything here runs on plain Python ints / Fractions; matrices are lists of
row lists.  Sizes in this package are tiny (N <= 10 or so), so clarity wins
over asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

Mat = list[list[int]]
Vec = tuple[int, ...]


def transpose(m: Sequence[Sequence[int]]) -> Mat:
    return [list(col) for col in zip(*m)] if m else []


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Mat:
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rref(rows: Sequence[Sequence], ncols: int | None = None) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over the rationals.

    Returns the reduced rows (pivots scaled to 1, rows without a pivot last)
    and the pivot columns.  Pivots are sought only in the first ``ncols``
    columns (default: all), so the columns after them, such as a right-hand
    side or an identity block, ride along.  Stops once every row holds a
    pivot.
    """
    a = [[Fraction(x) for x in row] for row in rows]
    nrows = len(a)
    if ncols is None:
        ncols = len(a[0]) if nrows else 0
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def rank(m: Sequence[Sequence[int]]) -> int:
    """Rank over the rationals."""
    return len(rref(m)[1])


P = 2**61 - 1  # a Mersenne prime: modulus of the rank certificates (``rank_residues``)


def residue(x) -> int | None:
    """x modulo P for an int or Fraction x; None when P divides its denominator."""
    d = x.denominator
    if d == 1:
        return x.numerator % P
    d %= P
    if not d:
        return None
    return x.numerator * pow(d, -1, P) % P


def rank_residues(a: list[list[int]]) -> int:
    """Rank modulo P of a matrix of residues; eliminates in place."""
    r = 0
    for c in range(len(a[0]) if a else 0):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][c], -1, P)
        for i in range(r + 1, len(a)):
            f = a[i][c] * inv % P
            if f:
                a[i] = [(x - f * y) % P for x, y in zip(a[i], a[r])]
        r += 1
    return r


def solve(rows: Sequence[Sequence], rhs: Sequence) -> tuple[int, int, list[Fraction] | None]:
    """Solve ``rows @ x == rhs`` exactly: (rank, solution_dim, solution).

    solution_dim is -1 for an inconsistent system and otherwise the dimension
    of the affine solution space; the solution is returned only when it is
    unique (solution_dim == 0).  Entries are ints or Fractions.
    """
    m = len(rows[0]) if rows else 0
    a, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], m)
    r = len(pivots)
    if any(row[m] != 0 for row in a[r:]):
        return r, -1, None
    if r < m:
        return r, m - r, None
    return r, 0, [row[m] for row in a[:m]]


def _hermite(a: Mat, t: Mat | None = None) -> int:
    """Bring ``a`` to row Hermite form in place and return its rank.

    Euclidean elimination column by column; pivots end positive with the
    entries above them reduced, and the first ``rank`` rows are the nonzero
    ones.  Every row operation on ``a`` is applied to ``t`` too when given.
    """
    mats = [a] if t is None else [a, t]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    r = 0
    for c in range(cols):
        if r == rows:
            break
        # euclidean elimination below row r in column c
        while True:
            nz = [i for i in range(r, rows) if a[i][c] != 0]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(a[i][c]))
            for x in mats:
                x[r], x[i0] = x[i0], x[r]
            done = True
            for i in range(r + 1, rows):
                if a[i][c]:
                    q = a[i][c] // a[r][c]
                    for x in mats:
                        x[i] = [u - q * v for u, v in zip(x[i], x[r])]
                    if a[i][c]:
                        done = False
            if done:
                break
        if a[r][c] != 0:
            if a[r][c] < 0:
                for x in mats:
                    x[r] = [-u for u in x[r]]
            for i in range(r):
                q = a[i][c] // a[r][c]
                if q:
                    for x in mats:
                        x[i] = [u - q * v for u, v in zip(x[i], x[r])]
            r += 1
    return r


def hermite_form(m: Sequence[Sequence[int]]) -> Mat:
    """Row Hermite normal form (pivots positive, entries above reduced).

    Zero rows are dropped.  The result is the canonical triangular basis of
    the integer row span of ``m``.
    """
    a = [list(row) for row in m]
    return a[:_hermite(a)]


def kernel_basis(m: Sequence[Sequence[int]]) -> list[Vec]:
    """Saturated primitive basis of the integer kernel ``{v : m v = 0}``.

    Row-reduces the transpose while mirroring the operations on an identity
    matrix; the transform rows sitting over zero rows of the reduction form a
    basis of the kernel lattice.  Unimodularity of the transform makes the
    result automatically saturated.  Rows are returned in Hermite form.
    """
    if not m:
        return []
    n = len(m[0])
    t = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    ker_rows = t[_hermite(transpose(m), t):]
    if any(sum(x * y for x, y in zip(mrow, row)) for row in ker_rows for mrow in m):
        raise ArithmeticError("kernel transform failed")
    return [tuple(row) for row in hermite_form(ker_rows)]


def image_lattice_basis(m: Sequence[Sequence[int]]) -> list[Vec]:
    """Triangular primitive basis of (row space of m) intersected with Z^n.

    The saturation is reached through the kernel: a lattice vector lies in the
    rational row space iff it is orthogonal to every kernel vector of ``m``
    (for the skew-symmetric matrices used here row space and column space
    agree).  Rows come back in Hermite form, so on a saturated lattice each
    row is automatically primitive.
    """
    if not m:
        return []
    n = len(m[0])
    ker = kernel_basis(m)
    if not ker:
        return [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    return kernel_basis([list(v) for v in ker])


def solve_int(columns: Sequence[Sequence[int]], target: Sequence[int]) -> Vec | None:
    """Solve ``sum(c_i * columns[i]) == target`` for integers ``c_i``.

    Returns None when no rational solution exists or the rational solution is
    not integral.  Columns must be linearly independent.
    """
    rows = [[col[i] for col in columns] for i in range(len(target))]
    _, dim, sol = solve(rows, target)
    if dim != 0 or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def invert_fraction(a: Sequence[Sequence[Fraction]]) -> list[list[Fraction]] | None:
    """Exact inverse of a square rational matrix, or None if singular."""
    n = len(a)
    red, pivots = rref([list(row) + [1 if i == j else 0 for j in range(n)]
                        for i, row in enumerate(a)], n)
    if len(pivots) < n:
        return None
    return [row[n:] for row in red]


def _primitive_part(p: Sequence[int]) -> list[int]:
    """p without its trailing zeros, divided by its (positive) content."""
    q = list(p)
    while q and not q[-1]:
        q.pop()
    g = math.gcd(*q)
    return [c // g for c in q] if g > 1 else q


def poly_gcd(polys: Iterable[Sequence[int]]) -> tuple[int, ...]:
    """Primitive gcd in Z[x] of integer polynomials given by their ascending
    coefficients: () when every one vanishes, else with a positive leading
    coefficient.

    Euclid on primitive parts (the primitive PRS): each step scales the
    dividend by a nonzero integer before subtracting multiples of the
    divisor, which keeps the gcd over Q, and by Gauss's lemma the primitive
    part of the gcd over Q is the gcd over Z of primitive polynomials.
    """
    g: list[int] = []
    for p in polys:
        if len(g) == 1:
            break
        a, b = g, _primitive_part(p)
        while b:
            lb, db = b[-1], len(b)
            while len(a) >= db:
                la = a[-1]
                h = math.gcd(la, lb)
                fa, fb = lb // h, la // h
                if fa != 1:
                    a = [fa * c for c in a]
                k = len(a) - db
                for i, c in enumerate(b):
                    a[k + i] -= fb * c
                while a and not a[-1]:
                    a.pop()
            a, b = b, _primitive_part(a)
        g = a
    return tuple(-c for c in g) if g and g[-1] < 0 else tuple(g)


def poly_div(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...] | None:
    """The quotient p / q in Z[x] of integer polynomials given by their
    ascending coefficients, q's last one nonzero; None unless q divides p.
    Long division over Z: the quotient over Q is unique, so a coefficient of
    it outside Z, or a nonzero remainder, proves that q does not divide p.
    """
    r, dq = list(p), len(q) - 1
    if dq >= len(r):
        return None
    out = [0] * (len(r) - dq)
    for i in reversed(range(len(out))):
        out[i], rem = divmod(r[i + dq], q[-1])
        if rem:
            return None
        for j, b in enumerate(q):
            r[i + j] -= out[i] * b
    return None if any(r[:dq]) else tuple(out)


def in_lattice(basis: Sequence[Sequence[int]], v: Sequence[int]) -> bool:
    """Is ``v`` an integer combination of the basis rows?

    Works for dependent or zero rows too: adjoining a lattice member must
    leave the Hermite form unchanged.
    """
    if not basis:
        return all(x == 0 for x in v)
    rows = [list(r) for r in basis]
    return hermite_form(rows + [list(v)]) == hermite_form(rows)


def lattice_equal(basis_a: Sequence[Sequence[int]], basis_b: Sequence[Sequence[int]]) -> bool:
    """Do two row bases generate the same integer lattice?"""
    a = hermite_form([list(r) for r in basis_a])
    b = hermite_form([list(r) for r in basis_b])
    return a == b
