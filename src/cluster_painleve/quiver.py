"""Skew-symmetric exchange matrices, mutation, and shift-periodicity.

Indexing is 0-based throughout: node ``k`` of an ``N``-node quiver satisfies
``0 <= k < N``, and the cyclic relabelling ``rho`` sends node 0 to node N-1
and every other node down by one.  A matrix is *shift-periodic* when mutation
at node 0 equals that relabelling, which pins the whole matrix down to its
first row; the first row (minus its leading zero) is then a palindromic
integer tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence


class NotPalindromic(ValueError):
    """Tuple fails a_j == a_{N-j}."""


def _pos(b: int) -> int:
    return b if b > 0 else 0


@dataclass(frozen=True)
class ExchangeMatrix:
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.rows)
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise ValueError("exchange matrix must be square")
            if row[i] != 0:
                raise ValueError(f"diagonal entry ({i},{i}) must vanish")
            for j in range(i + 1, n):
                if row[j] != -self.rows[j][i]:
                    raise ValueError(f"not skew-symmetric at ({i},{j})")

    @property
    def n(self) -> int:
        return len(self.rows)

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.rows[i][j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.rows[i]

    def as_lists(self) -> list[list[int]]:
        return [list(r) for r in self.rows]

    def first_row_tuple(self) -> tuple[int, ...]:
        """The defining tuple (a_1, ..., a_{N-1}) read off the first row."""
        return self.rows[0][1:]

    def to_json(self) -> dict:
        return {"n": self.n, "rows": self.as_lists()}

    @classmethod
    def from_json(cls, data: dict) -> "ExchangeMatrix":
        m = cls(tuple(tuple(int(x) for x in row) for row in data["rows"]))
        if m.n != data.get("n", m.n):
            raise ValueError("matrix size disagrees with n field")
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "ExchangeMatrix":
        return cls(tuple(tuple(int(x) for x in row) for row in rows))


def mutate_matrix(b: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at node k.

    Entries touching k flip sign; the rest pick up the sign-split product
    (|b_ik| b_kj + b_ik |b_kj|) / 2, which is always an even integer.
    """
    n = b.n
    if not 0 <= k < n:
        raise IndexError(f"node {k} out of range for {n}-node quiver")
    old = b.rows
    new = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == k or j == k:
                row.append(-old[i][j])
            else:
                bik, bkj = old[i][k], old[k][j]
                row.append(old[i][j] + (abs(bik) * bkj + bik * abs(bkj)) // 2)
        new.append(tuple(row))
    return ExchangeMatrix(tuple(new))


def rho_conjugate(b: ExchangeMatrix) -> ExchangeMatrix:
    """Relabel nodes by rho (0 -> N-1, j -> j-1): result[j][k] = b[rho(j)][rho(k)]."""
    n = b.n
    perm = [n - 1 if j == 0 else j - 1 for j in range(n)]
    return ExchangeMatrix(tuple(
        tuple(b.rows[perm[j]][perm[k]] for k in range(n)) for j in range(n)
    ))


def period1_witness(b: ExchangeMatrix) -> str | None:
    """First violated shift-periodicity relation, or None if all hold.

    Two relation families characterise mutation-periodicity of period one:
    the last column must repeat the first row, and consecutive skew diagonals
    must differ by the sign-split correction built from the first row.
    """
    n = b.n
    a = b.rows[0]  # a[j] = first-row entry, a[0] == 0
    for j in range(n - 1):
        if b.rows[j][n - 1] != a[j + 1]:
            return f"last-column relation fails at row {j}: {b.rows[j][n-1]} != {a[j+1]}"
    for j in range(1, n - 1):
        for k in range(1, n - 1):
            expect = b.rows[j - 1][k - 1] + a[j] * _pos(-a[k]) - a[k] * _pos(-a[j])
            if b.rows[j][k] != expect:
                return f"diagonal relation fails at ({j},{k}): {b.rows[j][k]} != {expect}"
    return None


def is_period1(b: ExchangeMatrix) -> bool:
    """Check the periodicity relations and cross-validate against mutation."""
    if period1_witness(b) is not None:
        return False
    if mutate_matrix(b, 0) != rho_conjugate(b):
        raise ArithmeticError("periodicity relations held but mutation cross-check failed")
    return True


def is_palindromic(a: Sequence[int]) -> bool:
    return list(a) == list(reversed(a))


def build_from_tuple(a: Sequence[int]) -> ExchangeMatrix:
    """The unique shift-periodic matrix whose first row is (0, a_1..a_{N-1}).

    Raises NotPalindromic unless a_j == a_{N-j}.  The result is checked
    against the defining relations before being returned.
    """
    a = tuple(int(x) for x in a)
    if not is_palindromic(a):
        raise NotPalindromic(f"tuple {a} is not palindromic")
    n = len(a) + 1
    first = (0,) + a
    rows: list[list[int]] = [list(first)]
    for j in range(1, n):
        row = [0] * n
        row[0] = -first[j]
        rows.append(row)
    for j in range(1, n - 1):
        for k in range(1, n - 1):
            rows[j][k] = rows[j - 1][k - 1] + first[j] * _pos(-first[k]) - first[k] * _pos(-first[j])
        rows[j][n - 1] = first[j + 1]
    for k in range(1, n - 1):
        rows[n - 1][k] = -rows[k][n - 1]
    m = ExchangeMatrix.from_rows(rows)
    witness = period1_witness(m)
    if witness is not None:
        raise AssertionError(f"builder produced a non-periodic matrix: {witness}")
    return m


# -- seeds with coefficients --------------------------------------------------


@dataclass(frozen=True)
class Seed:
    """A labelled seed: matrix plus positive rational cluster and coefficient
    tuples.  Coefficient addition uses ordinary + (the universal-positive
    semifield evaluated at rational points)."""

    b: ExchangeMatrix
    x: tuple[Fraction, ...]
    y: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.x) != self.b.n or len(self.y) != self.b.n:
            raise ValueError("cluster/coefficient tuples must match matrix size")
        if any(v <= 0 for v in self.x) or any(v <= 0 for v in self.y):
            raise ValueError("seed data must be positive")


def _sgn(v: int) -> int:
    return (v > 0) - (v < 0)


def mutate_seed(seed: Seed, k: int) -> Seed:
    """Seed mutation at node k: coefficient update first, then the exchange
    relation with coefficients."""
    b, x, y = seed.b, seed.x, seed.y
    n = b.n
    if not 0 <= k < n:
        raise IndexError(f"node {k} out of range")

    new_y = []
    for j in range(n):
        if j == k:
            new_y.append(1 / y[k])
        else:
            bkj = b[k, j]
            factor = (1 + y[k] ** (-_sgn(bkj))) ** (-bkj)
            new_y.append(y[j] * factor)

    top_plus = y[k]
    top_minus = Fraction(1)
    for j in range(n):
        bkj = b[k, j]
        if bkj > 0:
            top_plus *= x[j] ** bkj
        elif bkj < 0:
            top_minus *= x[j] ** (-bkj)
    new_xk = (top_plus + top_minus) / ((1 + y[k]) * x[k])

    new_x = tuple(new_xk if j == k else x[j] for j in range(n))
    return Seed(mutate_matrix(b, k), new_x, tuple(new_y))
