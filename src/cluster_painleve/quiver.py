"""Skew-symmetric exchange matrices, mutation, and shift-periodicity.

Indexing is 0-based throughout: node ``k`` of an ``N``-node quiver satisfies
``0 <= k < N``, and the cyclic relabelling ``rho`` sends node 0 to node N-1
and every other node down by one.  A matrix is *shift-periodic* when mutation
at node 0 equals that relabelling, which pins the whole matrix down to its
first row; the first row (minus its leading zero) is then a palindromic
integer tuple.

The rows of such a matrix B span a rank-r sublattice im B of Z^N that is
invariant under the shift s and the reversal of the index window.  It has a
Z-basis of the shifts s^0(v), ..., s^{r-1}(v) of one palindromic integer
vector v with v[0] = 1 whose support has length N-r+1 (`palindromic_basis`).
The monomials U_n = x^{s^n v} are the reduced variables of `reduction` and
the lattice coordinates of symbolic orbits in `tsystem`.

Reading a vector as the polynomial of its ascending entries, s is
multiplication by lambda, and `palindromic_basis` takes v as the primitive
gcd in Z[lambda] of the row polynomials b_j(lambda) = sum_k B[j][k] lambda^k.
Shift-periodicity is its precondition, and it gives r = N - deg v:

- Mutation at node 0 is mu_0(B) = E B E^T with E unimodular: the identity
  except in column 0, where E[0][0] = -1 and E[i][0] = [B[i][0]]_+ =
  [-a_i]_+.  Shift-periodicity says mu_0(B) is the cyclic relabelling
  P B P^T, so T = P^{-1} E maps the rational row space R of B onto itself.
- On polynomials, lambda T(x) = x - x[0] g with
  g(lambda) = lambda^N - sum_i [-a_i]_+ lambda^i + 1.  Identify Q^N with
  Q[lambda]/(g); as g(0) = 1, lambda is a unit there and T is
  multiplication by lambda^{-1}.  lambda is a polynomial in its inverse in
  this finite-dimensional algebra, so R is an ideal (h)/(g) with h | g,
  and dim R = N - deg h.
- A polynomial of degree < N lies in (h)/(g) exactly when h divides it.
  So h divides every row, hence v; for B != 0, h lies in R, so v divides
  h.  Thus rank B = N - deg v = r, and v | g, over Z by Gauss's lemma.
- Each b_j is v c_j with deg c_j < r, and c_j is integral by Gauss's lemma,
  since v is primitive.  So every row lies in L, the span of s^i(v) for
  i < r.  L is saturated, as content(v c) = content(c), and so is im B,
  the saturation of the row span of B; both have rank r, so they are equal.
- g is monic, so the leading entry of v is +-1, and 1 after the sign
  normalisation; so is v[0] once v is palindromic.  Nothing above proves
  that v is not anti-palindromic, so that stays checked.

The Hermite route of `intlinalg` (`image_lattice_basis`, `lattice_equal`)
computes the same lattice independently and stays as its reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import poly_gcd


class NotPalindromic(ValueError):
    """Tuple fails a_j == a_{N-j}."""


class EliminationFailed(ArithmeticError):
    """Matrix that is not shift-periodic, or an internal consistency failure
    while reducing (should never happen)."""


def _pos(b: int) -> int:
    return b if b > 0 else 0


def power_product(values: Sequence, exps: Sequence[int], one=1):
    """prod_j values[j] ** exps[j] over the nonzero exponents only, from the
    first factor on; `one` when there are none."""
    acc = None
    for v, e in zip(values, exps):
        if e:
            acc = v ** e if acc is None else acc * v ** e
    return one if acc is None else acc


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


def build_from_tuple(a: Sequence[int]) -> ExchangeMatrix:
    """The unique shift-periodic matrix whose first row is (0, a_1..a_{N-1}).

    Raises NotPalindromic unless a_j == a_{N-j}.  Every entry is set from the
    first row, the last-column relation or the diagonal relation, the same
    relations `period1_witness` tests, so the result needs no re-check.
    """
    a = tuple(int(x) for x in a)
    if a != a[::-1]:
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
    return ExchangeMatrix.from_rows(rows)


# -- palindromic lattice bases --------------------------------------------------


@dataclass(frozen=True)
class PalindromicBasis:
    """Z-basis s^0(v), ..., s^{r-1}(v) of the row lattice of B."""

    n: int
    rank: int
    generator: tuple[int, ...]

    def __post_init__(self):
        # the pivot 1 keeps `coordinates` integral (module docstring)
        if self.rank and self.generator[0] != 1:
            raise ValueError(f"generator {self.generator} must lead with 1")

    @property
    def vectors(self) -> tuple[tuple[int, ...], ...]:
        out = []
        for i in range(self.rank):
            out.append(tuple([0] * i + list(self.generator[: self.n - i])))
        return tuple(out)

    def coordinates(self, exps: Sequence[int]) -> tuple[int, ...] | None:
        """Integers c with sum_i c_i s^i(v) == exps, or None if there are none.

        Row s^i(v) has the pivot v[0] = 1 in column i and zeros before it, so
        the first r columns give c by forward substitution and the remaining
        ones must then vanish.  v is zero past index n - r, so column j meets
        only the rows i >= j - (n - r).
        """
        if len(exps) != self.n:
            raise ValueError(f"exponent vector must have {self.n} entries")
        v, r = self.generator, self.rank
        w = self.n - r
        c: list[int] = []
        for j, e in enumerate(exps):
            res = e - sum(c[i] * v[j - i] for i in range(max(0, j - w), len(c)))
            if j < r:
                c.append(res)
            elif res:
                return None
        return tuple(c)


def palindromic_basis(b: ExchangeMatrix) -> PalindromicBasis:
    """Shift-palindromic Z-basis of im B of a shift-periodic B (unique up to
    overall sign; the generator leads with 1).

    v is the primitive gcd of the row polynomials of B, and r = N - deg v
    (see the module docstring).  Raises EliminationFailed, naming the failed
    relation, when B is not shift-periodic.
    """
    witness = period1_witness(b)
    if witness is not None:
        raise EliminationFailed(f"matrix is not shift-periodic: {witness}")
    n = b.n
    v = poly_gcd(b.rows)
    if not v:
        return PalindromicBasis(n, 0, (0,) * n)
    if v != v[::-1]:
        raise EliminationFailed(f"generator {v} is not palindromic")
    r = n - len(v) + 1
    return PalindromicBasis(n, r, v + (0,) * (r - 1))


# -- coefficient mutation -------------------------------------------------------


def _sgn(v: int | Fraction) -> int:
    return (v > 0) - (v < 0)


def mutate_seed(b: ExchangeMatrix, y: Sequence[Fraction],
                k: int) -> tuple[ExchangeMatrix, tuple[Fraction, ...]]:
    """Mutation at node k of a matrix with positive rational coefficients.

    Coefficient addition is ordinary + (the universal-positive semifield
    evaluated at rational points); the cluster variables are not carried.
    """
    n = b.n
    if not 0 <= k < n:
        raise IndexError(f"node {k} out of range")
    new_y = []
    for j in range(n):
        if j == k:
            new_y.append(1 / y[k])
        else:
            bkj = b.rows[k][j]
            new_y.append(y[j] * (1 + y[k] ** (-_sgn(bkj))) ** (-bkj))
    return mutate_matrix(b, k), tuple(new_y)
