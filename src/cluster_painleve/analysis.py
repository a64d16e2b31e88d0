"""Integrability diagnostics for bilinear-recurrence orbits.

Degree growth of the iterates (per-variable denominator degree), its exact
max-plus shadow, entropy estimation from exact ratio data, detection of
constant-coefficient linear relations, and the order-2 reduced invariant of
the (-1, 2, -1) system.

A stride scan asks `relation_search` about the same orbit values many
times, so the search reads their residues modulo P = 2^61 - 1 from the
orbit (`Orbit.residue`), each computed once.  That list is safe to keep:
an entry holds the value it was computed from and is recomputed when
`orb.values[n]` is not that object, so edits to `values` never leave a
stale residue, and a value whose denominator P divides has none, in which
case the search skips the certificate and takes the exact path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .intlinalg import rank_residues, solve
from .laurent import format_rational
from .tsystem import Orbit


MIN_DEGREES = 12  # shortest degree sequence entropy_estimate accepts


class TooShort(ValueError):
    pass


class InsufficientData(ValueError):
    pass


class ZeroProduct(ValueError):
    pass


# -- degree growth ---------------------------------------------------------------


@dataclass(frozen=True)
class DegreeSequence:
    """Signed degree data: values[n] = -(min exponent) of the tracked variable
    in iterate n (so the entry for the variable itself is -1, and positive
    values measure denominator growth).  `d` is the floored nonnegative view.
    """

    values: tuple[int, ...]
    definition: str

    @cached_property  # kept in the instance's __dict__, outside the fields
    def d(self) -> tuple[int, ...]:
        return tuple(max(0, v) for v in self.values)

    def __len__(self) -> int:
        return len(self.values)


def degree_sequence(xorb: Orbit, variable: int) -> DegreeSequence:
    """Denominator-degree growth along a symbolic orbit.

    variable: 1-based position in the initial window.
    """
    if xorb.kind != "symbolic":
        raise ValueError("degree extraction needs a symbolic orbit")
    n = xorb.stencil.n
    if not 1 <= variable <= n:
        raise ValueError(f"variable index must be in 1..{n}")
    name = f"x{variable - 1}"
    vals = [-p.min_exponent(p.vars.index(name)) for p in xorb.values]
    return DegreeSequence(tuple(vals), f"denominator:x{variable}")


def tropical_iterate(a: Sequence[int], init: Sequence[int], steps: int) -> DegreeSequence:
    """Max-plus shadow X_{n+N} = max(sum [a]_+ X, sum [-a]_+ X) - X_n.

    With init -e_i (unit self-degree at slot i) this reproduces the signed
    per-variable degree data of the symbolic orbit exactly, term by term,
    because all iterates have positive coefficients (no cancellation).
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    n = len(a) + 1
    if len(init) != n:
        raise ValueError(f"initial data must have {n} entries")
    # (offset, coefficient) over the nonzero entries of [a]_+ and [-a]_+
    ups = [(j + 1, c) for j, c in enumerate(a) if c > 0]
    dns = [(j + 1, -c) for j, c in enumerate(a) if c < 0]
    xs = [int(v) for v in init]
    for m in range(steps):
        up = dn = 0
        for j, c in ups:
            up += c * xs[m + j]
        for j, c in dns:
            dn += c * xs[m + j]
        xs.append((up if up > dn else dn) - xs[m])
    return DegreeSequence(tuple(xs), "tropical")


# -- algebraic entropy -----------------------------------------------------------


@dataclass(frozen=True)
class EntropyEstimate:
    entropy: float
    fit: str  # "polynomial" | "exponential"
    degree: int | None
    band: float
    note: str


def _aitken(r: list[Fraction]) -> Fraction:
    """One exact Aitken acceleration step on the last three ratios."""
    r0, r1, r2 = r[-3], r[-2], r[-1]
    denom = (r2 - r1) - (r1 - r0)
    if denom == 0:
        return r2
    return r2 - (r2 - r1) ** 2 / denom


# weights of the (k+1)-th forward difference: (-1)^(k+1-j) C(k+1, j) at offset j
_DIFFERENCE_WEIGHTS = tuple(tuple((-1) ** (k + 1 - j) * math.comb(k + 1, j)
                                  for j in range(k + 2)) for k in range(5))


def _poly_by_differences(seq: list[int]) -> tuple[int, int, int] | None:
    """Exact polynomial detection: (degree, stride, start) such that the
    (degree+1)-th forward difference at the stride vanishes identically from
    `start` on.  Covers growth that is polynomial up to a periodic wobble
    (the wobble is killed by differencing at its period).  The smallest such
    `start` is one past the last nonzero difference; it counts when it is at
    most a third of the sequence and leaves at least 5 zeros.

    So a pair (order, stride) counts exactly when every difference from
    `limit = min(m - 5, len(seq) // 3)` on is zero, m being the length of
    the difference list, and one nonzero at or past `limit` puts `start`
    past it and settles a miss.  The last 5 differences all lie at or past
    `limit`; each is computed straight from `seq` with the weights of
    `_DIFFERENCE_WEIGHTS`, and a pair goes on to the next at the first
    nonzero one.  Only a pair whose tail is zero builds its difference list,
    which confirms the rest of the tail and gives `start`.  A miss thus
    costs a few products per pair instead of a pass over the sequence.
    """
    n = len(seq)
    for s in range(1, 9):
        for k, w in enumerate(_DIFFERENCE_WEIGHTS):
            m = n - (k + 1) * s
            if m < 5:
                break
            if any(sum(c * seq[i + j * s] for j, c in enumerate(w))
                   for i in range(m - 5, m)):
                continue
            d = seq
            for _ in range(k + 1):
                d = [b - a for a, b in zip(d, d[s:])]
            start = m
            while start and not d[start - 1]:
                start -= 1
            if start <= min(m - 5, n // 3):
                return k, s, start
    return None


def entropy_estimate(d) -> EntropyEstimate:
    """Entropy of a degree sequence from exact successive ratios.

    Ratios are accelerated as exact rationals; logarithms are taken only for
    the final report.  Sequences whose tail ratio has collapsed relative to
    the mid-sequence ratio are classified polynomial (entropy 0) with a
    log-log degree estimate.
    """
    seq = list(d.d) if isinstance(d, DegreeSequence) else [max(0, int(v)) for v in d]
    if len(seq) < MIN_DEGREES:
        raise TooShort(f"need at least {MIN_DEGREES} degrees, got {len(seq)}")
    hit = _poly_by_differences(seq)
    if hit is not None:
        deg, stride, start = hit
        note = (f"exact polynomial: order-{deg + 1} differences at stride {stride} "
                f"vanish from n={start}")
        return EntropyEstimate(0.0, "polynomial", deg, 0.0, note)
    last = len(seq) - 1
    # bounded / eventually-flat data never has positive entropy
    if seq[last] == 0 or seq[last - 1] == 0:
        return EntropyEstimate(0.0, "polynomial", 0, 0.0,
                               "bounded sequence (zero tail)")
    first_pos = next(i for i, v in enumerate(seq) if v > 0)
    mid = max(first_pos + 1, last // 2)
    if seq[mid] == 0 or seq[mid - 1] == 0 or mid + 1 >= last:
        return EntropyEstimate(0.0, "polynomial", 0, 0.0,
                               "bounded sequence (sparse positives)")
    s_tail = math.log(Fraction(seq[last], seq[last - 1]))
    s_mid = math.log(Fraction(seq[mid], seq[mid - 1]))
    if s_mid <= 0 or s_tail <= 0.6 * s_mid:
        if seq[last] == seq[mid]:
            deg = 0
        else:
            deg = round(math.log(seq[last] / seq[mid]) / math.log(last / mid))
        note = f"ratios decay (tail {s_tail:.4f} vs mid {s_mid:.4f}); log-log slope ~{deg}"
        return EntropyEstimate(0.0, "polynomial", int(deg), abs(s_tail), note)
    ratios = [Fraction(seq[m + 1], seq[m]) for m in range(mid - 1, last)]
    if len(ratios) < 4:
        raise TooShort("not enough positive tail ratios to extrapolate")
    acc_prev = _aitken(ratios[:-1])
    acc = _aitken(ratios)
    if acc <= 0 or acc_prev <= 0:
        acc, acc_prev = ratios[-1], ratios[-2]
    ent = math.log(acc)
    band = max(abs(ent - math.log(acc_prev)), 1e-12)
    note = (f"exponential fit; accelerated ratio {float(acc):.8f}, "
            f"raw tail ratio {float(ratios[-1]):.8f}")
    return EntropyEstimate(ent, "exponential", None, band, note)


# -- linear relations ------------------------------------------------------------


@dataclass(frozen=True)
class LinearRelation:
    offsets: tuple[int, ...]
    coefficients: tuple[Fraction, ...]  # c_0 = 1
    verified_window: int
    palindromic: bool

    def format_text(self) -> str:
        parts = []
        for o, c in zip(self.offsets, self.coefficients):
            term = "x[n]" if o == 0 else f"x[n+{o}]"
            parts.append(f"({format_rational(c)})*{term}")
        return " + ".join(parts) + " = 0"


@dataclass(frozen=True)
class RelationSearch:
    """Full diagnostics of one relation search (see relation_search)."""

    offsets: tuple[int, ...]
    train_rank: int
    solution_dim: int  # affine solution-space dimension; -1 when inconsistent
    relation: LinearRelation | None
    status: str  # "found" | "inconsistent" | "underdetermined" | "failed-verify"


def _certified_inconsistent(orb: Orbit, offs: tuple[int, ...], train: int) -> bool:
    """Do the training windows (x_{n+o} for o in offs), n < train, have full
    column rank modulo P?  Rank only drops modulo P, so they then have full
    rank over Q and no relation with c_0 = 1 fits them.  False when P
    divides a denominator: the certificate does not apply."""
    rows = [[orb.residue(n + o) for o in offs] for n in range(train)]
    if any(None in row for row in rows):
        return False
    return rank_residues(rows) == len(offs)


def check_search_shape(offsets: Sequence[int], train: int, verify: int) -> tuple[int, ...]:
    """The offsets as ints; ValueError for offsets or counts no orbit can serve."""
    offs = tuple(int(o) for o in offsets)
    if len(offs) < 2 or offs[0] != 0 or any(b <= a for a, b in zip(offs, offs[1:])):
        raise ValueError("offsets must be strictly increasing and start at 0")
    if train < 1 or verify < 1:
        raise ValueError("train and verify counts must be positive")
    return offs


def relation_search(orb: Orbit, offsets: Sequence[int], train: int, verify: int) -> RelationSearch:
    """Exact relation sum_k c_k x_{n+o_k} = 0 with c_0 = 1, solved on `train`
    windows and kept only if it holds exactly on `verify` further ones."""
    if orb.kind != "rational":
        raise ValueError("relation search needs a rational orbit")
    offs = check_search_shape(offsets, train, verify)
    need = offs[-1] + train + verify
    if len(orb.values) < need:
        raise InsufficientData(f"orbit has {len(orb.values)} values; need {need}")
    vals = orb.values
    m = len(offs) - 1
    if train > m and _certified_inconsistent(orb, offs, train):
        return RelationSearch(offs, m, -1, None, "inconsistent")
    rows = [[vals[n + o] for o in offs[1:]] for n in range(train)]
    rank, dim, sol = solve(rows, [-vals[n] for n in range(train)])
    if dim == -1:
        return RelationSearch(offs, rank, -1, None, "inconsistent")
    if dim > 0:
        return RelationSearch(offs, rank, dim, None, "underdetermined")
    coeffs = (Fraction(1),) + tuple(sol)
    for n in range(train, train + verify):
        if sum(c * vals[n + o] for c, o in zip(coeffs, offs)) != 0:
            return RelationSearch(offs, rank, 0, None, "failed-verify")
    pal = list(coeffs) == list(reversed(coeffs))
    rel = LinearRelation(offs, coeffs, verify, pal)
    return RelationSearch(offs, rank, 0, rel, "found")


# -- reduced invariant of the (-1, 2, -1) system ----------------------------------


def somos4_first_integral(u1: Fraction, u2: Fraction) -> Fraction:
    """H = ((U1 U2)^2 + U1 + U2 + 1) / (U1 U2), constant along reduced orbits."""
    u1, u2 = Fraction(u1), Fraction(u2)
    prod = u1 * u2
    if prod == 0:
        raise ZeroProduct("first integral undefined when U1*U2 = 0")
    return (prod ** 2 + u1 + u2 + 1) / prod
