"""Exact multivariate Laurent polynomials over arbitrary-precision integers.

A :class:`LaurentPoly` is a finite sum ``sum(c * x^e)`` where ``c`` is a
nonzero Python int and ``e`` is a vector of (possibly negative) integer
exponents, one slot per variable.  All arithmetic is exact; no floating point
enters anywhere in this module.  The canonical term order used for leading
terms, printing and serialisation is lexicographic on the exponent vector,
largest first.

Internally each exponent vector is packed into one Python int (Kronecker
packing): variable ``i`` of ``n`` owns the ``FIELD_BITS``-wide bit field at
shift ``FIELD_BITS * (n - 1 - i)`` and stores ``e_i + 2**(FIELD_BITS - 2)``.
Variable 0 sits in the most significant field, so int order on keys is lex
order on exponent vectors, and a product key is ``ka + kb - offset``.  Every
stored field keeps its top bit clear; a sum or difference of two keys whose
fields leave that range shows a set top bit (or a borrow into one), so one
mask test detects overflow and, in division, a non-divisible monomial.
Exponents are limited to ``[EXP_MIN, EXP_MAX]``; anything outside raises
:class:`ExponentOverflowError` rather than wrapping into a neighbouring field.

Large operands whose exponents fill a small box are multiplied and divided
on a dense grid.  On the grid a polynomial is a list of rows: one int per
exponent of the first variable, each coefficient in a fixed-width signed
slot at the mixed-radix place of the other exponents, less their minimum.
Reading the other variables as powers of ``2**(8 * slot bytes)`` is a ring
homomorphism onto polynomials in the first one with int coefficients; on
polynomials of one box whose coefficients fit the slots it is injective.
The box of a product is the sum of its factors' boxes, since the extreme
terms in each variable never cancel.

- A product is the convolution of the row lists, one int product per pair
  of rows.  Slots of ``bits(max|a|) + bits(max|b|) + bits(min(|a|, |b|)) +
  2`` bits hold every coefficient of the product, so the digits read back
  are its coefficients.
- Division is long division of the rows, each leading row divided with
  ``divmod``; a divisor whose box is wider than the dividend's in some
  variable is refused before either division kernel runs.  By the
  homomorphism, a remainder proves that there is no quotient.  A quotient
  whose digits lie in the degree room and satisfy ``bits(max|q|) +
  bits(max|r|) + bits(min(|q|, |r|)) + 1 < slot bits`` is certified, since
  ``q * r`` and ``p`` are then two polynomials of the box with the same
  image.  Any other quotient goes to the heap division.
- The grid runs only where two properties of the operands say it pays: at
  least ``_SCAN_PAIRS`` term pairs per term and variable (which amortises
  the extent scan, and keeps monomial factors and rings with no variables
  off the grid), and at most ``_MUL_BITS`` (``_DIV_BITS``) cell bits per
  term pair.  The somos4 and somos5 orbits, in the two lattice coordinates
  of ``tsystem``, give small boxes; the larger boxes of somos6, somos7 and
  prim4 and of the coefficient symbols stay with the dict and heap loops.
"""

from __future__ import annotations

import re
import sys
from collections.abc import ItemsView, Mapping
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from math import prod
from operator import or_
from struct import calcsize
from typing import Iterator, Sequence

FIELD_BITS = 32
_BIAS = 1 << (FIELD_BITS - 2)
_FIELD = (1 << FIELD_BITS) - 1
EXP_MIN = -_BIAS
EXP_MAX = _BIAS - 1


class ZeroDivisorError(ZeroDivisionError):
    """Division by the zero Laurent polynomial."""


class ExponentOverflowError(OverflowError):
    """An exponent left the packed range ``[EXP_MIN, EXP_MAX]``."""


@lru_cache(maxsize=None)
def _layout(n: int) -> tuple[int, int, tuple[int, ...]]:
    """``(offset, mask, shifts)`` for ``n`` variables.

    ``offset`` is the key of the zero exponent vector, ``mask`` has the top
    bit of every field set, ``shifts[i]`` is the bit position of variable i.
    """
    shifts = tuple(FIELD_BITS * (n - 1 - i) for i in range(n))
    offset = sum(_BIAS << s for s in shifts)
    return offset, offset << 1, shifts


def _pack(exps: Sequence[int], n: int) -> int:
    if len(exps) != n:
        raise ValueError(f"exponent vector {tuple(exps)} does not match {n} variables")
    k = 0
    for e in exps:
        if not EXP_MIN <= e <= EXP_MAX:
            raise ExponentOverflowError(f"exponent {e} outside [{EXP_MIN}, {EXP_MAX}]")
        k = (k << FIELD_BITS) | (e + _BIAS)
    return k


def _unpack(k: int, shifts: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([((k >> s) & _FIELD) - _BIAS for s in shifts])


def _check_fields(keys, mask: int) -> None:
    """Raise unless every key keeps the top bit of every field clear."""
    if reduce(or_, keys, 0) & mask:
        raise ExponentOverflowError(
            f"an exponent left the packed range [{EXP_MIN}, {EXP_MAX}]")


def _make(variables: tuple[str, ...], packed: dict[int, int]) -> "LaurentPoly":
    r = LaurentPoly.__new__(LaurentPoly)
    r.vars, r._packed = variables, packed
    return r


class TermsView(Mapping):
    """Read-only ``{exponent tuple: coefficient}`` view of a polynomial."""

    __slots__ = ("_packed", "_shifts")

    def __init__(self, packed: dict[int, int], shifts: tuple[int, ...]):
        self._packed, self._shifts = packed, shifts

    def __getitem__(self, exps) -> int:
        try:
            k = _pack(exps, len(self._shifts))
        except (TypeError, ValueError, OverflowError):
            raise KeyError(exps) from None
        return self._packed[k]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        shifts = self._shifts
        return (_unpack(k, shifts) for k in self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def items(self):
        return _TermItems(self)

    def values(self):
        return self._packed.values()

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _TermItems(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping._packed.values())


class LaurentPoly:
    """Immutable-in-spirit sparse Laurent polynomial.

    ``terms`` is a read-only view mapping exponent tuples to nonzero integer
    coefficients.  The variable list is fixed per instance; binary operations
    require both operands to carry the same variable list.
    """

    __slots__ = ("vars", "_packed")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], int] | None = None):
        self.vars = tuple(variables)
        packed: dict[int, int] = {}
        if terms:
            width = len(self.vars)
            for exp, coef in terms.items():
                if coef == 0:
                    continue
                k = _pack(tuple(int(v) for v in exp), width)
                s = packed.get(k, 0) + int(coef)
                if s:
                    packed[k] = s
                else:
                    del packed[k]
        self._packed = packed

    @property
    def terms(self) -> TermsView:
        return TermsView(self._packed, _layout(len(self.vars))[2])

    # -- constructors ------------------------------------------------------

    @classmethod
    def const(cls, variables: Sequence[str], c: int) -> "LaurentPoly":
        z = (0,) * len(variables)
        return cls(variables, {z: c} if c else {})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coef: int = 1) -> "LaurentPoly":
        return cls(variables, {tuple(exps): coef})

    # -- predicates / inspection -------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_one(self) -> bool:
        return self._packed == {_layout(len(self.vars))[0]: 1}

    def n_terms(self) -> int:
        return len(self._packed)

    def min_exponent(self, var_index: int) -> int:
        if not self._packed:
            raise ValueError("zero polynomial has no exponents")
        s = _layout(len(self.vars))[2][var_index]
        return min((k >> s) & _FIELD for k in self._packed) - _BIAS

    def coefficients_positive(self) -> bool:
        return all(c > 0 for c in self._packed.values())

    # -- ring operations -----------------------------------------------------

    def _check_compat(self, other: "LaurentPoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compat(other)
        out = dict(self._packed)
        for k, c in other._packed.items():
            s = out.get(k, 0) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _make(self.vars, out)

    def __neg__(self) -> "LaurentPoly":
        return _make(self.vars, {k: -c for k, c in self._packed.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compat(other)
        a, b = (self, other) if len(self._packed) <= len(other._packed) else (other, self)
        if not a._packed:
            return _make(self.vars, {})
        grid = _mul_grid(a, b)
        return _mul_dense(a, b, grid) if grid is not None else _mul_sparse(a, b)

    def shift(self, exps: Sequence[int]) -> "LaurentPoly":
        """Multiply by the monomial ``x^exps``."""
        _, mask, shifts = _layout(len(self.vars))
        d = tuple(exps)
        if len(d) != len(shifts):
            raise ValueError(f"shift {d} does not match {len(shifts)} variables")
        # a shift of 2 * _BIAS or more leaves the range from any exponent; a
        # smaller one keeps every field sum within reach of the mask test
        if any(not -2 * _BIAS < v < 2 * _BIAS for v in d):
            raise ExponentOverflowError(f"shift {d} leaves the packed range")
        dk = sum(v << s for v, s in zip(d, shifts))
        out = {k + dk: c for k, c in self._packed.items()}
        _check_fields(out, mask)
        return _make(self.vars, out)

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError(f"negative power {n}")
        if n == 0:
            return LaurentPoly.const(self.vars, 1)
        result: LaurentPoly | None = None
        base = self
        k = n
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        assert result is not None
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.vars == other.vars
            and self._packed == other._packed
        )

    def __hash__(self):  # canonical frozen view
        return hash((self.vars, frozenset(self._packed.items())))

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Evaluate at nonzero rational values (exact)."""
        vals = []
        for name in self.vars:
            if name not in values:
                raise KeyError(f"no value supplied for variable {name}")
            v = Fraction(values[name])
            vals.append(v)
        total = Fraction(0)
        for e, c in self.terms.items():
            term = Fraction(c)
            for v, k in zip(vals, e):
                if k == 0:
                    continue
                if v == 0 and k < 0:
                    raise ZeroDivisionError("negative exponent at zero value")
                term *= v ** k
            total += term
        return total

    def partial(self, name: str) -> "LaurentPoly":
        """Exact partial derivative with respect to the named variable."""
        i = self.vars.index(name)
        out: dict[tuple[int, ...], int] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = e[:i] + (e[i] - 1,) + e[i + 1 :]
            nc = out.get(ne, 0) + c * e[i]
            if nc:
                out[ne] = nc
            else:
                out.pop(ne, None)
        return LaurentPoly(self.vars, out)

    # -- serialisation / display ----------------------------------------------

    def _sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in lex order, largest first (int order of the packed keys)."""
        shifts = _layout(len(self.vars))[2]
        return [(_unpack(k, shifts), c) for k, c in sorted(self._packed.items(), reverse=True)]

    def to_json(self) -> dict:
        terms = [{"exp": list(e), "coef": _int_text(c)} for e, c in self._sorted_terms()]
        return {"vars": list(self.vars), "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "LaurentPoly":
        return cls(data["vars"], {tuple(t["exp"]): parse_int(t["coef"])
                                  for t in data["terms"]})

    def __str__(self) -> str:
        if not self._packed:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = []
            for name, k in zip(self.vars, e):
                if k == 1:
                    factors.append(name)
                elif k != 0:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(_int_text(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{_int_text(c)}*{body}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self})"


def _mul_sparse(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """The product by the loop over term pairs into a dict."""
    offset, mask, _ = _layout(len(a.vars))
    out: dict[int, int] = {}
    get = out.get
    bitems = b._packed.items()
    for ka, ca in a._packed.items():
        d = ka - offset
        for kb, cb in bitems:
            k = d + kb
            out[k] = get(k, 0) + ca * cb
    # checked before cancelled terms are dropped, so that no out-of-range
    # key can hide behind a zero coefficient
    _check_fields(out, mask)
    if 0 in out.values():
        out = {k: c for k, c in out.items() if c}
    return _make(a.vars, out)


def _field_extent(packed: dict[int, int], shifts: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum of the biased field values."""
    lo, hi = [], []
    for s in shifts:
        col = [(k >> s) & _FIELD for k in packed]
        lo.append(min(col))
        hi.append(max(col))
    return lo, hi


def monomial_map(p: LaurentPoly, variables: Sequence[str], images: Sequence[Sequence[int]],
                 base: Sequence[int]) -> LaurentPoly:
    """``x^base * p(x^images[0], ..., x^images[r-1], y)`` over ``variables``.

    The first r variables of ``p`` go to monomials in the first variables
    x of ``variables``, with linearly independent exponent vectors
    ``images``; the variables y of ``p`` after them are the last ones of
    ``variables``.  A key maps to the packed base plus its exponents times
    the packed images, plus its low fields, which hold y in both layouts.
    """
    variables = tuple(variables)
    r, nx = len(images), len(base)
    if len(p.vars) - r != len(variables) - nx:
        raise ValueError(f"{len(p.vars) - r} variables of {p.vars} do not carry over "
                         f"to the last {len(variables) - nx} of {variables}")
    in_shifts, shifts = _layout(len(p.vars))[2], _layout(len(variables))[2]
    keys = list(p._packed)
    cols = [[((k >> s) & _FIELD) - _BIAS for k in keys] for s in in_shifts[:r]]
    # the largest absolute exponent of each mapped variable of p
    top = [max(-min(c), max(c)) for c in cols] if keys else [0] * r
    if all(abs(b) + sum(abs(img[j]) * t for img, t in zip(images, top)) <= EXP_MAX
           for j, b in enumerate(base)):
        start = sum((v + _BIAS) << s for v, s in zip(base, shifts))
        low = (1 << FIELD_BITS * (len(variables) - nx)) - 1
        out = [start + (k & low) for k in keys]
        for img, col in zip(images, cols):
            lift = sum(v << s for v, s in zip(img, shifts))
            out = [o + c * lift for o, c in zip(out, col)]
    else:
        # an image exponent may leave the range: pack term by term, which
        # raises only for one that does
        out = [_pack([b + sum(c[t] * img[j] for img, c in zip(images, cols))
                      for j, b in enumerate(base)] + list(_unpack(k, in_shifts)[r:]),
                     len(variables)) for t, k in enumerate(keys)]
    mapped = dict(zip(out, p._packed.values()))
    if len(mapped) < len(keys):
        raise ValueError("monomial images are not linearly independent")
    return _make(variables, mapped)


def laurent_try_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Exact division in the Laurent ring: return ``r`` with ``q * r == p``.

    Returns None when no such Laurent polynomial exists.  An exact quotient
    has degree ``deg p - deg q`` in every variable, so a divisor wider than
    the dividend in some variable has none.  Large operands whose support
    spans a small lattice go to the dense row division (``_div_dense``), the
    rest to the heap division.
    """
    if q.is_zero():
        raise ZeroDivisorError("division by the zero Laurent polynomial")
    if p.vars != q.vars:
        raise ValueError("variable mismatch in division")
    if p.is_zero():
        return _make(p.vars, {})
    shifts = _layout(len(p.vars))[2]
    (lo_p, hi_p), (lo_q, hi_q) = _field_extent(p._packed, shifts), _field_extent(q._packed, shifts)
    room = [(hp - lp) - (hq - lq) for lp, hp, lq, hq in zip(lo_p, hi_p, lo_q, hi_q)]
    if any(r < 0 for r in room):
        return None
    grid = _div_grid(p, q, (lo_p, hi_p), lo_q)
    return _div_dense(p, q, grid, room) if grid is not None else _div_heap(p, q, lo_p, lo_q, room)


def _div_heap(p: LaurentPoly, q: LaurentPoly, lo_p: list[int], lo_q: list[int],
              room: list[int]) -> LaurentPoly | None:
    """Division of nonzero operands by lex leading terms.

    Monomial factors are units here, so both operands are first shifted to
    honest polynomials with componentwise-minimal exponent zero, then
    reduced by lex leading terms.  Over the integers the reduction is both
    sound and complete: if ``q`` divides ``p`` every intermediate leading
    term stays divisible.

    The shifted keys carry plain (unbiased) exponents.  The remainder is a
    dict with a max-heap of its keys; a cancelled term stays behind with
    coefficient 0 and is skipped when popped.  An exact quotient has degree
    ``room = deg p - deg q`` in every variable, so a quotient term outside
    that box proves there is none; the box also keeps every remainder key
    inside the degree range of ``p``, far from the field limits.  ``lo_p``
    and ``lo_q`` are the operands' least biased fields (``_field_extent``)
    and every entry of ``room`` is nonnegative.
    """
    offset, mask, shifts = _layout(len(p.vars))
    box = sum(r << s for r, s in zip(room, shifts))
    kmp = sum(v << s for v, s in zip(lo_p, shifts))
    kmq = sum(v << s for v, s in zip(lo_q, shifts))

    rem = {k - kmp: c for k, c in p._packed.items()}
    qterms = sorted(((k - kmq, c) for k, c in q._packed.items()), reverse=True)
    (lead_q, cq), tail = qterms[0], qterms[1:]
    heap = [-k for k in rem]
    heapify(heap)
    quot: dict[int, int] = {}

    while heap:
        k = -heappop(heap)
        cr = rem.pop(k)
        if not cr:
            continue
        e = k - lead_q
        # top bit of a field in e: negative exponent; in box - e: past the box
        if (e | (box - e)) & mask or cr % cq:
            return None
        c = cr // cq
        quot[e] = c
        for kq, cqq in tail:
            kk = e + kq
            s = rem.get(kk)
            if s is None:
                rem[kk] = -c * cqq
                heappush(heap, -kk)
            else:
                rem[kk] = s - c * cqq

    back = kmp - kmq + offset
    out = {e + back: c for e, c in quot.items()}
    _check_fields(out, mask)
    return _make(p.vars, out)


# -- dense kernels on the exponent box -----------------------------------------

# Dispatch (_gate): the dense kernels run only when the term pairs pay for
# the extent scan (at least _SCAN_PAIRS per term and variable) and the grid
# is small against the work it replaces (cells times slot bits at most
# _MUL_BITS per term pair for a product, _DIV_BITS per pair of dividend and
# divisor terms for a division).
_SCAN_PAIRS = 16
_MUL_BITS = 8
_DIV_BITS = 2

_ORDER = "little"
# memoryview formats that read little-endian slots of 1, 2, 4 or 8 bytes
_CAST = {calcsize(f): f for f in "bhiq"} if sys.byteorder == _ORDER else {}


def _bits(p: LaurentPoly) -> int:
    return max(map(abs, p._packed.values())).bit_length()


def _slot_bytes(bits: int) -> int:
    """Bytes for a slot of ``bits`` bits: up to 8, a power of two, so that
    ``_digits`` reads the slots with one ``memoryview.cast``."""
    w = -(-bits // 8)
    return 1 << (w - 1).bit_length() if w <= 8 else w


def _rows(p: LaurentPoly, lo: list[int], dims: list[int], w: int) -> list[int]:
    """``p`` laid out on the grid: one int per exponent of the first
    variable, holding each coefficient in the ``w``-byte slot at the mixed
    radix ``dims[1:]`` place of the other exponents (less ``lo``)."""
    shifts = _layout(len(p.vars))[2]
    keys = p._packed
    width = prod(dims[1:])
    flat = [(((k >> shifts[0]) & _FIELD) - lo[0]) * width for k in keys]
    stride = width
    for s, low, d in zip(shifts[1:], lo[1:], dims[1:]):
        stride //= d
        flat = [f + (((k >> s) & _FIELD) - low) * stride for f, k in zip(flat, keys)]
    size = width * w
    nrows = max(flat) // width + 1
    pos = bytearray(nrows * size)
    neg = bytearray(nrows * size) if min(p._packed.values()) < 0 else None
    for f, c in zip(flat, p._packed.values()):
        if c > 0:
            pos[f * w:f * w + w] = c.to_bytes(w, _ORDER)
        else:
            neg[f * w:f * w + w] = (-c).to_bytes(w, _ORDER)
    starts = range(0, nrows * size, size)
    rows = [int.from_bytes(memoryview(pos)[i:i + size], _ORDER) for i in starts]
    if neg:
        rows = [r - int.from_bytes(memoryview(neg)[i:i + size], _ORDER) for r, i in zip(rows, starts)]
    return rows


@lru_cache(maxsize=256)
def _half(width: int, w: int) -> int:
    """``2**(8w - 1)`` in each of ``width`` slots of ``w`` bytes."""
    return int.from_bytes((1 << (8 * w - 1)).to_bytes(w, _ORDER) * width, _ORDER)


def _digits(row: int, width: int, w: int) -> list[int] | None:
    """The balanced ``w``-byte digits of ``row``, or None past ``width`` slots."""
    half = _half(width, w)
    v = row + half
    if v < 0 or v.bit_length() > 8 * w * width:
        return None
    # adding half, then flipping each slot's top bit, leaves each slot in
    # two's complement
    b = (v ^ half).to_bytes(w * width, _ORDER)
    if w in _CAST:
        return memoryview(b).cast(_CAST[w]).tolist()
    return [int.from_bytes(b[i:i + w], _ORDER, signed=True) for i in range(0, len(b), w)]


def _decode(rows: list[int], low: list[int], dims: list[int], w: int,
            room: list[int]) -> dict[int, int] | None:
    """The terms of grid rows as ``{key: coefficient}``, lex largest first.

    The cell ``u`` holds the exponent vector ``low + u``.  Returns None when
    a row's digits do not fit its slots or a nonzero digit lies past
    ``room``.
    """
    shifts = _layout(len(low))[2]
    cells: list[int | None] = [sum((v + _BIAS) << s for v, s in zip(low, shifts))]
    for s, d, r in zip(shifts[1:], dims[1:], room[1:]):
        cells = [None if k is None or u > r else k + (u << s) for k in cells for u in range(d)]
    width = len(cells)
    out = {}
    for u0 in reversed(range(len(rows))):
        if not rows[u0]:
            continue
        digits = _digits(rows[u0], width, w)
        if digits is None:
            return None
        base = u0 << shifts[0]
        for pos, c in reversed([t for t in enumerate(digits) if t[1]]):
            k = cells[pos]
            if k is None:
                return None
            out[base + k] = c
    return out


def _gate(a: LaurentPoly, b: LaurentPoly) -> int | None:
    """The slot bytes of a grid for ``a`` and ``b``, or None when their term
    pairs do not pay for its extent scan.  A ring with no variables has no
    grid, whatever ``_SCAN_PAIRS`` is."""
    na, nb = len(a._packed), len(b._packed)
    if not a.vars or na * nb < _SCAN_PAIRS * len(a.vars) * (na + nb):
        return None
    # a product coefficient is a sum of at most min(na, nb) products
    return _slot_bytes(_bits(a) + _bits(b) + min(na, nb).bit_length() + 2)


def _mul_grid(a: LaurentPoly, b: LaurentPoly):
    """The grid of the dense product of ``a`` and ``b``, or None when the
    term-pair loop is the better choice."""
    w = _gate(a, b)
    if w is None:
        return None
    shifts = _layout(len(a.vars))[2]
    lo_a, hi_a = _field_extent(a._packed, shifts)
    lo_b, hi_b = _field_extent(b._packed, shifts)
    dims = [ha - la + hb - lb + 1 for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b)]
    if prod(dims) * 8 * w > _MUL_BITS * len(a._packed) * len(b._packed):
        return None
    return lo_a, lo_b, dims, w


def _mul_dense(a: LaurentPoly, b: LaurentPoly, grid) -> LaurentPoly:
    """The product as a convolution of grid rows, one int product per pair."""
    lo_a, lo_b, dims, w = grid
    rows = [0] * dims[0]
    rb = list(enumerate(_rows(b, lo_b, dims, w)))
    for i, x in enumerate(_rows(a, lo_a, dims, w)):
        if x:
            for j, y in rb:
                if y:
                    rows[i + j] += x * y
    low = [la + lb - 2 * _BIAS for la, lb in zip(lo_a, lo_b)]
    out = _decode(rows, low, dims, w, [d - 1 for d in dims])
    # the extreme terms in each variable never cancel, so checking the
    # surviving keys catches every exponent past the range
    _check_fields(out, _layout(len(a.vars))[1])
    return _make(a.vars, out)


def _div_grid(p: LaurentPoly, q: LaurentPoly, p_box, lo_q: list[int]):
    """The grid of ``p`` (whose ``_field_extent`` is ``p_box``) for a dense
    division by ``q`` (whose least fields are ``lo_q``), or None when the
    heap division is the better choice."""
    # sized for a quotient no larger than p; a larger one goes to the heap
    w = _gate(p, q)
    if w is None:
        return None
    lo, hi = p_box
    dims = [h - low + 1 for low, h in zip(lo, hi)]
    if prod(dims) * 8 * w > _DIV_BITS * len(p._packed) * len(q._packed):
        return None
    return lo, lo_q, dims, w


def _div_dense(p: LaurentPoly, q: LaurentPoly, grid, room: list[int]) -> LaurentPoly | None:
    """Long division of grid rows, each leading row divided with ``divmod``,
    in the nonnegative degree ``room`` of the quotient.

    Returns the quotient, or None when there is none; a quotient that the
    grid cannot certify is the heap division's to decide.
    """
    lo, lo_q, dims, w = grid
    prows = _rows(p, lo, dims, w)
    qrows = _rows(q, lo_q, dims, w)
    k, lead = len(qrows) - 1, qrows[-1]
    tail = list(enumerate(qrows[:-1]))
    quot = [0] * (room[0] + 1)
    for i in reversed(range(room[0] + 1)):
        if prows[i + k]:
            c, rest = divmod(prows[i + k], lead)
            if rest:
                return None
            quot[i] = c
            for j, y in tail:
                if y:
                    prows[i + j] -= c * y
    if any(prows[:k]):
        return None
    out = _decode(quot, [a - b for a, b in zip(lo, lo_q)], dims, w, room)
    # q * out == p holds once no slot of that product can overflow
    if out is None or (_bits(q) + max(map(abs, out.values())).bit_length()
                       + min(len(out), len(q._packed)).bit_length() + 1 >= 8 * w):
        return _div_heap(p, q, lo, lo_q, room)
    _check_fields(out, _layout(len(p.vars))[1])
    return _make(p.vars, out)


_RATIONAL = re.compile(r"([+-]?\d+)(?:/(\d+))?")

# int() and str() refuse more than sys.get_int_max_str_digits() digits;
# Decimal does not, so these two go through it past that limit
def parse_int(text: str) -> int:
    """Parse a decimal integer, at any length."""
    try:
        return int(text)
    except ValueError:
        if not re.fullmatch(r"\s*[+-]?\d+\s*", text):
            raise
        return int(Decimal(text))


def _int_text(n: int) -> str:
    try:
        return str(n)
    except ValueError:
        return str(Decimal(n))


def parse_rational(text: str) -> Fraction:
    """Parse ``p`` or ``p/q`` into an exact Fraction, at any length."""
    text = text.strip()
    try:
        return Fraction(text)
    except ValueError:
        m = _RATIONAL.fullmatch(text)
        if m is None:
            raise
        num, den = (parse_int(g) for g in m.groups("1"))
        return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    """``p`` or ``p/q`` in lowest terms, at any length."""
    x = Fraction(x)
    num = _int_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{_int_text(x.denominator)}"
