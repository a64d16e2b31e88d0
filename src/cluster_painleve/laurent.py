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
"""

from __future__ import annotations

import json
import re
from collections.abc import ItemsView, Mapping
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_
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
    def zero(cls, variables: Sequence[str]) -> "LaurentPoly":
        return cls(variables)

    @classmethod
    def const(cls, variables: Sequence[str], c: int) -> "LaurentPoly":
        z = (0,) * len(variables)
        return cls(variables, {z: c} if c else {})

    @classmethod
    def gen(cls, variables: Sequence[str], name: str) -> "LaurentPoly":
        i = list(variables).index(name)
        e = tuple(1 if j == i else 0 for j in range(len(variables)))
        return cls(variables, {e: 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coef: int = 1) -> "LaurentPoly":
        return cls(variables, {tuple(exps): coef})

    # -- predicates / inspection -------------------------------------------

    def is_zero(self) -> bool:
        return not self._packed

    def is_monomial(self) -> bool:
        return len(self._packed) == 1

    def is_one(self) -> bool:
        return self._packed == {_layout(len(self.vars))[0]: 1}

    def n_terms(self) -> int:
        return len(self._packed)

    def min_exponent(self, var_index: int) -> int:
        if not self._packed:
            raise ValueError("zero polynomial has no exponents")
        s = _layout(len(self.vars))[2][var_index]
        return min((k >> s) & _FIELD for k in self._packed) - _BIAS

    def leading(self) -> tuple[tuple[int, ...], int]:
        """Lex-largest term as ``(exponents, coefficient)``."""
        k = max(self._packed)
        return _unpack(k, _layout(len(self.vars))[2]), self._packed[k]

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
        a, b = self._packed, other._packed
        if not a or not b:
            return LaurentPoly.zero(self.vars)
        if len(a) > len(b):
            a, b = b, a
        offset, mask, _ = _layout(len(self.vars))
        if len(a) == 1:
            # monomial fast path
            (ka, ca), = a.items()
            d = ka - offset
            out = {d + kb: ca * cb for kb, cb in b.items()}
        else:
            out = {}
            get = out.get
            bitems = list(b.items())
            for ka, ca in a.items():
                d = ka - offset
                for kb, cb in bitems:
                    k = d + kb
                    out[k] = get(k, 0) + ca * cb
        # checked before cancelled terms are dropped, so that no out-of-range
        # key can hide behind a zero coefficient
        _check_fields(out, mask)
        if 0 in out.values():
            out = {k: c for k, c in out.items() if c}
        return _make(self.vars, out)

    def scale(self, c: int) -> "LaurentPoly":
        if c == 0:
            return LaurentPoly.zero(self.vars)
        return _make(self.vars, {k: c * v for k, v in self._packed.items()})

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
            if not self.is_monomial():
                raise ValueError("negative powers only defined for monomials")
            (e, c), = self.terms.items()
            if c not in (1, -1):
                raise ValueError("negative powers require a unit coefficient")
            return LaurentPoly(self.vars, {tuple(n * x for x in e): 1 if c == 1 or n % 2 == 0 else -1})
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
    def from_json(cls, data: dict | str) -> "LaurentPoly":
        if isinstance(data, str):
            data = json.loads(data)
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


def _field_extent(packed: dict[int, int], shifts: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """Per-variable minimum and maximum of the biased field values."""
    lo, hi = [], []
    for s in shifts:
        col = [(k >> s) & _FIELD for k in packed]
        lo.append(min(col))
        hi.append(max(col))
    return lo, hi


def laurent_try_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly | None:
    """Exact division in the Laurent ring: return ``r`` with ``q * r == p``.

    Returns None when no such Laurent polynomial exists.  Monomial factors are
    units here, so both operands are first shifted to honest polynomials with
    componentwise-minimal exponent zero, then reduced by lex leading terms.
    Over the integers the reduction is both sound and complete: if ``q``
    divides ``p`` every intermediate leading term stays divisible.

    The shifted keys carry plain (unbiased) exponents.  The remainder is a
    dict with a max-heap of its keys; a cancelled term stays behind with
    coefficient 0 and is skipped when popped.  An exact quotient has degree
    ``deg p - deg q`` in every variable, so a quotient term outside that box
    proves there is none; the box also keeps every remainder key inside the
    degree range of ``p``, far from the field limits.
    """
    if q.is_zero():
        raise ZeroDivisorError("division by the zero Laurent polynomial")
    if p.vars != q.vars:
        raise ValueError("variable mismatch in division")
    if p.is_zero():
        return LaurentPoly.zero(p.vars)

    offset, mask, shifts = _layout(len(p.vars))
    plo, phi = _field_extent(p._packed, shifts)
    qlo, qhi = _field_extent(q._packed, shifts)
    box = 0
    for s, pl, ph, ql, qh in zip(shifts, plo, phi, qlo, qhi):
        room = (ph - pl) - (qh - ql)
        if room < 0:
            return None
        box += room << s
    kmp = sum(v << s for v, s in zip(plo, shifts))
    kmq = sum(v << s for v, s in zip(qlo, shifts))

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
