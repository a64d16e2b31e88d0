"""Exact orbit values built in lowest terms from factors.

`Fraction(n, d)` divides both by `gcd(n, d)`, a quadratic-time gcd on the
full-size integers.  The orbit engines know in advance most of what their
values' numerators and denominators have in common, so they construct the
result directly.  One store of factors, `Pieces`, serves every exact
engine, and it runs the factor refinement of E. Bach, J. Driscoll and
J. Shallit ("Factor refinement", J. Algorithms 15, 1993) in one of two
ways: to lowest terms for each value of the U-, q-P_I and Y-engines, and
to a pairwise coprime base, once per orbit, for the integer T-path.

The U-, q-P_I and Y-engines' values are monomials in the values before
them: a Y-value is y_n = prod_j x_{n+j}^{-a_j} in T-values and 1 + y_n an
exchange binomial (Fomin and Zelevinsky, "Cluster algebras IV", Compositio
143, 2007), and U_n = x^{s^n v}.  So consecutive values share large
factors, and the same factor turns up again at every window position.  The
store keeps integers > 1 (pieces) under ids, and each live value is a sign
and an exponent dict over piece ids (positive exponents for the numerator,
negative for the denominator).

- A new value's dict is a signed sum of its window's dicts plus the step's
  new pieces, so a factor shared by numerator and denominator cancels by
  id, with no arithmetic.  The engine keeps a factor it knows by id out
  of its new pieces: the U-engine enters the part G that every term of
  its new sum holds, read over piece ids, by id, and multiplies out only
  the sum divided by G (`reduction.iterate_usystem`).  At order 4 on
  somos6 G holds the x-level factors the window shares; multiplied into
  the new piece, they were split out of it again by dividing pieces of up
  to 60,000 bits, 743 splits on a 55-step orbit where 120 remain.
- Then only the numerator/denominator pairs of that dict are tested, each
  pair found coprime is remembered while both pieces live, and a divisor
  of a piece inherits every coprimality of that piece.  Coprimality known
  by proof enters the same memo with no gcd: the numerator and denominator
  of a value in lowest terms, a + b against every piece of a/b, and what
  the engine proves of its new pieces (`reduction.iterate_usystem` at
  order 2, where G = 1).
- A pair with gcd g > 1 is split: both pieces become g and their
  cofactors, in every live dict.  This is the refinement step, run only
  until each numerator piece is coprime to each denominator piece, which
  puts the product in lowest terms.  Most splits find one piece dividing
  the other, so a pair is tested by dividing the larger by the smaller
  first: a zero remainder gives the cofactor at once, and otherwise the
  gcd goes on from the remainder.
- Lowest terms are unique, so the value is the one Fraction would give.

The integer T-path's values are x = N / M with N an integer and M a
monomial over the pairwise coprime base C of the numerators and
denominators of the initial data.  It enters those data as pieces, and
`Pieces.refine` splits the first pair of live pieces with a gcd > 1 until
none is left: the whole refinement, once per orbit.  The live pieces are
then C, and each value's dict holds its exponent of each c; M's exponents
are tracked over C directly (the argument is in `tsystem`).  M is a
numerator part prod c^-e (e < 0) over a denominator part prod c^e
(e > 0), coprime to each other because no c is on both sides.  Each
denominator element c shares with N exactly gcd(N, c^e), and dividing N
and c^e by it leaves them coprime; the numerator part and the other
denominator elements are coprime to c^e too, so the result is in lowest
terms.  An element c with gcd(N mod c, c) = 1 is coprime to N and needs no
gcd on N at all.

`int_divmod` serves the integer T-path's one exact division a step and the
pair test of `Pieces`, whose divisors reach tens of thousands of bits.
Builtin `divmod` is schoolbook long division up to Python 3.11, quadratic
where `*` is Karatsuba.  Past its gate the helper runs the recursive
division of C. Burnikel and J. Ziegler ("Fast recursive division",
MPI-I-98-1-022, 1998), the method CPython 3.12 adopted internally for the
same sizes: the dividend is cut into blocks of n = |b|'s bit length, and
each 2n-by-n division is two 3h-by-2h divisions on halves h = n/2, each
estimated by one recursive h-bit division of the top halves and corrected
with one h-by-h product.  Since b has exactly n bits (its top bit set), an
estimate is at most two too large, and the correction loop ends with
0 <= r < b; so the quotient and remainder are the unique ones of floor
division, the `(q, r)` of `divmod`, signs mapped as `divmod` maps them.
Leaves whose quotient has at most 4,000 bits go to builtin `divmod`.  The
gate is a divisor over 9,000 bits and a quotient over 4,000: measured on
Python 3.11 (a 2.0 GHz x86-64 VM), equal divisor and quotient sizes take
0.183 / 0.180 ms (builtin / recursive) at 9,000 bits, 0.90 / 0.67 ms at
20,000 bits, and a 43,755-bit divisor under a 91,839-bit dividend takes
3.5 / 1.4 ms; a 5,000-bit divisor with a 60,000-bit quotient was slower
recursively (0.74 / 0.93 ms), and a small divisor would cut a large
dividend into thousands of blocks.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, count
from math import gcd
from typing import Iterable, Sequence

Exps = dict[int, int]  # piece id -> exponent, never 0


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


_DIV_BITS = 9000  # divisors past this many bits divide recursively
_QUO_BITS = 4000  # and quotients past this many; smaller ones are leaves


def int_divmod(a: int, b: int) -> tuple[int, int]:
    """Exactly `divmod(a, b)`, in subquadratic time past the gate."""
    n = b.bit_length()
    if n <= _DIV_BITS or a.bit_length() - n <= _QUO_BITS:
        return divmod(a, b)
    if b < 0:
        q, r = int_divmod(-a, -b)
        return q, -r
    if a < 0:  # a = -1 - ~a, with ~a >= 0
        q, r = int_divmod(~a, b)
        return ~q, b + ~r
    q = r = 0
    mask = (1 << n) - 1
    for shift in range((a.bit_length() - 1) // n * n, -1, -n):  # n-bit blocks, top first
        d, r = _div2n1n(r << n | a >> shift & mask, b, n)
        q = q << n | d
    return q, r


def _div2n1n(a: int, b: int, n: int) -> tuple[int, int]:
    """divmod(a, b) for b of exactly n bits and 0 <= a < b * 2^n."""
    if a.bit_length() - n <= _QUO_BITS:
        return divmod(a, b)
    pad = n & 1  # an odd n: shift a and b up one bit, and r back down
    a, b, n = a << pad, b << pad, n + pad
    h = n >> 1
    mask = (1 << h) - 1
    b1, b2 = b >> h, b & mask
    q, r = 0, a >> n
    for low in (a >> h & mask, a & mask):  # two 3h-by-2h steps, r < b before each
        if r >> h == b1:  # the estimate r // b1 would be 2^h or more
            d, s = mask, r - (b1 << h) + b1
        else:
            d, s = _div2n1n(r, b1, h)
        r = (s << h | low) - d * b2
        while r < 0:  # at most twice
            d -= 1
            r += b
        q = q << h | d
    return q, r >> pad


def add_exps(target: Exps, exps: Exps, up: int, down: int | None = None) -> None:
    """target += up * (numerator of exps) + down * (its denominator), with
    down = up by default, dropping the exponents that reach 0."""
    if down is None:
        down = up
    for p, e in exps.items():
        t = target.get(p, 0) + (up if e > 0 else down) * e
        if t:
            target[p] = t
        else:
            target.pop(p, None)


class Pieces:
    """Integers > 1 under ids, and the pairs of them known to be coprime."""

    def __init__(self) -> None:
        self.value: dict[int, int] = {}
        self.coprime: dict[int, set[int]] = {}
        self._ids = count()
        self._prune_at = 0

    def _add(self, v: int, coprime_to: Iterable[int]) -> int:
        p = next(self._ids)
        self.value[p] = v
        self.coprime[p] = set()
        if coprime_to:
            self._join(p, coprime_to)
        return p

    def _join(self, p: int, ids: Iterable[int]) -> None:
        known = self.coprime
        known[p].update(ids)
        for q in ids:
            known[q].add(p)

    def _drop(self, p: int) -> None:
        del self.value[p]
        for q in self.coprime.pop(p):
            self.coprime[q].discard(p)

    def new(self, v: int, coprime_to: Iterable[int] = ()) -> Exps:
        """The dict of the integer v >= 1: one new piece, coprime to the
        pieces `coprime_to` (which the caller knows by proof)."""
        return {self._add(v, coprime_to): 1} if v > 1 else {}

    def of(self, f: Fraction) -> Exps:
        """The dict of |f|: numerator and denominator, one piece each."""
        num = self.new(abs(f.numerator))
        exps = {p: -1 for p in self.new(f.denominator, num)}
        exps.update(num)
        return exps

    def ints(self, exps: Exps) -> tuple[int, int]:
        """The numerator and the denominator that `exps` stands for."""
        val = self.value
        n = d = 1
        for p, e in exps.items():
            if e > 0:
                n *= val[p] ** e
            else:
                d *= val[p] ** -e
        return n, d

    def build(self, sign: int, exps: Exps, live: Sequence[Exps]) -> Fraction:
        """The value sign * prod(piece**e), with `exps` put in lowest terms.

        `live` must hold every dict that may still be read, `exps` among
        them: a split rewrites them all.  The pieces that none of them
        holds are forgotten, once the store has doubled since that was
        last done, so that the cost is amortised.
        """
        self._lowest_terms(exps, live)
        n, d = self.ints(exps)
        if len(self.value) >= self._prune_at:
            known = self.coprime
            dead = self.value.keys() - set().union(*live)
            for p in dead:
                del self.value[p]
            for p in dead:
                for q in known.pop(p):
                    if q not in dead:
                        known[q].discard(p)
            self._prune_at = 2 * len(self.value) + 16
        return _from_coprime_ints(sign * n, d)

    def refine(self, live: Sequence[Exps]) -> None:
        """Split pieces until the pieces that the dicts in `live` hold are
        pairwise coprime: the whole factor refinement of their values."""
        val = self.value
        while True:
            for p, q in combinations(set().union(*live), 2):
                g = gcd(val[p], val[q])
                if g > 1:
                    self._split(p, q, g, {}, live)
                    break
            else:
                return

    def _lowest_terms(self, exps: Exps, live: Sequence[Exps]) -> None:
        """Split pieces until each numerator piece of `exps` is coprime to
        each of its denominator pieces."""
        while (pair := self._common_pair(exps)) is not None:
            self._split(*pair, live)

    def _common_pair(self, exps: Exps):
        """A numerator and a denominator piece of `exps` not coprime, with
        their gcd and the cofactors found on the way; None if there is none.
        Each pair found coprime is remembered."""
        val, known = self.value, self.coprime
        den = [q for q, e in exps.items() if e < 0]
        for p, e in exps.items():
            if e > 0:
                kp = known[p]
                for q in den:
                    if q not in kp:
                        # the larger mod the smaller, where gcd starts; when
                        # that is 0 the quotient is the larger one's cofactor
                        x, y = (p, q) if val[p] >= val[q] else (q, p)
                        quo, rem = int_divmod(val[x], val[y])
                        if not rem:
                            return p, q, val[y], {x: quo}
                        g = gcd(val[y], rem)
                        if g > 1:
                            return p, q, g, {}
                        kp.add(q)
                        known[q].add(p)
        return None

    def _split(self, p: int, q: int, g: int, cofactors: dict[int, int],
               live: Sequence[Exps]) -> None:
        """Write p and q, whose gcd is g > 1, as g times a cofactor."""
        val, known = self.value, self.coprime
        if g == val[p]:
            gid = p
        elif g == val[q]:
            gid = q
        else:
            gid = self._add(g, known[p] | known[q])
        for x in (p, q):
            if x == gid:
                continue
            rest = cofactors[x] if x in cofactors else val[x] // g
            parts = {gid: 1}
            if rest > 1:
                parts[self._add(rest, known[x])] = 1
            if gid in (p, q):
                self._join(gid, known[x])
            for exps in live:
                e = exps.pop(x, 0)
                if e:
                    add_exps(exps, parts, e)
            self._drop(x)
