#!/usr/bin/env python3
"""Zero vs positive algebraic entropy, measured three independent ways.

The quadratic-growth side (somos4) is checked against its exact closed form
d_n = n^2/16 + w(n mod 8); the exponential side (nonintegrable6) is measured
on tropical x-degrees and on the exponent table of the solved coefficient
sequence, and both ratios are compared with the spectral radius of the
constraint recurrence.
"""

import argparse
import math
from fractions import Fraction

from cluster_painleve import (
    char_poly,
    entropy_estimate,
    get_preset,
    solve_z,
    tropical_iterate,
    z_stencil_from_tuple,
)
from cluster_painleve.zsystem import exponent_degree_sequence, factor_roots, spectral_radius

WOBBLE = {0: Fraction(-1), 1: Fraction(-1, 16), 2: Fraction(-1, 4),
          3: Fraction(-9, 16), 4: Fraction(0), 5: Fraction(-9, 16),
          6: Fraction(-1, 4), 7: Fraction(-1, 16)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--length", type=int, default=60)
    args = ap.parse_args()

    print("== somos4: quadratic degree growth")
    a4 = get_preset("somos4").a
    tr = tropical_iterate(a4, [-1, 0, 0, 0], args.length)
    exact = all(tr.values[n] == Fraction(n * n, 16) + WOBBLE[n % 8]
                for n in range(4, len(tr)))
    est = entropy_estimate(tr)
    print(f"   closed form d_n = n^2/16 + w(n mod 8) exact on 4..{len(tr) - 1}: {exact}")
    print(f"   entropy estimate: {est.entropy} ({est.fit}, degree {est.degree})")
    print(f"   detector note: {est.note}")

    print("== nonintegrable6: exponential degree growth")
    p6 = get_preset("nonintegrable6")
    st = z_stencil_from_tuple(p6.a)
    cp = char_poly(st)
    lam = spectral_radius(factor_roots(cp))
    print(f"   constraint char poly {cp.format_text()}, spectral radius {lam:.10f}")

    tr6 = tropical_iterate(p6.a, [1] * 6, 40)
    r_trop = tr6.values[-1] / tr6.values[-2]
    degs = exponent_degree_sequence(solve_z(st), 41)
    r_exp = degs[-1] / degs[-2]
    est6 = entropy_estimate(tr6)
    print(f"   tropical degree ratio (n=40): {r_trop:.10f}")
    print(f"   coefficient-exponent ratio (n=40): {r_exp:.10f}")
    print(f"   entropy estimate: {est6.entropy:.10f} (band {est6.band:.2e})")
    print(f"   log(spectral radius) = {math.log(lam):.10f}")


if __name__ == "__main__":
    main()
