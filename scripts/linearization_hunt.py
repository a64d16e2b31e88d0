#!/usr/bin/env python3
"""Hunt for constant-coefficient linear relations along primitive orbits.

For each window size N the script iterates the two-term recurrence with its
periodic coefficient system solved from random data, then scans strides s,
asking for relations with constant coefficients on the subsampled orbit:
first the 3-term ansatz x[n+2s] + c x[n+s] + x[n] = 0, then the 5-term
palindromic one.  With --certify the N=4 coefficient is derived symbolically
as a positive Laurent polynomial in the initial data.
"""

import argparse
import random
import time
from fractions import Fraction

from cluster_painleve import (
    get_preset,
    iterate_tz,
    laurent_try_div,
    relation_search,
    solve_z,
    z_stencil_from_tuple,
)
from cluster_painleve.tsystem import TStencil


def rand_fracs(rng, k, bound=4):
    return [Fraction(rng.randint(1, bound), rng.randint(1, bound)) for _ in range(k)]


def scan(orb, terms: int, smax: int, train: int, verify: int) -> list[int]:
    hits = []
    for s in range(1, smax + 1):
        offsets = tuple(s * k for k in range(terms))
        if offsets[-1] + train + verify > len(orb.values):
            break
        if relation_search(orb, offsets, train, verify).status == "found":
            hits.append(s)
    return hits


def hunt(n: int, rng: random.Random, smax: int, train: int, verify: int) -> None:
    p = get_preset("prim4") if n == 4 else get_preset("primN", n)
    zst = z_stencil_from_tuple(p.a)
    z = solve_z(zst, rand_fracs(rng, zst.order))
    orb = iterate_tz(TStencil(p.a), z, rand_fracs(rng, p.n), 4 * smax + train + verify)
    t0 = time.perf_counter()
    for terms in (3, 5):
        hits = scan(orb, terms, smax, train, verify)
        if not hits:
            continue
        s = hits[0]
        rs = relation_search(orb, tuple(s * k for k in range(terms)), train, verify)
        print(f"== N={n}: {terms}-term relation at stride {s} "
              f"(also at {hits[1:] or 'none'}; {time.perf_counter() - t0:.2f}s)")
        print(f"   {rs.relation.format_text()}")
        print(f"   palindromic: {rs.relation.palindromic}, verified on "
              f"{rs.relation.verified_window} further windows")
        return
    print(f"== N={n}: nothing up to stride {smax} with 3 or 5 terms "
          f"({time.perf_counter() - t0:.2f}s)")


def certify_prim4() -> None:
    print("== symbolic certificate for N=4, stride 12")
    a = get_preset("prim4").a
    z = solve_z(z_stencil_from_tuple(a))  # coefficients stay symbolic
    t0 = time.perf_counter()
    orb = iterate_tz(TStencil(a), z, None, 21, mode="symbolic")
    c = laurent_try_div(orb.values[24] + orb.values[0], orb.values[12])
    dt = time.perf_counter() - t0
    assert c is not None, "division must certify the relation"
    print(f"   x[24] + x[0] = C * x[12] with C a Laurent polynomial ({dt:.2f}s)")
    print(f"   C has {c.n_terms()} terms, all coefficients positive: "
          f"{c.coefficients_positive()}")
    at = {v: Fraction(1) for v in c.vars if v.startswith("x")}
    at.update({"Z0": Fraction(2), "Z1": Fraction(3)})
    print(f"   C at unit window, coefficients (2,3): "
          f"{c.evaluate({k: at[k] for k in c.vars})}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-n", type=int, default=5,
                    help="largest window size to scan (runtime grows fast)")
    ap.add_argument("--max-stride", type=int, default=16)
    ap.add_argument("--seed", type=int, default=20260819)
    ap.add_argument("--train", type=int, default=6)
    ap.add_argument("--verify", type=int, default=12)
    ap.add_argument("--certify", action="store_true",
                    help="also derive the N=4 coefficient symbolically")
    args = ap.parse_args()
    rng = random.Random(args.seed)
    for n in range(4, args.max_n + 1):
        hunt(n, rng, args.max_stride, args.train, args.verify)
    if args.certify:
        certify_prim4()


if __name__ == "__main__":
    main()
