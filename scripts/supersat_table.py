#!/usr/bin/env python3
"""Tabulate exact minimum triangle counts against the counting lower bound.

For each host size the exact column comes from the catalogue oracle and the
bound column from the convexity argument; the gap shows where the bound is
slack.  The default runs up to the full catalogue's limit, n = 8, where the
catalogue build costs more than the triangle table.
"""
import argparse
from math import comb

from edgemaps.bounds import triangle_supersat_lb, turan_count
from edgemaps.canon import FULL_CATALOGUE_LIMIT
from edgemaps.graphs import make_pattern
from edgemaps.oracles import supersat_table


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=FULL_CATALOGUE_LIMIT)
    args = ap.parse_args()

    K3 = make_pattern("K3")
    for n in range(3, args.n_max + 1):
        exact = supersat_table(n, K3)
        print(f"\nn = {n}  (threshold {turan_count(n, 3)} edges, {comb(n, 2)} total)")
        print(f"{'m':>4s} {'exact':>6s} {'bound':>7s} {'gap':>6s}")
        for m, val in enumerate(exact):
            lb = triangle_supersat_lb(n, m)
            if val == 0 and lb == 0:
                continue
            print(f"{m:4d} {val:6d} {str(lb):>7s} {val - lb!s:>6s}")


if __name__ == "__main__":
    main()
