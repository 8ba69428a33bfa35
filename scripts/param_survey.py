#!/usr/bin/env python3
"""Survey forcing-threshold brackets across a menu of small patterns.

Prints one line per parameter and pattern pair: the bracket, tightness, and
where each side came from.  A per-host budget keeps every cell bounded, so
large cells report honest gaps instead of hanging.
"""
import argparse

from edgemaps.graphs import make_pattern
from edgemaps.search import SearchOptions, compute_parameter

MENU = [
    ("g", "K2", None, 0),
    ("g", "K2", None, 1),
    ("g", "K1,2", None, 1),
    ("g", "K1,3", None, 1),
    ("g", "2K2", None, 1),
    ("g", "3K2", None, 1),
    ("g", "P4", None, 1),
    ("w", "K1,2", None, 1),
    ("w", "2K2", None, 1),
    ("m", "K3", "K1,2", 1),
    ("m", "P4", "K3", 1),
    ("m", "K1,3", "K3", 1),
    ("m_star", "K1,2", "K1,3", 1),
    ("z", "K3", "K3", 1),
]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--budget", type=float, default=10.0, help="seconds per host size")
    args = ap.parse_args()

    for name, g, h, d in MENU:
        G = make_pattern(g)
        H = make_pattern(h) if h else None
        rep = compute_parameter(name, G, H=H, d=d, options=SearchOptions(budget=args.budget))
        lo = "?" if rep.lower is None else rep.lower.value
        hi = "?" if rep.upper is None else rep.upper.value
        spread = f"[{lo}, {hi}]"
        print(f"{rep.parameter:20s} {spread:10s} {rep.status:6s}", end="  ")
        sides = []
        if rep.lower is not None:
            sides.append(f"lower: {rep.lower.provenance}")
        if rep.upper is not None:
            flags = f" [{', '.join(rep.upper.flags)}]" if rep.upper.flags else ""
            sides.append(f"upper: {rep.upper.provenance}{flags}")
        print("; ".join(sides))


if __name__ == "__main__":
    main()
