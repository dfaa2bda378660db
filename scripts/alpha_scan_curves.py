#!/usr/bin/env python3
"""Trace the extremal energy ratio alpha(beta) for a near-degenerate
three-level spectrum at several top-level degeneracies.

Writes one CSV per degeneracy (beta, alpha, bound_inverse, bound_exponential)
and prints the peak ratio against the analytic ceiling.
"""

import argparse
from pathlib import Path

import numpy as np

from npassive.bounds import alpha_max, spectral_ratio
from npassive.cli import emit_scan_csv
from npassive.extremal import max_alpha_scan
from npassive.spectra import Spectrum

DEGENERACIES = (10**3, 10**6, 10**9)
BETA_GRID = np.geomspace(0.5, 200.0, 24)


def run(N: int = 5, r: float = 1.001, out_dir: Path = Path("out")) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    for g2 in DEGENERACIES:
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (r, g2)])
        rows = max_alpha_scan(s, N, BETA_GRID)
        ceiling = alpha_max(N, spectral_ratio(s))
        path = out_dir / f"alpha_scan_g{g2}.csv"
        with open(path, "w", newline="") as fh:
            emit_scan_csv(s, N, rows, fh)
        peak = max(row.alpha for row in rows)
        print(
            f"g2={g2:>12d}  peak alpha={peak:.6f}  "
            f"ceiling={ceiling:.6f}  ({100 * peak / ceiling:.1f}%)  -> {path}"
        )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=5)
    parser.add_argument("--r", type=float, default=1.001)
    parser.add_argument("--out-dir", type=Path, default=Path("out"))
    args = parser.parse_args()
    run(args.n, args.r, args.out_dir)


if __name__ == "__main__":
    main()
