#!/usr/bin/env python3
"""Find three-level order-N passive states, by the exact ratio maximizer,
whose energy ratio approaches the ceiling N/(N-R), and print each with its
spectrum's top degeneracy and its beta.
"""

import argparse

from npassive.extremal import saturation_construct

CASES = ((2, 1), (3, 2), (5, 4))  # (N, m) pairs


def run(fraction: float = 0.9) -> None:
    print(f"{'N':>3} {'m':>3} {'ceiling':>9} {'measured':>9} {'beta':>9} {'g2':>12}")
    for N, m in CASES:
        res = saturation_construct(N, m, fraction)
        g2 = res.spectrum.distinct_levels[2][1]
        print(f"{N:>3} {m:>3} {res.alpha_max:>9.5f} {res.alpha_measured:>9.5f} "
              f"{res.beta_rho:>9.3f} {g2:>12d}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fraction", type=float, default=0.9,
                        help="target fraction of the ratio ceiling")
    args = parser.parse_args()
    run(args.fraction)


if __name__ == "__main__":
    main()
