"""Commensurable level triples and the cutoff order N*.

When consecutive gap ratios of a spectrum are rational p/q, occupation
vectors of order p can tie in energy while differing in which levels they
occupy; structural stability then pins the populations to a thermal
log-linear relation.  ``n_star`` bounds from above the order at which this
leaves only thermal or ground-supported states.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .flattening import flatten
from .spectra import DiagonalState, Spectrum, _check_tol, check_size

DEFAULT_MAX_DEN = 10**6
DEFAULT_RATIO_TOL = 1e-9


@dataclass(frozen=True)
class NStarResult:
    n_star: int | None
    triples: tuple[tuple[int, int, int] | None, ...]
    all_triples_lcm: int | None


def rational_ratio_detect(
    x: float, max_den: int = DEFAULT_MAX_DEN, tol: float = DEFAULT_RATIO_TOL
) -> Fraction | None:
    """Best rational p/q with q <= max_den matching x within tol, if any: a
    Fraction in lowest terms with p > q >= 1."""
    if not (math.isfinite(x) and x > 1):
        raise ValueError("ratio must be finite and > 1")
    _check_tol(tol)
    frac = Fraction(x).limit_denominator(max_den)
    if abs(x - float(frac)) <= tol and frac > 1:
        return frac
    return None


def _ratio(s: Spectrum, triple, max_den, tol, seen: dict) -> Fraction | None:
    """The gap ratio (eps_c - eps_a)/(eps_b - eps_a) of a level triple, exact on
    ``rational_levels``, else detected within tol (None if undetected); a
    ratio value already in ``seen`` is read from it, not detected again."""
    levels = s.rational_levels or s.distinct_levels
    a, b, c = (levels[k][0] for k in triple)
    ratio = (c - a) / (b - a)
    if ratio not in seen:
        seen[ratio] = ratio if s.rational_levels else rational_ratio_detect(ratio, max_den, tol)
    return seen[ratio]


def _lcm(found) -> int | None:
    """The lcm of the numerators p of detected ratios; None at the first one missing."""
    ps = []
    for r in found:
        if r is None:
            return None
        ps.append(r.numerator)
    return math.lcm(*ps)


def n_star(
    s: Spectrum, max_den: int = DEFAULT_MAX_DEN, tol: float = DEFAULT_RATIO_TOL
) -> NStarResult:
    """An upper bound on the least order at which stability leaves only
    thermal/ground states: the lcm of the numerators p of the
    consecutive-triple gap ratios.

    Each consecutive triple ties at order p, so the least forcing order is at
    most max(p) <= lcm, and it can be lower still: levels (0, 1, 3, 6) give 15
    where the least order is 3.  None when any consecutive ratio is
    irrational at the working precision.  The lcm over *all* level triples is
    reported alongside as a diagnostic (non-consecutive triples are not
    covered by the consecutive criterion); its C(L, 3) triples pass
    ``check_size``, each distinct ratio value is detected once, and the
    diagnostic stops at the first undetected triple.
    """
    L = s.num_levels
    if L < 3:
        raise ValueError("N* needs at least three distinct levels")
    _check_tol(tol)
    check_size(math.comb(L, 3), "all-triples diagnostic")
    seen = {}
    ratios = [_ratio(s, (i, i + 1, i + 2), max_den, tol, seen) for i in range(L - 2)]
    triples = tuple((*r.as_integer_ratio(), i) if r is not None else None
                    for i, r in enumerate(ratios))
    every = itertools.combinations(range(L), 3)
    all_lcm = _lcm(_ratio(s, t, max_den, tol, seen) for t in every)
    return NStarResult(n_star=_lcm(ratios), triples=triples, all_triples_lcm=all_lcm)


def triple_forces_gibbs(
    s: Spectrum,
    rho: DiagonalState,
    triple: tuple[int, int, int],
    tol: float = 1e-9,
    max_den: int = DEFAULT_MAX_DEN,
    ratio_tol: float = DEFAULT_RATIO_TOL,
) -> bool:
    """Whether the populations on a commensurable level triple obey the
    thermal log-linear tie p*ln(lambda_b) = q*ln(lambda_c) + (p-q)*ln(lambda_a).

    ``triple`` holds distinct-level indices a < b < c.  Populations are taken
    as the within-level means, those of ``flatten``.
    """
    means = flatten(s, rho).flattened.blocks
    a, b, c = triple
    if not (0 <= a < b < c < s.num_levels):
        raise ValueError("triple must hold increasing distinct-level indices")
    _check_tol(tol)
    _check_tol(ratio_tol, "ratio_tol")
    rr = _ratio(s, triple, max_den, ratio_tol, {})
    if rr is None:
        raise ValueError("triple's gap ratio is not rational at this precision")
    p, q = rr.as_integer_ratio()
    la, lb, lc = (means[k][0] for k in triple)
    if min(la, lb, lc) <= 0:
        return False
    resid = p * math.log(lb) - q * math.log(lc) - (p - q) * math.log(la)
    return abs(resid) <= tol
