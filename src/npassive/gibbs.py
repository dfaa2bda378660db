"""Thermal-state functionals and the inverse problem beta(entropy).

All functionals are evaluated level-wise from (energy, log-multiplicity)
pairs, so astronomically degenerate spectra cost nothing extra.  One
safeguarded Newton, ``_isentrope_root``, finds where the entropy of the
level state b = t*q meets a target along a ray q: ``isentropic_point``
solves it on q = eps and returns the Gibbs point at the beta it accepts, and
``extremal.max_alpha_scan`` on the extreme rays of the passive cone.
``_thermal_functionals`` is the one normalizer of a level state: the Gibbs
state, the stable samples and the ray candidates all take their
log-populations from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectra import DiagonalState, Spectrum, _check_tol, _entropy_gap

ENTROPY_TOL = 1e-12

# beyond this, exp(-beta*eps_max) underflows any achievable entropy gap and
# the state is numerically the uniform ground mixture
BETA_INF_FACTOR = 700.0


class NoGibbsCounterpartError(ValueError):
    """Requested entropy lies below ln(d0): no thermal state matches it."""


class EntropyRangeError(ValueError):
    """Requested entropy exceeds ln(d)."""


@dataclass(frozen=True)
class GibbsPoint:
    beta: float
    logZ: float
    energy: float
    entropy: float


def _thermal_functionals(eps: np.ndarray, logg: np.ndarray, beta: float):
    """(logZ, E, S - ln g0, Var E, lnp) for populations proportional to
    g*exp(-beta*eps): the one normalizer of a level state.

    lnp is the list ln(lambda_k) + ln g0 of per-slot log-populations; a
    caller subtracts ln g0 for the state itself.  The ground multiplicity g0
    is divided out of the level weights, so the entropy gap above ln g0 is a
    sum of non-negative terms and stays exact far below 1e-16, and logZ =
    ln g0 - lnp[0] because eps[0] = 0.  The normalizer is m + log1p(sum of
    the other exp(t_k - m)) over the terms t_k, so a state whose excited
    mass is far below 1e-16 keeps its -lambda_0 ln lambda_0 term.  The level
    populations are exponentiated once and E, Var E and S read from them.
    At beta = inf only level 0, the one with eps = 0, is populated.

    Python floats throughout: on a few levels numpy's per-call cost would
    outweigh its arithmetic.  exp and log1p stay numpy ufuncs, and every sum
    runs left to right from 0.0, as numpy's ``add.reduce`` does below 8
    terms (not ``sum()``, which compensates from Python 3.12 on).
    """
    if math.isinf(beta):
        return float(logg[0]), 0.0, 0.0, 0.0, [0.0] + [-math.inf] * (len(logg) - 1)
    e, g = eps.tolist(), logg.tolist()
    rel = [x - g[0] for x in g]
    b = [float(beta) * x for x in e]
    terms = [r - x for r, x in zip(rel, b)]
    m = max(terms)
    # exp(0) = 1 for each tied maximum; all but one of them stay in the sum
    rest = 0.0
    for t, x in zip(terms, np.exp([t - m for t in terms]).tolist()):
        rest += 0.0 if t == m else x
    rest += terms.count(m) - 1
    c = m + float(np.log1p(rest))
    lnp = [-x - c for x in b]
    p = np.exp([r + x for r, x in zip(rel, lnp)]).tolist()
    energy = gap = 0.0
    for pk, ek, lk in zip(p, e, lnp):
        energy += pk * ek
        gap += pk * lk
    var = 0.0
    for pk, ek in zip(p, e):
        var += pk * ((ek - energy) * (ek - energy))
    return g[0] - lnp[0], energy, -gap, var, lnp


def _point(beta: float, logg: np.ndarray, functionals) -> GibbsPoint:
    logZ, energy, gap, _, _ = functionals
    return GibbsPoint(beta=beta, logZ=logZ, energy=energy, entropy=float(logg[0]) + gap)


def gibbs_point(s: Spectrum, beta: float) -> GibbsPoint:
    """Thermal functionals (logZ, energy, entropy) at inverse temperature beta."""
    if not beta >= 0:
        raise ValueError("beta must be >= 0 (or +inf)")
    logg = s.log_multiplicities
    return _point(beta, logg, _thermal_functionals(s.level_energies, logg, beta))


def gibbs_populations(s: Spectrum, beta: float) -> DiagonalState:
    """The thermal state exp(-beta*eps_j)/Z, one block per level of the spectrum."""
    if not beta >= 0:
        raise ValueError("beta must be >= 0 (or +inf)")
    logg = s.log_multiplicities
    lnp = _thermal_functionals(s.level_energies, logg, beta)[4]
    return DiagonalState.from_levels(s, np.subtract(lnp, logg[0]))


def isentropic_point(s: Spectrum, S_target: float, tol: float = ENTROPY_TOL) -> GibbsPoint:
    """The Gibbs point whose entropy is S_target: ``_isentrope_root`` on the
    ray b = beta*eps, accepted within tol times the distance from S_target to
    the nearer end of [ln d0, ln d], and seeded by the two-level law near
    ln d0 or the high-temperature law near ln d.  The point is built from the
    functionals evaluated at the accepted beta.
    beta is +inf when the target is the minimum-entropy limit ln(d0), or when
    even beta = BETA_INF_FACTOR/eps_max leaves more entropy than the target,
    and 0 once ln d - S_target <= tol*(ln d - ln d0).
    The last 64 (spectrum, S_target - ln d0, tol) are memoized.
    """
    _check_tol(tol)
    return _isentropic_point(s, S_target - float(s.log_multiplicities[0]), tol)


@lru_cache(maxsize=64)
def _isentropic_point(s: Spectrum, gap: float, tol: float) -> GibbsPoint:
    """isentropic_point on the entropy gap S_target - ln d0, which a state
    gives exactly (spectra._entropy_gap) far below 1e-16*ln d0."""
    if math.isnan(gap):
        raise ValueError("entropy must be a number")
    eps = s.level_energies
    logg = s.log_multiplicities
    span = math.log(s.d) - float(logg[0])
    if gap > span + tol:
        raise EntropyRangeError(f"entropy {logg[0] + gap} exceeds ln d = {math.log(s.d)}")
    if gap < -tol:
        raise NoGibbsCounterpartError(
            f"entropy {logg[0] + gap} below ln d0 = {logg[0]}: no thermal state matches"
        )
    if span - gap <= tol * span:
        return gibbs_point(s, 0.0)
    if gap <= 0:
        return gibbs_point(s, math.inf)
    if gap <= 0.5 * span:  # two-level law gap = G1*exp(-x)*(1 + x), x = beta*eps_1, as S -> ln d0
        x = max(float(logg[1] - logg[0]) - math.log(gap), 1.0)
        beta = (x + math.log1p(x)) / float(eps[1])
    else:  # ln d - S = beta^2 Var_0(E)/2 as beta -> 0
        beta = math.sqrt(2.0 * (span - gap) / _thermal_functionals(eps, logg, 0.0)[3])
    beta, f = _isentrope_root(eps, logg, gap, span, beta, BETA_INF_FACTOR / s.eps_max, tol)
    return _point(beta, logg, f)


def _isentrope_root(q: np.ndarray, logg: np.ndarray, gap: float, span: float,
                    t: float, cap: float, tol: float):
    """(t, ``_thermal_functionals(q, logg, t)``) at the point of entropy gap
    ``gap`` on the ray of level weights b = t*q, found by safeguarded Newton
    from ``t``; span = ln d - ln d0, the gap at t = 0, and 0 < gap < span.

    Newton runs on the log of the distance from the gap to the nearer end of
    [0, span]: ln(S - ln d0) is near-linear in t at low temperature,
    ln(ln d - S) near-linear in ln t at high temperature, and both have
    slopes from dS/dt = -t*Var(q).  A step that leaves the bracket known to
    hold the root is replaced by bisection, and none goes past ``cap``.  t
    is accepted once |S - S_target| <= tol times the distance to the nearer
    end: tol*gap in the lower half of the range, which stays relative at
    S << 1, and tol*(span - gap) in the upper half, but no less than 4 ulp of
    span, the rounding of the entropy there; or once the bracket has shrunk
    to adjacent floats.  t is +inf if the gap at the cap is above the target.
    A non-finite cap is refused with ValueError: with the bracket open above,
    an unusable step would bisect to inf and exit off the target.
    """
    if not math.isfinite(cap):
        raise ValueError(f"the ray needs a finite cap on t, got {cap}")
    low = gap <= 0.5 * span
    sign, ln_dist = (1.0, math.log(gap)) if low else (-1.0, math.log(span - gap))
    accept = tol * gap if low else max(tol * (span - gap), 4 * math.ulp(span))
    lo, hi, t = 0.0, math.inf, min(t, cap)
    for _ in range(100):
        f = _thermal_functionals(q, logg, t)
        _, _, gap_t, var, _ = f
        if abs(gap_t - gap) <= accept:
            return t, f
        if gap_t > gap and t == cap:
            return math.inf, _thermal_functionals(q, logg, math.inf)
        lo, hi = (t, hi) if gap_t > gap else (lo, t)
        dist = gap_t if low else span - gap_t
        nxt, slope = math.inf, t * var
        if dist > 0 and slope > 0:
            nxt = t + sign * (math.log(dist) - ln_dist) * dist / slope
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        nxt = min(nxt, cap)
        if not lo < nxt < hi:  # the bracket has shrunk to adjacent floats
            return t, f
        t = nxt
    return t, _thermal_functionals(q, logg, t)


def isoentropic_energy(s: Spectrum, rho: DiagonalState) -> tuple[float, float]:
    """(beta_rho, E_beta) of the thermal state sharing the entropy of rho."""
    gp = _state_point(s, rho)
    return gp.beta, gp.energy


def _state_point(s: Spectrum, rho: DiagonalState) -> GibbsPoint:
    """The Gibbs point sharing the entropy of rho, solved on its entropy gap."""
    return _isentropic_point(s, _entropy_gap(s, rho), ENTROPY_TOL)
