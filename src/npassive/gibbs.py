"""Thermal-state functionals and the inverse problem beta(entropy).

All functionals are evaluated level-wise from (energy, log-multiplicity)
pairs, so astronomically degenerate spectra cost nothing extra.  The
entropy-to-beta inversion exploits strict monotonicity of S_beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import DiagonalState, Spectrum, _check_aligned, state_entropy

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


def _log_populations(logg: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-slot log-populations of level weights b (population ~ exp(-b)).

    Levels run along the last axis of ``b``; leading axes are a batch.  The
    normalizer is m + log1p(sum of the other exp(t_k - m)), so a state whose
    excited mass is far below 1e-16 keeps its -lambda_0 ln lambda_0 term.
    """
    terms = logg - b
    m = terms.max(axis=-1, keepdims=True)
    top = terms == m
    # exp(0) = 1 for each tied maximum; all but one of them stay in the sum
    rest = np.where(top, 0.0, np.exp(terms - m)).sum(axis=-1, keepdims=True)
    rest += top.sum(axis=-1, keepdims=True) - 1
    return -b - (m + np.log1p(rest))


def _energy(eps: np.ndarray, logg: np.ndarray, lnp: np.ndarray) -> np.ndarray:
    return (np.exp(logg + lnp) * eps).sum(axis=-1)


def _entropy(logg: np.ndarray, lnp: np.ndarray) -> np.ndarray:
    return -(np.exp(logg + lnp) * lnp).sum(axis=-1)


def _thermal_functionals(eps: np.ndarray, logg: np.ndarray, beta: float):
    """(logZ, E, S - ln g0, Var E) for populations proportional to g*exp(-beta*eps).

    The ground multiplicity g0 is divided out of the level weights, so the
    entropy gap above ln g0 is a sum of non-negative terms and stays exact
    far below 1e-16; logZ = ln g0 - lnp[0] because eps[0] = 0.
    """
    if math.isinf(beta):
        return float(logg[0]), 0.0, 0.0, 0.0
    rel = logg - logg[0]
    lnp = _log_populations(rel, beta * eps)
    energy = float(_energy(eps, rel, lnp))
    var = float(_energy((eps - energy) ** 2, rel, lnp))
    return float(logg[0] - lnp[0]), energy, float(_entropy(rel, lnp)), var


def gibbs_point(s: Spectrum, beta: float) -> GibbsPoint:
    """Thermal functionals (logZ, energy, entropy) at inverse temperature beta."""
    if beta < 0:
        raise ValueError("beta must be >= 0 (or +inf)")
    logg = s.log_multiplicities
    logZ, energy, gap, _ = _thermal_functionals(s.level_energies, logg, beta)
    return GibbsPoint(beta=beta, logZ=logZ, energy=energy, entropy=float(logg[0]) + gap)


def gibbs_populations(s: Spectrum, beta: float) -> DiagonalState:
    """Dense thermal state exp(-beta*eps_j)/Z, index-aligned to the spectrum."""
    if math.isinf(beta):
        return DiagonalState(tuple(1.0 / s.d0 if j < s.d0 else 0.0 for j in range(s.d)))
    logZ = gibbs_point(s, beta).logZ
    pops = tuple(math.exp(-beta * e - logZ) for e in s.energies)
    total = sum(pops)
    return DiagonalState(tuple(p / total for p in pops))


def solve_beta_for_entropy(s: Spectrum, S_target: float, tol: float = ENTROPY_TOL) -> float:
    """Invert the strictly decreasing map beta -> S_beta by safeguarded Newton.

    Newton runs on the log of the distance from S_beta to the nearer end of
    [ln d0, ln d]: ln(S - ln d0) is near-linear in beta at low temperature,
    ln(ln d - S) near-linear in ln beta at high temperature, and both have
    slopes from dS/dbeta = -beta*Var_beta(E).  A step that leaves the bracket
    known to hold the root is replaced by bisection.  A beta is accepted once
    |S_beta - S_target| <= tol*(S_target - ln d0), a tolerance that stays
    relative at S << 1.  Returns +inf when the target is the minimum-entropy
    limit ln(d0), or when even beta = BETA_INF_FACTOR/eps_max leaves more
    entropy than the target.
    """
    ln_d = math.log(s.d)
    ln_d0 = math.log(s.d0)
    if S_target > ln_d + tol:
        raise EntropyRangeError(f"entropy {S_target} exceeds ln d = {ln_d}")
    if S_target < ln_d0 - tol:
        raise NoGibbsCounterpartError(
            f"entropy {S_target} below ln d0 = {ln_d0}: no thermal state matches"
        )
    if S_target >= ln_d - tol:
        return 0.0
    eps, logg = s.level_energies, s.log_multiplicities
    gap, span = S_target - float(logg[0]), ln_d - float(logg[0])
    if gap <= 0:
        return math.inf
    low = gap <= 0.5 * span
    if low:  # two-level law gap = G1*exp(-x)*(1 + x), x = beta*eps_1, as S -> ln d0
        x = max(float(logg[1] - logg[0]) - math.log(gap), 1.0)
        beta = (x + math.log1p(x)) / float(eps[1])
    else:  # ln d - S = beta^2 Var_0(E)/2 as beta -> 0
        beta = math.sqrt(2.0 * (span - gap) / _thermal_functionals(eps, logg, 0.0)[3])
    sign, ln_dist = (1.0, math.log(gap)) if low else (-1.0, math.log(span - gap))
    cap = BETA_INF_FACTOR / s.eps_max
    lo, hi, beta = 0.0, math.inf, min(beta, cap)
    for _ in range(100):
        _, _, gap_b, var = _thermal_functionals(eps, logg, beta)
        if abs(gap_b - gap) <= tol * gap:
            return beta
        if gap_b > gap and beta == cap:
            return math.inf
        lo, hi = (beta, hi) if gap_b > gap else (lo, beta)
        dist = gap_b if low else span - gap_b
        nxt = math.inf
        if dist > 0 and var > 0:
            nxt = beta + sign * (math.log(dist) - ln_dist) * dist / (beta * var)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        nxt = min(nxt, cap)
        if not lo < nxt < hi:  # the bracket has shrunk to adjacent floats
            return beta
        beta = nxt
    return beta


def isoentropic_energy(s: Spectrum, rho: DiagonalState) -> tuple[float, float]:
    """(beta_rho, E_beta) of the thermal state sharing the entropy of rho."""
    _check_aligned(s, rho)
    beta = solve_beta_for_entropy(s, state_entropy(rho))
    return beta, gibbs_point(s, beta).energy
