"""Spectral-ratio energy bounds and the regime dispatcher.

The central quantity is the spectral ratio R of a spectrum, which controls
how far the energy of an order-N passive state can exceed its isoentropic
thermal energy.  Depending on the spectrum shape and the state's structural
stability, a different row of the bound table applies; ``bound_report``
selects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gibbs import _state_point
from .passivity import is_k_structurally_stable, is_n_passive
from .spectra import DiagonalState, Spectrum, _check_order, _entropy_gap, _fold, state_energy

SLACK_TOL = 1e-9

TWO_LEVEL_EQUALITY = "TwoLevelEquality"
EXPONENTIAL = "Exponential"
INVERSE = "Inverse"
MIN_OF_BOTH = "MinOfBoth"
ASYMPTOTIC_GENERAL = "AsymptoticGeneral"
ASYMPTOTIC_NONDEG_GROUND = "AsymptoticNonDegGround"
ASYMPTOTIC_TWO_LEVEL = "AsymptoticTwoLevel"
LOW_ENTROPY = "LowEntropy"


class HypothesisError(ValueError):
    """State is outside the hypothesis class demanded by the regime."""


class BoundViolationError(RuntimeError):
    """A non-asymptotic bound failed beyond tolerance; would falsify the theory."""


@dataclass(frozen=True)
class BoundReport:
    regime: str
    bound_value: float
    slack: float
    energy: float
    entropy: float
    N: int
    beta_rho: float | None
    R: float
    eps_max: float
    d0: int
    u_rho: float | None
    asymptotic: bool
    bound_exponential: float | None = None
    bound_inverse: float | None = None


def spectral_ratio(s: Spectrum) -> float:
    """Max over distinct level pairs eps_b > eps_a of (eps_max-eps_a)/(eps_b-eps_a).

    Two-level (and trivial) spectra return 0 by convention; otherwise >= 1.
    """
    levels = [e for e, _ in s.distinct_levels]
    if len(levels) <= 2:
        return 0.0
    # for each eps_a the smallest eps_b > eps_a maximizes the ratio
    return max((levels[-1] - ea) / (eb - ea) for ea, eb in zip(levels, levels[1:]))


def alpha_max(N: int, R: float) -> float:
    """Largest possible energy ratio E/E_beta for order-N passive 1-SS states.

    Returns +inf when N <= R (the bound is vacuous there).
    """
    _check_order(N)
    if N <= R:
        return math.inf
    return N / (N - R)


def exponential_factor(beta: float, eps_max: float, R: float, N: int) -> float:
    """exp(beta*eps_max*R/N); +inf where that overflows a float."""
    _check_order(N)
    if math.isinf(beta):
        return math.inf if R > 0 else 1.0
    try:
        return math.exp(beta * eps_max * R / N)
    except OverflowError:
        return math.inf


def low_entropy_bound(s: Spectrum, S: float, N: int) -> float:
    """Energy cap for order-N passive states with entropy below ln(d0)."""
    _check_order(N)
    return s.eps_max * (s.d - s.d0) * math.exp(-N * math.log(s.d0) + (N - 1) * S)


def bound_report(s: Spectrum, rho: DiagonalState, N: int) -> BoundReport:
    """Select and evaluate the applicable energy bound for an order-N passive state.

    The caller asserts membership in the passivity class; this function only
    inspects entropy, degeneracy structure, and order-1 stability to pick the
    regime.
    """
    f = _fold(s, rho)
    _check_order(N)
    gap = _entropy_gap(s, rho)
    S = float(s.log_multiplicities[0]) + gap
    E = state_energy(s, rho)
    R = spectral_ratio(s)  # 0 on a single level

    def report(regime, bound, beta, u=None, asymptotic=False, b_exp=None, b_inv=None):
        return BoundReport(
            regime=regime, bound_value=bound, slack=bound - E, N=N,
            beta_rho=beta, R=R, eps_max=s.eps_max, d0=s.d0, u_rho=u,
            asymptotic=asymptotic, energy=E, entropy=S,
            bound_exponential=b_exp, bound_inverse=b_inv,
        )

    if gap < -1e-12:
        if s.d == s.d0:
            raise HypothesisError("single-level spectrum cannot have entropy below ln d0")
        return report(LOW_ENTROPY, low_entropy_bound(s, S, N), None)

    if s.eps_max == 0:
        # single-level spectrum: E = E_beta = 0 identically
        return report(TWO_LEVEL_EQUALITY, 0.0, math.inf)

    gp = _state_point(s, rho)
    beta, E_beta = gp.beta, gp.energy
    u = min(1.0, beta * s.eps_max) if math.isfinite(beta) else 1.0
    one_ss = is_k_structurally_stable(s, rho, 1)
    two_level = s.num_levels == 2

    if s.d == 2 or (two_level and one_ss):
        return report(TWO_LEVEL_EQUALITY, E_beta, beta, u)

    # E_beta = 0 only at beta = inf, the pure ground state, where the factor is inf
    b_exp = E_beta * exponential_factor(beta, s.eps_max, R, N) if E_beta > 0 else 0.0
    if one_ss:
        if N <= R:
            return report(EXPONENTIAL, b_exp, beta, u, b_exp=b_exp)
        b_inv = E_beta * alpha_max(N, R)
        return report(MIN_OF_BOTH, min(b_exp, b_inv), beta, u, b_exp=b_exp, b_inv=b_inv)

    # degenerate spectrum without order-1 stability
    lam_min_ground = min(p for k, p in zip(f.level, f.populations) if k == 0)
    z_inv = math.exp(-gp.logZ) if math.isfinite(beta) else 1.0 / s.d0
    if lam_min_ground >= z_inv:
        return report(EXPONENTIAL, b_exp, beta, u, b_exp=b_exp)

    if N < 3:
        raise HypothesisError(
            "asymptotic regimes need N >= 3 (denominators N-2 appear)"
        )
    if math.isinf(beta):
        raise HypothesisError("asymptotic regimes need finite beta (S > ln d0)")
    if two_level:
        bound = (N - 1) / (N - 2) * E_beta + (s.d0 - 1) * z_inv * s.eps_max / (N - 2)
        return report(ASYMPTOTIC_TWO_LEVEL, bound, beta, u, asymptotic=True)
    lead = N / (N - 2) * (1 + u * R / N) * E_beta
    if s.d0 == 1:
        bound = lead + (1.0 / beta) / (N - 2) if beta > 0 else math.inf
        return report(ASYMPTOTIC_NONDEG_GROUND, bound, beta, u, asymptotic=True)
    tail = ((s.d0 - 1) * z_inv * s.eps_max + (1.0 / beta if beta > 0 else math.inf)) / (N - 2)
    return report(ASYMPTOTIC_GENERAL, lead + tail, beta, u, asymptotic=True)


def check_bound(s: Spectrum, rho: DiagonalState, N: int) -> float:
    """Verify the hypothesis class, evaluate the bound, and return the slack.

    Raises if the state is not order-N passive, or if a non-asymptotic bound
    comes out negative beyond tolerance (which would falsify the theory).
    """
    verdict = is_n_passive(s, rho, N)
    if not verdict.passive:
        raise HypothesisError(
            f"state is not order-{N} passive; witness {verdict.witness}"
        )
    rep = bound_report(s, rho, N)
    if not rep.asymptotic and rep.slack < -SLACK_TOL:
        raise BoundViolationError(
            f"bound {rep.regime} violated: slack {rep.slack} on N={N}"
        )
    return rep.slack
