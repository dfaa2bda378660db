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

from .gibbs import gibbs_point, solve_beta_for_entropy
from .passivity import DEFAULT_CAP, is_n_passive
from .spectra import DiagonalState, Spectrum, _check_aligned, state_energy, state_entropy

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
    N: int
    beta_rho: float | None
    R: float
    eps_max: float
    d0: int
    u_rho: float | None
    asymptotic: bool
    energy: float
    entropy: float
    bound_exponential: float | None = None
    bound_inverse: float | None = None


def spectral_ratio(s: Spectrum) -> float:
    """Max over distinct level pairs eps_b > eps_a of (eps_max-eps_a)/(eps_b-eps_a).

    Two-level (and trivial) spectra return 0 by convention; otherwise >= 1.
    """
    levels = [e for e, _ in s.distinct_levels]
    if len(levels) <= 2:
        return 0.0
    eps_max = levels[-1]
    best = 0.0
    for i, ea in enumerate(levels[:-1]):
        eb = levels[i + 1]  # smallest eps_b > ea maximizes the ratio
        best = max(best, (eps_max - ea) / (eb - ea))
    return best


def alpha_max(N: int, R: float) -> float:
    """Largest possible energy ratio E/E_beta for order-N passive 1-SS states.

    Returns +inf when N <= R (the bound is vacuous there).
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    if N <= R:
        return math.inf
    return N / (N - R)


def exponential_factor(beta: float, eps_max: float, R: float, N: int) -> float:
    if math.isinf(beta):
        return math.inf if R > 0 else 1.0
    return math.exp(beta * eps_max * R / N)


def inverse_factor(R: float, N: int) -> float | None:
    """1/(1 - R/N), or None when vacuous (R >= N)."""
    if R >= N:
        return None
    return 1.0 / (1.0 - R / N)


def is_one_structurally_stable(s: Spectrum, rho: DiagonalState, tol: float = 1e-9) -> bool:
    """Equal populations within every degenerate level (order-1 stability)."""
    _check_aligned(s, rho)
    for lo, hi in s.level_slices:
        chunk = rho.populations[lo:hi]
        if max(chunk) - min(chunk) > tol:
            return False
    return True


def low_entropy_bound(s: Spectrum, S: float, N: int) -> float:
    """Energy cap for order-N passive states with entropy below ln(d0)."""
    return s.eps_max * (s.d - s.d0) * math.exp(-N * math.log(s.d0) + (N - 1) * S)


def bound_report(s: Spectrum, rho: DiagonalState, N: int) -> BoundReport:
    """Select and evaluate the applicable energy bound for an order-N passive state.

    The caller asserts membership in the passivity class; this function only
    inspects entropy, degeneracy structure, and order-1 stability to pick the
    regime.
    """
    _check_aligned(s, rho)
    if N < 1:
        raise ValueError("N must be >= 1")
    S = state_entropy(rho)
    E = state_energy(s, rho)
    ln_d0 = math.log(s.d0)

    if S < ln_d0 - 1e-12:
        if s.d == s.d0:
            raise HypothesisError("single-level spectrum cannot have entropy below ln d0")
        bound = low_entropy_bound(s, S, N)
        return BoundReport(
            regime=LOW_ENTROPY,
            bound_value=bound,
            slack=bound - E,
            N=N,
            beta_rho=None,
            R=spectral_ratio(s),
            eps_max=s.eps_max,
            d0=s.d0,
            u_rho=None,
            asymptotic=False,
            energy=E,
            entropy=S,
        )

    if s.eps_max == 0:
        # single-level spectrum: E = E_beta = 0 identically
        return BoundReport(
            regime=TWO_LEVEL_EQUALITY, bound_value=0.0, slack=0.0, N=N,
            beta_rho=math.inf, R=0.0, eps_max=0.0, d0=s.d0, u_rho=None,
            asymptotic=False, energy=E, entropy=S,
        )

    beta = solve_beta_for_entropy(s, min(S, math.log(s.d)))
    gp = gibbs_point(s, beta)
    E_beta = gp.energy
    R = spectral_ratio(s)
    u = min(1.0, beta * s.eps_max) if math.isfinite(beta) else 1.0
    one_ss = is_one_structurally_stable(s, rho)
    two_level = s.is_two_level()

    def report(regime, bound, asymptotic=False, b_exp=None, b_inv=None):
        return BoundReport(
            regime=regime, bound_value=bound, slack=bound - E, N=N,
            beta_rho=beta, R=R, eps_max=s.eps_max, d0=s.d0, u_rho=u,
            asymptotic=asymptotic, energy=E, entropy=S,
            bound_exponential=b_exp, bound_inverse=b_inv,
        )

    if s.d == 2 or (two_level and one_ss):
        return report(TWO_LEVEL_EQUALITY, E_beta)

    if one_ss:
        f_exp = exponential_factor(beta, s.eps_max, R, N)
        b_exp = E_beta * f_exp
        f_inv = inverse_factor(R, N)
        if f_inv is None:
            return report(EXPONENTIAL, b_exp, b_exp=b_exp)
        b_inv = E_beta * f_inv
        return report(MIN_OF_BOTH, min(b_exp, b_inv), b_exp=b_exp, b_inv=b_inv)

    # degenerate spectrum without order-1 stability
    lam_min_ground = min(rho.populations[: s.d0])
    z_inv = math.exp(-gp.logZ) if math.isfinite(beta) else 1.0 / s.d0
    if lam_min_ground >= z_inv:
        b_exp = E_beta * exponential_factor(beta, s.eps_max, R, N)
        return report(EXPONENTIAL, b_exp, b_exp=b_exp)

    if N < 3:
        raise HypothesisError(
            "asymptotic regimes need N >= 3 (denominators N-2 appear)"
        )
    if math.isinf(beta):
        raise HypothesisError("asymptotic regimes need finite beta (S > ln d0)")
    if two_level:
        bound = (N - 1) / (N - 2) * E_beta + (s.d0 - 1) * z_inv * s.eps_max / (N - 2)
        return report(ASYMPTOTIC_TWO_LEVEL, bound, asymptotic=True)
    lead = N / (N - 2) * (1 + u * R / N) * E_beta
    if s.d0 == 1:
        bound = lead + (1.0 / beta) / (N - 2) if beta > 0 else math.inf
        return report(ASYMPTOTIC_NONDEG_GROUND, bound, asymptotic=True)
    tail = ((s.d0 - 1) * z_inv * s.eps_max + (1.0 / beta if beta > 0 else math.inf)) / (N - 2)
    return report(ASYMPTOTIC_GENERAL, lead + tail, asymptotic=True)


def check_bound(s: Spectrum, rho: DiagonalState, N: int, cap: int = DEFAULT_CAP) -> float:
    """Verify the hypothesis class, evaluate the bound, and return the slack.

    Raises if the state is not order-N passive, or if a non-asymptotic bound
    comes out negative beyond tolerance (which would falsify the theory).
    """
    verdict = is_n_passive(s, rho, N, cap=cap)
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
