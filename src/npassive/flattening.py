"""Degenerate-level averaging, entropy-gap bounds, and majorization predicates.

Flattening replaces the populations inside each degenerate level by their
mean.  It preserves energy, never decreases entropy, and turns an order-N
passive state into an order-1 structurally stable one; the entropy it adds
is bounded in terms of the state's isoentropic inverse temperature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .gibbs import isentropic_point, solve_beta_for_entropy
from .spectra import (
    DiagonalState,
    Spectrum,
    _check_aligned,
    state_energy,
    state_entropy,
)

MAJORIZE_TOL = 1e-12


class RegimeError(ValueError):
    """Hypothesis of the entropy-gap bound is not met."""


@dataclass(frozen=True)
class FlattenResult:
    flattened: DiagonalState
    delta_S: float
    delta_S0: float


def _level_entropy_gap(chunk) -> float:
    """Entropy gained by averaging one level's populations; non-negative."""
    mean = sum(chunk) / len(chunk)
    if mean <= 0:
        return 0.0
    gap = sum(p * math.log(p) for p in chunk if p > 0) - sum(chunk) * math.log(mean)
    return max(gap, 0.0)


def flatten(s: Spectrum, rho: DiagonalState) -> FlattenResult:
    """Average populations within each degenerate level."""
    _check_aligned(s, rho)
    pops = list(rho.populations)
    delta_S = 0.0
    delta_S0 = 0.0
    out = []
    for ell, (lo, hi) in enumerate(s.level_slices):
        chunk = pops[lo:hi]
        mean = sum(chunk) / len(chunk)
        out.extend([mean] * len(chunk))
        gap = _level_entropy_gap(chunk)
        delta_S += gap
        if ell == 0:
            delta_S0 = gap
    return FlattenResult(
        flattened=DiagonalState(tuple(out)), delta_S=delta_S, delta_S0=delta_S0
    )


def delta_S_bound(
    s: Spectrum, rho: DiagonalState, N: int, form: str = "auto"
) -> float:
    """Upper bound on the entropy added by flattening an order-N passive state.

    Valid when N >= 2, S(rho) >= ln d0, and the smallest ground population
    lies strictly below 1/Z at the isoentropic temperature.  ``form`` selects
    'general' or the tighter 'two_level' variant (auto-detected by default).
    """
    _check_aligned(s, rho)
    if N < 2:
        raise RegimeError("entropy-gap bound needs N >= 2")
    S = state_entropy(rho)
    if S < math.log(s.d0) - 1e-12:
        raise RegimeError("entropy below ln d0: no isoentropic thermal state")
    gp = isentropic_point(s, S)
    beta, E_beta = gp.beta, gp.energy
    if not math.isfinite(beta):
        raise RegimeError("isoentropic temperature is zero (S == ln d0 limit)")
    z_inv = math.exp(-gp.logZ)
    # equality within roundoff (an exactly thermal state) is rejected too
    if min(rho.populations[: s.d0]) >= z_inv * (1.0 - 1e-12):
        raise RegimeError(
            "smallest ground population >= 1/Z: the exponential bound regime applies"
        )
    if form == "auto":
        form = "two_level" if s.is_two_level() else "general"
    if form not in ("general", "two_level"):
        raise ValueError(f"unknown form {form!r}")
    E = state_energy(s, rho)
    tail = (s.d0 - 1) * z_inv * s.eps_max * math.exp(beta * s.eps_max / (N - 1))
    if form == "two_level":
        if not s.is_two_level():
            raise RegimeError("two_level form needs a two-level spectrum")
        return beta / (N - 1) * (E + tail)
    return beta / (N - 1) * (E + E_beta + tail) + 1.0 / (N - 1)


def majorizes(P, Q, tol: float = MAJORIZE_TOL) -> str:
    """Prefix-sum comparison of two probability vectors: 'strict'/'weak'/'none'.

    'weak' means every prefix of sorted-descending P is >= that of Q within
    tol but never strictly greater; 'strict' requires at least one strictly
    greater prefix.
    """
    p = sorted((float(x) for x in P), reverse=True)
    q = sorted((float(x) for x in Q), reverse=True)
    if len(p) != len(q):
        raise ValueError("vectors must have equal length")
    cum_p = cum_q = 0.0
    any_strict = False
    for a, b in zip(p, q):
        cum_p += a
        cum_q += b
        if cum_p < cum_q - tol:
            return "none"
        if cum_p > cum_q + tol:
            any_strict = True
    return "strict" if any_strict else "weak"


def gibbs_crossing_witness(
    s: Spectrum, rho: DiagonalState, tol: float = 1e-12
) -> tuple[float, float]:
    """Energies (eps_b, eps_c) where rho crosses its isoentropic thermal state.

    For a non-thermal state whose top population sits below 1/Z, some excited
    level must be over-populated relative to the thermal state and some higher
    level under-populated; this returns the first such pair.
    """
    _check_aligned(s, rho)
    gp = isentropic_point(s, state_entropy(rho))
    beta, logZ = gp.beta, gp.logZ
    if not math.isfinite(beta):
        raise RegimeError("state entropy at the ln d0 limit: no finite temperature")
    if rho.populations[0] >= math.exp(-logZ) - tol:
        raise RegimeError("leading population not below 1/Z: hypothesis fails")
    eps = s.energies
    hat = [math.exp(-beta * e - logZ) for e in eps]
    for b in range(s.d):
        if eps[b] <= 0 or rho.populations[b] < hat[b] - tol:
            continue
        for c in range(b + 1, s.d):
            if eps[c] > eps[b] and rho.populations[c] <= hat[c] + tol:
                return eps[b], eps[c]
    raise RegimeError("no crossing pair found: state violates the hypothesis class")


def same_level_log_gap_ok(
    s: Spectrum, rho: DiagonalState, N: int, tol: float = 1e-9
) -> bool:
    """Within every positive-energy level, log-population gaps stay below
    -(ln Z + ln lambda_j)/(N-1) for each ordered pair (i, j)."""
    _check_aligned(s, rho)
    if N < 2:
        raise ValueError("needs N >= 2")
    logZ = isentropic_point(s, state_entropy(rho)).logZ
    for (e, g), (lo, hi) in zip(s.distinct_levels, s.level_slices):
        if e <= 0 or g < 2:
            continue
        chunk = rho.populations[lo:hi]
        for li in chunk:
            for lj in chunk:
                if li <= 0 or lj <= 0:
                    return False
                lhs = math.log(lj) - math.log(li)
                rhs = -(logZ + math.log(lj)) / (N - 1)
                if lhs >= rhs + tol:
                    return False
    return True


def ground_spread_witness(
    s: Spectrum, rho: DiagonalState, N: int, tol: float = 1e-9
) -> float | None:
    """Smallest positive energy eps_a with ground log-spread < beta*eps_a/(N-1)."""
    _check_aligned(s, rho)
    if N < 2:
        raise ValueError("needs N >= 2")
    ground = rho.populations[: s.d0]
    if min(ground) <= 0:
        return None
    spread = math.log(max(ground)) - math.log(min(ground))
    beta = solve_beta_for_entropy(s, state_entropy(rho))
    if not math.isfinite(beta):
        return None
    for e, _ in s.distinct_levels:
        if e > 0 and spread < beta * e / (N - 1) + tol:
            return e
    return None
