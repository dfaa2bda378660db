"""Degenerate-level averaging and its entropy-gap bound.

Flattening replaces the populations inside each degenerate level by their
mean.  It preserves energy, never decreases entropy, and turns an order-N
passive state into an order-1 structurally stable one; the entropy it adds
is bounded in terms of the state's isoentropic inverse temperature.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter

from .gibbs import _state_point
from .spectra import DiagonalState, Spectrum, _check_order, _entropy_gap, _fold, state_energy


class RegimeError(ValueError):
    """Hypothesis of the entropy-gap bound is not met."""


@dataclass(frozen=True)
class FlattenResult:
    flattened: DiagonalState
    delta_S: float
    delta_S0: float


def _levels(s: Spectrum, rho: DiagonalState):
    """Per level of s, its (energy, multiplicity) and the (population,
    ln(population), count) of each class of rho in it."""
    f = _fold(s, rho)
    rows = zip(f.level, f.populations, f.log_populations, f.counts)
    runs = (run for _, run in itertools.groupby(rows, itemgetter(0)))
    return [(level, [row[1:] for row in run]) for level, run in zip(s.distinct_levels, runs)]


def flatten(s: Spectrum, rho: DiagonalState) -> FlattenResult:
    """Average populations within each degenerate level, one block per level."""
    blocks = []
    logs = []
    gaps = []
    for (_, g), run in _levels(s, rho):
        if len(run) == 1:
            mean, lnp, _ = run[0]
            gap = 0.0
        else:
            mass = sum(c * p for p, _, c in run)
            mean = mass / g
            lnp = math.log(mean) if mean > 0 else -math.inf
            # the entropy gained by averaging; non-negative
            gain = sum(c * p * x for p, x, c in run if p > 0) - mass * lnp if mean > 0 else 0.0
            gap = max(gain, 0.0)
        blocks.append((mean, g))
        logs.append(lnp)
        gaps.append(gap)
    return FlattenResult(
        flattened=DiagonalState._of(tuple(blocks), tuple(logs)),
        delta_S=sum(gaps),
        delta_S0=gaps[0],
    )


def delta_S_bound(
    s: Spectrum, rho: DiagonalState, N: int, form: str = "auto"
) -> float:
    """Upper bound on the entropy added by flattening an order-N passive state.

    Valid when N >= 2, S(rho) >= ln d0, and the smallest ground population
    lies strictly below 1/Z at the isoentropic temperature.  ``form`` selects
    'general' or the tighter 'two_level' variant (auto-detected by default).
    """
    f = _fold(s, rho)
    _check_order(N)
    if N < 2:
        raise RegimeError("entropy-gap bound needs N >= 2")
    if _entropy_gap(s, rho) < -1e-12:
        raise RegimeError("entropy below ln d0: no isoentropic thermal state")
    gp = _state_point(s, rho)
    beta, E_beta = gp.beta, gp.energy
    if not math.isfinite(beta):
        raise RegimeError("isoentropic temperature is zero (S == ln d0 limit)")
    z_inv = math.exp(-gp.logZ)
    # equality within roundoff (an exactly thermal state) is rejected too
    if min(p for k, p in zip(f.level, f.populations) if k == 0) >= z_inv * (1.0 - 1e-12):
        raise RegimeError(
            "smallest ground population >= 1/Z: the exponential bound regime applies"
        )
    if form == "auto":
        form = "two_level" if s.num_levels == 2 else "general"
    if form not in ("general", "two_level"):
        raise ValueError(f"unknown form {form!r}")
    E = state_energy(s, rho)
    tail = (s.d0 - 1) * z_inv * s.eps_max * math.exp(beta * s.eps_max / (N - 1))
    if form == "two_level":
        if not s.num_levels == 2:
            raise RegimeError("two_level form needs a two-level spectrum")
        return beta / (N - 1) * (E + tail)
    return beta / (N - 1) * (E + E_beta + tail) + 1.0 / (N - 1)
