"""Independent references the output checks compare against.

Nothing here calls ``npassive``: energies, weights and entropies are
recomputed from the raw inputs with the standard library only.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext

DIGITS = 60


def thermal_entropy(levels, beta: float) -> Decimal:
    """Entropy of the Gibbs state exp(-beta*e)/Z on (energy, multiplicity)
    levels, evaluated as S = beta*E + ln Z in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = DIGITS
        b = Decimal(beta)
        weights = [(Decimal(g) * (-b * Decimal(e)).exp(), Decimal(e)) for e, g in levels]
        Z = sum(w for w, _ in weights)
        E = sum(w * e for w, e in weights) / Z
        return b * E + Z.ln()


def entropy_rel_err(levels, beta: float, S: float) -> float:
    """|S_ref(beta) - S| / S for an inverted temperature beta of entropy S."""
    if math.isinf(beta):
        ref = Decimal(levels[0][1]).ln()
    else:
        ref = thermal_entropy(levels, beta)
    with localcontext() as ctx:
        ctx.prec = DIGITS
        return float(abs(ref - Decimal(S)) / Decimal(S))


def energy_tol(eps_max: float, N: int) -> float:
    """Occupation energies closer than this are ties (the documented rule)."""
    return 1e-9 * max(1.0, eps_max * N)


def is_violation(energies, populations, higher, lower, N: int) -> bool:
    """True when occupation vector ``higher`` has strictly more energy than
    ``lower`` and strictly more weight, so rho^(x)N is not passive."""
    e_hi = math.fsum(c * e for c, e in zip(higher, energies))
    e_lo = math.fsum(c * e for c, e in zip(lower, energies))
    if e_hi <= e_lo + energy_tol(max(energies), N):
        return False

    def log_weight(vec):
        total = []
        for c, p in zip(vec, populations):
            if c:
                if p <= 0:
                    return -math.inf
                total.append(c * math.log(p))
        return math.fsum(total)

    return log_weight(higher) > log_weight(lower)


def spectral_ratio(level_energies) -> float:
    """max_a (eps_max - eps_a) / (eps_{a+1} - eps_a) over consecutive levels."""
    top = level_energies[-1]
    return max(
        (top - a) / (b - a) for a, b in zip(level_energies, level_energies[1:])
    )
