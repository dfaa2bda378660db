from decimal import Decimal, localcontext

import numpy as np
import pytest

from npassive.spectra import DiagonalState


def random_state(rng, d: int) -> DiagonalState:
    pops = rng.dirichlet(np.ones(d))
    return DiagonalState(tuple(pops))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def decimal_gibbs(levels, beta: float, prec: int = 200) -> tuple[Decimal, Decimal, Decimal]:
    """(ln Z, E, S = beta*E + ln Z) of the Gibbs state on (energy,
    multiplicity) levels, in stdlib decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = prec
        b = Decimal(beta)
        weights = [(Decimal(g), Decimal(e), (-b * Decimal(e)).exp()) for e, g in levels]
        Z = sum(g * w for g, _, w in weights)
        E = sum(g * e * w for g, e, w in weights) / Z
        return Z.ln(), E, b * E + Z.ln()
