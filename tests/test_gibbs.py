import math
from decimal import Decimal

import numpy as np
import pytest

from npassive.gibbs import (
    EntropyRangeError,
    NoGibbsCounterpartError,
    gibbs_point,
    gibbs_populations,
    isoentropic_energy,
    solve_beta_for_entropy,
)
from npassive.spectra import (
    DiagonalState,
    Spectrum,
    normalize_spectrum,
    state_energy,
    state_entropy,
)

from conftest import decimal_gibbs, random_state

# non-degenerate ground levels, so every target below sits above ln d0 = 0
ORACLE_LEVELS = [
    [(0.0, 1), (1.0, 1), (1.9, 1)],
    [(0.0, 1), (1.0, 3), (2.5, 2), (4.0, 1)],
    [(0.0, 1), (1.0, 1), (1.001, 10**12)],
    [(0.0, 1), (0.5, 10**12)],
]


def _oracle_targets(levels):
    """Entropies from deep low temperature up to just below ln d."""
    return [1e-24, 1e-13, 1e-6, math.log(sum(g for _, g in levels)) - 1e-9]


class TestGibbsPoint:
    def test_infinite_temperature(self):
        s = normalize_spectrum([0, 1])
        gp = gibbs_point(s, 0.0)
        assert gp.logZ == pytest.approx(math.log(2))
        assert gp.energy == pytest.approx(0.5)
        assert gp.entropy == pytest.approx(math.log(2))

    def test_zero_temperature_degenerate_ground(self):
        s = normalize_spectrum([0, 0, 1])
        gp = gibbs_point(s, math.inf)
        assert gp.energy == 0.0
        assert gp.entropy == pytest.approx(math.log(2))
        assert gibbs_populations(s, math.inf).populations == (0.5, 0.5, 0.0)

    def test_hand_value(self):
        s = normalize_spectrum([0, 1])
        gp = gibbs_point(s, math.log(2))
        assert math.exp(gp.logZ) == pytest.approx(1.5)
        assert gp.energy == pytest.approx(1 / 3)

    def test_entropy_identity(self):
        s = normalize_spectrum([0, 0.7, 1.3, 2.9])
        for beta in (0.1, 1.0, 4.0):
            gp = gibbs_point(s, beta)
            assert gp.entropy == pytest.approx(beta * gp.energy + gp.logZ, abs=1e-10)

    def test_monotonicity(self):
        s = normalize_spectrum([0, 1, 1.9])
        betas = np.linspace(0, 8, 30)
        pts = [gibbs_point(s, b) for b in betas]
        entropies = [p.entropy for p in pts]
        energies = [p.energy for p in pts]
        assert all(a > b for a, b in zip(entropies, entropies[1:]))
        assert all(a > b for a, b in zip(energies, energies[1:]))

    def test_energy_entropy_slope_is_inverse_temperature(self):
        s = normalize_spectrum([0, 1, 2.4])
        for beta in (0.5, 1.0, 2.0):
            h = 1e-5
            lo, hi = gibbs_point(s, beta - h), gibbs_point(s, beta + h)
            slope = (hi.energy - lo.energy) / (hi.entropy - lo.entropy)
            assert slope == pytest.approx(1.0 / beta, rel=1e-4)


class TestSolveBeta:
    def test_max_entropy(self):
        s = normalize_spectrum([0, 1, 2])
        assert solve_beta_for_entropy(s, math.log(3)) == 0.0

    def test_min_entropy_degenerate(self):
        s = normalize_spectrum([0, 0, 1])
        assert solve_beta_for_entropy(s, math.log(2)) == math.inf

    def test_roundtrip_against_grid(self):
        s = normalize_spectrum([0, 1, 2])
        beta = solve_beta_for_entropy(s, 0.8)
        assert gibbs_point(s, beta).entropy == pytest.approx(0.8, abs=1e-11)
        # independent inversion: forward-evaluate on a fine grid
        grid = np.linspace(0.0, 20.0, 20001)
        vals = [gibbs_point(s, b).entropy for b in grid]
        k = int(np.argmin(np.abs(np.array(vals) - 0.8)))
        assert beta == pytest.approx(grid[k], abs=2e-3)

    def test_below_floor_rejected(self):
        s = normalize_spectrum([0, 0, 1])
        with pytest.raises(NoGibbsCounterpartError):
            solve_beta_for_entropy(s, 0.5 * math.log(2))

    def test_above_ceiling_rejected(self):
        s = normalize_spectrum([0, 1])
        with pytest.raises(EntropyRangeError):
            solve_beta_for_entropy(s, 1.0)

    def test_tiny_entropy_gap_resolved(self):
        s = normalize_spectrum([0, 1, 2])
        beta = solve_beta_for_entropy(s, 1e-13)
        assert math.isfinite(beta)
        assert gibbs_point(s, beta).entropy == pytest.approx(1e-13, rel=1e-6)


class TestIsoentropicEnergy:
    def test_gibbs_fixed_point(self):
        s = normalize_spectrum([0, 1, 1.9])
        rho = gibbs_populations(s, 1.7)
        beta, E = isoentropic_energy(s, rho)
        assert beta == pytest.approx(1.7, rel=1e-9)
        assert E == pytest.approx(state_energy(s, rho), rel=1e-9)

    def test_uniform(self):
        s = normalize_spectrum([0, 1, 2])
        rho = DiagonalState((1 / 3,) * 3)
        beta, E = isoentropic_energy(s, rho)
        assert beta == 0.0
        assert E == pytest.approx(1.0)

    def test_thermal_energy_is_minimal(self, rng):
        s = normalize_spectrum([0, 1, 1.9])
        for _ in range(300):
            rho = random_state(rng, 3)
            beta, E_beta = isoentropic_energy(s, rho)
            assert state_energy(s, rho) >= E_beta - 1e-9

    def test_specific_state(self):
        s = normalize_spectrum([0, 1, 1.9])
        rho = DiagonalState((0.5, 0.35, 0.15))
        beta, E_beta = isoentropic_energy(s, rho)
        assert gibbs_point(s, beta).entropy == pytest.approx(state_entropy(rho), abs=1e-11)
        assert E_beta <= state_energy(s, rho)


class TestDecimalOracle:
    """Against a 200-digit stdlib-decimal Gibbs state."""

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("levels", ORACLE_LEVELS)
    def test_solve_is_isentropic(self, levels, which):
        S = _oracle_targets(levels)[which]
        beta = solve_beta_for_entropy(Spectrum.from_levels(levels), S)
        assert math.isfinite(beta)
        ref = decimal_gibbs(levels, beta)[2]
        assert abs(ref - Decimal(S)) <= Decimal("1e-12") * Decimal(S), (beta, float(ref))

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("levels", ORACLE_LEVELS)
    def test_gibbs_point_matches(self, levels, which):
        s = Spectrum.from_levels(levels)
        beta = solve_beta_for_entropy(s, _oracle_targets(levels)[which])
        gp = gibbs_point(s, beta)
        for got, ref in zip((gp.logZ, gp.energy, gp.entropy), decimal_gibbs(levels, beta)):
            assert abs(Decimal(got) - ref) <= Decimal("1e-12") * ref, (beta, got, float(ref))
