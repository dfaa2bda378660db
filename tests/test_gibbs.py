import math
from dataclasses import astuple
from decimal import Decimal

import numpy as np
import pytest

import npassive.gibbs as G
import oracle
from npassive.bounds import bound_report
from npassive.flattening import delta_S_bound
from npassive.gibbs import (
    BETA_INF_FACTOR,
    EntropyRangeError,
    NoGibbsCounterpartError,
    _thermal_functionals,
    gibbs_point,
    gibbs_populations,
    isentropic_point,
    isoentropic_energy,
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


def _random_levels(L, seed):
    """L levels with energies in (0, 5] and multiplicities up to 1e12; half
    of them small, so the top weights can tie at beta = 0."""
    rng = np.random.default_rng(seed)
    eps = np.concatenate(([0.0], np.sort(rng.uniform(1e-3, 5.0, L - 1))))
    g = np.where(rng.random(L) < 0.5, rng.integers(1, 4, L), np.round(10.0 ** rng.uniform(0, 12, L)))
    return [(float(e), int(k)) for e, k in zip(eps, g)]


RANDOM_LEVELS = [_random_levels(L, 2300 + 100 * L + k) for L in range(2, 8) for k in range(20)]

# from 8 levels up numpy's add.reduce sums pairwise, so the thermal
# functionals' left-to-right sums may differ from the oracle's array
# reference in the last bits; this spectrum is held to the decimal oracle only
TEN_LEVELS = [(0.0, 1), (0.5, 2), (0.7, 1), (1.0, 5), (1.4, 1), (1.9, 3), (2.5, 10**6),
              (3.1, 1), (3.8, 7), (4.6, 10**12)]


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

    @pytest.mark.parametrize("beta", [-1.0, math.nan])
    def test_bad_beta_rejected(self, beta):
        with pytest.raises(ValueError):
            gibbs_point(normalize_spectrum([0, 1]), beta)

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
        assert isentropic_point(s, math.log(3)).beta == 0.0

    def test_min_entropy_degenerate(self):
        s = normalize_spectrum([0, 0, 1])
        assert isentropic_point(s, math.log(2)).beta == math.inf

    def test_roundtrip_against_grid(self):
        s = normalize_spectrum([0, 1, 2])
        beta = isentropic_point(s, 0.8).beta
        assert gibbs_point(s, beta).entropy == pytest.approx(0.8, abs=1e-11)
        # independent inversion: forward-evaluate on a fine grid
        grid = np.linspace(0.0, 20.0, 20001)
        vals = [gibbs_point(s, b).entropy for b in grid]
        k = int(np.argmin(np.abs(np.array(vals) - 0.8)))
        assert beta == pytest.approx(grid[k], abs=2e-3)

    def test_below_floor_rejected(self):
        s = normalize_spectrum([0, 0, 1])
        with pytest.raises(NoGibbsCounterpartError):
            isentropic_point(s, 0.5 * math.log(2))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            isentropic_point(normalize_spectrum([0, 1, 2]), math.nan)

    def test_above_ceiling_rejected(self):
        s = normalize_spectrum([0, 1])
        with pytest.raises(EntropyRangeError):
            isentropic_point(s, 1.0)

    def test_tiny_entropy_gap_resolved(self):
        s = normalize_spectrum([0, 1, 2])
        beta = isentropic_point(s, 1e-13).beta
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
    @pytest.mark.parametrize("levels", ORACLE_LEVELS + [TEN_LEVELS])
    def test_solve_is_isentropic(self, levels, which):
        S = _oracle_targets(levels)[which]
        beta = isentropic_point(Spectrum.from_levels(levels), S).beta
        assert math.isfinite(beta)
        ref = decimal_gibbs(levels, beta)[2]
        assert abs(ref - Decimal(S)) <= Decimal("1e-12") * Decimal(S), (beta, float(ref))

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("levels", ORACLE_LEVELS + [TEN_LEVELS])
    def test_gibbs_point_matches(self, levels, which):
        s = Spectrum.from_levels(levels)
        beta = isentropic_point(s, _oracle_targets(levels)[which]).beta
        gp = gibbs_point(s, beta)
        for got, ref in zip((gp.logZ, gp.energy, gp.entropy), decimal_gibbs(levels, beta)):
            assert abs(Decimal(got) - ref) <= Decimal("1e-12") * ref, (beta, got, float(ref))


def _bits(values):
    return tuple(float(v).hex() for v in values)


class TestOneSolve:
    """The solver's Gibbs point is the one gibbs_point gives at its beta."""

    # below 8 levels the functional's left-to-right sums are numpy's add.reduce,
    # so all five outputs, the log-populations too, equal the oracle's array
    # reference bit for bit; see TEN_LEVELS for more levels
    @pytest.mark.parametrize("beta", ["0", "1e-8", "1", "50/eps_max", "300/eps_max",
                                      "700/eps_max", "inf"])
    @pytest.mark.parametrize("levels", ORACLE_LEVELS + RANDOM_LEVELS)
    def test_functional_matches_three_exp_reference(self, levels, beta):
        s = Spectrum.from_levels(levels)
        b = float(beta[:-8]) / s.eps_max if beta.endswith("/eps_max") else float(beta)
        args = (s.level_energies, s.log_multiplicities, b)
        got, want = _thermal_functionals(*args), oracle.thermal_functionals(*args)
        assert _bits(got[:4]) == _bits(want[:4])
        assert _bits(got[4]) == _bits(want[4])

    def test_state_and_point_share_the_normalizer(self):
        # one normalizer: the state's ground log-population is -logZ of the
        # point at the same beta, to the bit (2-5 levels, g up to 1e12)
        rng = np.random.default_rng(5)
        for _ in range(3000):
            L = int(rng.integers(2, 6))
            eps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 2.0, L - 1))))
            s = Spectrum(tuple((float(e), int(g)) for e, g in zip(eps, 10 ** rng.integers(0, 13, L))))
            beta = float(10 ** rng.uniform(-3, 2.5))
            lnp0 = gibbs_populations(s, beta).log_populations[0]
            assert lnp0.hex() == (-gibbs_point(s, beta).logZ).hex(), (s, beta)

    @pytest.mark.parametrize("which", range(4))
    @pytest.mark.parametrize("levels", ORACLE_LEVELS)
    def test_point_equals_gibbs_point(self, levels, which):
        s = Spectrum.from_levels(levels)
        S = _oracle_targets(levels)[which]
        point = astuple(isentropic_point(s, S))
        assert _bits(point) == _bits(astuple(gibbs_point(s, isentropic_point(s, S).beta)))

    @pytest.mark.parametrize(
        "energies, S, beta",
        [
            ([0, 1, 2], math.log(3) - 1e-13, 0.0),  # within tol of ln d
            ([0, 0, 1], math.log(2), math.inf),  # S = ln d0
            ([0, 1], 1e-310, math.inf),  # the beta cap, see test_cap_leaves_more_entropy
        ],
    )
    def test_end_points(self, energies, S, beta):
        s = normalize_spectrum(energies)
        point = isentropic_point(s, S)
        assert point.beta == beta
        assert _bits(astuple(point)) == _bits(astuple(gibbs_point(s, beta)))

    def test_cap_leaves_more_entropy(self):
        s = normalize_spectrum([0, 1])
        assert gibbs_point(s, BETA_INF_FACTOR / s.eps_max).entropy > 1e-310 > math.log(s.d0)

    def test_root_refuses_an_unbounded_bracket(self):
        # from t = 0 the Newton step is unusable (dS/dt = 0) and bisecting
        # (0, inf) gives inf, so an infinite cap once exited at t = 0, with
        # the gap ln 3 in place of the target 0.5
        s = normalize_spectrum([0, 1, 1.9])
        args = (s.level_energies, s.log_multiplicities, 0.5, math.log(3), 0.0)
        _, f = G._isentrope_root(*args, BETA_INF_FACTOR / s.eps_max, 1e-12)
        assert f[2] == pytest.approx(0.5, rel=1e-12)
        for cap in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite cap"):
                G._isentrope_root(*args, cap, 1e-12)

    @pytest.fixture
    def evaluations(self, monkeypatch):
        G._isentropic_point.cache_clear()
        calls = [0]
        real = G._thermal_functionals

        def counted(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(G, "_thermal_functionals", counted)
        return calls

    def test_delta_S_bound_reuses_the_solve(self, evaluations):
        s, rho = normalize_spectrum([0, 0, 1]), DiagonalState((0.42, 0.38, 0.2))
        bound_report(s, rho, 3)
        alone = evaluations[0]
        delta_S_bound(s, rho, 3)
        assert alone > 0
        assert evaluations[0] == alone

    def test_other_tol_misses_the_memo(self, evaluations):
        s, S = normalize_spectrum([0, 0, 1]), 0.9
        isentropic_point(s, S)
        first = evaluations[0]
        isentropic_point(s, S)
        assert evaluations[0] == first
        isentropic_point(s, S, tol=1e-9)
        assert evaluations[0] > first
