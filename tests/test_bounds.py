import json
import math

import numpy as np
import pytest

from npassive.bounds import (
    ASYMPTOTIC_GENERAL,
    ASYMPTOTIC_TWO_LEVEL,
    EXPONENTIAL,
    LOW_ENTROPY,
    MIN_OF_BOTH,
    TWO_LEVEL_EQUALITY,
    BoundViolationError,
    HypothesisError,
    alpha_max,
    bound_report,
    check_bound,
    exponential_factor,
    spectral_ratio,
)
from npassive.cli import main
from npassive.extremal import sample_n_passive
from npassive.gibbs import gibbs_populations
from npassive.spectra import DiagonalState, normalize_spectrum


class TestSpectralRatio:
    def test_three_level(self):
        assert spectral_ratio(normalize_spectrum([0, 1, 1.9])) == pytest.approx(1.9)

    def test_two_level_convention(self):
        assert spectral_ratio(normalize_spectrum([0, 1])) == 0.0
        assert spectral_ratio(normalize_spectrum([0, 0, 1])) == 0.0

    def test_ladder(self):
        assert spectral_ratio(normalize_spectrum([0, 1, 2, 3])) == pytest.approx(3.0)

    def test_brute_force(self):
        s = normalize_spectrum([0, 0.3, 1.1, 2.7])
        levels = [e for e, _ in s.distinct_levels]
        brute = max(
            (levels[-1] - a) / (b - a)
            for i, a in enumerate(levels)
            for b in levels[i + 1 :]
        )
        assert spectral_ratio(s) == pytest.approx(brute)


class TestAlphaMax:
    def test_figure_parameters(self):
        assert alpha_max(5, 1.001) == pytest.approx(1.25031, abs=1e-5)

    def test_r_zero(self):
        assert alpha_max(3, 0.0) == 1.0

    def test_vacuous(self):
        assert alpha_max(2, 2.0) == math.inf
        assert alpha_max(2, 3.0) == math.inf


class TestBoundReport:
    def test_two_level_equality(self):
        s = normalize_spectrum([0, 1])
        for beta in (0.3, 1.0, 4.0):
            rep = bound_report(s, gibbs_populations(s, beta), 3)
            assert rep.regime == TWO_LEVEL_EQUALITY
            assert abs(rep.slack) <= 1e-10

    def test_min_of_both_on_stable_state(self):
        s = normalize_spectrum([0, 1, 1.9])
        rho = DiagonalState((0.5, 0.35, 0.15))
        rep = bound_report(s, rho, 5)
        assert rep.regime == MIN_OF_BOTH
        assert rep.R == pytest.approx(1.9)
        assert rep.bound_value == pytest.approx(
            min(rep.bound_exponential, rep.bound_inverse)
        )

    def test_exponential_when_inverse_vacuous(self):
        s = normalize_spectrum([0, 1, 1.9])
        rho = gibbs_populations(s, 1.2)
        rep = bound_report(s, rho, 1)
        assert rep.regime == EXPONENTIAL
        assert rep.bound_inverse is None

    def test_low_entropy_regime(self):
        s = normalize_spectrum([0, 0, 1])
        rho = DiagonalState((0.9, 0.05, 0.05))
        assert rho.d == 3
        from npassive.spectra import state_entropy

        S = state_entropy(rho)
        assert S < math.log(2)
        rep = bound_report(s, rho, 4)
        assert rep.regime == LOW_ENTROPY
        expected = 1.0 * (3 - 2) * math.exp(-4 * math.log(2) + 3 * S)
        assert rep.bound_value == pytest.approx(expected)

    def test_asymptotic_general(self):
        s = normalize_spectrum([0, 0, 1, 1.9])
        # degenerate ground, unequal ground populations, high entropy
        rho = DiagonalState((0.38, 0.33, 0.17, 0.12))
        rep = bound_report(s, rho, 5)
        assert rep.regime == ASYMPTOTIC_GENERAL
        assert rep.asymptotic

    def test_asymptotic_needs_n3(self):
        s = normalize_spectrum([0, 0, 1, 1.9])
        rho = DiagonalState((0.38, 0.33, 0.17, 0.12))
        with pytest.raises(HypothesisError):
            bound_report(s, rho, 2)

    def test_asymptotic_two_level(self):
        s = normalize_spectrum([0, 0, 1])
        rho = DiagonalState((0.45, 0.35, 0.2))
        rep = bound_report(s, rho, 4)
        assert rep.regime == ASYMPTOTIC_TWO_LEVEL

    def test_tiny_unequal_populations_are_not_order_one_stable(self):
        # 1e-15 against 2e-15 inside one level: equal to an absolute 1e-9,
        # a factor 2 apart in log space, so not order-1 stable
        s = normalize_spectrum([0, 1, 1, 2])
        rho = DiagonalState((1 - 3.5e-15, 1e-15, 2e-15, 5e-16))
        rep = bound_report(s, rho, 5)
        assert rep.regime != MIN_OF_BOTH
        assert rep.bound_inverse is None

    @pytest.mark.parametrize("energies", [[0, 1, 2], [0, 0.5, 1.9, 3]])
    @pytest.mark.parametrize("N", range(1, 6))
    def test_pure_ground_state_has_zero_bound(self, energies, N, tmp_path, capsys):
        # beta = inf and E_beta = 0: the exponential row read 0*inf = nan, so
        # check_bound returned nan and `npassive bounds` exited 1
        s = normalize_spectrum(energies)
        rho = DiagonalState((1.0,) + (0.0,) * (len(energies) - 1))
        rep = bound_report(s, rho, N)
        assert math.isfinite(rep.bound_value) and rep.slack >= 0
        assert check_bound(s, rho, N) >= 0
        path = tmp_path / "ground.json"
        path.write_text(json.dumps({"energies": energies, "populations": list(rho.populations)}))
        assert main(["bounds", "--state", str(path), "--n", str(N)]) == 0
        assert json.loads(capsys.readouterr().out)["slack"] >= 0


class TestCheckBound:
    def test_gibbs_nonnegative_slack(self):
        s = normalize_spectrum([0, 1, 1.9])
        for N in (1, 2, 5):
            assert check_bound(s, gibbs_populations(s, 0.8), N) >= 0.0

    def test_non_passive_rejected(self):
        s = normalize_spectrum([0, 1, 1.9])
        with pytest.raises(HypothesisError):
            check_bound(s, DiagonalState((0.5, 0.35, 0.15)), 2)

    def test_sampled_stable_states(self):
        s = normalize_spectrum([0, 1, 2, 3.5])
        for N in (2, 4):
            for rho in sample_n_passive(s, N, 30, seed=42 + N, stable=True):
                assert check_bound(s, rho, N) >= -1e-9


def test_exponential_factor_overflows_to_inf():
    assert exponential_factor(1.0, 2.0, 1e6, 5) == math.inf


@pytest.mark.parametrize("N", [0, -3])
def test_exponential_factor_rejects_order_below_one(N):
    with pytest.raises(ValueError, match="N must be >= 1"):
        exponential_factor(1.0, 1.0, 0.0, N)


class TestCrossover:
    def test_factor_comparison_matches_analytic(self):
        # e^x <= 1/(1-x) on [0,1), so the exponential factor always wins when
        # beta*eps_max <= 1; above that the inverse factor takes over at large N
        R = 1.9
        eps_max = 1.9
        for beta in (0.2, 0.5263157894736842, 1.0, 2.5):
            for N in range(2, 60):
                if R >= N:
                    continue
                f_exp = exponential_factor(beta, eps_max, R, N)
                f_inv = alpha_max(N, R)
                analytic = beta * eps_max * R / N <= -math.log1p(-R / N)
                assert (f_exp <= f_inv) == analytic
                if beta * eps_max <= 1:
                    assert f_exp <= f_inv
            if beta * eps_max > 1:
                assert exponential_factor(beta, eps_max, R, 1000) >= alpha_max(1000, R)
