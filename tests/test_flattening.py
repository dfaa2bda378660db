import math

import pytest

from npassive.flattening import RegimeError, delta_S_bound, flatten
from npassive.extremal import sample_n_passive
from npassive.gibbs import (
    gibbs_point,
    gibbs_populations,
    isentropic_point,
)
from npassive.passivity import is_k_structurally_stable, is_n_passive
from npassive.spectra import (
    DiagonalState,
    normalize_spectrum,
    state_energy,
    state_entropy,
)

from conftest import random_state
import oracle

S001 = normalize_spectrum([0, 0, 1])
S0012 = normalize_spectrum([0, 0, 1, 2])


def in_entropy_gap_class(s, rho):
    """Hypothesis of the entropy-gap bound: S >= ln d0 and lam_min(0) < 1/Z."""
    S = state_entropy(rho)
    if S < math.log(s.d0):
        return False
    beta = isentropic_point(s, S).beta
    if not math.isfinite(beta):
        return False
    z_inv = math.exp(-gibbs_point(s, beta).logZ)
    return min(rho.populations[: s.d0]) < z_inv


class TestFlatten:
    def test_example(self):
        res = flatten(S001, DiagonalState((0.5, 0.3, 0.2)))
        assert res.flattened.populations == pytest.approx((0.4, 0.4, 0.2))
        assert res.delta_S > 0
        assert state_energy(S001, res.flattened) == pytest.approx(0.2)
        assert res.delta_S0 == pytest.approx(res.delta_S)

    def test_identity_on_stable(self):
        rho = DiagonalState((0.4, 0.4, 0.2))
        res = flatten(S001, rho)
        assert res.flattened.populations == rho.populations
        assert res.delta_S == 0.0

    def test_identity_on_nondegenerate(self):
        s = normalize_spectrum([0, 1, 2])
        rho = DiagonalState((0.5, 0.3, 0.2))
        assert flatten(s, rho).flattened.populations == rho.populations

    def test_energy_preserved_entropy_up(self, rng):
        for _ in range(300):
            rho = random_state(rng, 4)
            res = flatten(S0012, rho)
            assert state_energy(S0012, res.flattened) == pytest.approx(
                state_energy(S0012, rho), rel=1e-15, abs=1e-15
            )
            assert res.delta_S >= 0
            assert state_entropy(res.flattened) == pytest.approx(
                state_entropy(rho) + res.delta_S, abs=1e-12
            )

    def test_flattened_keeps_passivity_and_gains_stability(self):
        for N in (2, 3):
            for rho in sample_n_passive(S0012, N, 40, seed=99, b_max=6.0):
                res = flatten(S0012, rho)
                assert is_k_structurally_stable(S0012, res.flattened, 1)
                assert is_n_passive(S0012, res.flattened, N).passive


class TestDeltaSBound:
    def test_holds_on_sampled_states(self):
        checked = 0
        for rho in sample_n_passive(S001, 3, 300, seed=17, b_max=2.5):
            if not in_entropy_gap_class(S001, rho):
                continue
            bound = delta_S_bound(S001, rho, 3)
            assert flatten(S001, rho).delta_S <= bound + 1e-12
            checked += 1
        assert checked > 30

    def test_stable_input_trivial(self):
        rho = gibbs_populations(S001, 1.1)
        # thermal states are 1-SS so the gap is 0; hypothesis still fails
        # because the ground populations equal 1/Z exactly
        with pytest.raises(RegimeError):
            delta_S_bound(S001, rho, 3)

    def test_two_level_form_tighter(self):
        for rho in sample_n_passive(S001, 2, 100, seed=23, b_max=2.5):
            if not in_entropy_gap_class(S001, rho):
                continue
            two = delta_S_bound(S001, rho, 2, form="two_level")
            general = delta_S_bound(S001, rho, 2, form="general")
            assert two < general

    def test_hypothesis_violations_rejected(self):
        with pytest.raises(RegimeError):
            delta_S_bound(S001, DiagonalState((0.9, 0.05, 0.05)), 3)  # S < ln d0
        with pytest.raises(RegimeError):
            delta_S_bound(S001, DiagonalState((0.4, 0.4, 0.2)), 1)  # N too small


class TestCrossingWitness:
    """The paper's crossing lemma, decided by ``oracle.gibbs_crossing_pair``:
    a state whose leading population lies below 1/Z at its isoentropic beta
    crosses that thermal state between two excited levels."""

    def test_witness_exists(self):
        s = normalize_spectrum([0, 1, 1.9])
        rho = DiagonalState((0.42, 0.33, 0.25))
        gp = isentropic_point(s, state_entropy(rho))
        assert rho.populations[0] < math.exp(-gp.logZ)
        eb, ec = oracle.gibbs_crossing_pair(s.energies, rho.populations, gp.beta, gp.logZ, 1e-12)
        assert 0 < eb < ec

    def test_witness_levels_really_cross(self):
        s = normalize_spectrum([0, 0.8, 1.5, 2.6])
        checked = 0
        for rho in sample_n_passive(s, 2, 60, seed=31, b_max=4.0):
            beta = isentropic_point(s, state_entropy(rho)).beta
            if not math.isfinite(beta):
                continue
            logZ = gibbs_point(s, beta).logZ
            if rho.populations[0] >= math.exp(-logZ) - 1e-12:
                continue
            eb, ec = oracle.gibbs_crossing_pair(s.energies, rho.populations, beta, logZ, 1e-12)
            ib = s.energies.index(eb)
            ic = s.energies.index(ec)
            assert rho.populations[ib] >= math.exp(-beta * eb - logZ) - 1e-12
            assert rho.populations[ic] <= math.exp(-beta * ec - logZ) + 1e-12
            checked += 1
        assert checked > 0


class TestLemmaPredicates:
    """The paper's two lemmas on order-N passive states in the entropy-gap
    class, decided by the pairwise loops of ``oracle.py``."""

    def test_same_level_log_gap(self):
        s = normalize_spectrum([0, 1, 1, 2.2])
        count = 0
        for N in (2, 3):
            for rho in sample_n_passive(s, N, 80, seed=7 + N, b_max=3.0):
                if not in_entropy_gap_class(s, rho):
                    continue
                logZ = isentropic_point(s, state_entropy(rho)).logZ
                chunks = [list(rho.populations[:1]), list(rho.populations[1:3]),
                          list(rho.populations[3:])]
                assert oracle.same_level_log_gap_ok(s.distinct_levels, chunks, logZ, N, 1e-9)
                count += 1
        assert count > 20

    def test_ground_spread_witnessed(self):
        count = 0
        for N in (2, 3):
            for rho in sample_n_passive(S001, N, 80, seed=57 + N, b_max=3.0):
                if not in_entropy_gap_class(S001, rho):
                    continue
                beta = isentropic_point(S001, state_entropy(rho)).beta
                assert oracle.ground_spread_witness(S001.energies, rho.populations, S001.d0,
                                                    beta, N, 1e-9) is not None
                count += 1
        assert count > 20
