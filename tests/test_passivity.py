import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npassive.gibbs import gibbs_populations
from npassive.passivity import (
    classify_complete_passivity,
    ergotropy_1,
    is_k_structurally_stable,
    is_n_passive,
    n_ergotropy,
    passive_rearrangement,
    prep1_envelope,
)
from npassive.spectra import DiagonalState, Spectrum, normalize_spectrum

from conftest import random_state


S019 = normalize_spectrum([0, 1, 1.9])
S012 = normalize_spectrum([0, 1, 2])
S001 = normalize_spectrum([0, 0, 1])


class TestPassive1:
    def test_passive(self):
        assert is_n_passive(S012, DiagonalState((0.5, 0.3, 0.2)), 1).passive

    def test_inversion_witnessed(self):
        v = is_n_passive(S012, DiagonalState((0.5, 0.2, 0.3)), 1)
        assert not v.passive
        assert v.witness[0].counts == (0, 0, 1)
        assert v.witness[1].counts == (0, 1, 0)

    def test_gibbs_passive(self):
        assert is_n_passive(S019, gibbs_populations(S019, 2.2), 1).passive


class TestNPassive:
    def test_gibbs_all_orders(self):
        rho = gibbs_populations(S019, 1.3)
        for N in (1, 2, 3, 5):
            assert is_n_passive(S019, rho, N).passive

    def test_order_two_breaks(self):
        rho = DiagonalState((0.5, 0.35, 0.15))
        assert is_n_passive(S019, rho, 1).passive
        v = is_n_passive(S019, rho, 2)
        assert not v.passive
        assert v.witness[0].counts == (0, 2, 0)
        assert v.witness[1].counts == (1, 0, 1)

    def test_ground_mixture_always_passive(self):
        rho = DiagonalState((0.7, 0.3, 0.0))
        for N in (1, 2, 3, 4):
            assert is_n_passive(S001, rho, N).passive

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        N=st.integers(2, 4),
        d=st.integers(2, 4),
    )
    def test_hierarchy(self, seed, N, d):
        rng = np.random.default_rng(seed)
        s = normalize_spectrum(sorted([0.0] + list(rng.uniform(0.2, 3.0, d - 1))))
        rho = random_state(rng, d)
        if is_n_passive(s, rho, N).passive:
            for n_prime in range(1, N):
                assert is_n_passive(s, rho, n_prime).passive


class TestChainedTies:
    """Gaps of 0.8e-9 chain 1, 1 + 0.8e-9 and 1 + 1.6e-9 into one tie group at
    N = 1 (tolerance 1e-9), though the outer two differ by more than it."""

    S = Spectrum.from_levels([(0, 1), (1, 1), (1 + 0.8e-9, 1), (1 + 1.6e-9, 1)])
    RHO = DiagonalState((0.4, 0.18, 0.2, 0.22))

    def test_verdict_follows_the_chain(self):
        assert is_n_passive(self.S, self.RHO, 1).passive

    def test_witness_crosses_groups(self):
        # (0, 0, 0, 1) outweighs (0, 1, 0, 0) by more than the tolerance, but
        # the two tie, so the first violation is against the ground level
        v = is_n_passive(self.S, DiagonalState((0.2, 0.25, 0.27, 0.28)), 1)
        assert not v.passive
        assert (v.witness[0].counts, v.witness[1].counts) == ((0, 0, 0, 1), (1, 0, 0, 0))

    def test_stability_follows_the_chain(self):
        assert not is_k_structurally_stable(self.S, self.RHO, 1)


class TestStructuralStability:
    def test_equal_ground_is_stable(self):
        assert is_k_structurally_stable(S001, DiagonalState((0.4, 0.4, 0.2)), 1)

    def test_unequal_ground_not_stable(self):
        assert not is_k_structurally_stable(S001, DiagonalState((0.5, 0.3, 0.2)), 1)

    def test_order_two_energy_tie(self):
        assert not is_k_structurally_stable(S012, DiagonalState((0.5, 0.3, 0.2)), 2)
        # thermal populations do satisfy the tie
        assert is_k_structurally_stable(S012, gibbs_populations(S012, 0.9), 2)

    def test_nondegenerate_n_passive_implies_1ss(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 5))
            s = normalize_spectrum(sorted([0.0] + list(rng.uniform(0.3, 3.0, d - 1))))
            rho = random_state(rng, d)
            if is_n_passive(s, rho, 2).passive:
                assert is_k_structurally_stable(s, rho, 1)


BAD_TOLS = [math.nan, -1.0, math.inf]


class TestToleranceChecked:
    """A negative or non-finite tol is refused; read as a bound, NaN passed
    every comparison and -1 failed the flat state."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_n_passive(self, tol):
        rho = DiagonalState((0.2, 0.3, 0.5))
        v = is_n_passive(S019, rho, 2)
        assert (v.witness[0].counts, v.witness[1].counts) == ((0, 0, 2), (0, 1, 1))
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            is_n_passive(S019, rho, 2, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    @pytest.mark.parametrize("pops", [(0.1, 0.7, 0.2), (0.4, 0.4, 0.2)])
    def test_structurally_stable(self, pops, tol):
        rho = DiagonalState(pops)
        assert is_k_structurally_stable(S001, rho, 1) == (pops[0] == pops[1])
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            is_k_structurally_stable(S001, rho, 1, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_classify(self, tol):
        rho = gibbs_populations(S019, 1.0)
        assert classify_complete_passivity(S019, rho).tag == "Gibbs"
        with pytest.raises(ValueError, match="tol must be finite and non-negative"):
            classify_complete_passivity(S019, rho, tol=tol)


class TestRearrangementErgotropy:
    def test_rearrangement(self):
        out = passive_rearrangement(S012, (0.2, 0.3, 0.5))
        assert out.populations == (0.5, 0.3, 0.2)

    def test_identity_on_passive(self):
        out = passive_rearrangement(S012, (0.5, 0.3, 0.2))
        assert out.populations == (0.5, 0.3, 0.2)

    def test_ergotropy_qubit(self):
        s = normalize_spectrum([0, 1])
        assert ergotropy_1(s, (0.3, 0.7)) == pytest.approx(0.4)

    def test_ergotropy_passive_zero(self):
        assert ergotropy_1(S012, (0.5, 0.3, 0.2)) == 0.0

    def test_ergotropy_three_level(self):
        assert ergotropy_1(S012, (0.2, 0.3, 0.5)) == pytest.approx(0.6)

    def test_ergotropy_nonnegative(self, rng):
        for _ in range(300):
            pops = rng.dirichlet(np.ones(3))
            assert ergotropy_1(S012, tuple(pops)) >= -1e-15


class TestNErgotropy:
    def test_qubit_two_copies(self):
        s = normalize_spectrum([0, 1])
        assert n_ergotropy(s, DiagonalState((0.3, 0.7)), 2) == pytest.approx(0.8)

    @pytest.mark.parametrize("N", [2, 50, 1100, 5000])
    def test_qubit_closed_form(self, N):
        # a product of passive qubits is Gibbs, so N copies yield N*eps*(p1 - p0)
        s = normalize_spectrum([0, 1])
        assert n_ergotropy(s, DiagonalState((0.3, 0.7)), N) == pytest.approx(0.4 * N, rel=1e-10)
        assert abs(n_ergotropy(s, DiagonalState((0.7, 0.3)), N)) <= 1e-10 * N

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        N=st.integers(1, 6),
        d=st.integers(2, 5),
        beta=st.floats(0.0, 5.0),
    )
    def test_joint_beats_local(self, seed, N, d, beta):
        # local unitaries are among the joint ones; copies of a Gibbs state
        # are a Gibbs state
        rng = np.random.default_rng(seed)
        s = normalize_spectrum(sorted([0.0] + list(rng.uniform(0.2, 3.0, d - 1))))
        rho = random_state(rng, s.d)
        slack = 1e-12 * max(1.0, N * s.eps_max)
        assert n_ergotropy(s, rho, N) >= N * ergotropy_1(s, rho.populations) - slack
        assert n_ergotropy(s, gibbs_populations(s, beta), N) <= 1e-10

    def test_gibbs_zero(self):
        rho = gibbs_populations(S019, 1.1)
        for N in (1, 2, 3):
            assert n_ergotropy(S019, rho, N) == pytest.approx(0.0, abs=1e-12)

    def test_order_one_matches(self, rng):
        for _ in range(50):
            rho = random_state(rng, 3)
            assert n_ergotropy(S019, rho, 1) == pytest.approx(
                ergotropy_1(S019, rho.populations), abs=1e-12
            )

    def test_matches_dense_tensor_oracle(self, rng):
        s = normalize_spectrum([0, 0.8, 1.7])
        for _ in range(20):
            rho = random_state(rng, 3)
            N = 3
            # dense oracle: materialize all d^N eigenvalues and energies
            pops = np.array(rho.populations)
            eps = np.array(s.energies)
            w = pops
            e = eps
            for _ in range(N - 1):
                w = np.outer(w, pops).ravel()
                e = (e[:, None] + eps[None, :]).ravel()
            oracle = float(w @ e - np.sort(w)[::-1] @ np.sort(e))
            assert n_ergotropy(s, rho, N) == pytest.approx(oracle, abs=1e-10)


class TestClassifyCP:
    def test_gibbs_recovered(self):
        for beta in (0.0, 0.5, 3.0, 20.0):
            cls = classify_complete_passivity(S019, gibbs_populations(S019, beta))
            assert cls.tag == "Gibbs"
            assert cls.beta == pytest.approx(beta, rel=1e-9, abs=1e-9)

    def test_ground_supported(self):
        cls = classify_complete_passivity(S001, DiagonalState((0.7, 0.3, 0.0)))
        assert cls.tag == "GroundState"

    def test_one_level_is_ground_state(self):
        s = normalize_spectrum([0, 0])
        cls = classify_complete_passivity(s, DiagonalState((0.5, 0.5)))
        assert (cls.tag, cls.beta, cls.fit_residual) == ("GroundState", None, 0.0)

    def test_not_cp(self):
        cls = classify_complete_passivity(S012, DiagonalState((0.5, 0.3, 0.2)))
        assert cls.tag == "NotCP"
        assert cls.fit_residual > 1e-2

    def test_partial_support_not_cp(self):
        cls = classify_complete_passivity(S012, DiagonalState((0.6, 0.0, 0.4)))
        assert cls.tag == "NotCP"


class TestEnvelope:
    def test_reference_interval(self):
        # midpoint ratio at N=4: the binding comparisons are cubic, e.g.
        # three mid occupations vs two ground + one top
        lower, upper = prep1_envelope(4, 0, 0.5, 1, 0.5, 0.125)
        assert lower == pytest.approx((0.5 * 0.125**2) ** (1 / 3))
        assert upper == pytest.approx((0.5**2 * 0.125) ** (1 / 3))

    def test_interval_within_grid_band(self):
        # the exact interval sits inside the geometric-interpolation band
        # with exponents on the integer grid around t*N
        lower, upper = prep1_envelope(4, 0.0, 1.0, 2.0, 0.4, 0.1)
        assert upper <= 0.1 ** (1 / 4) * 0.4 ** (3 / 4) + 1e-12
        assert lower >= 0.1 ** (3 / 4) * 0.4 ** (1 / 4) - 1e-12

    def test_width_shrinks_with_N(self):
        widths = []
        for N in (2, 4, 8, 16):
            lo, up = prep1_envelope(N, 0, 0.37, 1, 0.5, 0.05)
            widths.append(up - lo)
            assert lo <= up
        assert all(a >= b for a, b in zip(widths, widths[1:]))

    def test_brute_force_agreement(self):
        # every mid population accepted by the passivity scan lies inside the
        # envelope and vice versa (away from the boundary)
        N = 3
        eps = (0.0, 0.4, 1.0)
        lam_a, lam_c = 0.5, 0.08
        s = normalize_spectrum(eps)
        lower, upper = prep1_envelope(N, *eps, lam_a, lam_c)
        for lam_b in np.linspace(0.01, lam_a, 200):
            total = lam_a + lam_b + lam_c
            rho = DiagonalState((lam_a / total, lam_b / total, lam_c / total))
            feasible = is_n_passive(s, rho, N).passive
            inside = lower - 1e-9 <= lam_b <= upper + 1e-9
            if abs(lam_b - lower) > 1e-6 and abs(lam_b - upper) > 1e-6:
                assert feasible == inside

    def test_large_order(self):
        # the two facet rows give the same floats the 11,476-row order-150
        # table did, which is no longer built
        assert prep1_envelope(150, 0, 1, 1.9, 0.5, 0.1) == (
            0.21421298945182957, 0.21446852137559583)

    def test_degenerate_triple_rejected(self):
        with pytest.raises(ValueError):
            prep1_envelope(3, 0.0, 0.0, 1.0, 0.5, 0.2)
