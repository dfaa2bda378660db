"""Every reader of a state works on its classes (``spectra._fold``).

Dense states whose degenerate levels repeat populations are checked against
the unfolded slot loops of ``oracle.py``; per-level states at degeneracy
10**12, where no slot loop can run, against the level loop
``oracle.verify_level_passive``, the Gibbs level functional and closed forms.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from npassive.bounds import bound_report, check_bound
from npassive.extremal import sample_n_passive
from npassive.flattening import flatten
from npassive.gibbs import ENTROPY_TOL, gibbs_point, gibbs_populations
from npassive.passivity import (
    DEFAULT_LOG_TOL,
    DEFAULT_STABILITY_TOL,
    classify_complete_passivity,
    is_k_structurally_stable,
    is_n_passive,
    n_ergotropy,
)
from npassive.spectra import (
    DiagonalState,
    Spectrum,
    StateError,
    _fold,
    default_energy_tol,
    state_energy,
    state_entropy,
)


@st.composite
def repeated_states(draw):
    """A spectrum of degenerate levels (d <= 6) and a dense state drawing each
    slot's weight from a few values per level, so that slots repeat."""
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4).filter(lambda m: sum(m) <= 6))
    gaps = draw(st.lists(st.floats(0.1, 1.5), min_size=len(mults), max_size=len(mults)))
    s = Spectrum.from_levels(zip(np.cumsum(gaps) - gaps[0], mults))
    weights = []
    for g in mults:
        values = draw(st.lists(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]), min_size=1, max_size=2))
        weights += [draw(st.sampled_from(values)) for _ in range(g)]
    if not any(weights):
        weights[0] = 1.0
    if draw(st.booleans()):
        weights.sort(reverse=True)  # passive at order 1
    return s, DiagonalState.from_weights(weights)


@settings(max_examples=300, deadline=None)
@given(case=repeated_states(), N=st.integers(1, 5))
def test_classes_match_the_slot_loops(case, N):
    s, rho = case
    lnp, etol = oracle.slot_log_populations(rho), default_energy_tol(s.eps_max, N)
    ref = oracle.scan_passive(s.energies, lnp, N, DEFAULT_LOG_TOL, etol)
    got = is_n_passive(s, rho, N)
    assert got.passive == (ref is None)
    if ref is not None:
        hi, lo = got.witness[0].counts, got.witness[1].counts
        e_hi, e_lo = np.dot(hi, s.energies), np.dot(lo, s.energies)
        w = oracle.log_weights([hi, lo], lnp)
        assert e_hi > e_lo + etol and w[0] > w[1] + DEFAULT_LOG_TOL
        assert (hi, lo) == ref  # each class's count on its last slot
    ref_stable = oracle.scan_stable(s.energies, lnp, N, DEFAULT_STABILITY_TOL, etol)
    assert is_k_structurally_stable(s, rho, N) == ref_stable
    erg = n_ergotropy(s, rho, N)
    exact = oracle.n_ergotropy_exact(s, rho, N)
    assert erg == pytest.approx(exact, rel=0, abs=1e-13 * max(1.0, N * s.eps_max))
    tag, beta, residual = oracle.classify_slots(s.energies, rho.populations, s.d0, 1e-8)
    got = classify_complete_passivity(s, rho)
    assert got.tag == tag
    if beta is not None:
        assert got.beta == pytest.approx(max(beta, 0.0) if tag == "Gibbs" else beta, abs=1e-9)
        assert got.fit_residual == pytest.approx(residual, abs=1e-9)


def test_classes_are_runs_cut_at_levels():
    s = Spectrum.from_levels([(0, 2), (1, 3)])
    rho = DiagonalState((0.25, 0.25, 0.25, 0.125, 0.125))
    assert rho.blocks == ((0.25, 3), (0.125, 2))
    f = _fold(s, rho)
    assert f.level == (0, 1, 1) and f.counts == (2, 1, 2) and f.last == (1, 2, 4)
    assert f.energies == (0.0, 1.0, 1.0) and f.populations == (0.25, 0.25, 0.125)


HUGE = 10**12
SPECTRA = [
    Spectrum.from_levels([(0, 1), (1, HUGE), (1.001, HUGE)]),
    Spectrum.from_levels([(0, HUGE), (1, 2), (1.9, 1)]),
]


def level_states(s, N):
    """Gibbs states, sampled order-N passive level states, and states whose
    top level outweighs the ground: each far from the passivity boundary."""
    states = [gibbs_populations(s, beta) for beta in (0.5, 3.0, 30.0)]
    states += sample_n_passive(s, N, 3, seed=N, stable=True)
    b = -np.array(gibbs_populations(s, 2.0).log_populations)
    b[-1] = b[0] - 1.0
    states.append(DiagonalState.from_levels(s, oracle.log_populations(s.log_multiplicities, b)))
    return states


@pytest.mark.parametrize("k", range(len(SPECTRA)))
class TestDegeneracy1e12:
    def test_verdict_matches_level_check(self, k):
        s = SPECTRA[k]
        verdicts = set()
        for N in range(2, 9):
            for rho in level_states(s, N):
                v = is_n_passive(s, rho, N)
                assert v.passive == oracle.verify_level_passive(s, rho, N)
                assert is_k_structurally_stable(s, rho, 1)
                if not v.passive:
                    entries = [dict(w.entries) for w in v.witness]
                    assert all(sum(e.values()) == N for e in entries)
                verdicts.add(v.passive)
        assert verdicts == {True, False}

    @pytest.mark.parametrize("beta", [0.5, 3.0, 30.0])
    def test_gibbs_readers(self, k, beta):
        s = SPECTRA[k]
        rho = gibbs_populations(s, beta)
        logg = np.log(np.array([g for _, g in s.distinct_levels], dtype=float))
        _, E, gap, var, _ = oracle.thermal_functionals(s.level_energies, logg, beta)
        rep = bound_report(s, rho, 5)
        assert rep.energy == pytest.approx(E, rel=1e-12)
        assert rep.entropy == pytest.approx(math.log(s.d0) + gap, rel=1e-12)
        # the solve accepts |S_beta - S| <= ENTROPY_TOL*gap at most, and dS/dbeta = -beta*Var
        assert rep.beta_rho == pytest.approx(beta, rel=1e-12, abs=2 * ENTROPY_TOL * gap / (beta * var))
        assert math.isfinite(check_bound(s, rho, 5))
        for N in (2, 5, 8):
            assert n_ergotropy(s, rho, N) <= 1e-10 * N
        assert classify_complete_passivity(s, rho).tag == "Gibbs"

    def test_flatten_of_level_state(self, k):
        s = SPECTRA[k]
        for rho in level_states(s, 3):
            res = flatten(s, rho)
            assert res.delta_S == 0 and res.flattened == rho

    def test_dense_views_refused(self, k):
        s = SPECTRA[k]
        rho = gibbs_populations(s, 1.0)
        with pytest.raises(StateError, match="dense population list refused"):
            rho.populations
        assert state_energy(s, rho) == pytest.approx(gibbs_point(s, 1.0).energy, rel=1e-12)
        assert state_entropy(rho) == pytest.approx(gibbs_point(s, 1.0).entropy, rel=1e-12)


def test_beta_rho_near_the_top_of_the_range():
    # S - ln d0 is about 28 but ln d - S only about 1e-6, so the solve's
    # tolerance is set by the nearer end, ln d
    s = SPECTRA[0]
    rep = bound_report(s, gibbs_populations(s, 3.0), 5)
    assert rep.beta_rho == pytest.approx(3.0, rel=1e-8)

