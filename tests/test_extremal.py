import csv
import importlib.util
import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from npassive.bounds import (
    BoundViolationError,
    alpha_max,
    exponential_factor,
    inverse_factor,
    spectral_ratio,
)
from npassive.extremal import (
    DEFAULT_B_MAX,
    InfeasibleSaturationError,
    LevelState,
    _entropy_on_chord,
    level_energy,
    level_entropy,
    level_state_from_b,
    max_alpha_scan,
    sample_n_passive,
    saturation_construct,
    verify_level_passive,
)
from npassive.gibbs import gibbs_point
from npassive.passivity import (
    _adjacent_cuts,
    _cuts,
    _difference_vectors,
    is_k_structurally_stable,
    is_n_passive,
)
from npassive.spectra import EnumerationCapError, Spectrum, normalize_spectrum

from conftest import decimal_gibbs
from oracle import difference_vectors as _difference_vectors_reference


class TestSampler:
    def test_samples_are_passive(self):
        s = normalize_spectrum([0, 1, 1.9])
        for N in (1, 3):
            for rho in sample_n_passive(s, N, 40, seed=5):
                assert is_n_passive(s, rho, N).passive

    def test_stable_flag(self):
        s = normalize_spectrum([0, 0, 1, 2])
        for rho in sample_n_passive(s, 2, 40, seed=6, stable=True):
            assert is_k_structurally_stable(s, rho, 1)
            assert is_n_passive(s, rho, 2).passive

    def test_qubit_samples_are_thermal(self):
        from npassive.passivity import classify_complete_passivity

        s = normalize_spectrum([0, 1])
        for rho in sample_n_passive(s, 2, 30, seed=8):
            cls = classify_complete_passivity(s, rho)
            assert cls.tag == "Gibbs"

    def test_determinism(self):
        s = normalize_spectrum([0, 1, 1.9])
        a = sample_n_passive(s, 2, 20, seed=123)
        b = sample_n_passive(s, 2, 20, seed=123)
        assert [x.populations for x in a] == [y.populations for y in b]

    def test_single_level_rejected(self):
        with pytest.raises(ValueError):
            sample_n_passive(normalize_spectrum([0, 0, 0]), 2, 5, seed=1)

    @pytest.mark.parametrize(
        "energies, N, count, seed, stable, expected",
        [
            ([0, 1, 1.9], 3, 3, 5, False, [
                (0.9999999885212268, 1.147789161742113e-08, 8.814978342822171e-13),
                (0.999997976765754, 2.0231512690206393e-06, 8.297697971181788e-11),
                (0.9999999763401496, 2.3657685134072572e-08, 2.1653212280576826e-12),
            ]),
            ([0, 0, 1, 2], 2, 2, 6, True, [
                (0.4999999955177953, 0.4999999955177953, 6.865906124151124e-09,
                 2.098503203064966e-09),
                (0.4778378363601693, 0.4778378363601693, 0.044324327275661136,
                 4.000302066788573e-12),
            ]),
            ([0, 0, 0, 1, 2], 4, 2, 11, False, [
                (0.4307435388158541, 0.33632241452200656, 0.2329206882163416,
                 1.3357830756602688e-05, 6.15041177490809e-10),
                (0.5468265748042148, 0.21217220347516, 0.24100118139163484,
                 4.032309044047127e-08, 5.899964439444616e-12),
            ]),
            # the heaviest bench cells: 7,304 dense cuts, and the stable walk at N = 8
            ([0, 0, 0, 1, 2], 8, 2, 3, False, [
                (0.44940213946966795, 0.24376002865649685, 0.30683537893460894,
                 2.4529384666584722e-06, 7.596409617558242e-13),
                (0.4340503322018187, 0.3599335149946785, 0.20601436421518812,
                 1.7885877801890265e-06, 5.344336753013997e-13),
            ]),
            ([0, 0, 1, 2], 8, 2, 4, True, [
                (0.4939641777073514, 0.4939641777073514, 0.011681908507451638,
                 0.0003897360778455695),
                (0.4999999104981977, 0.4999999104981977, 1.7900342388763913e-07,
                 1.8074119871921513e-13),
            ]),
        ],
    )
    def test_pinned_output(self, energies, N, count, seed, stable, expected):
        # the values come from a walk over every cut, so the chord ends, and
        # with them the samples, differ from the generators' in the last bits
        s = normalize_spectrum(energies)
        got = sample_n_passive(s, N, count, seed=seed, stable=stable)
        assert len(got) == len(expected)
        for rho, pops in zip(got, expected):
            assert np.max(np.abs(np.log(rho.populations) - np.log(pops))) <= 1e-10


class TestDifferenceVectors:
    SPECTRA = [
        Spectrum.from_levels([(0, 1), (1, 1), (1.9, 1)]),
        Spectrum.from_levels([(0, 1), (1, 1), (2, 1), (3.5, 1)]),
        Spectrum.from_levels([(0, 2), (1, 1), (2, 1)]),
        Spectrum.from_levels([(0, 3), (1, 1), (2, 1)]),
        # near-ties: 1 vs 1 + 4e-10 sits inside the tie tolerance, 2.3 vs
        # 2.3 + 3e-9 outside it at N = 1 and inside it from N = 2 on
        Spectrum.from_levels([(0, 1), (1, 2), (1 + 4e-10, 1), (2.3, 1)]),
        Spectrum.from_levels([(0, 1), (1, 1), (2.3, 1), (2.3 + 3e-9, 1)]),
    ]

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("mode", ["dense", "level"])
    @pytest.mark.parametrize("k", range(len(SPECTRA)))
    def test_matches_pairwise_scan(self, k, mode, N):
        s = self.SPECTRA[k]
        energies = s.energies if mode == "dense" else tuple(s.level_energies)
        ref = _difference_vectors_reference(energies, N)
        got = _difference_vectors(energies, N)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)

    def test_keys_beyond_int64(self):
        # (2N+1)**d = 5**28 exceeds 2**62, so keys fall back to Python ints
        energies = tuple(float(x) for x in np.round(np.linspace(0.0, 3.0, 28) ** 1.5, 3))
        ref = _difference_vectors_reference(energies, 2)
        assert np.array_equal(_difference_vectors(energies, 2), ref)


class TestAdjacentCuts:
    """The sampler's generators span the cone of the full cuts."""

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("mode", ["dense", "level"])
    @pytest.mark.parametrize("k", range(len(TestDifferenceVectors.SPECTRA)))
    def test_every_other_cut_splits(self, k, mode, N):
        s = TestDifferenceVectors.SPECTRA[k]
        energies = s.energies if mode == "dense" else tuple(s.level_energies)
        full = _difference_vectors(energies, N).astype(np.int64)
        gens = _adjacent_cuts(energies, N).astype(np.int64)
        powers = (2 * N + 1) ** np.arange(len(energies))
        keys = full @ powers  # unique while entries lie in [-N, N]
        by_key = np.argsort(keys)
        gap = full @ np.asarray(energies)

        def find(rows):
            """Positions of rows in full, or -1."""
            k = rows @ powers
            pos = by_key[np.searchsorted(keys, k, sorter=by_key).clip(max=len(full) - 1)]
            return np.where(np.all(np.abs(rows) <= N, axis=1) & (keys[pos] == k), pos, -1)

        at = find(gens)
        assert np.all(at >= 0) and len(np.unique(at)) == len(gens)
        is_gen = np.zeros(len(full), bool)
        is_gen[at] = True
        # every other row is g + b, g a generator and b a full row, each with a smaller gap
        split = np.zeros(len(full), bool)
        for g, g_gap in zip(gens, gens @ np.asarray(energies)):
            pos = find(full + g)
            hit = (pos >= 0) & (gap < gap[pos]) & (g_gap < gap[pos])
            split[pos[hit]] = True
        assert np.all(split | is_gen)

    def test_all_ties_leave_the_box(self):
        s = normalize_spectrum([0, 3e-10])
        assert _adjacent_cuts(s.energies, 3).shape == (0, 2)
        for rho in sample_n_passive(s, 3, 20, seed=2):
            gap = math.log(rho.populations[0]) - math.log(rho.populations[1])
            assert -1e-12 <= gap <= DEFAULT_B_MAX + 1e-12

    def test_cap_still_raises(self):
        with pytest.raises(EnumerationCapError):
            sample_n_passive(normalize_spectrum([0, 1, 2, 3]), 200, 1, seed=1)

    def test_three_level_walk_at_large_order(self):
        s = normalize_spectrum([0, 1, 1.9])
        for rho in sample_n_passive(s, 200, 8, seed=9, stable=True):
            assert is_n_passive(s, rho, 200).passive

    def test_heavy_cell_samples_are_passive(self):
        s = normalize_spectrum([0, 0, 0, 1, 2])
        assert len(_cuts(s.energies, 8)) == 7304
        for rho in sample_n_passive(s, 8, 16, seed=13):
            assert is_n_passive(s, rho, 8).passive


class TestLevelState:
    def test_functionals_match_dense(self):
        s = Spectrum.from_levels([(0, 2), (1, 3)])
        b = np.array([0.3, 1.7])
        ls = level_state_from_b(s, b)
        dense = ls.to_dense(s)
        from npassive.spectra import state_energy, state_entropy

        assert level_energy(s, ls) == pytest.approx(state_energy(s, dense))
        assert level_entropy(s, ls) == pytest.approx(state_entropy(dense))

    def test_huge_degeneracy_no_overflow(self):
        s = Spectrum(((0.0, 1), (1.0, 1), (1.001, 10**12)))
        # thermal log-populations at beta = 30: passive at every order
        lng = np.array([math.log(g) for _, g in s.distinct_levels])
        logits = lng - 30.0 * np.array([e for e, _ in s.distinct_levels])
        logZ = np.logaddexp.reduce(logits)
        ls = LevelState(tuple((logits - lng) - logZ))
        assert math.isfinite(level_energy(s, ls))
        assert math.isfinite(level_entropy(s, ls))
        assert verify_level_passive(s, ls, 5)


class TestAlphaScan:
    def test_two_level_ratio_is_one(self):
        s = Spectrum.from_levels([(0, 1), (1, 4)])
        rows = max_alpha_scan(s, 3, [0.5, 2.0])
        for row in rows:
            assert row.alpha == pytest.approx(1.0, abs=1e-9)

    def test_bounded_by_alpha_max(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 1000)])
        N = 5
        amax = alpha_max(N, spectral_ratio(s))
        rows = max_alpha_scan(s, N, [2.0, 10.0, 30.0], resolution=80)
        for row in rows:
            assert row.alpha <= amax + 1e-9
            assert row.alpha >= 1.0 - 1e-9

    def test_alpha_near_one_at_high_temperature(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 1)])
        (row,) = max_alpha_scan(s, 5, [0.05], resolution=60)
        assert row.alpha == pytest.approx(1.0, abs=5e-3)

    def test_rows_satisfy_both_bounds(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 100)])
        N = 5
        R = spectral_ratio(s)
        for row in max_alpha_scan(s, N, [1.0, 8.0, 20.0], resolution=60):
            assert row.alpha <= exponential_factor(row.beta_rho, s.eps_max, R, N) + 1e-9
            assert row.alpha <= inverse_factor(R, N) + 1e-9

    def test_determinism(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 10)])
        a = max_alpha_scan(s, 4, [3.0, 9.0], resolution=50)
        b = max_alpha_scan(s, 4, [3.0, 9.0], resolution=50)
        assert [(r.beta_rho, r.alpha, r.state) for r in a] == [
            (r.beta_rho, r.alpha, r.state) for r in b
        ]

    def test_many_levels_rejected(self):
        s = normalize_spectrum([0, 1, 2, 3])
        with pytest.raises(NotImplementedError):
            max_alpha_scan(s, 3, [1.0])


def _scalar_alpha_scan(s, N, beta, resolution):
    """Reference chord search, one point at a time, with the scan's stopping rule."""
    eps = s.level_energies
    gibbs_ls = level_state_from_b(s, beta * eps)
    target = level_entropy(s, gibbs_ls)
    best_E, best_ls = level_energy(s, gibbs_ls), gibbs_ls
    V = _difference_vectors(tuple(eps), N)

    def excess(b1, t):
        return _entropy_on_chord(s, b1, t)[0] - target

    for b1 in np.linspace(0.0, 1.2 * beta * eps[1] + 2.0, resolution):
        lo, hi, feasible = 0.0, 2000.0, True
        for _, v1, v2 in V:
            if v2 > 0:
                lo = max(lo, -v1 * b1 / v2)
            elif v2 < 0:
                hi = min(hi, -v1 * b1 / v2)
            elif v1 * b1 < 0:
                feasible = False
        if not feasible or hi <= lo:
            continue
        ts = np.linspace(lo, hi, max(resolution, 64))
        vals = excess(b1, ts).tolist()
        for k in range(len(ts) - 1):
            if vals[k] == 0.0 or np.sign(vals[k]) * np.sign(vals[k + 1]) < 0:
                a, b, fa = ts[k], ts[k + 1], vals[k]
                for _ in range(100):
                    mid = 0.5 * (a + b)
                    fm = float(excess(b1, mid))
                    if abs(fm) <= 1e-13 * target or mid == a or mid == b:
                        a = b = mid
                        break
                    if (fm > 0) == (fa > 0):
                        a, fa = mid, fm
                    else:
                        b = mid
                ls = LevelState(tuple(_entropy_on_chord(s, b1, 0.5 * (a + b))[1]))
                E = level_energy(s, ls)
                if E > best_E and verify_level_passive(s, ls, N):
                    best_E, best_ls = E, ls
    return best_E / gibbs_point(s, beta).energy, best_ls


class TestAlphaScanAccuracy:
    @pytest.mark.parametrize("g2", [10**3, 10**9, 10**12])
    def test_rows_are_isentropic_at_low_temperature(self, g2):
        levels = [(0.0, 1), (1.0, 1), (1.001, g2)]
        s = Spectrum.from_levels(levels)
        amax = alpha_max(5, spectral_ratio(s))
        for row in max_alpha_scan(s, 5, [33.8, 45.0, 77.0, 120.0, 165.0], resolution=40):
            ref = decimal_gibbs(levels, row.beta_rho)[2]
            S = Decimal(level_entropy(s, row.state))
            assert abs(S - ref) <= Decimal("1e-9") * ref, (row.beta_rho, float(S), float(ref))
            assert row.alpha <= amax + 1e-9

    @pytest.mark.parametrize("g2", [10, 10**3, 10**12])
    @pytest.mark.parametrize("N", [3, 5])
    @pytest.mark.parametrize("resolution", [8, 40])
    def test_batched_scan_matches_scalar_reference(self, g2, N, resolution):
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.001, g2)])
        betas = [0.5, 5.0, 30.0, 90.0]
        for beta, row in zip(betas, max_alpha_scan(s, N, betas, resolution=resolution)):
            alpha, state = _scalar_alpha_scan(s, N, beta, resolution)
            assert row.alpha == alpha
            assert row.state == state


def test_alpha_scan_curves_script(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "alpha_scan_curves.py"
    spec = importlib.util.spec_from_file_location("alpha_scan_curves", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    cfg = script.ScanConfig(out_dir=tmp_path)
    script.run(cfg)
    assert len(list(tmp_path.glob("*.csv"))) == 3
    for g2 in cfg.degeneracies:
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (cfg.r, g2)])
        with open(tmp_path / f"alpha_scan_g{g2}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 24
        assert max(float(r["alpha"]) for r in rows) <= alpha_max(cfg.N, spectral_ratio(s)) + 1e-9


class TestSaturation:
    def test_n2_reaches_ninety_percent(self):
        res = saturation_construct(2, 1, 0.9)
        assert res.alpha_max == pytest.approx(2.002, abs=1e-3)
        assert res.alpha_measured >= 0.9 * res.alpha_max
        assert verify_level_passive(res.spectrum, res.state, 2)
        assert abs(res.alpha_pred - res.alpha_measured) <= 0.1 * res.alpha_measured

    def test_figure_parameters(self):
        res = saturation_construct(5, 4, 0.85)
        assert res.params.r == pytest.approx(1.001)
        assert res.alpha_max == pytest.approx(1.25031, abs=1e-5)
        assert res.alpha_measured >= 0.85 * res.alpha_max
        assert abs(res.alpha_pred - res.alpha_measured) <= 0.1 * res.alpha_measured

    @pytest.mark.parametrize("N, m", [(2, 1), (3, 2), (5, 4)])
    def test_demo_cases_stay_below_ceiling(self, N, m):
        res = saturation_construct(N, m, 0.9)
        assert 0.9 * res.alpha_max <= res.alpha_measured <= res.alpha_max

    def test_ratio_above_ceiling_raises(self, monkeypatch):
        import npassive.extremal as X

        real = X.solve_beta_for_entropy
        monkeypatch.setattr(X, "solve_beta_for_entropy", lambda s, S: 2.0 * real(s, S))
        with pytest.raises(BoundViolationError):
            saturation_construct(3, 2, 0.9)

    def test_zero_fraction_trivial(self):
        res = saturation_construct(3, 2, 0.0)
        assert res.alpha_measured >= 0.0

    def test_degeneracy_window_invariants(self):
        res = saturation_construct(2, 1, 0.9)
        p = res.params
        assert p.m / p.N < 1.0 / p.r <= (p.m + 1) / p.N
        amax = p.N / (p.N - p.r)
        assert p.beta_eps1 >= 20.0 * max(1.0, math.log(p.r * amax) * p.N / p.r)
        lng = math.log(p.g2 / p.g1)
        assert (p.r - 1) * p.beta_eps1 < lng < (1 - p.r * amax) * math.log(p.xi)

    def test_impossible_fraction_reported(self):
        with pytest.raises(InfeasibleSaturationError):
            saturation_construct(2, 1, 1.0)

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            saturation_construct(2, 2, 0.5)
