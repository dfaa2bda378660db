import csv
import importlib.util
import math
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from npassive.bounds import (
    BoundViolationError,
    alpha_max,
    exponential_factor,
    spectral_ratio,
)
from npassive.extremal import (
    DEFAULT_B_MAX,
    InfeasibleSaturationError,
    _gap_limit,
    max_alpha_scan,
    sample_n_passive,
    saturation_construct,
)
from npassive.gibbs import (
    BETA_INF_FACTOR,
    _isentrope_root,
    _thermal_functionals,
    gibbs_point,
    gibbs_populations,
)
from npassive.passivity import (
    _cuts,
    _facets,
    is_k_structurally_stable,
    is_n_passive,
    prep1_envelope,
)
from npassive.spectra import (
    DiagonalState,
    EnumerationCapError,
    Spectrum,
    StateError,
    _energy,
    _entropy,
    _entropy_gap,
    normalize_spectrum,
    state_energy,
    state_entropy,
)

from conftest import decimal_gibbs
import oracle


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

    @pytest.mark.parametrize(
        "kwargs",
        [{"thin": 0}, {"thin": -1}, {"burn_in": -1}, {"b_max": -1.0}, {"b_max": 0.0},
         {"b_max": math.nan}, {"b_max": math.inf}],
        ids=["thin=0", "thin=-1", "burn_in=-1", "b_max=-1", "b_max=0", "b_max=nan", "b_max=inf"],
    )
    def test_bad_walk_arguments_rejected(self, kwargs):
        # thin < 1 once returned no state, and with the kept rows set aside
        # up front would return uniform ones; b_max = -1 returned states
        # whose populations rise with energy, and b_max = nan failed only in
        # the state's own finiteness check
        (name,) = kwargs
        with pytest.raises(ValueError, match=name):
            sample_n_passive(normalize_spectrum([0, 1, 1.9]), 2, 5, seed=1, **kwargs)

    def test_no_burn_in_keeps_every_thin_step(self):
        s = normalize_spectrum([0, 1, 1.9])
        a = sample_n_passive(s, 2, 3, seed=4, burn_in=0, thin=1)
        b = sample_n_passive(s, 2, 4, seed=4, burn_in=0, thin=1)
        assert len(a) == 3 and [x.populations for x in a] == [x.populations for x in b[:3]]


def _sample_n_passive_arrays(s, N, count, seed, stable=False, b_max=DEFAULT_B_MAX,
                             burn_in=200, thin=10):
    """The walk of ``sample_n_passive`` with each step on numpy arrays: a
    fresh product, ratio and clipped point per step, and the chord ends as
    numpy scalars.  The reference that the allocation-free step must match
    bit for bit on whatever numpy the tests run with; returns the kept
    points b, slot (or level) 0 at b = 0."""
    energies = tuple(s.level_energies.tolist()) if stable else s.energies
    V = _cuts(energies, N)
    eps_free = np.array(energies[1:])
    n_free = len(eps_free)
    lower = np.where(eps_free > 0, 0.0, -b_max)
    upper = np.full(n_free, b_max)
    GhT = np.block([[V[:, 1:].T, np.eye(n_free), -np.eye(n_free)],
                    [np.zeros(len(V)), -lower, upper]])
    rng = np.random.default_rng(seed)
    xu = np.array([[*(b_max / (2.0 * s.eps_max) * eps_free), 1.0], [0.0] * (n_free + 1)])
    x, u = xu[0, :-1], xu[1, :-1]
    kept = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(burn_in + count * thin):
            rng.standard_normal(out=u)
            r_gu = np.dot(xu, GhT)
            w = r_gu[1] / r_gu[0]
            t_lo = -1.0 / np.maximum.reduce(w)
            t_hi = -1.0 / np.minimum.reduce(w)
            if t_hi > t_lo:
                t = t_lo + (t_hi - t_lo) * rng.random()
                np.minimum(upper, np.maximum(lower, x + t * u), out=x)
            if step >= burn_in and (step - burn_in) % thin == thin - 1:
                kept.append(np.concatenate([[0.0], x]))
    return kept


def _ulps(a, b):
    """|a - b| in units of the last place of the larger of the two."""
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestSamplerBitIdentity:
    """Every cell of the benchmark's bound_sweep, dense and stable, at N = 2..8."""

    @pytest.mark.parametrize("seed", [3, 2024])
    @pytest.mark.parametrize("stable", [False, True], ids=["dense", "stable"])
    @pytest.mark.parametrize("energies", [[0, 1, 1.9], [0, 1, 2, 3.5], [0, 0, 1, 2],
                                          [0, 0, 0, 1, 2]])
    def test_samples_match_the_array_step(self, energies, stable, seed):
        # a stable point is normalized by the thermal functionals at beta = 1,
        # so its bits pin the walk; it stays within 4 ulp of the oracle's
        # array normalizer
        s = normalize_spectrum(energies)
        logg = s.log_multiplicities
        for N in range(2, 9):
            got = sample_n_passive(s, N, 8, seed + N, stable=stable)
            kept = _sample_n_passive_arrays(s, N, 8, seed + N, stable=stable)
            if stable:
                want = [DiagonalState.from_levels(
                    s, np.subtract(_thermal_functionals(b, logg, 1.0)[4], logg[0])) for b in kept]
                for r, b in zip(got, kept):
                    ref = oracle.log_populations(logg, b).tolist()
                    assert max(map(_ulps, r.log_populations, ref)) <= 4, (N, b)
            else:
                want = [DiagonalState(tuple(w / np.sum(w))) for w in np.exp(-np.array(kept))]
            assert [_bits(r.log_populations) for r in got] == [_bits(r.log_populations) for r in want]
            assert [_bits(r.populations) for r in got] == [_bits(r.populations) for r in want]

    def test_short_walk_matches_the_array_step(self):
        s = normalize_spectrum([0, 0, 1, 2])
        got = sample_n_passive(s, 3, 5, 17, b_max=4.0, burn_in=0, thin=1)
        kept = _sample_n_passive_arrays(s, 3, 5, 17, b_max=4.0, burn_in=0, thin=1)
        want = [DiagonalState(tuple(w / np.sum(w))) for w in np.exp(-np.array(kept))]
        assert [_bits(r.populations) for r in got] == [_bits(r.populations) for r in want]


class TestDifferenceVectors:
    """``_cuts`` holds exactly the generators of the pairwise definition."""

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
        got = _cuts(energies, N)
        assert got.dtype == np.float64 and not got.flags.writeable
        rows = set(map(tuple, got.astype(int).tolist()))
        assert len(rows) == len(got) and rows == oracle.adjacent_cuts(energies, N)

    def test_keys_beyond_int64(self):
        # (2N+1)**d = 5**28 exceeds 2**62, so keys fall back to Python ints;
        # rows compare as tuples, as int64 keys of them would overflow
        energies = tuple(float(x) for x in np.round(np.linspace(0.0, 3.0, 28) ** 1.5, 3))
        got = _cuts(energies, 2)
        rows = set(map(tuple, got.astype(int).tolist()))
        assert len(rows) == len(got) and rows == oracle.adjacent_cuts(energies, 2)


class TestAdjacentCuts:
    """The generators of ``_cuts`` span the cone of every cut."""

    @pytest.mark.parametrize("N", range(1, 9))
    @pytest.mark.parametrize("mode", ["dense", "level"])
    @pytest.mark.parametrize("k", range(len(TestDifferenceVectors.SPECTRA)))
    def test_every_other_cut_splits(self, k, mode, N):
        s = TestDifferenceVectors.SPECTRA[k]
        energies = s.energies if mode == "dense" else tuple(s.level_energies)
        full = oracle.difference_vectors(energies, N).astype(np.int64)
        gens = _cuts(energies, N).astype(np.int64)
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
        # normalize_spectrum merges the two levels; built level by level, every
        # occupation energy still ties
        assert normalize_spectrum([0, 3e-10]).distinct_levels == ((0.0, 2),)
        s = Spectrum.from_levels([(0, 1), (3e-10, 1)])
        assert _cuts(s.energies, 3).shape == (0, 2)
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
        assert len(oracle.difference_vectors(s.energies, 8)) == 7304
        assert len(_cuts(s.energies, 8)) == 786
        for rho in sample_n_passive(s, 8, 16, seed=13):
            assert is_n_passive(s, rho, 8).passive


def level_state(s, lnp):
    """The per-level state with log-populations lnp, shifted to sum to 1."""
    return DiagonalState.from_levels(s, oracle.log_populations(s.log_multiplicities, -np.asarray(lnp)))


class TestLevelState:
    def test_functionals_match_dense(self):
        s = Spectrum.from_levels([(0, 2), (1, 3)])
        rho = level_state(s, [-0.3, -1.7])
        assert rho.blocks == tuple(zip(np.exp(rho.log_populations).tolist(), (2, 3)))
        dense = DiagonalState(rho.populations)
        assert dense.blocks == rho.blocks and len(dense.populations) == 5
        assert state_energy(s, rho) == pytest.approx(state_energy(s, dense), rel=1e-15)
        assert state_entropy(rho) == pytest.approx(state_entropy(dense), rel=1e-15)
        for N in (1, 2, 3):
            assert is_n_passive(s, rho, N) == is_n_passive(s, dense, N)
            assert is_n_passive(s, rho, N, tol=oracle.passive_tol(rho.log_populations, N)) == is_n_passive(
                s, dense, N, tol=oracle.passive_tol(dense.log_populations, N)
            )

    def test_huge_degeneracy_no_overflow(self):
        s = Spectrum(((0.0, 1), (1.0, 1), (1.001, 10**12)))
        # thermal log-populations at beta = 30: passive at every order
        rho = gibbs_populations(s, 30.0)
        assert math.isfinite(state_energy(s, rho))
        assert math.isfinite(state_entropy(rho))
        assert is_n_passive(s, rho, 5, tol=oracle.passive_tol(rho.log_populations, 5))
        with pytest.raises(StateError, match="dense population list refused"):
            rho.populations


def test_tolerance_holds_each_generator():
    # at N = 2 on (0, 1, 1.9) the full cut (-2, 2, 0) = 2 (-1, 1, 0) is no
    # generator, yet the verdict holds it, like every pair, to t itself
    s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.9, 1)])
    t = 1e-8 * 2 * math.log(3)  # the scan's tol at N = 2 with max |ln lambda| ~ ln 3
    rho = level_state(s, (0.0, 0.75 * t, 0.6 * t))
    lnp, levels = np.array(rho.log_populations), tuple(s.level_energies)
    assert t == pytest.approx(oracle.passive_tol(rho.log_populations, 2), rel=1e-7)
    assert np.max(_cuts(levels, 2) @ lnp) <= t
    assert np.max(oracle.difference_vectors(levels, 2) @ lnp) == pytest.approx(1.5 * t)
    assert not is_n_passive(s, rho, 2, tol=oracle.passive_tol(rho.log_populations, 2))
    assert not oracle.verify_level_passive(s, rho, 2)
    # one generator past t fails the state too
    past = level_state(s, (0.0, 1.1 * t, 0.6 * t))
    assert not is_n_passive(s, past, 2, tol=oracle.passive_tol(past.log_populations, 2))
    assert not oracle.verify_level_passive(s, past, 2)


@pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
def test_tolerance_checked(tol):
    # read as a bound, tol = NaN passed this inverted state
    s = Spectrum.from_levels([(0.0, 1), (1.0, 1)])
    inverted = DiagonalState.from_levels(s, (math.log(0.3), math.log(0.7)))
    assert not is_n_passive(s, inverted, 2, tol=oracle.passive_tol(inverted.log_populations, 2))
    with pytest.raises(ValueError, match="tol must be finite and non-negative"):
        is_n_passive(s, inverted, 2, tol=tol)


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
        rows = max_alpha_scan(s, N, [2.0, 10.0, 30.0])
        for row in rows:
            assert row.alpha <= amax + 1e-9
            assert row.alpha >= 1.0 - 1e-9

    def test_alpha_near_one_at_high_temperature(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 1)])
        (row,) = max_alpha_scan(s, 5, [0.05])
        assert row.alpha == pytest.approx(1.0, abs=5e-3)

    def test_rows_satisfy_both_bounds(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 100)])
        N = 5
        R = spectral_ratio(s)
        for row in max_alpha_scan(s, N, [1.0, 8.0, 20.0]):
            assert row.alpha <= exponential_factor(row.beta_rho, s.eps_max, R, N) + 1e-9
            assert row.alpha <= alpha_max(N, R) + 1e-9

    def test_determinism(self):
        s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 10)])
        a = max_alpha_scan(s, 4, [3.0, 9.0])
        b = max_alpha_scan(s, 4, [3.0, 9.0])
        assert [(r.beta_rho, r.alpha, r.state) for r in a] == [
            (r.beta_rho, r.alpha, r.state) for r in b
        ]

    def test_one_level_rejected(self):
        # its thermal energy is 0 at every beta: the error names the level count
        with pytest.raises(ValueError, match="two or three distinct levels, not 1"):
            max_alpha_scan(Spectrum.from_levels([(0.0, 3)]), 2, [1.0, 2.0])

    def test_numpy_grid_solves_on_python_floats(self):
        # a numpy beta reached the Newton step, whose quotient overflowed with
        # numpy's RuntimeWarning at the first of these two points
        s = Spectrum.from_levels([(0.0, 1), (0.7, 1), (1.0, 10**12)])
        rows = max_alpha_scan(s, 8, np.linspace(0.05794373236001465, 0.06, 2))
        assert [type(row.beta_rho) for row in rows] == [float, float]
        assert [row.alpha for row in rows] == [1.0, 1.0]

    def test_many_levels_rejected(self):
        s = normalize_spectrum([0, 1, 2, 3])
        with pytest.raises(NotImplementedError):
            max_alpha_scan(s, 3, [1.0])

    @pytest.mark.parametrize("energies", [[0, 1], [0, 1, 1.9]])
    @pytest.mark.parametrize("N", [0, -3])
    def test_order_below_one_rejected(self, energies, N):
        with pytest.raises(ValueError, match="N must be >= 1"):
            max_alpha_scan(normalize_spectrum(energies), N, [1.0])


def _chord_entropy(s, b1, t):
    """Entropies S and log-populations of the level states b = (0, b1, t):
    the full entropy, which the grid search this module replaced solved on."""
    b = np.stack(np.broadcast_arrays(0.0, b1, np.asarray(t, float)), axis=-1)
    lnp = oracle.log_populations(s.log_multiplicities, b)
    return _entropy(np.exp(s.log_multiplicities + lnp), lnp), lnp


def _bisect_root(s, b1, a, b, fa, target):
    """Bisection to a relative entropy error of 1e-13; log-populations at the last midpoint."""
    for _ in range(100):
        mid = 0.5 * (a + b)
        fm = float(_chord_entropy(s, b1, mid)[0]) - target
        if abs(fm) <= 1e-13 * target or mid == a or mid == b:
            a = b = mid
            break
        if (fm > 0) == (fa > 0):
            a, fa = mid, fm
        else:
            b = mid
    return _chord_entropy(s, b1, 0.5 * (a + b))[1]


def _scalar_alpha_scan(s, N, beta, resolution):
    """Reference grid search, independent of the ray solve: b1 on a grid of
    ``resolution`` points, b2 along each feasible chord on a grid, every
    bracket bisected, and the best root that ``is_n_passive`` accepts."""
    eps, logg = s.level_energies, s.log_multiplicities
    gibbs = oracle.log_populations(logg, beta * eps)
    target = float(_entropy(np.exp(logg + gibbs), gibbs))
    best_E, best = float(_energy(eps, np.exp(logg + gibbs))), gibbs
    V = oracle.difference_vectors(tuple(eps), N)

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
        vals = (_chord_entropy(s, b1, ts)[0] - target).tolist()
        for k in range(len(ts) - 1):
            if vals[k] == 0.0 or np.sign(vals[k]) * np.sign(vals[k + 1]) < 0:
                lnp = _bisect_root(s, b1, ts[k], ts[k + 1], vals[k], target)
                E = float(_energy(eps, np.exp(logg + lnp)))
                rho = DiagonalState.from_levels(s, lnp)
                if E > best_E and is_n_passive(s, rho, N, tol=oracle.passive_tol(rho.log_populations, N)):
                    best_E, best = E, lnp
    return best_E / gibbs_point(s, beta).energy, DiagonalState.from_levels(s, best)


def _decimal_gap(s, rho):
    """S(rho) - ln d0 in decimal arithmetic, from the state's normalized
    block log-populations."""
    with localcontext() as ctx:
        ctx.prec = 100
        mass = [(c, Decimal(x).exp()) for (_, c), x in zip(rho.blocks, rho.log_populations)
                if x > -math.inf]
        Z = sum(c * p for c, p in mass)
        d0 = Decimal(s.d0)
        return -sum(c * p / Z * (d0 * p / Z).ln() for c, p in mass)


def _decimal_target(levels, beta):
    """The Gibbs entropy gap S_beta - ln d0, from ``decimal_gibbs``."""
    with localcontext() as ctx:
        ctx.prec = 200
        return decimal_gibbs(levels, beta)[2] - Decimal(levels[0][1]).ln()


def _oracle_rays(energies, N):
    """The extreme directions (b1, b2) of the cone by the pairwise
    definition: every +-(-v2, v1) of a cut that satisfies every cut, at the
    smallest and largest angle."""
    cuts = [v[1:] for v in oracle.adjacent_cuts(energies, N)]
    feasible = [
        c for v1, v2 in cuts for c in ((-v2, v1), (v2, -v1))
        if all(c[0] * u1 + c[1] * u2 >= 0 for u1, u2 in cuts)
    ]
    return min(feasible, key=lambda c: math.atan2(c[1], c[0])), \
        max(feasible, key=lambda c: math.atan2(c[1], c[0]))


class TestAlphaScanAccuracy:
    @pytest.mark.parametrize("g2", [10**3, 10**9, 10**12])
    def test_rows_are_isentropic_at_low_temperature(self, g2):
        levels = [(0.0, 1), (1.0, 1), (1.001, g2)]
        s = Spectrum.from_levels(levels)
        amax = alpha_max(5, spectral_ratio(s))
        for row in max_alpha_scan(s, 5, [33.8, 45.0, 77.0, 120.0, 165.0]):
            ref = decimal_gibbs(levels, row.beta_rho)[2]
            S = Decimal(state_entropy(row.state))
            assert abs(S - ref) <= Decimal("1e-9") * ref, (row.beta_rho, float(S), float(ref))
            assert row.alpha <= amax + 1e-9

    @pytest.mark.parametrize("g2", [2, 10, 10**3, 10**6, 10**12])
    @pytest.mark.parametrize("N", [3, 5])
    def test_rows_are_isentropic_at_high_temperature(self, g2, N):
        # ln d - S is the small quantity here: a ray solved on ln(S - ln d0)
        # to 1e-13*(S - ln d0) missed it by up to 1.3e-6 relative
        levels = [(0.0, 1), (1.0, 1), (1.001, g2)]
        s = Spectrum.from_levels(levels)
        betas = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0]
        for beta, row in zip(betas, max_alpha_scan(s, N, betas)):
            with localcontext() as ctx:
                ctx.prec = 100
                top = Decimal(s.d).ln()
                ref = top - decimal_gibbs(levels, beta)[2]
                got = top - Decimal(s.d0).ln() - _decimal_gap(s, row.state)
            if row.alpha != 1.0 and ref >= Decimal("1e-6"):
                assert abs(got - ref) <= Decimal("1e-7") * ref, (beta, float(got), float(ref))

    @pytest.mark.parametrize("g2", [10, 10**3, 10**12])
    @pytest.mark.parametrize("N", [3, 5])
    @pytest.mark.parametrize("resolution", [8, 40])
    def test_batched_scan_matches_scalar_reference(self, g2, N, resolution):
        # the rays reach at least what a grid search finds, wherever its root
        # lies on the isentrope
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.001, g2)])
        betas = [0.5, 5.0, 30.0, 90.0]
        for beta, row in zip(betas, max_alpha_scan(s, N, betas)):
            alpha, state = _scalar_alpha_scan(s, N, beta, resolution)
            target = _thermal_functionals(s.level_energies, s.log_multiplicities, beta)[2]
            if abs(_entropy_gap(s, state) - target) <= 1e-13 * target:
                assert row.alpha >= alpha * (1 - 1e-12), (beta, row.alpha, alpha)

    @pytest.mark.parametrize("d0", [2, 5])
    def test_degenerate_ground_keeps_the_gap(self, d0):
        # on (0, 1, 3) with g = (2, 1, 10) at N = 4 the solve on the full
        # entropy lost a gap below 1e-16*ln d0: alpha = 1.738 and 2.8e8 at
        # beta = 40 and 60, above N/(N-R) = 4
        levels = [(0.0, d0), (1.0, 1), (3.0, 10)]
        s = Spectrum.from_levels(levels)
        R = spectral_ratio(s)
        for row in max_alpha_scan(s, 4, [2.0, 20.0, 40.0, 60.0, 80.0]):
            ref = _decimal_target(levels, row.beta_rho)
            assert abs(_decimal_gap(s, row.state) - ref) <= Decimal("1e-9") * ref, row.beta_rho
            ceiling = min(alpha_max(4, R), exponential_factor(row.beta_rho, s.eps_max, R, 4))
            assert 1.0 <= row.alpha <= ceiling

    def test_escaping_ray_takes_the_limit_state(self):
        # r > N makes lambda_0 = lambda_1 an extreme ray, whose gap falls
        # only to ln 6, above the target: the isentrope leaves the cone
        # through lambda_2 -> 0.  The chord grid gave 1.0432, the rays alone 1.0060.
        levels = [(0.0, 2), (1.0, 10), (3.2425, 10**5)]
        s = Spectrum.from_levels(levels)
        (row,) = max_alpha_scan(s, 3, [4.899])
        assert row.state.log_populations[2] == -math.inf
        assert row.alpha >= 1.0432
        ref = _decimal_target(levels, 4.899)
        assert abs(_decimal_gap(s, row.state) - ref) <= Decimal("1e-9") * ref
        assert is_n_passive(s, row.state, 3, tol=oracle.passive_tol(row.state.log_populations, 3))

    @pytest.mark.parametrize("N, m, alpha", [(2, 1, 1.83546), (3, 2, 1.38586), (5, 4, 1.13982)])
    def test_reaches_the_saturation_states(self, N, m, alpha):
        # alpha is what the scan reached on the hand-built envelope states'
        # spectra, at their isentropic beta; the grid search gave 1.577, 1.275
        # and 1.130 at resolution 200
        res = saturation_construct(N, m, 0.9)
        (row,) = max_alpha_scan(res.spectrum, N, [res.beta_rho])
        assert (row.alpha, row.state) == (res.alpha_measured, res.state)
        assert alpha <= row.alpha <= res.alpha_max
        assert is_n_passive(res.spectrum, row.state, N, tol=oracle.passive_tol(row.state.log_populations, N))

    @pytest.mark.parametrize(
        "energies, N",
        [((0.0, 1.0, 1.9), N) for N in (1, 2, 3, 5, 8)]
        + [((0.0, 1.0, 1.001), 5), ((0.0, 1.0, 3.2425), 3), ((0.0, 1.0, 3.2425), 5),
           ((0.0, 1.0, 2.0), 4), ((0.0, 0.4, 1.0), 6)],
    )
    def test_rays_are_the_feasible_extremes(self, energies, N):
        rays = _facets(energies, N)[0]
        assert rays[:, 0].tolist() == [0.0, 0.0]
        for w, c in zip(rays[:, 1:], _oracle_rays(energies, N)):
            assert w[0] * c[1] - w[1] * c[0] == 0 and w @ c > 0

    def test_all_tied_levels_are_refused(self):
        # every order-3 energy sum ties within 1e-9, so the cone has no cut,
        # and the ray search took the argmax of an empty sequence
        s = Spectrum.from_levels([(0.0, 1), (1e-10, 1), (2e-10, 5)])
        with pytest.raises(ValueError, match="energy sums of the levels .* all tie") as exc:
            max_alpha_scan(s, 3, [1.0])
        assert "\n" not in str(exc.value)

    def test_ceiling_is_asserted(self, monkeypatch):
        import npassive.extremal as X

        monkeypatch.setattr(X, "alpha_max", lambda N, R: 0.5)
        for N in (3, 10**5):
            with pytest.raises(BoundViolationError):
                max_alpha_scan(Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.9, 1)]), N, [1.0])

    def test_resolution_is_ignored(self):
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.001, 1000)])
        rows = [max_alpha_scan(s, 5, [2.0, 30.0], resolution=r) for r in (0, 8, 10**6)]
        assert rows[0] == rows[1] == rows[2]

    @pytest.mark.parametrize("levels, N, beta, fallback", [
        # the target gap rounds above ln d - ln d0: only the uniform state is left
        ([(0.0, 1), (1.0, 1), (1.001, 10**12)], 2, 0.05, True),
        # both rays keep more entropy than the target up to their caps
        ([(0.0, 2), (1.0, 10), (3.2425, 10**5)], 5, 700.0, True),
        ([(0.0, 1), (1.0, 1), (1.001, 1000)], 5, 30.0, False),
    ])
    def test_gibbs_state_built_only_on_fallback(self, levels, N, beta, fallback, monkeypatch):
        # the row is the Gibbs state, at alpha 1, exactly when no ray
        # candidate is accepted, and only then is that state built
        import npassive.extremal as X

        built = []
        monkeypatch.setattr(X, "gibbs_populations", lambda *a: built.append(a) or gibbs_populations(*a))
        s = Spectrum.from_levels(levels)
        (row,) = max_alpha_scan(s, N, [beta])
        assert built == ([(s, beta)] if fallback else [])
        assert (row.alpha == 1.0 and row.state == gibbs_populations(s, beta)) == fallback


def _bits(values):
    return tuple(float(v).hex() for v in values)


def _entropy_on_chord(logg, q, t):
    """Entropy gaps S - ln d0 and log-populations, less ln g0, of the level
    states at b = t*q, levels along the last axis of ``q``: the batch
    evaluator of the lockstep ray solve that ``_isentrope_root`` replaced."""
    rel = logg - logg[0]
    lnp = oracle.log_populations(rel, np.asarray(t)[..., None] * q)
    return _entropy(np.exp(rel + lnp), lnp), lnp - logg[0]


def _line_roots_arrays(logg, q, t, hi, gap):
    """The roots t of the rays b = t*q (rows of ``q``) by the lockstep solve
    that ``_isentrope_root`` replaced, its bracket held as numpy arrays:
    safeguarded Newton on ln(S - ln d0) - ln(gap) inside 0 < t < hi, with
    the midpoint for a step out of its bracket, stopped at 1e-13*gap or on a
    bracket of adjacent floats."""
    t, hi = np.asarray(t, dtype=float), np.asarray(hi, dtype=float)
    lo = np.zeros_like(t)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            G, lnp = _entropy_on_chord(logg, q, t)
            dG = np.add.reduce(np.exp(logg + lnp) * q * (lnp + (logg[0] + G)[:, None]), axis=-1)
            lo, hi = np.where(G > gap, t, lo), np.where(G > gap, hi, t)
            nxt = t - np.log(G / gap) * G / dG
            nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            done = (np.abs(G - gap) <= 1e-13 * gap) | (nxt <= lo) | (hi <= nxt)
            if done.all():
                break
            t = np.where(done, t, nxt)
    return t


def _with_array_bracket(monkeypatch, run):
    """``run()`` with each ray of ``max_alpha_scan`` solved by the array
    reference in place of ``_isentrope_root``, the oracle's functionals at its
    root, and the number of rays solved."""
    import npassive.extremal as X

    calls = []

    def reference(q, logg, gap, span, t, cap, tol):
        calls.append(1)
        root = float(_line_roots_arrays(logg, q[None], [t], [cap], gap)[0])
        return root, oracle.thermal_functionals(q, logg, root)

    with monkeypatch.context() as mp:
        mp.setattr(X, "_isentrope_root", reference)
        return run(), len(calls)


def _assert_isentropic(s, rho, beta):
    """rho's entropy gap is the Gibbs one at beta to 1e-9 relative, in decimal."""
    ref = _decimal_target(s.distinct_levels, beta)
    assert abs(_decimal_gap(s, rho) - ref) <= Decimal("1e-9") * ref, beta


def _rows(rows):
    return [(r.beta_rho.hex(), r.alpha.hex(), _bits(r.state.log_populations)) for r in rows]


ALPHA_SCAN_BETAS = [0.5, 5.0, 30.0, 90.0, 200.0]

# (levels, N, betas): the four spectra of the benchmark's alpha_scan at N = 5,
# the lambda_2 -> 0 limit row of test_escaping_ray_takes_the_limit_state, and
# a degenerate ground
ALPHA_SCAN_CASES = [
    *(([(0.0, 1), (1.0, 1), (1.001, g2)], 5, ALPHA_SCAN_BETAS) for g2 in (10**3, 10**6, 10**9, 10**12)),
    ([(0.0, 2), (1.0, 10), (3.2425, 10**5)], 3, [4.899]),
    ([(0.0, 2), (1.0, 1), (3.0, 10)], 4, [2.0, 20.0, 40.0]),
]


def _facet_grid(N):
    """Level triples (0, 1, r) whose ratio r lies off, on, and within the tie
    band of small fractions, and above N."""
    return [(0.0, 1.0, r) for r in (1.9, 2.0, 1.5, 7 / 3, 1.001, math.pi / 2,
                                    1.0 + 0.5e-9 * N, 2.0 + 0.7e-9 * N, 1.5 * N + 0.25)]


class TestFacets:
    """The closed-form cone of ``passivity._facets`` against the table."""

    @pytest.mark.parametrize("k", range(9))
    def test_rays_are_the_extreme_pairwise_cuts(self, k):
        for N in range(1, 61):
            energies = _facet_grid(N)[k]
            assert _facets(energies, N)[0][:, 1:].tolist() == list(map(list, _oracle_rays(energies, N)))

    def test_rays_on_level_ties(self):
        # level 1 within the tolerance of the ground: lambda_1 may exceed
        # lambda_0, and the upper ray leaves the quadrant
        for energies, N in [((0.0, 1.0, 2e7), 100), ((0.0, 3e-9, 1.0), 5), ((0.0, 1.0, 1.0 + 2e-9), 1)]:
            assert _facets(energies, N)[0][:, 1:].tolist() == list(map(list, _oracle_rays(energies, N)))
        assert _facets((0.0, 1.0, 2e7), 100)[0].tolist() == [[0, 1, 100], [0, -1, 99]]

    def test_rays_at_large_order(self):
        assert _facets((0.0, 1.0, 1.9), 10)[0].tolist() == [[0, 5, 9], [0, 1, 2]]
        assert _facets((0.0, 1.0, 1.9), 10**6)[0].tolist() == [[0, 526309, 999987], [0, 526311, 999991]]
        # the Fraction of 1.9 lies below 19/10: a tie only within the tolerance
        assert _facets((0.0, 1.0, 1.9), 10**5)[0].tolist() == [[0, 52629, 99995], [0, 52631, 99999]]

    def test_rational_levels_place_the_rays(self):
        exact = Spectrum.from_rationals([Fraction(0), Fraction(3, 7), Fraction(6, 7)])
        floats = Spectrum.from_levels(exact.distinct_levels)
        assert _facets((Fraction(0), Fraction(3, 7), Fraction(6, 7)), 4)[0].tolist() == [[0, 2, 3], [0, 1, 3]]
        for N in (1, 4, 10**6):
            assert max_alpha_scan(exact, N, [0.5, 3.0]) == max_alpha_scan(floats, N, [0.5, 3.0])

    @pytest.mark.parametrize("N", range(1, 13))
    def test_acceptance_is_the_verdict(self, N):
        # the scan checks no candidate, as each lies on the cone by
        # construction: every row it takes off the Gibbs state passes the
        # verdict at the boundary tolerance and sits on the isentrope, on
        # ties at 1/1 (eps2 near eps1) and 1/0 (eps1 near 0), exact levels,
        # multiplicities up to 1e6 and beta from 1e-6 to 300.  At order 1
        # those ties give the rays (0, +-1, 0), which a solve with no cap, or
        # from the negative projection of beta*eps on (0, -1, 0), leaves off
        # the isentrope
        third = (Fraction(0), Fraction(3, 7), Fraction(6, 7))
        spectra = [Spectrum(tuple(zip(energies, g)))
                   for energies in [*_facet_grid(N), (0.0, 0.5e-9 * N, 1.0)]
                   for g in [(1, 1, 1), (2, 1, 10), (1, 3, 10**6), (10**6, 1, 7)]]
        spectra.append(Spectrum(tuple(zip(map(float, third), (2, 1, 5))), tuple(zip(third, (2, 1, 5)))))
        checked = 0
        for s in spectra:
            for row in max_alpha_scan(s, N, np.geomspace(1e-6, 300.0, 9)):
                if row.alpha > 1.0:
                    tol = oracle.passive_tol(row.state.log_populations, N)
                    assert is_n_passive(s, row.state, N, tol=tol), (s.distinct_levels, row.beta_rho)
                    gap = _thermal_functionals(s.level_energies, s.log_multiplicities, row.beta_rho)[2]
                    assert _entropy_gap(s, row.state) == pytest.approx(gap, rel=1e-12, abs=0)
                    checked += 1
        assert checked >= 200

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 13, 21])
    def test_envelope_is_exact(self, N):
        # an end that no cut bounds (the tie at N = 1) is 0 or inf on both
        for _, e1, e2 in _facet_grid(N):
            args = (N, 0.25, 0.25 + e1, 0.25 + e2, 0.5, 0.1)
            got, loop = prep1_envelope(*args), oracle.prep1_envelope(*args)
            if 0.0 in loop or math.inf in loop:
                assert got == loop, args
                continue
            for x, ref in zip(got, oracle.prep1_envelope_exact(*args)):
                assert abs(x - ref) <= 4 * math.ulp(ref), args

    def test_large_orders_build_no_table(self, monkeypatch):
        import npassive.extremal as X
        import npassive.passivity as P

        def refused(*args):
            raise AssertionError("an order-N table was built")

        for module, name in ((P, "occupations"), (P, "_cuts"), (X, "_cuts")):
            monkeypatch.setattr(module, name, refused)
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.9, 10**6)])
        R = spectral_ratio(s)
        for N in (5, 1000, 10**5):
            for row in max_alpha_scan(s, N, [1.0, 5.0, 20.0]):
                ceiling = min(alpha_max(N, R), exponential_factor(row.beta_rho, s.eps_max, R, N))
                assert 1.0 <= row.alpha <= ceiling
        lo, hi = prep1_envelope(10**6, 0, 1, 1.9, 0.6, 0.1)
        assert 0.1 < lo <= hi < 0.6
        res = saturation_construct(1500, 1499, 0.5)
        assert res.alpha_measured >= 0.5 * res.alpha_max


@pytest.mark.parametrize("call", [
    lambda N: max_alpha_scan(normalize_spectrum([0, 1, 1.9]), N, [1.0]),
    lambda N: prep1_envelope(N, 0.0, 1.0, 1.9, 0.5, 0.1),
    lambda N: saturation_construct(N, 1, 0.5),
], ids=["max_alpha_scan", "prep1_envelope", "saturation_construct"])
@pytest.mark.parametrize("N", [2.5, 3.0, "3", None])
def test_non_integer_order_refused(call, N):
    # 2.5 stopped in math.comb with a TypeError, and N // max(p, q) would
    # run on it silently
    with pytest.raises(ValueError, match="N must be >= 1 and an integer") as exc:
        call(N)
    assert "\n" not in str(exc.value)


class TestAlphaScanBitIdentity:
    """The rows against the array-bracket ray solve that the shared Newton
    replaced, and one call over a grid against one call per beta, bitwise."""

    @pytest.mark.parametrize("levels, N, betas", ALPHA_SCAN_CASES)
    def test_rows_match_the_array_bracket(self, monkeypatch, levels, N, betas):
        # the criterion of test_batched_scan_matches_scalar_reference: at
        # least the reference's ratio, to 1e-12, on an isentropic state
        s = Spectrum.from_levels(levels)
        got = [row for b in betas for row in max_alpha_scan(s, N, [b])]
        want, calls = _with_array_bracket(
            monkeypatch, lambda: [row for b in betas for row in max_alpha_scan(s, N, [b])])
        assert calls >= len(betas)
        for beta, row, ref in zip(betas, got, want):
            assert row.alpha >= ref.alpha * (1 - 1e-12), (beta, row.alpha, ref.alpha)
            _assert_isentropic(s, row.state, beta)

    @pytest.mark.parametrize("levels, N, betas", ALPHA_SCAN_CASES[:4])
    def test_one_call_over_the_grid_gives_the_same_rows(self, levels, N, betas):
        # the rays, caps and limit gaps set up once per call serve every beta
        s = Spectrum.from_levels(levels)
        one_by_one = [row for b in betas for row in _rows(max_alpha_scan(s, N, [b]))]
        assert _rows(max_alpha_scan(s, N, betas)) == one_by_one


def _old_cap_rule(monkeypatch, run):
    """``run()`` with a ray solved only where its gap at the cap b = 2000 is
    below the target, the reach test before ``_gap_limit``: every other ray
    returns t = inf; and the number of rays that the limit test sends to
    the solver but the cap test would not."""
    import npassive.extremal as X

    skipped = []

    def solve(q, logg, gap, span, t, cap, tol):
        if _thermal_functionals(q, logg, cap)[2] < gap:
            return _isentrope_root(q, logg, gap, span, t, cap, tol)
        skipped.append(1)
        return math.inf, _thermal_functionals(q, logg, math.inf)

    with monkeypatch.context() as mp:
        mp.setattr(X, "_isentrope_root", solve)
        return run(), len(skipped)


# (levels, N, upper ray): rays with a zero or a negative entry, beyond r > N,
# past a tie at 1/0, and on a degenerate ground
LIMIT_RAYS = [
    ([(0.0, 1), (1.0, 1), (3.2425, 1)], 3, [0, 0, 1]),
    ([(0.0, 2), (1.0, 10), (3.2425, 10**5)], 3, [0, 0, 1]),
    ([(0.0, 3), (1.0, 1), (3.2425, 10**12)], 3, [0, 0, 1]),
    ([(0.0, 10**12), (1.0, 1), (3.2425, 10**6)], 3, [0, 0, 1]),
    ([(0.0, 1), (1e-10, 1), (1.0, 1)], 3, [0, -1, 2]),
    ([(0.0, 3), (2e-10, 7), (1.0, 10**12)], 3, [0, -1, 2]),
    ([(0.0, 2), (1e-10, 1), (1.0, 5)], 2, [0, -1, 1]),
]


class TestReachRule:
    """A ray is solved only where the target gap lies above ``_gap_limit``,
    the gap of the level state b = t*q as t -> inf, and no state is built
    at a ray's cap to decide it."""

    @pytest.mark.parametrize("levels, N, upper", LIMIT_RAYS)
    def test_limit_is_the_gap_at_the_old_cap(self, levels, N, upper):
        # the cap's sums add a term near 2000 to ln g1 - ln g0 and round at
        # about 1e-13; a ray of positive entries tends to the ground, gap 0
        s = Spectrum.from_levels(levels)
        logg, mults = s.log_multiplicities, [g for _, g in levels]
        rays = _facets(tuple(e for e, _ in levels), N)[0]
        assert rays[1].tolist() == upper and rays[0, 1] > 0
        assert _gap_limit(rays[0].tolist(), mults) == 0.0
        q = rays[1]
        with localcontext() as ctx:
            ctx.prec = 50
            ref = Decimal(sum(g for g, x in zip(mults, q) if x == q.min())).ln() - Decimal(mults[0]).ln()
        got = _gap_limit(q.tolist(), mults)
        assert abs(Decimal(got) - ref) <= Decimal(2 * math.ulp(got)), (got, ref)
        assert got == pytest.approx(_thermal_functionals(q, logg, 2000.0 / q[2])[2], rel=1e-12)

    def test_rows_match_the_old_cap_rule(self, monkeypatch):
        # beta up to 700 and g2 up to 1e12, r below and above N, and the rays
        # of LIMIT_RAYS, ties at 1/0 among them
        betas = np.geomspace(0.05, 700.0, 25)
        cases = [([(0.0, g0), (1.0, g1), (r, g2)], N) for r in (1.001, 1.9, 3.2425)
                 for g0, g1 in ((1, 1), (2, 10)) for g2 in (1, 10**3, 10**6, 10**12) for N in (1, 3, 5, 8)]
        skipped = 0
        for levels, N in cases + [(levels, N) for levels, N, _ in LIMIT_RAYS]:
            s = Spectrum.from_levels(levels)
            want, n = _old_cap_rule(monkeypatch, lambda: _rows(max_alpha_scan(s, N, betas)))
            assert _rows(max_alpha_scan(s, N, betas)) == want, (levels, N)
            skipped += n
        # the window where a solve now ends at the cap, cold states on the
        # steep rays of r = 3.2425, is run
        assert skipped > 0

    def test_no_state_at_a_ray_cap(self, monkeypatch):
        # one beta per call on the benchmark's four spectra: the cap test cost
        # two evaluations of the functionals per call
        import npassive.extremal as X
        import npassive.gibbs as G

        points = []

        def functionals(q, logg, t):
            points.append((tuple(q.tolist()), t))
            return _thermal_functionals(q, logg, t)

        monkeypatch.setattr(X, "_thermal_functionals", functionals)
        monkeypatch.setattr(G, "_thermal_functionals", functionals)
        on_rays = 0
        for levels, N, betas in ALPHA_SCAN_CASES[:4]:
            s = Spectrum.from_levels(levels)
            rays = [tuple(q) for q in _facets(tuple(e for e, _ in levels), N)[0].tolist()]
            caps = {(q, 2000.0 / q[2]) for q in rays}
            for beta in betas:
                points.clear()
                max_alpha_scan(s, N, [beta])
                assert caps.isdisjoint(points), (levels[2], beta)
                on_rays += sum(q in rays for q, _ in points)
        assert on_rays > 0

    def test_root_at_the_cap_is_a_root(self):
        # the edge of the rule: on the rays of test_no_reaching_ray a target
        # at the gap of the cap is met there, a finite root and a candidate;
        # one just below it lies past the cap, t = inf, and gives none
        s = Spectrum.from_levels([(0.0, 2), (1.0, 10), (3.2425, 10**5)])
        logg = s.log_multiplicities
        span = math.log(s.d) - logg[0]
        for q in _facets((0.0, 1.0, 3.2425), 5)[0]:
            cap = 2000.0 / q[2]
            at_cap = _thermal_functionals(q, logg, cap)[2]
            assert _gap_limit(q.tolist(), [2, 10, 10**5]) == 0.0 < at_cap
            assert _isentrope_root(q, logg, at_cap, span, 1.0, cap, 1e-13)[0] == cap
            assert _isentrope_root(q, logg, at_cap * (1 - 1e-9), span, 1.0, cap, 1e-13)[0] == math.inf


class TestLineRoots:
    """``_isentrope_root``, the root on the line b = t*q that solves both the
    Gibbs inversion and the rays of ``max_alpha_scan``, on a stub functional:
    gap 1.0 below t = 3 and 0.5 from there on, and zero variance, so every
    Newton step is non-finite and no point comes within tol of the target."""

    @pytest.fixture
    def points(self, monkeypatch):
        import npassive.gibbs as G

        ts = []

        def functionals(q, logg, t):
            ts.append(t)
            return 0.0, 0.0, 1.0 if t < 3.0 else 0.5, 0.0, []

        monkeypatch.setattr(G, "_thermal_functionals", functionals)
        return ts

    @staticmethod
    def solve():
        return _isentrope_root(np.zeros(3), np.zeros(3), 0.75, 2.0, 1.0, 4.0, 1e-13)

    def test_no_reaching_ray(self, monkeypatch):
        # the fallback cases of test_gibbs_state_built_only_on_fallback: a
        # target gap at or above the span solves no ray, and at beta = 700
        # both rays, (0, 1, 3) and (0, 1, 4), pass their limit gap 0 and
        # return t = inf from their caps
        import npassive.extremal as X

        roots = []
        monkeypatch.setattr(X, "_isentrope_root", lambda *a: roots.append(_isentrope_root(*a)) or roots[-1])
        for levels, N, beta, solves in [([(0.0, 1), (1.0, 1), (1.001, 10**12)], 2, 0.05, 0),
                                        ([(0.0, 2), (1.0, 10), (3.2425, 10**5)], 5, 700.0, 2)]:
            roots.clear()
            (row,) = max_alpha_scan(Spectrum.from_levels(levels), N, [beta])
            assert row.alpha == 1.0
            assert len(roots) == solves and all(t == math.inf for t, _ in roots)

    def test_non_finite_step_takes_the_midpoint(self, points):
        # the first midpoint, (1 + inf)/2, stops at the cap
        self.solve()
        assert points[:4] == [1.0, 4.0, 2.5, 3.25]

    def test_bracket_of_adjacent_floats_stops(self, points):
        t, f = self.solve()
        assert len(points) < 100 and t == points[-1]
        assert t in (3.0, math.nextafter(3.0, 0.0)) and points[-2] != t
        assert f == (0.0, 0.0, 1.0 if t < 3.0 else 0.5, 0.0, [])


def test_alpha_scan_curves_script(tmp_path):
    path = Path(__file__).resolve().parents[1] / "scripts" / "alpha_scan_curves.py"
    spec = importlib.util.spec_from_file_location("alpha_scan_curves", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.run(out_dir=tmp_path)
    assert len(list(tmp_path.glob("*.csv"))) == len(script.DEGENERACIES) == 3
    for g2 in script.DEGENERACIES:
        s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.001, g2)])
        with open(tmp_path / f"alpha_scan_g{g2}.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(script.BETA_GRID) == 24
        assert max(float(r["alpha"]) for r in rows) <= alpha_max(5, spectral_ratio(s)) + 1e-9


DEMO_STDOUT = """\
  N   m   ceiling  measured      beta           g2
  2   1   2.00200   1.83596    62.501 4025284853486
  3   2   1.50075   1.38602    54.885      9418545
  5   4   1.25031   1.14025    33.625          174
"""


def test_saturation_demo_script(monkeypatch, capsys):
    path = Path(__file__).resolve().parents[1] / "scripts" / "saturation_demo.py"
    spec = importlib.util.spec_from_file_location("saturation_demo", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr("sys.argv", [str(path)])
    script.main()
    assert capsys.readouterr().out == DEMO_STDOUT


class TestSaturation:
    def test_n2_reaches_ninety_percent(self):
        res = saturation_construct(2, 1, 0.9)
        assert res.alpha_max == pytest.approx(2.002, abs=1e-3)
        assert res.alpha_measured >= 0.9 * res.alpha_max
        assert is_n_passive(res.spectrum, res.state, 2, tol=oracle.passive_tol(res.state.log_populations, 2))

    def test_figure_parameters(self):
        res = saturation_construct(5, 4, 0.85)
        assert res.spectrum.eps_max == pytest.approx(1.001)
        assert res.alpha_max == pytest.approx(1.25031, abs=1e-5)
        assert res.alpha_measured >= 0.85 * res.alpha_max

    @pytest.mark.parametrize("N, m, frac", [(2, 1, 0.9), (3, 2, 0.9), (5, 4, 0.9), (6, 3, 0.5)],
                             ids=["2-1", "3-2", "5-4", "6-3-0.5"])
    def test_demo_cases_stay_below_ceiling(self, N, m, frac):
        # m < N - 1 failed the passivity scan when the state was built on
        # the envelope lambda_1 = lambda_2^(m/N) lambda_0^((N-m)/N)
        res = saturation_construct(N, m, frac)
        assert frac * res.alpha_max <= res.alpha_measured <= res.alpha_max
        assert is_n_passive(res.spectrum, res.state, N, tol=oracle.passive_tol(res.state.log_populations, N))

    def test_ratio_above_ceiling_raises(self, monkeypatch):
        import npassive.extremal as X

        monkeypatch.setattr(X, "alpha_max", lambda N, R: 0.5)
        with pytest.raises(BoundViolationError):
            saturation_construct(3, 2, 0.9)

    def test_zero_fraction_trivial(self):
        res = saturation_construct(3, 2, 0.0)
        assert res.alpha_measured >= 0.0

    def test_degeneracy_window_invariants(self):
        N, m = 2, 1
        res = saturation_construct(N, m, 0.9)
        (e0, g0), (e1, g1), (r, g2) = res.spectrum.distinct_levels
        assert (e0, g0, e1, g1) == (0.0, 1, 1.0, 1)
        assert m / N < 1.0 / r <= (m + 1) / N
        assert res.alpha_max == N / (N - r)
        beta = res.beta_rho
        assert beta >= 30.0 * max(1.0, math.log(r * res.alpha_max) * N / r)
        # ln g2 = beta*(r - 1/alpha_t) - ln(r*alpha_t) with 1 < alpha_t < alpha_max
        assert (r - 1) * beta < math.log(g2) < (r - 1 / res.alpha_max) * beta

    def test_impossible_fraction_reported(self):
        with pytest.raises(InfeasibleSaturationError, match="best ratio 1.954"):
            saturation_construct(2, 1, 1.0)

    def test_rejection_skips_the_witness_walk(self, monkeypatch):
        import npassive.passivity as P

        def table(*args):
            raise AssertionError("the occupation table was built")

        # the O(M^2) witness walk over the order-N table would take seconds
        # at this order, and the scan's verdicts never build the table
        monkeypatch.setattr(P, "_energy_groups", table)
        with pytest.raises(InfeasibleSaturationError, match="best ratio"):
            saturation_construct(300, 1, 0.5)

    @pytest.mark.parametrize("N, m", [(100, 25), (300, 75), (300, 150)])
    def test_ladder_starts_by_beta_inf(self, N, m):
        # the first rung 30*(N/r)*ln(r*alpha_max) lies above BETA_INF_FACTOR
        # here, and the ladder once refused, with no rung run, a target that
        # the Gibbs state meets
        res = saturation_construct(N, m, 0.5)
        assert res.beta_rho == BETA_INF_FACTOR
        assert 0.5 * res.alpha_max <= res.alpha_measured == pytest.approx(1.0, abs=1e-9)
        assert is_n_passive(res.spectrum, res.state, N, tol=oracle.passive_tol(res.state.log_populations, N))

    @pytest.mark.parametrize("N, m", [(2, 1), (3, 2), (5, 4)])
    def test_ladder_below_beta_inf_matches_the_array_bracket(self, monkeypatch, N, m):
        # the first rung lies below BETA_INF_FACTOR, so the ladder is unmoved
        got = saturation_construct(N, m, 0.9)
        want, calls = _with_array_bracket(monkeypatch, lambda: saturation_construct(N, m, 0.9))
        assert calls >= 1 and got.beta_rho == want.beta_rho < BETA_INF_FACTOR
        assert got.spectrum == want.spectrum
        assert got.alpha_measured >= want.alpha_measured * (1 - 1e-12)
        _assert_isentropic(got.spectrum, got.state, got.beta_rho)

    @pytest.mark.parametrize("N, m", [(1001, 1000), (1100, 1099)])
    def test_offset_keeps_the_gap_ratio_in_its_window(self, N, m):
        # r = N/(m+1)*(1 + DELTA_R) left (m/N, (m+1)/N] once m >= 1000, and
        # the construction refused with "gap ratio 1/r escaped"
        res = saturation_construct(N, m, 0.5)
        r = res.spectrum.eps_max
        assert m / N < 1.0 / r <= (m + 1) / N
        assert 0.5 * res.alpha_max <= res.alpha_measured == pytest.approx(1.000001, abs=1e-6)
        assert res.beta_rho == pytest.approx(45.0, abs=0.05)

    @pytest.mark.parametrize("N, m", [(1500, 1499), (10**5, 10**5 - 1)])
    def test_orders_past_the_table(self, N, m):
        # (1500, 1499) was refused by the cap of the order-N occupation table
        res = saturation_construct(N, m, 0.5)
        assert 0.5 * res.alpha_max <= res.alpha_measured <= res.alpha_max

    def test_bad_orders_rejected(self):
        with pytest.raises(ValueError):
            saturation_construct(2, 2, 0.5)
