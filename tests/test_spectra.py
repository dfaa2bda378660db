import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npassive.spectra import (
    DiagonalState,
    EnumerationCapError,
    Spectrum,
    SpectrumError,
    StateError,
    normalize_spectrum,
    occupations,
    state_energy,
    state_entropy,
)

from oracle import compositions


class TestNormalizeSpectrum:
    def test_shift_and_sort(self):
        s = normalize_spectrum([2, 1, 1])
        assert s.energies == (0.0, 0.0, 1.0)
        assert s.d0 == 2

    def test_three_distinct_levels(self):
        s = normalize_spectrum([0, 1, 1.9])
        assert s.num_levels == 3
        assert s.d0 == 1
        assert s.eps_max == 1.9

    def test_merge_rule(self):
        s = normalize_spectrum([0, 1e-15, 1])
        assert s.d0 == 2
        assert s.num_levels == 2
        # gaps of 0.8e-9 chain three values into one level 1.6e-9 wide
        s = normalize_spectrum([0, 1, 1 + 0.8e-9, 1 + 1.6e-9, 2])
        assert s.distinct_levels == ((0.0, 1), (1.0, 3), (2.0, 1))

    def test_idempotent(self):
        s = normalize_spectrum([3.0, 1.0, 5.5, 1.0])
        again = normalize_spectrum(s.energies)
        assert again.distinct_levels == s.distinct_levels

    def test_empty_rejected(self):
        with pytest.raises(SpectrumError):
            normalize_spectrum([])

    def test_non_finite_rejected(self):
        with pytest.raises(SpectrumError):
            normalize_spectrum([0.0, math.inf])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_level_rejected(self, bad):
        with pytest.raises(SpectrumError):
            Spectrum.from_levels([(0.0, 1), (1.0, 1), (bad, 1)])

    def test_multiplicity_past_the_float_range_rejected(self):
        # it passed, then log_multiplicities raised OverflowError in every reader
        top = 2**1024 - 2**970
        assert Spectrum.from_levels([(0.0, 1), (1.0, top - 1)]).log_multiplicities[1] == math.log(top - 1)
        for g in (top, 10**400):
            with pytest.raises(SpectrumError, match="float range") as exc:
                Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.9, g)])
            assert "\n" not in str(exc.value)

    @pytest.mark.parametrize("g", [2.5, 2.7, 2.0, True, np.float64(3.0)])
    def test_non_integer_multiplicity_rejected(self, g):
        # 2.5 gave d = 3.5, and from_levels truncated 2.7 to 2
        for build in (Spectrum, Spectrum.from_levels):
            with pytest.raises(SpectrumError, match="multiplicities must be integers") as exc:
                build(((0.0, 1), (1.0, g)))
            assert "\n" not in str(exc.value)

    def test_numpy_multiplicities_stored_as_ints(self):
        for build in (Spectrum, Spectrum.from_levels):
            s = build(((0.0, np.int64(2**62)), (1.0, np.int64(2**62))))
            assert [type(g) for _, g in s.distinct_levels] == [int, int]
            assert s.d == 2**63

    def test_rational_input(self):
        s = Spectrum.from_rationals([Fraction(0), Fraction(1), Fraction(3)])
        assert s.rational_levels == ((Fraction(0), 1), (Fraction(1), 1), (Fraction(3), 1))


class TestDiagonalState:
    def test_sum_tolerance(self):
        with pytest.raises(StateError):
            DiagonalState((0.5, 0.6))

    def test_negative_rejected(self):
        with pytest.raises(StateError):
            DiagonalState((1.2, -0.2))

    def test_log_populations(self):
        rho = DiagonalState((0.5, 0.5, 0.0))
        assert rho.blocks == ((0.5, 2), (0.0, 1)) and rho.d == 3
        assert rho.log_populations == (math.log(0.5), -math.inf)
        assert rho.populations == (0.5, 0.5, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(StateError):
            DiagonalState((0.5, bad, 0.5))


class TestEnergyEntropy:
    def test_uniform_energy(self):
        s = normalize_spectrum([0, 1, 2])
        rho = DiagonalState((1 / 3, 1 / 3, 1 / 3))
        assert state_energy(s, rho) == pytest.approx(1.0)

    def test_weighted_energy(self):
        s = normalize_spectrum([0, 1, 2])
        assert state_energy(s, DiagonalState((0.5, 0.3, 0.2))) == pytest.approx(0.7)

    def test_ground_energy_zero(self):
        s = normalize_spectrum([0, 1, 2])
        assert state_energy(s, DiagonalState((1.0, 0.0, 0.0))) == 0.0

    def test_pure_entropy_zero(self):
        assert state_entropy(DiagonalState((1.0, 0.0, 0.0))) == 0.0

    def test_uniform_entropy(self):
        assert state_entropy(DiagonalState((0.25,) * 4)) == pytest.approx(math.log(4))

    def test_entropy_value(self):
        assert state_entropy(DiagonalState((0.5, 0.3, 0.2))) == pytest.approx(
            1.02965, abs=1e-5
        )

    def test_misaligned_rejected(self):
        s = normalize_spectrum([0, 1])
        with pytest.raises(StateError):
            state_energy(s, DiagonalState((1.0, 0.0, 0.0)))


class TestEnumerateOccupations:
    def test_d2_n2(self):
        assert occupations(2, 2).tolist() == [[0, 2], [1, 1], [2, 0]]

    def test_unit_vectors(self):
        assert occupations(3, 1).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]

    def test_count_d3_n4(self):
        assert len(occupations(3, 4)) == 15

    def test_cap_guard(self):
        with pytest.raises(EnumerationCapError):
            occupations(10, 30)

    def test_read_only(self):
        table = occupations(3, 2)
        assert table.dtype == np.int64
        with pytest.raises(ValueError):
            table[0, 0] = 5

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            occupations(3, 0)

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(1, 8), N=st.integers(1, 6))
    def test_count_and_sums(self, d, N):
        table = occupations(d, N)
        assert len(table) == math.comb(N + d - 1, d - 1)
        assert (table.sum(axis=1) == N).all() and (table >= 0).all()
        assert table.tolist() == [list(c) for c in compositions(d, N)]
