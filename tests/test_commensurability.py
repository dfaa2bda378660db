import itertools
import math
import random
from fractions import Fraction

import pytest

import npassive.commensurability as comm
from npassive.commensurability import (
    DEFAULT_MAX_DEN,
    DEFAULT_RATIO_TOL,
    n_star,
    rational_ratio_detect,
    triple_forces_gibbs,
)
from npassive.gibbs import gibbs_populations
from npassive.passivity import is_k_structurally_stable, is_n_passive
from npassive.spectra import (
    DEFAULT_CAP,
    DiagonalState,
    EnumerationCapError,
    Spectrum,
    normalize_spectrum,
)


def _all_triples_lcm_oracle(levels):
    """The lcm over level triples a < b < c of the reduced numerator of
    (c - a)/(b - a), on integer levels."""
    return math.lcm(*((c - a) // math.gcd(c - a, b - a)
                      for a, b, c in itertools.combinations(list(levels), 3)))


class TestRationalDetect:
    def test_integer(self):
        assert rational_ratio_detect(2.0).as_integer_ratio() == (2, 1)

    def test_decimal(self):
        assert rational_ratio_detect(1.9).as_integer_ratio() == (19, 10)

    def test_irrational(self):
        assert rational_ratio_detect(math.pi, max_den=50, tol=1e-9) is None

    def test_bad_input(self):
        with pytest.raises(ValueError):
            rational_ratio_detect(0.5)

    def test_invariants(self):
        # every ratio detected here or on the spectra of TestNStar, float
        # levels or exact ones, is a Fraction p/q in lowest terms, p > q >= 1
        spectra = [normalize_spectrum(levels) for levels in
                   ([0, 1, 2], [0, 1, 3], [0, 1, 2, 4], list(range(12)))]
        spectra.append(Spectrum.from_rationals([Fraction(0), Fraction(1, 3), Fraction(1)]))
        found = [rational_ratio_detect(x) for x in (2.0, 1.9)]
        found += [comm._ratio(s, t, DEFAULT_MAX_DEN, DEFAULT_RATIO_TOL, {}) for s in spectra
                  for t in itertools.combinations(range(s.num_levels), 3)]
        for r in found:
            assert type(r) is Fraction
            p, q = r.as_integer_ratio()
            assert math.gcd(p, q) == 1 and p > q >= 1


class TestNStar:
    def test_equally_spaced(self):
        assert n_star(normalize_spectrum([0, 1, 2])).n_star == 2

    def test_three_to_one(self):
        res = n_star(normalize_spectrum([0, 1, 3]))
        assert res.n_star == 3
        assert res.all_triples_lcm == 3

    def test_irrational_gap(self):
        phi = (1 + 5**0.5) / 2
        assert n_star(normalize_spectrum([0, 1, 1 + phi]), max_den=50).n_star is None

    def test_exact_rational_path(self):
        s = Spectrum.from_rationals(
            [Fraction(0), Fraction(1, 3), Fraction(1)]
        )
        res = n_star(s)
        assert res.n_star == 3
        assert all(t is not None and t[0] == 3 for t in res.triples)

    def test_ladder_lcm(self):
        # consecutive ratios of (0,1,2,4): 2/1 then 3/1 -> lcm 6
        res = n_star(normalize_spectrum([0, 1, 2, 4]))
        assert res.n_star == 6

    def test_too_few_levels(self):
        with pytest.raises(ValueError):
            n_star(normalize_spectrum([0, 1]))

    def test_all_triples_stop_at_the_first_undetected(self, monkeypatch):
        # the L - 2 consecutive triples of (0, 1, 1 + phi, 3, 4, ...) have four
        # distinct ratios (1 + phi, 2/phi, 2 + phi, then 2), each detected
        # once; the diagonal's first triple (0, 1, 2) is the first consecutive
        # one, already undetected, so it stops there without a detection
        detect, seen = comm.rational_ratio_detect, []
        monkeypatch.setattr(comm, "rational_ratio_detect",
                            lambda x, *args: seen.append(x) or detect(x, *args))
        L = 40
        phi = (1 + 5**0.5) / 2
        res = n_star(normalize_spectrum([0, 1, 1 + phi, *range(3, L)]), max_den=50)
        assert res.all_triples_lcm is None
        assert res.triples == (None, None, None, *((2, 1, i) for i in range(3, L - 2)))
        assert seen == pytest.approx([1 + phi, 2 / phi, 2 + phi, 2.0], rel=1e-12)

    def test_each_distinct_ratio_detected_once(self, monkeypatch):
        # the ladder 0..149 has 551,300 triples but 6,817 distinct gap ratios
        detect, seen = comm.rational_ratio_detect, []
        monkeypatch.setattr(comm, "rational_ratio_detect",
                            lambda x, *args: seen.append(x) or detect(x, *args))
        res = n_star(normalize_spectrum(list(range(150))))
        assert len(seen) <= 6817 and len(set(seen)) == len(seen)
        assert res.all_triples_lcm == _all_triples_lcm_oracle(range(150))

    @pytest.mark.parametrize("L", [3, 4, 7, 12, 25, 40])
    def test_all_triples_lcm_on_integer_ladders(self, L):
        res = n_star(normalize_spectrum(list(range(L))))
        assert res.all_triples_lcm == _all_triples_lcm_oracle(range(L))

    @pytest.mark.parametrize("seed", range(6))
    def test_all_triples_lcm_on_rational_spectra(self, seed):
        rng = random.Random(seed)
        raw = {Fraction(rng.randint(0, 60), rng.randint(1, 6)) for _ in range(rng.randint(3, 9))}
        if len(raw) < 3:
            raw |= {Fraction(100), Fraction(101), Fraction(103)}
        res = n_star(Spectrum.from_rationals(sorted(raw)))
        den = math.lcm(*(x.denominator for x in raw))
        assert res.all_triples_lcm == _all_triples_lcm_oracle(sorted(int(x * den) for x in raw))

    def test_all_triples_capped(self):
        L = 230
        assert math.comb(L, 3) > DEFAULT_CAP >= math.comb(L - 1, 3)
        with pytest.raises(EnumerationCapError, match="all-triples"):
            n_star(Spectrum.from_levels((k, 1) for k in range(L)))


class TestTripleForcesGibbs:
    def test_gibbs_passes(self):
        s = normalize_spectrum([0, 1, 2])
        rho = gibbs_populations(s, 0.8)
        assert triple_forces_gibbs(s, rho, (0, 1, 2))

    def test_violator_fails_and_is_unstable(self):
        s = normalize_spectrum([0, 1, 2])
        rho = DiagonalState((0.5, 0.3, 0.2))
        assert not triple_forces_gibbs(s, rho, (0, 1, 2))
        # the same energy tie that powers the relation breaks stability
        assert not is_k_structurally_stable(s, rho, 2)

    def test_degenerate_request_rejected(self):
        s = normalize_spectrum([0, 1, 2])
        with pytest.raises(ValueError):
            triple_forces_gibbs(s, gibbs_populations(s, 1.0), (0, 1, 1))

    def test_stable_states_satisfy_relation(self):
        # order-2 stability on the equally spaced ladder enforces the tie
        s = normalize_spectrum([0, 1, 2])
        for lam1 in (0.1, 0.2, 0.3):
            lam0, lam2 = _tie_solution(lam1)
            rho = DiagonalState((lam0, lam1, lam2))
            assert is_k_structurally_stable(s, rho, 2)
            assert triple_forces_gibbs(s, rho, (0, 1, 2))
            assert is_n_passive(s, rho, 2).passive


def _tie_solution(lam1):
    """Solve lam1^2 = lam0*lam2 with lam0 + lam1 + lam2 = 1, lam0 > lam1."""
    # lam2*(1 - lam1 - lam2) = lam1^2
    a, b, c = 1.0, -(1.0 - lam1), lam1**2
    disc = math.sqrt(b * b - 4 * a * c)
    lam2 = (-b - disc) / (2 * a)
    return 1.0 - lam1 - lam2, lam2
