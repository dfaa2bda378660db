"""Every enumerator reads the one occupation table, ``spectra.occupations``.

The reference loops in ``oracle.py`` are reproduced exactly: verdicts,
witnesses, stability and the level-space passivity check, on seeded grids
that include near-ties and zero populations; drawn near-tie ladders skip the
draws where a row-energy gap lies within rounding of the tie tolerance, which
either grouping may then take.  Their one kernel, the row sums
of count*value, lies within 4 ulp of sum |count*value| of the reference's
per-entry sums and has the same infinities.  The N-copy ergotropy lies
within 1e-13*max(1, N*eps_max) of the exact reference and gives the float
loop's ``erg <= 1e-10`` verdict.  The ``prep1_envelope`` interval, like the
reference loop's, lies within 4 ulp of the exact one.
"""

import gc
import itertools
import math
import tracemalloc
import warnings
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracle
from npassive import spectra
from npassive.extremal import (
    max_alpha_scan,
    sample_n_passive,
)
from npassive.gibbs import gibbs_populations
from npassive.passivity import (
    DEFAULT_LOG_TOL,
    DEFAULT_STABILITY_TOL,
    _cuts,
    _row_sums,
    is_k_structurally_stable,
    is_n_passive,
    n_ergotropy,
    passive_rearrangement,
    prep1_envelope,
)
from npassive.spectra import (
    DEFAULT_CAP,
    DiagonalState,
    EnumerationCapError,
    Spectrum,
    default_energy_tol,
    normalize_spectrum,
    occupations,
)


def _spectra(rng, d):
    """A generic spectrum, one with near-ties and commensurate gaps, one with
    a degenerate ground level, and a chain of near-ties."""
    generic = [0.0] + sorted(rng.uniform(0.2, 3.0, d - 1).tolist())
    gap = float(rng.uniform(0.5, 1.5))
    # 4e-10 sits inside every tie tolerance, 3e-9 outside it at N = 1 only
    ladder = [0.0, gap, gap + 4e-10] + [gap * (k + 2) + 3e-9 * (k % 2) for k in range(d - 3)]
    degenerate = [0.0, 0.0] + sorted(rng.uniform(0.3, 2.5, d - 2).tolist())
    # gaps of 0.8e-9 chain into tie groups wider than the tolerance at N = 1
    chain = [0.0] + [1.0 + 0.8e-9 * k for k in range(d - 1)]
    return [
        Spectrum.from_levels([(e, 1) for e in generic]),
        Spectrum.from_levels([(e, 1) for e in ladder[:d]]),
        normalize_spectrum(degenerate),
        Spectrum.from_levels([(e, 1) for e in chain]),
    ]


def _states(rng, s):
    """Gibbs, passive and non-passive states, a near-tie perturbation of a
    Gibbs state, and states holding exact zeros."""
    d = s.d
    beta = float(rng.uniform(0.3, 4.0))
    gibbs = np.array(gibbs_populations(s, beta).populations)
    late = gibbs.copy()
    late[1] = 1.01 * late[0]
    # log-weight differences across the 1e-12 tolerance
    nudged = [gibbs * np.exp(scale * rng.standard_normal(d)) for scale in (1e-13, 1e-12)]
    top_zero = gibbs.copy()
    top_zero[-1] = 0.0
    inverted_zero = rng.dirichlet(np.ones(d))
    inverted_zero[0] = 0.0
    weights = [gibbs, late, *nudged, top_zero, inverted_zero, rng.dirichlet(np.ones(d))]
    states = [DiagonalState.from_weights(w) for w in weights]
    states.append(passive_rearrangement(s, rng.dirichlet(np.ones(d))))
    return states


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_row_sums_match_reference(data):
    # signed counts, as in the cuts, against finite values and both infinities
    N, d = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
    row = st.lists(st.integers(-N, N), min_size=d, max_size=d)
    table = np.array(data.draw(st.lists(row, min_size=1, max_size=12)), dtype=np.int64)
    value = st.one_of(st.floats(-50.0, 50.0), st.sampled_from([-math.inf, math.inf]))
    values = data.draw(st.lists(value, min_size=d, max_size=d))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _row_sums(table, values)
    want = oracle.log_weights(table.tolist(), values)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite], equal_nan=True)
    # a finite row has zero counts wherever the value is infinite
    scale = np.abs(table[finite]) @ np.abs(np.nan_to_num(values, posinf=0.0, neginf=0.0))
    assert np.all(np.abs(got[finite] - want[finite]) <= 4 * np.spacing(scale))


@pytest.mark.parametrize("N", range(1, 6))
@pytest.mark.parametrize("d", range(2, 9))
def test_scans_and_ergotropy_match_reference(d, N):
    rng = np.random.default_rng(1000 * d + N)
    for s in _spectra(rng, d):
        for rho in _states(rng, s):
            lnp = oracle.slot_log_populations(rho)
            etol = default_energy_tol(s.eps_max, N)
            ref = oracle.scan_passive(s.energies, lnp, N, DEFAULT_LOG_TOL, etol)
            got = is_n_passive(s, rho, N)
            assert got.passive == (ref is None)
            if ref is not None:
                assert (got.witness[0].counts, got.witness[1].counts) == ref
            ref_stable = oracle.scan_stable(s.energies, lnp, N, DEFAULT_STABILITY_TOL, etol)
            assert is_k_structurally_stable(s, rho, N) == ref_stable
            erg = n_ergotropy(s, rho, N)
            exact = oracle.n_ergotropy_exact(s, rho, N)
            assert erg == pytest.approx(exact, rel=0, abs=1e-13 * max(1.0, N * s.eps_max))
            assert (erg <= 1e-10) == (oracle.n_ergotropy(s, rho, N) <= 1e-10)


# gaps inside (0.3e-9, 0.8e-9) and outside (1.2e-9) the order-1 tolerance of
# a short ladder, mixed with generic ones
LADDER_GAP = st.one_of(st.sampled_from([0.3e-9, 0.8e-9, 1.2e-9]), st.floats(0.05, 1.0))


def tie_margin(energies, N):
    """The distance of the order-N tie tolerance from the nearest consecutive
    gap of the reference's sorted row energies (summed left to right)."""
    vectors = oracle.compositions(len(energies), N)
    evals = sorted(sum(c * e for c, e in zip(v, energies)) for v in vectors)
    etol = default_energy_tol(max(energies), N)
    return min((abs(hi - lo - etol) for lo, hi in zip(evals, evals[1:])), default=math.inf)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_near_tie_ladders_follow_the_chained_rule(data):
    d, N = data.draw(st.integers(2, 5)), data.draw(st.integers(1, 4))
    gaps = data.draw(st.lists(LADDER_GAP, min_size=d - 1, max_size=d - 1))
    s = Spectrum.from_levels([(e, 1) for e in itertools.accumulate(gaps, initial=0.0)])
    weights = data.draw(
        st.lists(st.one_of(st.just(0.0), st.floats(0.01, 1.0)), min_size=d, max_size=d)
        .filter(any)
    )
    if data.draw(st.booleans()):
        weights.sort(reverse=True)  # passive at order 1
    rho = DiagonalState.from_weights(weights)

    # each side's row energy lies within d*N*eps_max*2**-53 of the exact sum,
    # so the two sides' gaps agree within 4 times that; a gap closer to the
    # tolerance may be grouped either way by valid roundings of one exact sum
    if tie_margin(s.energies, N) <= 4 * d * N * s.eps_max * 2**-53:
        event("a row-energy gap within rounding of the tie tolerance")
    else:
        lnp, etol = oracle.slot_log_populations(rho), default_energy_tol(s.eps_max, N)
        ref = oracle.scan_passive(s.energies, lnp, N, DEFAULT_LOG_TOL, etol)
        got = is_n_passive(s, rho, N)
        assert got.passive == (ref is None)
        if ref is not None:
            assert (got.witness[0].counts, got.witness[1].counts) == ref
        ref_stable = oracle.scan_stable(s.energies, lnp, N, DEFAULT_STABILITY_TOL, etol)
        assert is_k_structurally_stable(s, rho, N) == ref_stable
        cuts = set(map(tuple, _cuts(s.energies, N).astype(int).tolist()))
        assert cuts == oracle.adjacent_cuts(s.energies, N)

    merged = normalize_spectrum(s.energies)
    assert normalize_spectrum(merged.energies).distinct_levels == merged.distinct_levels
    assert np.all(np.diff(merged.level_energies) > default_energy_tol(merged.eps_max, 1))


@settings(max_examples=200, deadline=None)
@given(
    start=st.floats(-5.0, 5.0),
    gaps=st.lists(LADDER_GAP, min_size=0, max_size=7),
    data=st.data(),
)
def test_normalize_spectrum_takes_the_order_one_tie_groups(start, gaps, data):
    raw = data.draw(st.permutations(list(itertools.accumulate(gaps, initial=start))))
    shifted = [x - min(raw) for x in raw]
    ranks = oracle.tie_ranks(shifted, default_energy_tol(max(shifted), 1))
    groups = [[x for x, r in zip(shifted, ranks) if r == k] for k in range(max(ranks) + 1)]
    # each level is its group's minimum, with the group's size as multiplicity
    want = tuple((min(g), len(g)) for g in groups)
    assert normalize_spectrum(raw).distinct_levels == want


def assert_envelope_exact(args):
    """Both ends of the library's and of the reference loop's interval lie
    within 4 ulp of the correctly rounded exact interval."""
    exact = oracle.prep1_envelope_exact(*args)
    for got in (prep1_envelope(*args), oracle.prep1_envelope(*args)):
        for x, ref in zip(got, exact):
            assert abs(x - ref) <= 4 * math.ulp(ref), (args, got, exact)


def test_envelope_matches_reference_on_random_triples():
    rng = np.random.default_rng(77)
    for _ in range(300):
        eps = np.sort(rng.uniform(-2.0, 5.0, 3))
        lam_c, lam_a = np.sort(rng.uniform(1e-6, 1.0, 2))
        assert_envelope_exact((int(rng.integers(1, 9)), *eps.tolist(), float(lam_a), float(lam_c)))


@pytest.mark.parametrize("ratio", [Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(7, 2)])
def test_envelope_matches_reference_on_commensurate_triples(ratio):
    rng = np.random.default_rng(ratio.numerator * 10 + ratio.denominator)
    for _ in range(25):
        shift, gap = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 3.0)
        eps = (shift, shift + gap, shift + gap * float(ratio))
        lam_c, lam_a = np.sort(rng.uniform(1e-4, 1.0, 2))
        for N in (ratio.numerator, 2 * ratio.numerator, 7):
            assert_envelope_exact((N, *eps, float(lam_a), float(lam_c)))


def _level_state(s, b):
    return DiagonalState.from_levels(s, oracle.log_populations(s.log_multiplicities, np.asarray(b)))


def _level_states(rng, s):
    L = s.num_levels
    for _ in range(40):
        b = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 8.0, L - 1))])
        if rng.random() < 0.5:
            b[1:] = b[1:][rng.permutation(L - 1)]  # often not passive
        yield _level_state(s, b)
    yield _level_state(s, (0.0,) * (L - 1) + (math.inf,))  # an empty top level
    yield _level_state(s, (math.inf,) + (math.log(2.0),) * (L - 1))  # an empty ground level


@pytest.mark.parametrize("N", [1, 2, 3, 5])
@pytest.mark.parametrize(
    "levels",
    [
        [(0, 1), (1, 1), (1.001, 10**3)],
        [(0, 1), (1, 1), (1.001, 10**12)],
        [(0, 2), (0.7, 3), (1.9, 1)],
        [(0, 1), (1, 1), (2, 1)],
        [(0, 1), (0.4, 2), (1.3, 1), (2.2, 5)],
    ],
)
def test_level_passivity_matches_reference(levels, N):
    s = Spectrum.from_levels(levels)
    rng = np.random.default_rng(len(levels) * 100 + N)
    for rho in _level_states(rng, s):
        got = is_n_passive(s, rho, N, tol=oracle.passive_tol(rho.log_populations, N))
        assert got.passive == oracle.verify_level_passive(s, rho, N)


def test_level_passivity_matches_reference_on_scan_candidates():
    s = Spectrum.from_levels([(0, 1), (1, 1), (1.001, 10**6)])
    for beta in (2.0, 20.0, 90.0):
        (row,) = max_alpha_scan(s, 5, [beta])
        for shift in (0.0, 1e-3, -1e-3, 0.05, -0.05):
            b = -np.array(row.state.log_populations) - np.array([0.0, shift, -shift])
            rho = _level_state(s, b)
            got = is_n_passive(s, rho, 5, tol=oracle.passive_tol(rho.log_populations, 5))
            assert got.passive == oracle.verify_level_passive(s, rho, 5)


def assert_refused_small(call, *args, **kwargs):
    """call raises EnumerationCapError at a tracemalloc peak below 16 MB,
    the cap's 2e6 entries in float64: it refuses before building anything."""
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError):
            call(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


class TestCap:
    """Above ``spectra.DEFAULT_CAP`` entries every enumerating entry point refuses."""

    S = normalize_spectrum(np.linspace(0.0, 2.0, 10))
    RHO = gibbs_populations(S, 1.0)

    def test_is_n_passive(self):
        with pytest.raises(EnumerationCapError):
            is_n_passive(self.S, self.RHO, 30)

    def test_is_k_structurally_stable(self):
        with pytest.raises(EnumerationCapError):
            is_k_structurally_stable(self.S, self.RHO, 30)

    def test_n_ergotropy(self):
        with pytest.raises(EnumerationCapError):
            n_ergotropy(self.S, self.RHO, 30)

    def test_sample_n_passive(self):
        with pytest.raises(EnumerationCapError):
            sample_n_passive(self.S, 30, 1, seed=1)

    def test_table_entries(self):
        # rows x columns: 180,300 rows of 600 slots at N = 2 (825 MiB as int64)
        # pass a row cap of 200,000; 666,435 rows of 3 slots fit at N = 1153
        assert_refused_small(occupations, 600, 2)
        assert_refused_small(occupations, 3, 1154)
        assert occupations(3, 1153).shape == (666_435, 3)

    def test_table_build_peak(self):
        # the counts are written from the bar positions into the one table, so
        # the build holds the table and the bars, (2d - 1)/d tables, at most
        occupations.cache_clear()
        tracemalloc.start()
        try:
            table = occupations(3, 1153)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table.nbytes
        # every row of order 1153, in strictly increasing lexicographic order:
        # the whole table of compositions, as oracle.compositions lists it
        assert table.shape == (666_435, 3)
        assert (table >= 0).all() and (table.sum(axis=1) == 1153).all()
        assert (np.diff(table[:, 0] * 1154 + table[:, 1]) > 0).all()

    def test_cut_pairs(self):
        # 43,758 table rows, but 325,740,400 pairs between adjacent tie groups
        assert_refused_small(sample_n_passive, normalize_spectrum([0] * 8 + [1]), 10, 1, seed=1)


class TestTableCache:
    """One cache keyed by (d, N) holds every table under one entry bound."""

    def test_scan_shapes_stay_resident(self):
        # passivity_scan's class counts 2..10 at orders 2..5: 36 tables of
        # 68,196 entries in all, each built once over two passes
        occupations.cache_clear()
        pairs = [(d, N) for d in range(2, 11) for N in range(2, 6)]
        first = [occupations(d, N) for d, N in pairs]
        assert all(occupations(d, N) is t for (d, N), t in zip(pairs, first))
        assert sum(t.size for t in first) < 70_000

    def test_entry_bound(self):
        # 1,999,305 then 2,000,000 entries: the first is evicted, with its
        # derived arrays, and the table just requested stays
        occupations.cache_clear()
        old = spectra._occupation_entry(3, 1153)
        refs = [weakref.ref(a) for a in (old.table, old.floats)]
        del old
        table = occupations(2, 999_999)
        gc.collect()
        assert [r() for r in refs] == [None, None]
        assert sum(e.table.size for e in spectra._TABLES.values()) <= DEFAULT_CAP
        assert occupations(2, 999_999) is table
        occupations.cache_clear()

    @pytest.mark.parametrize("d, N", [(1, 4), (2, 7), (3, 5), (6, 4), (10, 5)])
    def test_derived_arrays(self, d, N):
        entry = spectra._occupation_entry(d, N)
        table = occupations(d, N)
        assert entry.table is table
        assert np.array_equal(entry.floats, table.astype(float))
        assert entry.floats.dtype == np.float64
        want = [math.lgamma(N + 1) - sum(math.lgamma(c + 1) for c in row) for row in table.tolist()]
        assert entry.log_multinomials == pytest.approx(want, rel=0, abs=1e-12 * max(1.0, math.lgamma(N + 1)))
        # a product with the float form has the bits of the int table's own
        v = np.random.default_rng(d * 10 + N).normal(size=d) * 7.3
        assert np.array_equal(entry.floats.dot(v), table.dot(v))
        assert not entry.floats.flags.writeable and not entry.log_multinomials.flags.writeable
        again = spectra._occupation_entry(d, N)
        assert again.floats is entry.floats and again.log_multinomials is entry.log_multinomials


def test_three_levels_at_large_order():
    # reachable since the cap counts entries: C(1002, 2) rows of 3 slots
    s = normalize_spectrum([0, 1, 1.9])
    rho = gibbs_populations(s, 1.0)
    assert is_n_passive(s, rho, 1000).passive
    assert n_ergotropy(s, rho, 1000) <= 1e-10 * 1000
