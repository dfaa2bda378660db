"""Passivity orders, structural stability, ergotropy, and related checks.

The order-N passivity condition is a family of log-linear inequalities over
occupation vectors: whenever one vector carries strictly more energy than
another, its product of populations must not exceed the other's.  All such
comparisons run in log-space through one kernel, ``_row_sums``, which every
reader shares (the verdict, stability, ``n_ergotropy``) and where a zero
count contributes nothing even when the population is zero.
The vectors run over the classes of a state (``spectra._fold``), so a
level of multiplicity 10**12 holding one population costs one column.

One rule decides which energy sums tie, ``spectra._tie_breaks``, which
``normalize_spectrum`` applies at order 1.  ``_energy_groups`` builds its
chained groups and ranks them by energy; a vector is higher than another iff
its group ranks higher.  The verdict, the stability check, the violation
witness and the cuts all read those ranks.  The verdict, the one order-N
decision, holds every pair of vectors to its tol.  It and the stability
check read the table themselves, through one helper for each group's least
and greatest log-weight, ``_group_extrema``.  The sampler reads the
inequalities themselves: the differences of ``_cuts`` between adjacent
groups, which generate the cone of every cut.  On three levels the cone has
a closed form, ``_facets``: two facets, found in O(log N) integer steps with
no table, which ``prep1_envelope`` and ``extremal.max_alpha_scan`` read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .spectra import (
    DiagonalState,
    OccupationVector,
    Spectrum,
    _check_order,
    _check_tol,
    _fold,
    _tie_breaks,
    check_size,
    default_energy_tol,
    occupations,
    state_energy,
)

DEFAULT_LOG_TOL = 1e-12
DEFAULT_STABILITY_TOL = 1e-9
DEFAULT_CP_TOL = 1e-8


@dataclass(frozen=True)
class PassivityVerdict:
    passive: bool
    witness: tuple[OccupationVector, OccupationVector] | None = None

    def __bool__(self) -> bool:
        return self.passive


@dataclass(frozen=True)
class CPClass:
    """Complete-passivity classification: 'Gibbs', 'GroundState', or 'NotCP'."""

    tag: str
    beta: float | None
    fit_residual: float


def _row_sums(table: np.ndarray, values) -> np.ndarray:
    """Per row, the sum of count*value over the columns, as one matrix product.

    A zero count adds nothing, even at an infinite value; any other count, of
    either sign, times +-inf adds the product's infinity (both infinities: NaN).
    """
    v = np.asarray(values, dtype=float)
    if all(map(math.isfinite, values)):
        return table.dot(v)
    finite = np.isfinite(v)
    c = table[:, ~finite]
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, as documented
        inf = np.multiply(c, v[~finite], out=np.zeros(c.shape), where=c != 0).sum(axis=1)
    return table.dot(np.where(finite, v, 0.0)) + inf


@lru_cache(maxsize=16)
def _energy_groups(energies: tuple[float, ...], N: int):
    """The order-N occupation table, its row energies, their stable ascending
    order, the starts (in that order) of the chained tie groups, and each
    row's group rank.

    The groups are those of ``spectra._tie_breaks`` at the largest energy.
    The arrays are read-only and shared, and the last 16 are kept.
    """
    table = occupations(len(energies), N)
    evals = _row_sums(table, energies)
    order = np.argsort(evals, kind="stable")
    new = _tie_breaks(evals[order], max(energies), N)
    starts = np.flatnonzero(new)
    rank = np.empty(len(order), np.int64)
    rank[order] = np.cumsum(new) - 1
    for a in (evals, order, starts, rank):
        a.flags.writeable = False
    return table, evals, order, starts, rank


def _group_extrema(energies, logpops, N):
    """Per tie group of the order-N table, by ascending energy, the least and
    the greatest log-weight of its rows over these classes."""
    table, _, order, starts, _ = _energy_groups(energies, N)
    w = _row_sums(table, logpops)[order]
    return np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)


def _passes_groups(energies, logpops, N, tol) -> bool:
    """The order-N verdict over the energies and log-populations of classes,
    in O(M) with no witness: every group's minimum log-weight must dominate
    the maximum over all strictly higher groups, to within tol."""
    lo, hi = _group_extrema(energies, logpops, N)
    above = np.maximum.accumulate(hi[::-1])[::-1]
    return not np.any(above[1:] > lo[:-1] + tol)


@lru_cache(maxsize=64)
def _cuts(energies: tuple[float, ...], N: int) -> np.ndarray:
    """Generators of the order-N passive cone over these slots, read-only and
    shared: the differences I-J with I in the tie group just above J's.  Any
    other cut I-J, with I some groups above J, is the sum of such differences
    along a chain of one row per group in between, so these rows span every
    cut.  Built in O(M*w) for M rows and next groups of w rows.
    """
    C, _, order, starts, rank = _energy_groups(energies, N)
    size = np.concatenate((starts[1:], [len(order)])) - starts
    # every sorted position j below the top group, against the next group
    up = rank[order[: starts[-1]]] + 1
    lo, width = starts[up], size[up]
    check_size(int(width.sum()), f"pairs of the order-{N} cut set")
    j = np.arange(starts[-1])
    # sorted positions lo .. lo + width - 1 against each j
    i = np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)
    higher, lower = order[i], order[np.repeat(j, width)]
    # each row's digits in balanced base 2N+1 as one key, unique as every
    # entry lies in [-N, N]; Python ints once base**d leaves int64
    powers = [(2 * N + 1) ** k for k in range(C.shape[1] + 1)]
    keys = C @ np.array(powers[:-1], object if powers[-1] > 2**62 else np.int64)
    _, first = np.unique(keys[higher] - keys[lower], return_index=True)
    check_size(len(first) * C.shape[1], f"order-{N} cut set")
    V = (C[higher[first]] - C[lower[first]]).astype(float)
    V.flags.writeable = False
    return V


@lru_cache(maxsize=64)
def _facets(energies: tuple, N: int):
    """The three-level order-N passive cone over the levels (0, eps1, eps2)
    in closed form, in O(log N) integer steps.  Returns its two extreme rays
    (0, q, p) by increasing angle, read-only, and per ray its facet, the cut
    row (d0, d1, d2) of positive energy orthogonal to it.

    A ray (q, p) has cut energy q*eps2 - p*eps1, and it ties r = eps2/eps1
    when that lies within ``default_energy_tol(eps2, N)``.  Every comparison
    is exact, in integers scaled from the ``Fraction`` of each energy (a
    float, or a spectrum's ``rational_levels``) and of the tolerance.
    Without a tie, the rays are the Farey neighbours p/q of r with
    max(p, q) <= N, found by a Stern-Brocot descent in runs from 0/1 and
    1/0; the ray 1/0, (0, 0, 1), is lambda_0 = lambda_1, the upper one when
    r > N.  At a tie p/q on the descent the rays are the order-N neighbours
    of p/q itself, and past a tie at 1/0 (eps1 within the tolerance) the
    upper ray is (0, -1, N - 1): the row orthogonal to a ray (q, p) needs
    order max(|q|, |p|, |p - q|).  This is the cone of ``_cuts`` wherever
    chained ties join no two of these directions.  If every order-N energy
    sum ties, which is eps1 and eps2 - eps1 both within the tolerance, there
    is no cut: ValueError.
    """
    _, e1, e2 = map(Fraction, energies)
    tol = Fraction(default_energy_tol(float(energies[2]), N))
    if max(e1, e2 - e1) <= tol:
        raise ValueError(f"the order-{N} energy sums of the levels {list(map(float, energies))} "
                         f"all tie (energy tol {float(tol):g}): the passive cone has no extreme ray")
    unit = math.lcm(e1.denominator, e2.denominator, tol.denominator)
    a, b, t = (int(x * unit) for x in (e1, e2, tol))

    def cut(v):
        return v[0] * b - v[1] * a

    def step(v, w, j):
        return v[0] + j * w[0], v[1] + j * w[1]

    def reach(v, w):
        """The largest j with v + j*w within order N, for v within it."""
        return min((N - x if y > 0 else N + x) // abs(y)
                   for x, y in zip((*v, v[1] - v[0]), (*w, w[1] - w[0])) if y)

    lo, hi, up = (1, 0), (0, 1), True
    if a <= t:
        lo, hi = (step(v, hi, reach(v, hi)) for v in (lo, (-1, 0)))
    else:
        # each run walks src to the node before the first that ties or
        # crosses r, j = ceil((|cut(src)| - t)/|cut(dst)|), unless order N ends it
        while True:
            src, dst = (lo, hi) if up else (hi, lo)
            j, last = -((t - abs(cut(src))) // abs(cut(dst))), reach(src, dst)
            if j > last:
                src = step(src, dst, last)
                lo, hi = (src, dst) if up else (dst, src)
                break
            x, src = step(src, dst, j), step(src, dst, j - 1)
            if abs(cut(x)) <= t:
                lo, hi = (step(v, x, reach(v, x)) for v in ((src, dst) if up else (dst, src)))
                break
            lo, hi = (src, x) if up else (x, src)
            up = not up
    rays = np.array([[0.0, *lo], [0.0, *hi]])
    rays.flags.writeable = False
    rows = ((lo[1] - lo[0], -lo[1], lo[0]), (hi[0] - hi[1], hi[1], -hi[0]))
    return rays, rows


def is_n_passive(
    s: Spectrum,
    rho: DiagonalState,
    N: int,
    tol: float = DEFAULT_LOG_TOL,
) -> PassivityVerdict:
    """Order-N passivity of rho over its classes, decided in O(M) by
    ``_passes_groups``.  Only a violation walks the table, in O(M^2), for its
    witness.  A class's count goes to its last slot, which makes the witness
    the lexicographically first violating pair of slot vectors."""
    f = _fold(s, rho)
    _check_order(N)
    _check_tol(tol)
    if _passes_groups(f.energies, f.log_populations, N, tol):
        return PassivityVerdict(True)
    table, _, _, _, rank = _energy_groups(f.energies, N)
    lw = _row_sums(table, f.log_populations)
    M = range(len(table))
    hit = next((i, j) for i in M for j in M if rank[i] > rank[j] and lw[i] > lw[j] + tol)
    return PassivityVerdict(False, tuple(OccupationVector(s.d, tuple(
        (f.last[k], c) for k, c in enumerate(table[v].tolist()) if c)) for v in hit))


def is_k_structurally_stable(
    s: Spectrum,
    rho: DiagonalState,
    k: int,
    tol: float = DEFAULT_STABILITY_TOL,
) -> bool:
    """Equal-energy occupation vectors of order k carry equal weights: each tie
    group's log-weights (``_group_extrema``) spread by at most tol."""
    f = _fold(s, rho)
    _check_order(k, "k")
    _check_tol(tol)
    lo, hi = _group_extrema(f.energies, f.log_populations, k)
    full = lo > -math.inf  # log-weights are finite or -inf
    spread = np.subtract(hi, lo, out=np.zeros(len(lo)), where=full)
    # a group of zero populations tied with non-zero ones is unstable too
    return not np.any(full & (spread > tol) | ~full & (hi > -math.inf))


def passive_rearrangement(s: Spectrum, populations) -> DiagonalState:
    """Populations sorted non-increasing against energies sorted non-decreasing."""
    pops = sorted((float(p) for p in populations), reverse=True)
    if len(pops) != s.d:
        raise ValueError("population count must match spectrum dimension")
    return DiagonalState(tuple(pops))


def ergotropy_1(s: Spectrum, populations) -> float:
    """Maximal single-copy work: E(given alignment) - E(passive alignment)."""
    eps = s.energies
    pops = [float(p) for p in populations]
    if len(pops) != s.d:
        raise ValueError("population count must match spectrum dimension")
    e_actual = sum(p * e for p, e in zip(pops, eps))
    e_passive = sum(p * e for p, e in zip(sorted(pops, reverse=True), eps))
    return e_actual - e_passive


def n_ergotropy(s: Spectrum, rho: DiagonalState, N: int) -> float:
    """Work extractable from N copies under joint unitaries, per the whole batch.

    The d^N eigenvalues come in occupation-vector blocks: a row c of the table
    over the classes of rho, of g_k slots each, holds N!/prod(c_k!)*prod(g_k^c_k)
    eigenvalues of weight prod(lambda_k^c_k) at energy c.eps.  The passive
    energy pairs weights (descending) with energies (ascending) eigenvalue by
    eigenvalue, so it is a sum over the segments between the breakpoints of
    the two cumulative multiplicity sequences, each segment lying in one
    weight block and one energy block.
    Multiplicities and their running sums stay in log space, and a segment's
    eigenvalue count is formed only times its weight, so every N the table
    allows gets an answer.
    """
    f = _fold(s, rho)
    _check_order(N)
    table, evals, order, *_ = _energy_groups(f.energies, N)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(N + 1)])
    log_mult = log_fact[N] - log_fact[table].sum(axis=1) + table.dot(np.log(f.counts))
    lweights = _row_sums(table, f.log_populations)
    by_weight = np.argsort(-lweights, kind="stable")
    ends_w = np.logaddexp.accumulate(log_mult[by_weight])
    ends_e = np.logaddexp.accumulate(log_mult[order])
    ends = np.sort(np.concatenate((ends_w, ends_e)))
    # segment k holds exp(ends[k]) * (1 - exp(ends[k-1] - ends[k])) eigenvalues
    share = -np.expm1(np.concatenate(([-math.inf], ends[:-1])) - ends)
    last = len(table) - 1
    w_blk = by_weight[np.minimum(np.searchsorted(ends_w, ends), last)]
    e_blk = order[np.minimum(np.searchsorted(ends_e, ends), last)]
    e_passive = float(share * np.exp(ends + lweights[w_blk]) @ evals[e_blk])
    return N * state_energy(s, rho) - e_passive


def classify_complete_passivity(
    s: Spectrum, rho: DiagonalState, tol: float = DEFAULT_CP_TOL
) -> CPClass:
    """Decide whether rho is thermal, ground-supported, or neither.

    Fits -ln(lambda) = beta*eps + ln(Z) by least squares over the support, a
    class's row weighted by sqrt(slot count), and accepts the thermal tag only
    for full support, non-negative beta, and a max residual within tol.
    """
    f = _fold(s, rho)
    _check_tol(tol)
    lnp = np.array(f.log_populations)
    eps = np.array(f.energies)
    if np.all((lnp == -math.inf) | (eps == 0)):
        return CPClass(tag="GroundState", beta=None, fit_residual=0.0)
    if np.any(lnp == -math.inf):
        return CPClass(tag="NotCP", beta=None, fit_residual=math.inf)
    A = np.column_stack([eps, np.ones_like(eps)])
    w = np.sqrt(f.counts)
    (beta, logZ), *_ = np.linalg.lstsq(A * w[:, None], -lnp * w, rcond=None)
    residual = float(np.max(np.abs(A @ np.array([beta, logZ]) + lnp)))
    if residual <= tol and beta >= -1e-12:
        return CPClass(tag="Gibbs", beta=max(float(beta), 0.0), fit_residual=residual)
    return CPClass(tag="NotCP", beta=float(beta), fit_residual=residual)


def prep1_envelope(
    N: int,
    eps_a: float,
    eps_b: float,
    eps_c: float,
    lam_a: float,
    lam_c: float,
) -> tuple[float, float]:
    """Exact feasible interval for the middle population of an order-N
    passive triple.

    Given outer populations lam_a (low energy) and lam_c (high energy),
    every occupation-vector comparison among the three levels at order N
    yields a geometric inequality on the middle population; the returned
    interval is the intersection of all of them.  Only the two facet rows of
    ``_facets`` are evaluated, at any N and with no table; every other cut
    is a non-negative sum of them, and a ratio bound does not depend on a
    row's scale, so in exact arithmetic the interval is the brute-force one,
    and in floats each end lies a few ulp from it.  N must be an integer
    >= 1.
    """
    if not (eps_a < eps_b < eps_c):
        raise ValueError("need eps_a < eps_b < eps_c")
    if not (lam_a >= lam_c > 0):
        raise ValueError("need lam_a >= lam_c > 0")
    _check_order(N)
    la, lc = math.log(lam_a), math.log(lam_c)
    # the facets of the shifted triple, so the comparison is translation
    # invariant; a cut (da, db, dc) demands db*ln(lam_b) <= -da*la - dc*lc
    lo, hi = -math.inf, math.inf
    for da, db, dc in _facets((0.0, eps_b - eps_a, eps_c - eps_a), N)[1]:
        if db > 0:
            hi = min(hi, (-da * la - dc * lc) / db)
        elif db < 0:
            lo = max(lo, (-da * la - dc * lc) / db)
    return math.exp(lo), math.exp(hi)
