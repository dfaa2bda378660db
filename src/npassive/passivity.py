"""Passivity orders, structural stability, ergotropy, and related checks.

The order-N passivity condition is a family of log-linear inequalities over
occupation vectors: whenever one vector carries strictly more energy than
another, its product of populations must not exceed the other's.  All such
comparisons run in log-space with the convention that a zero count
contributes nothing even when the population is zero.

Two rules decide which energy sums tie.  The passivity verdict and the
stability check use chained groups from ``_energy_groups``: sorted sums whose
consecutive gaps are all within the energy tolerance form one group, so a
chain of small gaps can tie sums further apart than the tolerance.  The
violation witness and the cuts use the pairwise rule: e_i is higher than e_j
iff e_i > e_j + etol.  ``verify_level_passive``, ``prep1_envelope`` and
``max_alpha_scan`` read every cut, ``_cuts``; the sampler reads the
energy-adjacent cuts that generate the same cone, ``_adjacent_cuts``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spectra import (
    DiagonalState,
    OccupationVector,
    Spectrum,
    _check_aligned,
    occupations,
    state_energy,
)

DEFAULT_LOG_TOL = 1e-12
DEFAULT_STABILITY_TOL = 1e-9
DOUBLY_STOCHASTIC_TOL = 1e-10


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


def default_energy_tol(eps_max: float, N: int) -> float:
    """Energy sums within this tolerance are treated as ties, not ordered."""
    return 1e-9 * max(1.0, eps_max * N)


def _row_sums(table: np.ndarray, values) -> np.ndarray:
    """Per row, sum of count*value over the columns, added left to right.

    A zero count contributes nothing, even where the value is -inf.
    """
    out = np.zeros(len(table))
    for col, v in zip(table.T, values):
        if math.isfinite(v):
            # a zero count adds +-0.0, which leaves a sum begun at +0.0 as it is
            out += col * v
        else:
            out += np.multiply(col, v, out=np.zeros(len(col)), where=col > 0)
    return out


@lru_cache(maxsize=8)
def _energy_groups(energies: tuple[float, ...], N: int, energy_tol: float):
    """The order-N occupation table, its row energies, their stable ascending
    order, and the starts (in that order) of the chained tie groups.

    A new group starts wherever consecutive sorted energies differ by more
    than ``energy_tol``.  The passivity verdict and the stability check read
    these groups; the witness search and the cuts compare pairs instead.
    The arrays are read-only and shared.
    """
    table = occupations(len(energies), N)
    evals = _row_sums(table, energies)
    order = np.argsort(evals, kind="stable")
    starts = np.flatnonzero(np.diff(evals[order], prepend=-math.inf) > energy_tol)
    for a in (evals, order, starts):
        a.flags.writeable = False
    return table, evals, order, starts


def _scan_passive(energies, logpops, N, tol, energy_tol):
    """Core order-N scan over arbitrary slot arrays.

    Returns None if passive, else the lexicographically first violating
    (higher-energy, lower-energy) pair of raw count tuples.
    """
    table, evals, order, starts = _energy_groups(energies, N, energy_tol)
    lweights = _row_sums(table, logpops)
    w = lweights[order]
    # every group's minimum log-weight must dominate the maximum over all
    # strictly higher groups
    above = np.maximum.accumulate(np.maximum.reduceat(w, starts)[::-1])[::-1]
    if not np.any(above[1:] > np.minimum.reduceat(w, starts)[:-1] + tol):
        return None
    for i in range(len(table)):
        for j in range(len(table)):
            if evals[i] > evals[j] + energy_tol and lweights[i] > lweights[j] + tol:
                return tuple(table[i].tolist()), tuple(table[j].tolist())
    return None  # unreachable unless tie-chaining absorbed the gap


def _scan_stable(energies, logpops, k, tol, energy_tol):
    """True iff equal-energy order-k occupation pairs carry equal log-weights."""
    table, _, order, starts = _energy_groups(energies, k, energy_tol)
    w = _row_sums(table, logpops)[order]
    lo, hi = np.minimum.reduceat(w, starts), np.maximum.reduceat(w, starts)
    full = lo > -math.inf  # log-weights are finite or -inf
    spread = np.subtract(hi, lo, out=np.zeros(len(starts)), where=full)
    # a group of zero populations tied with non-zero ones is unstable too
    return not np.any(full & (spread > tol) | ~full & (hi > -math.inf))


def _keys(C, N):
    """Each row's digits in base 2N+1 as one key; Python ints once base**d leaves int64."""
    powers = [(2 * N + 1) ** k for k in range(C.shape[1] + 1)]
    return C @ np.array(powers[:-1], object if powers[-1] > 2**62 else np.int64)


def _difference_vectors(energies, N):
    """Deduplicated occupation differences I-J with strictly larger energy on I,
    in the order a scan over the pairs (I, J), I outer, first meets them.

    Pairs are formed a block of I at a time; a difference is keyed by its
    digits in the balanced base 2N+1, unique as every entry lies in [-N, N].
    """
    d = len(energies)
    etol = default_energy_tol(max(energies), N)
    # the row energies _scan_passive sees, so both see the same ties
    C, evals, _, _ = _energy_groups(tuple(energies), N, etol)
    base = 2 * N + 1
    keys = _keys(C, N)
    seen = np.array([base**d], keys.dtype)  # sorted, with a sentinel above every key
    rows = []
    block = max(1, 8192 // len(C))
    for start in range(0, len(C), block):
        i, j = np.nonzero(evals[start:start + block, None] > evals + etol)
        i += start
        uniq, first = np.unique(keys[i] - keys[j], return_index=True)
        new = seen[np.searchsorted(seen, uniq)] != uniq
        first = np.sort(first[new])
        rows.append(C[i[first]] - C[j[first]])
        seen = np.sort(np.concatenate([seen, uniq[new]]))
    return np.concatenate(rows).astype(float)


@lru_cache(maxsize=8)
def _cuts(energies: tuple[float, ...], N: int) -> np.ndarray:
    """The rows of ``_difference_vectors(energies, N)``, read-only and shared.

    A state with log-populations lnp is order-N passive over these slots
    iff v . lnp <= tol for every row v.
    """
    V = _difference_vectors(energies, N)
    V.flags.writeable = False
    return V


@lru_cache(maxsize=64)
def _adjacent_cuts(energies: tuple[float, ...], N: int) -> np.ndarray:
    """Generators of the cone of ``_cuts(energies, N)``, read-only and shared: the
    differences I-J with e_I in (e_J + etol, e_K + etol], e_K the least row energy
    above e_J + etol.  Any other cut I-J is the sum of the cuts I-K and K-J, each
    with a smaller gap, so by induction these rows span the same cone."""
    etol = default_energy_tol(max(energies), N)
    C, evals, order, _ = _energy_groups(energies, N, etol)
    e = evals[order]
    j = np.flatnonzero(e[-1] > e + etol)
    lo = np.searchsorted(e, e[j] + etol, side="right")
    width = np.searchsorted(e, e[lo] + etol, side="right") - lo
    # sorted positions lo .. lo + width - 1 against each j
    i = np.arange(width.sum()) + np.repeat(lo - np.cumsum(width) + width, width)
    higher, lower = order[i], order[np.repeat(j, width)]
    keys = _keys(C, N)
    _, first = np.unique(keys[higher] - keys[lower], return_index=True)
    V = (C[higher[first]] - C[lower[first]]).astype(float)
    V.flags.writeable = False
    return V


def is_passive_1(s: Spectrum, rho: DiagonalState, tol: float = 1e-12) -> PassivityVerdict:
    """Order-1 passivity: no population inversion across distinct energies."""
    _check_aligned(s, rho)
    eps = s.energies
    pops = rho.populations
    etol = default_energy_tol(s.eps_max, 1)
    for i in range(s.d):
        for j in range(s.d):
            if eps[i] > eps[j] + etol and pops[i] > pops[j] + tol:
                unit_i = tuple(1 if k == i else 0 for k in range(s.d))
                unit_j = tuple(1 if k == j else 0 for k in range(s.d))
                return PassivityVerdict(
                    False, (OccupationVector(unit_i), OccupationVector(unit_j))
                )
    return PassivityVerdict(True)


def is_n_passive(
    s: Spectrum,
    rho: DiagonalState,
    N: int,
    tol: float = DEFAULT_LOG_TOL,
) -> PassivityVerdict:
    """Order-N passivity of rho via exhaustive occupation-pair comparison."""
    _check_aligned(s, rho)
    if N < 1:
        raise ValueError("N must be >= 1")
    hit = _scan_passive(
        s.energies,
        rho.ln_populations,
        N,
        tol,
        default_energy_tol(s.eps_max, N),
    )
    if hit is None:
        return PassivityVerdict(True)
    return PassivityVerdict(
        False, (OccupationVector(hit[0]), OccupationVector(hit[1]))
    )


def is_k_structurally_stable(
    s: Spectrum,
    rho: DiagonalState,
    k: int,
    tol: float = DEFAULT_STABILITY_TOL,
) -> bool:
    """Equal-energy occupation vectors of order k carry equal weights."""
    _check_aligned(s, rho)
    if k < 1:
        raise ValueError("k must be >= 1")
    return _scan_stable(
        s.energies,
        rho.ln_populations,
        k,
        tol,
        default_energy_tol(s.eps_max, k),
    )


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


def ergotropy_general(populations, energies, overlap) -> float:
    """Work gain of a state with given eigenbasis overlap against H's basis.

    ``overlap[j][j']`` = |<j-th state eigenvector | j'-th energy eigenvector>|^2,
    a doubly stochastic matrix; identity recovers the diagonal case.
    """
    pops = np.asarray(populations, dtype=float)
    eps = np.asarray(energies, dtype=float)
    P = np.asarray(overlap, dtype=float)
    if P.shape != (len(pops), len(eps)):
        raise ValueError("overlap matrix shape must match populations x energies")
    if (
        np.max(np.abs(P.sum(axis=0) - 1)) > DOUBLY_STOCHASTIC_TOL
        or np.max(np.abs(P.sum(axis=1) - 1)) > DOUBLY_STOCHASTIC_TOL
        or np.min(P) < -DOUBLY_STOCHASTIC_TOL
    ):
        raise ValueError("overlap matrix is not doubly stochastic")
    e_actual = float(pops @ P @ eps)
    e_passive = float(np.dot(np.sort(pops)[::-1], np.sort(eps)))
    return e_actual - e_passive


def n_ergotropy(s: Spectrum, rho: DiagonalState, N: int) -> float:
    """Work extractable from N copies under joint unitaries, per the whole batch.

    Works block-wise over occupation vectors with multinomial multiplicities,
    pairing weight blocks (descending) against energy blocks (ascending) by
    cumulative eigenvalue count, so the d^N tensor power is never expanded.
    """
    _check_aligned(s, rho)
    if N < 1:
        raise ValueError("N must be >= 1")
    table, evals, order, _ = _energy_groups(s.energies, N, default_energy_tol(s.eps_max, N))
    pops = rho.populations
    blocks = []
    for vec, e in zip(table.tolist(), evals.tolist()):
        mult = math.factorial(N)
        for c in vec:
            mult //= math.factorial(c)
        w = 1.0
        for c, p in zip(vec, pops):
            if c:
                w *= p**c
        blocks.append((w, e, mult))

    by_weight = sorted(blocks, key=lambda t: -t[0])
    by_energy = [blocks[k] for k in order.tolist()]
    e_passive = 0.0
    j = 0
    remaining = by_energy[0][2]
    for w, _, mult in by_weight:
        need = mult
        while need:
            take = min(need, remaining)
            try:
                e_passive += take * w * by_energy[j][1]
            except OverflowError:
                raise ValueError(f"N = {N}: block multiplicities overflow a float") from None
            need -= take
            remaining -= take
            if remaining == 0 and j + 1 < len(by_energy):
                j += 1
                remaining = by_energy[j][2]
    e_actual = N * state_energy(s, rho)
    return e_actual - e_passive


def classify_complete_passivity(
    s: Spectrum, rho: DiagonalState, tol: float = 1e-8
) -> CPClass:
    """Decide whether rho is thermal, ground-supported, or neither.

    Fits -ln(lambda) = beta*eps + ln(Z) by least squares over the support and
    accepts the thermal tag only for full support, non-negative beta, and a
    max residual within tol.
    """
    _check_aligned(s, rho)
    pops = rho.populations
    eps = np.asarray(s.energies)
    support = [j for j, p in enumerate(pops) if p > 0]
    ground_cut = s.d0
    if all(j < ground_cut for j in support):
        return CPClass(tag="GroundState", beta=None, fit_residual=0.0)
    if len(support) < s.d:
        return CPClass(tag="NotCP", beta=None, fit_residual=math.inf)
    b = np.array([-math.log(p) for p in pops])
    if s.eps_max == 0:
        # single-level spectrum: every state is ground-supported
        return CPClass(tag="GroundState", beta=None, fit_residual=0.0)
    A = np.column_stack([eps, np.ones_like(eps)])
    (beta, logZ), *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ np.array([beta, logZ]) - b)))
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
    interval is the intersection of all of them, so it matches brute-force
    order-N passivity checks exactly.
    """
    if not (eps_a < eps_b < eps_c):
        raise ValueError("need eps_a < eps_b < eps_c")
    if not (lam_a >= lam_c > 0):
        raise ValueError("need lam_a >= lam_c > 0")
    if N < 1:
        raise ValueError("N must be >= 1")
    la, lc = math.log(lam_a), math.log(lam_c)
    # cuts of the shifted triple, so the comparison is translation invariant;
    # a cut (da, db, dc) demands db*ln(lam_b) <= -da*la - dc*lc
    V = _cuts((0.0, eps_b - eps_a, eps_c - eps_a), N)
    coeff = V[:, 1]
    rhs = -V[:, 0] * la - V[:, 2] * lc
    up, down = coeff > 0, coeff < 0
    hi = np.min(rhs[up] / coeff[up], initial=math.inf)
    lo = np.max(rhs[down] / coeff[down], initial=-math.inf)
    return math.exp(lo), math.exp(hi)
