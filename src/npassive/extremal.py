"""Sampling the order-N passive set, energy-ratio maximization, and the
three-level saturation construction.

The states built here are order-1 stable, one block per level
(``DiagonalState.from_levels``), so astronomically degenerate levels cost
nothing extra, and ``gibbs._thermal_functionals`` normalizes each.  The
energy ratio is maximized on the three-level passive cone's extreme rays,
which the maximizer reads straight from the cone's closed form,
``passivity._facets``, so no order-N table is built at any N, and every
candidate lies on the cone by construction.  A saturation state is a row of
that maximizer: the first, on a ladder of three-level spectra up to beta =
``BETA_INF_FACTOR``, whose ratio reaches the requested share of the ceiling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundViolationError, alpha_max, exponential_factor, spectral_ratio
from .gibbs import (BETA_INF_FACTOR, ENTROPY_TOL, _isentrope_root, _isentropic_point,
                    _thermal_functionals, gibbs_populations)
from .passivity import _cuts, _facets
from .spectra import DiagonalState, Spectrum, _check_order, _energy

DEFAULT_B_MAX = 30.0
# saturation_construct's relative offset of r from N/(m+1)
DELTA_R = 1e-3


@dataclass(frozen=True)
class AlphaScanRow:
    beta_rho: float
    alpha: float
    state: DiagonalState


@dataclass(frozen=True)
class SaturationResult:
    state: DiagonalState
    spectrum: Spectrum
    alpha_measured: float
    alpha_max: float
    beta_rho: float


class InfeasibleSaturationError(RuntimeError):
    """The construction cannot reach the requested fraction of the ceiling."""


def _gap_limit(q: list, mults: list[int]) -> float:
    """The entropy gap S - ln g0 that the level state b = t*q tends to as
    t -> inf: that of the uniform state on the levels holding q's least
    entry, ln(sum of their multiplicities) - ln g0.  It is log1p of a ratio
    of integers, rounded once, so a gap far below 1 keeps its digits."""
    low, g0 = min(q), mults[0]
    return math.log1p((sum(g for g, x in zip(mults, q) if x == low) - g0) / g0)


def sample_n_passive(
    s: Spectrum,
    N: int,
    count: int,
    seed: int,
    stable: bool = False,
    b_max: float = DEFAULT_B_MAX,
    burn_in: int = 200,
    thin: int = 10,
) -> list[DiagonalState]:
    """Hit-and-run sampler over log-populations inside the order-N passive cone.

    Coordinates are b_j = -ln(population) up to a common shift; slot 0 is
    gauge-fixed to b=0.  With ``stable`` the walk runs over one coordinate per
    distinct level, so every sample is order-1 structurally stable.

    A step draws a Gaussian u and moves to a uniform point x + t u of the chord
    in G x + h >= 0 (the generators ``_cuts`` and the box), which is
    -1/max(w) < t < -1/min(w) for w = G u / (G x + h), then clips x to the box.
    The walk takes ``burn_in`` steps, then keeps every ``thin``-th point.
    A step allocates nothing: the product and the ratio go to fixed buffers,
    and the chord ends, the step and the clip are Python floats, as on a few
    coordinates numpy's per-call cost would outweigh its arithmetic.
    """
    if s.num_levels < 2:
        raise ValueError("single-level spectra have no passivity structure to sample")
    _check_order(N)
    if count < 1:
        raise ValueError("count must be >= 1")
    if thin < 1:
        raise ValueError("thin must be >= 1")
    if burn_in < 0:
        raise ValueError("burn_in must be >= 0")
    if not (0 < b_max < math.inf):
        raise ValueError("b_max must be finite and > 0")
    energies = tuple(s.level_energies.tolist()) if stable else s.energies
    V = _cuts(energies, N)
    eps_free = np.array(energies[1:])
    n_free = len(eps_free)
    # lower box bound: ground-level slots may out-populate slot 0, others not
    lower = np.where(eps_free > 0, 0.0, -b_max)
    upper = np.full(n_free, b_max)
    # the passivity cuts V[:, 1:] @ x >= 0 and the box, as one system G x + h >= 0,
    # stored as (G | h) transposed
    GhT = np.block([[V[:, 1:].T, np.eye(n_free), -np.eye(n_free)],
                    [np.zeros(len(V)), -lower, upper]])

    rng = np.random.default_rng(seed)
    # rows (x, 1) and (u, 0); x starts at a thermal point, strictly inside the cone
    xu = np.array([[*(b_max / (2.0 * s.eps_max) * eps_free), 1.0], [0.0] * (n_free + 1)])
    xrow, u = xu[0, :-1], xu[1, :-1]
    x, box = xrow.tolist(), list(zip(lower.tolist(), upper.tolist()))
    # the product (G x + h, G u) and the ratio w, written in place each step
    r_gu = np.empty((2, GhT.shape[1]))
    gx, gu = r_gu
    w = np.empty(GhT.shape[1])
    kept = np.zeros((count, n_free + 1))  # rows b, slot 0 gauge-fixed
    # bound once: their lookups are a measurable share of a step
    normal, uniform, dot, divide = rng.standard_normal, rng.random, np.dot, np.divide
    wmax, wmin = np.maximum.reduce, np.minimum.reduce
    # a row with G x + h = 0 gives w = +-inf, which puts that chord end at t = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(burn_in + count * thin):
            normal(out=u)
            dot(xu, GhT, out=r_gu)
            divide(gu, gx, out=w)
            # the box rows give w both signs, so t_lo <= 0 <= t_hi, and for
            # u != 0 neither max(w) nor min(w) is 0
            t_lo = -1.0 / float(wmax(w))
            t_hi = -1.0 / float(wmin(w))
            if t_hi > t_lo:
                # numpy's own uniform(t_lo, t_hi), without its argument handling
                t = t_lo + (t_hi - t_lo) * uniform()
                # np.clip's result: a bound replaces x unless x is strictly inside it
                x = [lo if (v := xk + t * uk) <= lo else hi if v >= hi else v
                     for (lo, hi), xk, uk in zip(box, x, u.tolist())]
                xrow[:] = x
            if step >= burn_in and (step - burn_in) % thin == thin - 1:
                kept[(step - burn_in) // thin, 1:] = x
    if stable:
        logg = s.log_multiplicities
        return [DiagonalState.from_levels(s, np.subtract(_thermal_functionals(b, logg, 1.0)[4], logg[0]))
                for b in kept]
    return [DiagonalState(tuple(w / np.sum(w))) for w in np.exp(-kept)]


def max_alpha_scan(s: Spectrum, N: int, beta_grid, resolution: int = 200) -> list[AlphaScanRow]:
    """Maximize E over order-1 stable, order-N passive states at fixed entropy,
    exactly, on at most three distinct levels; ``resolution`` is ignored.

    With b0 = 0, the only interior critical points of E on an isentrope are
    Gibbs states, E's minimum there, so the maximum lies where it meets an
    extreme ray of the cone (``passivity._facets``, the Farey neighbours p/q
    of eps2/eps1 with max(p, q) <= N), which reads no table, so any N
    costs the same.  The entropy falls along a ray, towards
    ``_gap_limit``, the gap of the uniform state on the levels that hold the
    ray's least entry, so a ray crosses only if that limit is below the
    target, and then once; ``gibbs._isentrope_root``, the Gibbs inversion's
    own Newton, solves each such ray from the size of the projection of
    beta*eps, to 1e-13 of the target's distance from the nearer end of
    [ln d0, ln d], up to the cap b = 2000 on the top level (on level 1 for
    the rays (0, +-1, 0) of ties at order 1).  Its candidate is the state
    that the root's functionals normalized; a root past the cap (t = inf)
    gives none.  A target at ln d or above (beta -> 0) leaves only the
    uniform state, the Gibbs one, and no ray is solved.  If the ray
    lambda_0 = lambda_1 gives no candidate, the isentrope leaves through
    lambda_2 -> 0, and that limit, the lower two levels at the target gap
    and lambda_2 = 0, is its candidate.  Every candidate lies on the cone,
    so none is checked: b = t*q is orthogonal to q's facet row, up to a
    rounding of about N ulp of the largest |ln lambda|, and strictly inside
    the other facet, whose row meets q in an integer >= 1; the limit meets
    +inf only on positive facet entries.  The first candidate of the
    greatest energy, if that exceeds E_beta, is built and returned, else
    the Gibbs state, built only then.  The rays, their caps and their limit gaps are set up once
    per call from the levels and multiplicities, with no state built,
    so each beta pays only for its own solves; a spectrum's
    ``rational_levels``, when it has them, place the rays exactly.  One
    level has no ray, and N must be an integer >= 1: ValueError.  A ratio
    above min(``alpha_max``, ``exponential_factor``) by more than 1e-9
    relative would falsify the theorem: ``BoundViolationError``.
    """
    if s.num_levels < 2:
        raise ValueError(f"the ray maximizer needs two or three distinct levels, not {s.num_levels}")
    if s.num_levels > 3:
        raise NotImplementedError("the ray maximizer supports at most three distinct levels")
    _check_order(N)
    rows: list[AlphaScanRow] = []
    eps, logg = s.level_energies, s.log_multiplicities
    R = spectral_ratio(s)
    if s.num_levels == 3:
        rays = _facets(tuple(e for e, _ in s.rational_levels or s.distinct_levels), N)[0]
        span = math.log(s.d) - float(logg[0])
        # the rays (0, +-1, 0) of ties at order 1 need a finite cap, or the
        # bracket cannot halve, and their root lies at t > 0 even where the
        # ray points away from beta*eps
        hi = [2000.0 / (p or abs(q)) for _, q, p in rays.tolist()]
        start = (np.abs(rays @ eps) / np.add.reduce(rays * rays, axis=-1)).tolist()
        mults = [g for _, g in s.distinct_levels]
        gap_inf = [_gap_limit(q, mults) for q in rays.tolist()]
    for beta in map(float, beta_grid):
        _, E_beta, gap, _, _ = _thermal_functionals(eps, logg, beta)
        if not (beta >= 0 and E_beta > 0):
            raise ValueError("scan needs beta >= 0 with positive thermal energy")
        alpha, rho = 1.0, None
        if s.num_levels == 3 and gap < span:
            roots = [_isentrope_root(rays[k], logg, gap, span, min(beta * start[k], 0.5 * hi[k]),
                                     hi[k], 1e-13) if gap > gap_inf[k] else (math.inf, None)
                     for k in (0, 1)]
            lnp = [f[4] for t, f in roots if t < math.inf]
            if rays[1, 1] == 0 and roots[1][0] == math.inf:
                b1 = _isentropic_point(Spectrum(s.distinct_levels[:2]), gap, ENTROPY_TOL).beta
                lnp.append(_thermal_functionals(eps[:2], logg[:2], b1)[4] + [-math.inf])
            lnp = np.subtract(lnp, logg[0]).reshape(-1, 3)
            E = _energy(eps, np.exp(logg + lnp))
            if len(E) and E.max() > E_beta:
                k = np.argmax(E)
                alpha, rho = float(E[k]) / E_beta, DiagonalState.from_levels(s, lnp[k])
        ceiling = min(alpha_max(N, R), exponential_factor(beta, s.eps_max, R, N))
        if alpha > ceiling * (1.0 + 1e-9):
            raise BoundViolationError(f"alpha {alpha} at beta {beta} exceeds its ceiling {ceiling}")
        rows.append(AlphaScanRow(beta_rho=beta, alpha=alpha,
                                 state=rho if rho is not None else gibbs_populations(s, beta)))
    return rows


def saturation_construct(N: int, m: int, alpha_target_frac: float) -> SaturationResult:
    """The first ``max_alpha_scan`` row, on three-level spectra of growing
    inverse temperature, whose energy ratio reaches ``alpha_target_frac``
    times the ceiling N/(N-r).

    Spectrum: levels (0, 1, r) with degeneracies (1, 1, g2) and r chosen so
    the inverse gap ratio 1/r falls in (m/N, (m+1)/N].  Each rung of the
    ladder beta = min(30*max(1, (N/r)*ln(r*alpha_max)), ``BETA_INF_FACTOR``),
    times 1.5 per rung, sets ln g2 = beta*(r - 1/alpha_t) - ln(r*alpha_t), so
    that a cold state can park weight on the top level while keeping the
    first excited population large, and takes the scan's one row at that
    beta: its state, on the passive cone by construction, and its ratio,
    checked against the ceiling (else ``BoundViolationError``).  The ladder
    stops past beta = ``BETA_INF_FACTOR``, where the thermal energy
    underflows on eps_1 = 1; then ``InfeasibleSaturationError`` names the
    best ratio found.
    """
    _check_order(N)
    if not (1 <= m < N):
        raise ValueError("need 1 <= m < N")
    if not (0 <= alpha_target_frac <= 1):
        raise ValueError("alpha_target_frac must lie in [0, 1]")
    # the offset stays below 1/m, else r leaves the window once m >= 1000
    r = (N / (m + 1)) * (1.0 + min(DELTA_R, 0.5 / m))
    if not ((m + 1) / N >= 1.0 / r > m / N):
        raise InfeasibleSaturationError("gap ratio 1/r escaped (m/N, (m+1)/N]")
    a_max = alpha_max(N, r)
    a_sup = N / (m * r)
    # the ratio that g2 is tuned for
    alpha_t = max(1.02, min(0.98 * a_sup, 0.5 * (alpha_target_frac * a_max + a_sup)))
    beta = min(30.0 * max(1.0, (N / r) * math.log(r * a_max)), BETA_INF_FACTOR)
    best = 1.0  # the Gibbs state's ratio
    while beta <= BETA_INF_FACTOR:
        lng2 = beta * (r - 1.0 / alpha_t) - math.log(r * alpha_t)
        if lng2 >= math.log(2.0):
            spectrum = Spectrum(((0.0, 1), (1.0, 1), (r, round(math.exp(min(lng2, 700.0))))))
            (row,) = max_alpha_scan(spectrum, N, [beta])
            if row.alpha >= alpha_target_frac * a_max:
                return SaturationResult(state=row.state, spectrum=spectrum,
                                        alpha_measured=row.alpha, alpha_max=a_max,
                                        beta_rho=beta)
            best = max(best, row.alpha)
        beta *= 1.5
    raise InfeasibleSaturationError(
        f"did not reach {alpha_target_frac}*alpha_max = {alpha_target_frac * a_max:.6g} "
        f"by beta = {BETA_INF_FACTOR:g}; best ratio {best:.6g}"
    )
