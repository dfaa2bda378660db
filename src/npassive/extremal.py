"""Sampling the order-N passive set, energy-ratio maximization, and the
three-level saturation construction.

The states built here are order-1 stable, one block per level
(``DiagonalState.from_levels``), so astronomically degenerate levels cost
nothing extra.  A built state is accepted by the one order-N verdict of
``passivity.is_n_passive``, at the tolerance ``_passive_tol``, read without
its witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundViolationError, alpha_max
from .gibbs import _log_populations, gibbs_point, isentropic_point
from .passivity import _cuts, _passes_groups
from .spectra import (DiagonalState, Spectrum, _energy, _entropy, _fold, check_size,
                      state_energy, state_entropy)

DEFAULT_B_MAX = 30.0
# saturation_construct's relative offset of r from N/(m+1), and its tries
DELTA_R = 1e-3
MAX_ATTEMPTS = 14


@dataclass(frozen=True)
class AlphaScanRow:
    beta_rho: float
    alpha: float
    state: DiagonalState


@dataclass(frozen=True)
class SaturationParams:
    N: int
    m: int
    r: float
    beta_eps1: float
    g1: int
    g2: int
    xi: float


@dataclass(frozen=True)
class SaturationResult:
    params: SaturationParams
    state: DiagonalState
    spectrum: Spectrum
    alpha_pred: float
    alpha_measured: float
    alpha_max: float
    beta_rho: float


class InfeasibleSaturationError(RuntimeError):
    """The requested saturation fraction is outside the parameter window."""


def _passive_tol(rho: DiagonalState, N: int) -> float:
    """1e-8*N*max(1, largest finite |ln(lambda)|): the log-weight tolerance
    that absorbs the rounding of a state built on the passive cone's boundary."""
    return 1e-8 * N * max(1.0, max(abs(x) for x in rho.log_populations if math.isfinite(x)))


def _accepts(s: Spectrum, rho: DiagonalState, N: int) -> bool:
    """The verdict of ``is_n_passive`` on a built state at ``_passive_tol``,
    without the witness that a rejection would pay for."""
    f = _fold(s, rho)
    return _passes_groups(f.energies, f.log_populations, N, _passive_tol(rho, N))


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
    """
    if s.num_levels < 2:
        raise ValueError("single-level spectra have no passivity structure to sample")
    if count < 1:
        raise ValueError("count must be >= 1")
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
    x, u = xu[0, :-1], xu[1, :-1]
    kept = []
    # a row with G x + h = 0 gives w = +-inf, which puts that chord end at t = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for step in range(burn_in + count * thin):
            rng.standard_normal(out=u)
            r_gu = np.dot(xu, GhT)
            w = r_gu[1] / r_gu[0]
            # the box rows give w both signs, so t_lo <= 0 <= t_hi
            t_lo = -1.0 / np.maximum.reduce(w)
            t_hi = -1.0 / np.minimum.reduce(w)
            if t_hi > t_lo:
                # numpy's own uniform(t_lo, t_hi), without its argument handling
                t = t_lo + (t_hi - t_lo) * rng.random()
                # np.clip's result: a bound replaces x unless x is strictly inside it
                np.minimum(upper, np.maximum(lower, x + t * u), out=x)
            if step >= burn_in and (step - burn_in) % thin == thin - 1:
                kept.append(np.concatenate([[0.0], x]))  # b, slot 0 gauge-fixed
    if stable:
        return [DiagonalState.from_levels(s, _log_populations(s.log_multiplicities, b)) for b in kept]
    return [DiagonalState(tuple(w / np.sum(w))) for w in np.exp(-np.array(kept))]


def _entropy_on_chord(s: Spectrum, p, q, t):
    """Entropies and log-populations of the level states on the lines
    b = p + t*q.

    ``p`` and ``q`` hold the levels along their last axis; ``t`` broadcasts
    against their other axes.  A large batch should hold its levels
    outermost in memory: b is built level-major, numpy gives each ufunc
    result the memory order of its inputs, so every level reduction below
    runs along whole contiguous planes, not one short loop per point.
    """
    t = np.asarray(t)[..., None]
    shape = np.broadcast(p, t, q).shape
    b = np.empty(shape[-1:] + shape[:-1]).transpose(*range(1, len(shape)), 0)
    np.multiply(t, q, out=b)
    b += p
    lnp = _log_populations(s.log_multiplicities, b)
    return _entropy(np.exp(s.log_multiplicities + lnp), lnp), lnp


def _line_roots(s: Spectrum, p, q, lo, hi, lo_pos, S_target: float):
    """Log-populations of the points S = S_target on the lines b = p + t*q
    (rows of ``p``), one per bracket lo < t < hi across which S - S_target
    changes sign; ``lo_pos`` is its sign at lo.

    Safeguarded Newton on ln S - ln S_target, all brackets in lockstep, from
    the midpoint.  The slope dS/dt = -Cov(b, q) = sum w*q*(ln(lambda) + S)
    is -w2*(t - <b>) on a chord (q = e2) and -t*Var(q) on a ray (p = 0).  A
    step that leaves its bracket is replaced by the midpoint.  A root is the
    last point evaluated, once |S - S_target| <= 1e-13*S_target or its
    bracket has shrunk to adjacent floats.
    """
    t = 0.5 * (lo + hi)
    lnp = np.empty_like(p)
    live = np.arange(len(t))
    # a zero slope or entropy makes the Newton step non-finite: the midpoint
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(100):
            if not len(live):
                break
            S, lnp_t = _entropy_on_chord(s, p[live], q, t)
            lnp[live] = lnp_t
            w = np.exp(s.log_multiplicities + lnp_t)
            dS = np.add.reduce(w * q * (lnp_t + S[:, None]), axis=-1)
            # wherever lo moves, S - S_target keeps the sign it had there
            same = (S > S_target) == lo_pos
            lo, hi = np.where(same, t, lo), np.where(same, hi, t)
            nxt = t - np.log(S / S_target) * S / dS
            nxt = np.where((lo < nxt) & (nxt < hi), nxt, 0.5 * (lo + hi))
            go = (np.abs(S - S_target) > 1e-13 * S_target) & (lo < nxt) & (nxt < hi)
            live, t, lo, hi, lo_pos = live[go], nxt[go], lo[go], hi[go], lo_pos[go]
    return lnp


def _chord_roots(s: Spectrum, cuts, beta: float, S_target: float, resolution: int):
    """Log-populations of every isentropic point found on the feasible chords.

    One chord per b1 on a grid; along it b2 = t is confined by the
    passivity cuts v1*b1 + v2*t >= 0.  Each sign change of S - S_target on
    a t grid brackets a root, which ``_line_roots`` solves.  Roots come out
    in (b1, t) grid order.
    """
    v1, v2 = cuts
    b1 = np.linspace(0.0, 1.2 * beta * s.level_energies[1] + 2.0, resolution)
    # a cut with v2 = 0 is (-k, k, 0), k > 0, which b1 >= 0 always meets
    up, down = v2 > 0, v2 < 0
    lo = np.max(-v1[up] * b1[:, None] / v2[up], axis=1, initial=0.0)
    hi = np.min(-v1[down] * b1[:, None] / v2[down], axis=1, initial=2000.0)
    keep = hi > lo
    p = np.zeros((np.count_nonzero(keep), 3))
    p[:, 1] = b1[keep]
    q = np.array([0.0, 0.0, 1.0])
    ts = np.linspace(lo[keep], hi[keep], max(resolution, 64), axis=-1)
    vals = _entropy_on_chord(s, p[:, None], q, ts)[0] - S_target
    sign = np.sign(vals)
    row, col = np.nonzero((vals[:, :-1] == 0.0) | (sign[:, :-1] * sign[:, 1:] < 0))
    return _line_roots(s, p[row], q, ts[row, col], ts[row, col + 1], vals[row, col] > 0, S_target)


def max_alpha_scan(
    s: Spectrum,
    N: int,
    beta_grid,
    resolution: int = 200,
) -> list[AlphaScanRow]:
    """Maximize E over order-1 stable, order-N passive states at fixed entropy.

    Grid method for spectra with at most three distinct levels: sweep the
    first excited log-population, solve the entropy equality for the second
    along the feasible chord, keep the best energy.

    Each beta evaluates the whole (b1, t) entropy grid in one batched call
    and solves every bracket it finds in lockstep, by safeguarded Newton
    with the bracket's midpoint as the fallback (``_line_roots``).  A root
    is accepted at a relative entropy error of 1e-13, or once its bracket
    has shrunk to adjacent floats; the target is the Gibbs entropy under
    the same level functional.  The roots are then visited in grid order,
    and each strict energy gain that passes the passivity scan becomes the
    best.
    """
    if s.num_levels > 3:
        raise NotImplementedError("grid scan supports at most three distinct levels")
    if N < 1:
        raise ValueError("N must be >= 1")
    rows: list[AlphaScanRow] = []
    eps = s.level_energies
    logg = s.log_multiplicities
    if s.num_levels == 3:  # each beta's chord grid: b1 x t points of three levels
        check_size(resolution * max(resolution, 64) * 3, f"alpha grid at resolution {resolution}")
    cuts = _cuts(tuple(eps.tolist()), N)[:, 1:].T if s.num_levels == 3 else None
    for beta in beta_grid:
        gp = gibbs_point(s, beta)
        if gp.energy <= 0:
            raise ValueError("scan needs beta with positive thermal energy")
        lnp_gibbs = _log_populations(logg, beta * eps)
        best = DiagonalState.from_levels(s, lnp_gibbs)
        w = np.exp(logg + lnp_gibbs)
        best_E = float(_energy(eps, w))
        if cuts is not None:
            S_target = float(_entropy(w, lnp_gibbs))
            lnp = _chord_roots(s, cuts, beta, S_target, resolution)
            for E, lnp_k in zip(_energy(eps, np.exp(logg + lnp)).tolist(), lnp):
                if E > best_E:
                    rho = DiagonalState.from_levels(s, lnp_k)
                    if _accepts(s, rho, N):
                        best_E, best = E, rho
        rows.append(AlphaScanRow(beta_rho=float(beta), alpha=best_E / gp.energy, state=best))
    return rows


def _alpha_fixed_point(r: float, lng_ratio: float, beta_eps1: float,
                       alpha0: float) -> float:
    """Self-consistent energy ratio: 1/alpha = r - [ln(g2/g1) + ln(r*alpha)]/(B)."""
    alpha = alpha0
    for _ in range(500):
        denom = r - (lng_ratio + math.log(r * alpha)) / beta_eps1
        if denom <= 0:
            return math.inf
        new = 1.0 / denom
        if abs(new - alpha) <= 1e-13 * alpha:
            return new
        alpha = 0.5 * (alpha + new)
    return alpha


def saturation_construct(N: int, m: int, alpha_target_frac: float) -> SaturationResult:
    """Build a three-level order-N passive, order-1 stable state whose energy
    ratio approaches the theoretical maximum N/(N-R).

    Spectrum: levels (0, 1, r) with degeneracies (1, g1, g2) and r chosen so
    the inverse gap ratio 1/r falls in (m/N, (m+1)/N].  The top level's
    degeneracy grows with the inverse temperature so that a cold state can
    park weight there while keeping the first excited population large; the
    measured ratio converges to the target as the temperature scale grows.
    A measured ratio above the ceiling N/(N-r) would falsify the theorem and
    raises ``BoundViolationError``, as in ``bounds.check_bound``.
    """
    if not (1 <= m < N):
        raise ValueError("need 1 <= m < N")
    if not (0 <= alpha_target_frac <= 1):
        raise ValueError("alpha_target_frac must lie in [0, 1]")
    r = (N / (m + 1)) * (1.0 + DELTA_R)
    if not (m / N < 1.0 / r <= (m + 1) / N):
        raise InfeasibleSaturationError("gap ratio 1/r escaped (m/N, (m+1)/N]")
    a_max = alpha_max(N, r)
    a_sup = N / (m * r)  # above this the degeneracy window closes
    if alpha_target_frac * a_max >= 0.995 * a_sup:
        raise InfeasibleSaturationError(
            f"target {alpha_target_frac}*alpha_max = {alpha_target_frac * a_max:.6g} "
            f"exceeds the reachable ratio {0.995 * a_sup:.6g} "
            "(degeneracy window ln(g2/g1) < (q-1)|ln xi| is empty)"
        )
    alpha_t = min(0.98 * a_sup, 0.5 * (alpha_target_frac * a_max + a_sup))
    alpha_t = max(alpha_t, 1.02)

    B = 30.0 * max(1.0, (N / r) * math.log(r * a_max))
    last = None
    for _ in range(MAX_ATTEMPTS):
        lng_ratio = B * (r - 1.0 / alpha_t) - math.log(r * alpha_t)
        if lng_ratio < math.log(2.0):
            B *= 1.5
            continue
        g1 = 1
        g2 = max(2, round(math.exp(min(lng_ratio, 700.0))))
        lng2 = math.log(g2)
        ln_xi = -B / alpha_t
        # top population saturates (with a hair of slack) the geometric
        # envelope lambda_1 <= lambda_2^(m/N) * lambda_0^((N-m)/N)
        ln_l0 = 0.0
        for _ in range(4):
            ln_l2 = (N / m) * (ln_xi - ((N - m) / N) * ln_l0) + 1e-6
            mass = math.exp(ln_xi) + math.exp(lng2 + ln_l2)
            if mass >= 1.0:
                break
            ln_l0 = math.log1p(-mass)
        if mass >= 1.0:
            B *= 1.5
            continue
        spectrum = Spectrum(((0.0, 1), (1.0, g1), (r, g2)))
        rho = DiagonalState.from_levels(spectrum, (ln_l0, ln_xi, ln_l2))
        if not _accepts(spectrum, rho, N):
            raise InfeasibleSaturationError(
                "constructed state failed the order-N passivity scan"
            )
        S = state_entropy(rho)
        E = state_energy(spectrum, rho)
        gp = isentropic_point(spectrum, S)
        beta, alpha_meas = gp.beta, E / gp.energy
        if alpha_meas > a_max:
            raise BoundViolationError(f"measured ratio {alpha_meas} exceeds N/(N-r) = {a_max}")
        params = SaturationParams(N=N, m=m, r=r, beta_eps1=beta, g1=g1, g2=g2,
                                  xi=math.exp(ln_xi))
        alpha_pred = _alpha_fixed_point(r, lng_ratio, beta, alpha_t)
        last = SaturationResult(
            params=params, state=rho, spectrum=spectrum,
            alpha_pred=alpha_pred, alpha_measured=alpha_meas,
            alpha_max=a_max, beta_rho=beta,
        )
        if alpha_meas >= alpha_target_frac * a_max:
            return last
        B *= 1.5
    raise InfeasibleSaturationError(
        f"did not reach {alpha_target_frac}*alpha_max after {MAX_ATTEMPTS} "
        f"temperature doublings; best measured ratio "
        f"{last.alpha_measured if last else float('nan'):.6g}"
    )
