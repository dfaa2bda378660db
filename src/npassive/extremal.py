"""Sampling the order-N passive set, energy-ratio maximization, and the
three-level saturation construction.

States here may live on spectra with astronomically degenerate levels, so a
level-resolved representation (one log-population per distinct level) is used
throughout; dense population vectors are materialized only when small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import BoundViolationError
from .gibbs import _energy, _entropy, _log_populations, gibbs_point, solve_beta_for_entropy
from .passivity import _adjacent_cuts, _cuts
from .spectra import DiagonalState, Spectrum

DEFAULT_B_MAX = 30.0


@dataclass(frozen=True)
class LevelState:
    """Per-slot log-populations, one entry per distinct level of a spectrum.

    Every basis state inside level ``ell`` carries population
    ``exp(log_populations[ell])``; the level as a whole carries
    multiplicity-times that.
    """

    log_populations: tuple[float, ...]

    def to_dense(self, s: Spectrum) -> DiagonalState:
        pops = []
        for lnp, (_, g) in zip(self.log_populations, s.distinct_levels):
            pops.extend([math.exp(lnp)] * g)
        total = sum(pops)
        return DiagonalState(tuple(p / total for p in pops))


@dataclass(frozen=True)
class AlphaScanRow:
    beta_rho: float
    alpha: float
    state: LevelState


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
    state: LevelState
    spectrum: Spectrum
    alpha_pred: float
    alpha_measured: float
    alpha_max: float
    beta_rho: float


class InfeasibleSaturationError(RuntimeError):
    """The requested saturation fraction is outside the parameter window."""


def level_energy(s: Spectrum, ls: LevelState) -> float:
    return float(_energy(s.level_energies, s.log_multiplicities, np.asarray(ls.log_populations)))


def level_entropy(s: Spectrum, ls: LevelState) -> float:
    return float(_entropy(s.log_multiplicities, np.asarray(ls.log_populations)))


def level_state_from_b(s: Spectrum, b) -> LevelState:
    """Normalize per-level 'log-weights' b (population ~ exp(-b)) into a state."""
    b = np.asarray(b, dtype=float)
    return LevelState(tuple(_log_populations(s.log_multiplicities, b)))


def verify_level_passive(s: Spectrum, ls: LevelState, N: int, tol: float | None = None) -> bool:
    """Order-N passivity of a level-resolved (hence order-1 stable) state.

    Occupation vectors over individual slots of a level-uniform state fold to
    occupation vectors over levels, so the level-space cuts are exhaustive:
    every cut v needs v . ln(lambda) <= tol.  A cut with a positive count on
    an empty level never binds, and one with a negative count there fails.
    """
    if tol is None:
        scale = max(1.0, max(abs(x) for x in ls.log_populations if math.isfinite(x)))
        tol = 1e-8 * N * scale
    V = _cuts(tuple(s.level_energies.tolist()), N)
    lnp = np.asarray(ls.log_populations, dtype=float)
    # zero entries skip lnp = -inf; a +inf, -inf mix is NaN and never fails
    x = np.multiply(V, lnp, out=np.zeros(V.shape), where=V != 0).sum(axis=1)
    return not np.any(x > tol)


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
    in G x + h >= 0 (the generators ``_adjacent_cuts`` and the box), which is
    -1/max(w) < t < -1/min(w) for w = G u / (G x + h), then clips x to the box.
    Samples match a walk over every row of ``_cuts`` within |d ln p| <= 1e-10.
    """
    if s.num_levels < 2:
        raise ValueError("single-level spectra have no passivity structure to sample")
    if count < 1:
        raise ValueError("count must be >= 1")
    energies = tuple(s.level_energies.tolist()) if stable else s.energies
    V = _adjacent_cuts(energies, N)
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
    samples: list[DiagonalState] = []
    for b in kept:
        if stable:
            samples.append(level_state_from_b(s, b).to_dense(s))
        else:
            w = np.exp(-b)
            samples.append(DiagonalState(tuple(w / np.sum(w))))
    return samples


def _entropy_on_chord(s: Spectrum, b1, b2):
    """Entropies and log-populations of the level states b = (0, b1, b2).

    ``b1`` and ``b2`` broadcast against each other; the level axis is last.
    """
    b = np.zeros(np.broadcast_shapes(np.shape(b1), np.shape(b2)) + (3,))
    b[..., 1] = b1
    b[..., 2] = b2
    lnp = _log_populations(s.log_multiplicities, b)
    return _entropy(s.log_multiplicities, lnp), lnp


def _chord_roots(s: Spectrum, cuts, beta: float, S_target: float, resolution: int):
    """Log-populations of every isentropic point found on the feasible chords.

    One chord per b1 on a grid; along it b2 = t is confined by the
    passivity cuts v1*b1 + v2*t >= 0.  Sign changes of S - S_target on a
    t grid are bisected in lockstep until |S - S_target| <= 1e-13*S_target
    or the midpoint is an endpoint.  Roots come out in (b1, t) grid order.
    """
    v1, v2 = cuts
    b1 = np.linspace(0.0, 1.2 * beta * s.level_energies[1] + 2.0, resolution)
    up, down, flat = v2 > 0, v2 < 0, v2 == 0
    lo = np.max(-v1[up] * b1[:, None] / v2[up], axis=1, initial=0.0)
    hi = np.min(-v1[down] * b1[:, None] / v2[down], axis=1, initial=2000.0)
    blocked = np.any(v1[flat] * b1[:, None] < 0, axis=1)
    keep = ~blocked & (hi > lo)
    b1 = b1[keep]
    ts = np.linspace(lo[keep], hi[keep], max(resolution, 64), axis=-1)
    vals = _entropy_on_chord(s, b1[:, None], ts)[0] - S_target
    sign = np.sign(vals)
    row, col = np.nonzero((vals[:, :-1] == 0.0) | (sign[:, :-1] * sign[:, 1:] < 0))
    b1 = b1[row]
    # wherever a moves, S - S_target keeps the sign it had at the left end
    a, b, a_pos = ts[row, col], ts[row, col + 1], vals[row, col] > 0
    roots = np.empty(len(a))
    live = np.arange(len(a))
    for _ in range(100):
        if not len(live):
            break
        mid = 0.5 * (a + b)
        fm = _entropy_on_chord(s, b1[live], mid)[0] - S_target
        done = (np.abs(fm) <= 1e-13 * S_target) | (mid == a) | (mid == b)
        roots[live[done]] = mid[done]
        same = (fm > 0) == a_pos
        a, b = np.where(same, mid, a), np.where(same, b, mid)
        go = ~done
        live, a, b, a_pos = live[go], a[go], b[go], a_pos[go]
    roots[live] = 0.5 * (a + b)
    return _entropy_on_chord(s, b1, roots)[1]


def max_alpha_scan(
    s: Spectrum,
    N: int,
    beta_grid,
    resolution: int = 200,
) -> list[AlphaScanRow]:
    """Maximize E over order-1 stable, order-N passive states at fixed entropy.

    Grid method for spectra with at most three distinct levels: sweep the
    first excited log-population, solve the entropy equality for the second
    by bisection along the feasible chord, keep the best energy.

    Each beta evaluates the whole (b1, t) entropy grid in one batched call
    and bisects every bracket in lockstep.  Bisection stops at a relative
    entropy error of 1e-13, or when the midpoint equals an endpoint; the
    target is the Gibbs entropy under the same level functional.  The roots
    are then visited in grid order, and each strict energy gain that passes
    the passivity scan becomes the best.
    """
    if s.num_levels > 3:
        raise NotImplementedError("grid scan supports at most three distinct levels")
    rows: list[AlphaScanRow] = []
    eps = s.level_energies
    cuts = _cuts(tuple(eps.tolist()), N)[:, 1:].T if s.num_levels == 3 else None
    for beta in beta_grid:
        gp = gibbs_point(s, beta)
        if gp.energy <= 0:
            raise ValueError("scan needs beta with positive thermal energy")
        gibbs_ls = level_state_from_b(s, beta * eps)
        best_E = level_energy(s, gibbs_ls)
        best_ls = gibbs_ls
        if cuts is not None:
            S_target = level_entropy(s, gibbs_ls)
            lnp = _chord_roots(s, cuts, beta, S_target, resolution)
            for E, lnp_k in zip(_energy(eps, s.log_multiplicities, lnp).tolist(), lnp):
                if E > best_E:
                    ls = LevelState(tuple(lnp_k))
                    if verify_level_passive(s, ls, N):
                        best_E = E
                        best_ls = ls
        rows.append(AlphaScanRow(beta_rho=float(beta), alpha=best_E / gp.energy,
                                 state=best_ls))
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


def saturation_construct(
    N: int,
    m: int,
    alpha_target_frac: float,
    delta_r: float = 1e-3,
    max_attempts: int = 14,
) -> SaturationResult:
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
    r = (N / (m + 1)) * (1.0 + delta_r)
    if not (m / N < 1.0 / r <= (m + 1) / N):
        raise InfeasibleSaturationError("gap ratio 1/r escaped (m/N, (m+1)/N]")
    a_max = N / (N - r)
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
    for _ in range(max_attempts):
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
        ls = LevelState((ln_l0, ln_xi, ln_l2))
        if not verify_level_passive(spectrum, ls, N):
            raise InfeasibleSaturationError(
                "constructed state failed the order-N passivity scan"
            )
        S = level_entropy(spectrum, ls)
        E = level_energy(spectrum, ls)
        beta = solve_beta_for_entropy(spectrum, S)
        E_beta = gibbs_point(spectrum, beta).energy
        alpha_meas = E / E_beta
        if alpha_meas > a_max:
            raise BoundViolationError(f"measured ratio {alpha_meas} exceeds N/(N-r) = {a_max}")
        params = SaturationParams(N=N, m=m, r=r, beta_eps1=beta, g1=g1, g2=g2,
                                  xi=math.exp(ln_xi))
        alpha_pred = _alpha_fixed_point(r, lng_ratio, beta, alpha_t)
        last = SaturationResult(
            params=params, state=ls, spectrum=spectrum,
            alpha_pred=alpha_pred, alpha_measured=alpha_meas,
            alpha_max=a_max, beta_rho=beta,
        )
        if alpha_meas >= alpha_target_frac * a_max:
            return last
        B *= 1.5
    raise InfeasibleSaturationError(
        f"did not reach {alpha_target_frac}*alpha_max after {max_attempts} "
        f"temperature doublings; best measured ratio "
        f"{last.alpha_measured if last else float('nan'):.6g}"
    )
