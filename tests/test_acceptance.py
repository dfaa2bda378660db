"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured statistics."""

import math

import numpy as np
import pytest

from npassive.bounds import (
    alpha_max,
    exponential_factor,
    low_entropy_bound,
    spectral_ratio,
)
from npassive.commensurability import n_star, triple_forces_gibbs
from npassive.extremal import max_alpha_scan, sample_n_passive, saturation_construct
from npassive.flattening import delta_S_bound, flatten
from npassive.gibbs import gibbs_point, gibbs_populations, isentropic_point
from npassive.passivity import (
    classify_complete_passivity,
    is_k_structurally_stable,
    is_n_passive,
    n_ergotropy,
    passive_rearrangement,
    prep1_envelope,
)
from npassive.spectra import (
    DiagonalState,
    Spectrum,
    normalize_spectrum,
    state_energy,
    state_entropy,
)

import oracle


def report(num, desc, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num:02d}] {tag}  {desc}  {detail}")
    assert ok, f"acceptance criterion {num} failed: {desc} {detail}"


def test_01_oracle_equivalence():
    rng = np.random.default_rng(101)
    disagreements = 0
    for trial in range(1000):
        d = int(rng.integers(2, 5))
        N = int(rng.integers(1, 5))
        energies = sorted([0.0] + list(rng.uniform(0.2, 3.0, d - 1)))
        if rng.random() < 0.2 and d >= 3:
            energies[1] = energies[2]  # throw in degeneracy
        s = normalize_spectrum(energies)
        kind = trial % 3
        if kind == 0:
            rho = DiagonalState(tuple(rng.dirichlet(np.ones(d))))
        elif kind == 1:
            rho = passive_rearrangement(s, rng.dirichlet(np.ones(d)))
        else:
            rho = gibbs_populations(s, float(rng.uniform(0, 5)))
        passive = is_n_passive(s, rho, N).passive
        erg_zero = n_ergotropy(s, rho, N) <= 1e-10
        if passive != erg_zero:
            disagreements += 1
    report(1, "passivity scan agrees with N-copy ergotropy oracle",
           disagreements == 0, f"(disagreements={disagreements}/1000)")


def test_02_bound_suite():
    spectra = [
        normalize_spectrum([0, 1, 1.9]),
        normalize_spectrum([0, 1, 2, 3.5]),
        normalize_spectrum([0, 0, 1, 2]),
    ]
    violations = 0
    total = 0
    per_combo = 10_000 // (len(spectra) * 7) + 1
    for s in spectra:
        R = spectral_ratio(s)
        for N in range(2, 9):
            for rho in sample_n_passive(s, N, per_combo, seed=1000 + N, stable=True):
                S = state_entropy(rho)
                beta = isentropic_point(s, S).beta
                E_beta = gibbs_point(s, beta).energy
                E = state_energy(s, rho)
                b_exp = E_beta * exponential_factor(beta, s.eps_max, R, N)
                candidates = [b_exp]
                if N > R:
                    candidates.append(E_beta * alpha_max(N, R))
                for bound in candidates + [min(candidates)]:
                    if bound - E < -1e-9:
                        violations += 1
                total += 1
    report(2, "energy bounds hold on sampled stable passive states",
           violations == 0 and total >= 10_000,
           f"(states={total}, violations={violations})")


def test_03_equality_cases():
    qubit = normalize_spectrum([0, 1])
    two_level = normalize_spectrum([0, 0, 1])
    worst = 0.0
    count = 0
    for s, seed in ((qubit, 7), (two_level, 8)):
        for rho in sample_n_passive(s, 2, 500, seed=seed, stable=True):
            S = state_entropy(rho)
            beta = isentropic_point(s, S, tol=1e-15).beta
            E_beta = gibbs_point(s, beta).energy
            worst = max(worst, abs(state_energy(s, rho) - E_beta))
            count += 1
    report(3, "two-level stable states match their thermal energy exactly",
           count == 1000 and worst <= 1e-10, f"(max |E - E_beta| = {worst:.3g})")


def test_04_alpha_max_and_scan():
    s = Spectrum.from_levels([(0.0, 1), (1.0, 1), (1.001, 1000)])
    R = spectral_ratio(s)
    amax = alpha_max(5, R)
    ok_value = abs(amax - 1.25031) <= 1e-5
    rows = max_alpha_scan(s, 5, [0.05, 5.0, 15.0, 30.0])
    ok_bounded = all(r.alpha <= amax + 1e-9 for r in rows)
    ok_limit = abs(rows[0].alpha - 1.0) <= 5e-3
    report(4, "ratio ceiling 1.25031 reproduced and never exceeded by the scan",
           ok_value and ok_bounded and ok_limit,
           f"(alpha_max={amax:.6f}, scan max={max(r.alpha for r in rows):.6f}, "
           f"alpha(beta->0)={rows[0].alpha:.6f})")


def test_05_saturation():
    res = saturation_construct(2, 1, 0.9)
    ok_reach = res.alpha_measured >= 0.9 * res.alpha_max
    ok_passive = is_n_passive(res.spectrum, res.state, 2, tol=oracle.passive_tol(res.state.log_populations, 2)).passive
    report(5, "three-level construction reaches 90% of the ratio ceiling",
           ok_reach and ok_passive,
           f"(measured={res.alpha_measured:.4f}, ceiling={res.alpha_max:.4f})")


def test_06_flattening():
    rng = np.random.default_rng(606)
    spectra = [
        normalize_spectrum([0, 0, 1]),
        normalize_spectrum([0, 0, 1, 2]),
        normalize_spectrum([0, 1, 1, 2]),
    ]
    bad = 0
    for i in range(10_000):
        s = spectra[i % 3]
        rho = DiagonalState(tuple(rng.dirichlet(np.ones(s.d))))
        res = flatten(s, rho)
        e0, e1 = state_energy(s, rho), state_energy(s, res.flattened)
        if abs(e1 - e0) > 1e-15 * max(1.0, abs(e0)):
            bad += 1
        if res.delta_S < 0:
            bad += 1
        if not is_k_structurally_stable(s, res.flattened, 1):
            bad += 1
    retained = 0
    for s in spectra:
        for N in (2, 3):
            for rho in sample_n_passive(s, N, 50, seed=66, b_max=6.0):
                if is_n_passive(s, flatten(s, rho).flattened, N).passive:
                    retained += 1
    report(6, "flattening preserves energy, adds entropy, keeps passivity",
           bad == 0 and retained == 300,
           f"(violations={bad}/10000, passivity retained={retained}/300)")


def _entropy_gap_class(s, rho):
    S = state_entropy(rho)
    if S < math.log(s.d0):
        return None
    beta = isentropic_point(s, S).beta
    if not math.isfinite(beta):
        return None
    if min(rho.populations[: s.d0]) >= math.exp(-gibbs_point(s, beta).logZ):
        return None
    return beta


def test_07_entropy_gap_bounds():
    spectra = [normalize_spectrum([0, 0, 1]), normalize_spectrum([0, 0, 1, 2])]
    checked = violations = 0
    tighter_checked = 0
    for s in spectra:
        for N in (2, 3, 4):
            for rho in sample_n_passive(s, N, 400, seed=700 + N, b_max=2.5):
                if _entropy_gap_class(s, rho) is None:
                    continue
                bound = delta_S_bound(s, rho, N)
                if flatten(s, rho).delta_S > bound + 1e-12:
                    violations += 1
                checked += 1
                if s.num_levels == 2:
                    two = delta_S_bound(s, rho, N, form="two_level")
                    general = delta_S_bound(s, rho, N, form="general")
                    if two >= general:
                        violations += 1
                    tighter_checked += 1
                if checked >= 1000:
                    break
    report(7, "entropy-gap bound holds; two-level variant is tighter",
           checked >= 1000 and violations == 0,
           f"(states={checked}, two-level comparisons={tighter_checked}, "
           f"violations={violations})")


def test_08_low_entropy_bound():
    rng = np.random.default_rng(808)
    spectra = [normalize_spectrum([0, 0, 1]), normalize_spectrum([0, 0, 0, 1, 2])]
    checked = violations = 0
    while checked < 500:
        s = spectra[checked % 2]
        N = int(rng.integers(2, 5))
        ground = rng.dirichlet(np.ones(s.d0) * 0.7)
        lam_min, lam_max = ground.min(), ground.max()
        if lam_min <= 0:
            continue
        # excited populations small enough to keep every order-N comparison safe
        scale = lam_min**N / lam_max ** (N - 1)
        excited = scale * rng.uniform(0.05, 0.5) * np.exp(
            -np.arange(1, s.d - s.d0 + 1)
        )
        pops = np.concatenate([ground, excited])
        pops /= pops.sum()
        rho = DiagonalState(tuple(pops))
        if state_entropy(rho) >= math.log(s.d0):
            continue
        if not is_n_passive(s, rho, N).passive:
            continue
        bound = low_entropy_bound(s, state_entropy(rho), N)
        if state_energy(s, rho) > bound + 1e-12:
            violations += 1
        checked += 1
    report(8, "low-entropy energy cap holds on sub-ln(d0) passive states",
           violations == 0, f"(states={checked}, violations={violations})")


def test_09_cp_classification():
    spectra = [normalize_spectrum([0, 1, 1.9]), normalize_spectrum([0, 0.7, 1.4, 3.0])]
    rng = np.random.default_rng(909)
    worst_rel = 0.0
    misclassified = 0
    for s in spectra:
        for beta in np.linspace(0.0, 50.0 / s.eps_max, 26):
            rho = gibbs_populations(s, float(beta))
            cls = classify_complete_passivity(s, rho)
            if cls.tag != "Gibbs":
                misclassified += 1
                continue
            err = abs(cls.beta - beta) / max(beta, 1e-12) if beta > 0 else abs(cls.beta)
            worst_rel = max(worst_rel, err)
            # perturb one population by 1e-3 relative and renormalize
            k = int(rng.integers(0, s.d))
            pops = np.array(rho.populations)
            pops[k] *= 1.001
            pops /= pops.sum()
            if classify_complete_passivity(s, DiagonalState(tuple(pops))).tag != "NotCP":
                misclassified += 1
    report(9, "thermal states recover beta; perturbed states classify NotCP",
           misclassified == 0 and worst_rel <= 1e-9,
           f"(max relative beta error={worst_rel:.3g}, misclassified={misclassified})")


def test_10_commensurability_grid():
    s = normalize_spectrum([0, 1, 2])
    ok_nstar = n_star(s).n_star == 2
    step = 1e-3
    grid = np.arange(step, 1.0, step)
    l1, l2 = np.meshgrid(grid, grid, indexing="ij")
    l0 = 1.0 - l1 - l2
    valid = l0 > 0
    l0, l1, l2 = l0[valid], l1[valid], l2[valid]
    ln0, ln1, ln2 = np.log(l0), np.log(l1), np.log(l2)
    # order-2 stability on the ladder: the energy tie (0,2,0) ~ (1,0,1)
    stable = np.abs(2 * ln1 - ln0 - ln2) <= 1e-6
    # order-2 passivity: every deduplicated occupation-difference constraint
    from oracle import difference_vectors

    V = difference_vectors(s.energies, 2)
    passive = np.ones_like(ln0, dtype=bool)
    for v0, v1, v2 in V:
        passive &= v0 * ln0 + v1 * ln1 + v2 * ln2 <= 1e-9
    sel = stable & passive
    residual = np.abs(2 * ln1 - ln2 - ln0)
    ok_grid = bool(np.all(residual[sel] <= 1e-6))
    # the stable curve is measure-zero so the grid check alone can be
    # vacuous: also walk exactly constructed curve states through the APIs
    ok_api = True
    curve = 0
    for lam1 in np.linspace(0.02, 0.32, 300):
        lam2 = _stable_curve_point(float(lam1))
        rho = DiagonalState((1.0 - lam1 - lam2, float(lam1), lam2))
        if not (
            is_n_passive(s, rho, 2).passive
            and is_k_structurally_stable(s, rho, 2, tol=1e-6)
            and triple_forces_gibbs(s, rho, (0, 1, 2), tol=1e-6)
            and classify_complete_passivity(s, rho, tol=1e-6).tag == "Gibbs"
        ):
            ok_api = False
        curve += 1
    report(10, "equally spaced ladder forces thermal form at order 2",
           ok_nstar and ok_grid and ok_api,
           f"(grid states selected={int(sel.sum())}, curve states={curve})")


def _stable_curve_point(lam1):
    """lam2 solving lam1^2 = lam0*lam2 with lam0 = 1 - lam1 - lam2 > lam1."""
    disc = math.sqrt((1.0 - lam1) ** 2 - 4.0 * lam1**2)
    return 0.5 * ((1.0 - lam1) - disc)


def test_11_envelope_grid():
    N = 4
    eps = (0.0, 0.5, 1.0)
    lam_a, lam_c = 0.5, 0.125
    s = normalize_spectrum(eps)
    lower, upper = prep1_envelope(N, *eps, lam_a, lam_c)
    mis = 0
    for lam_b in np.linspace(1e-3, lam_a, 1000):
        total = lam_a + lam_b + lam_c
        rho = DiagonalState((lam_a / total, lam_b / total, lam_c / total))
        feasible = is_n_passive(s, rho, N).passive
        inside = lower <= lam_b <= upper
        near_boundary = min(abs(lam_b - lower), abs(lam_b - upper)) <= 1e-9
        if not near_boundary and feasible != inside:
            mis += 1
    report(11, "geometric envelope matches brute-force feasibility",
           mis == 0, f"(interval=[{lower:.4f}, {upper:.4f}], misclassified={mis}/1000)")
