"""Reference enumerators kept as exact oracles for the occupation table.

These are the pairwise Python loops the library ran before every enumerator
read from ``spectra.occupations``: a recursive generator of occupation
vectors, per-vector log-weights, the order-N and order-k scans, the N-copy
ergotropy and the O(M^2) loop of ``prep1_envelope``.  The library must
reproduce them bit for bit, except in three places.  Its row log-weights are
one matrix product, kept within a few ulp of the per-entry sums of
``log_weights``.  The ends of ``prep1_envelope`` both it and the library keep
within a few ulp of ``prep1_envelope_exact``.  ``n_ergotropy`` the library
sums in another order and in log space and keeps close to
``n_ergotropy_exact``.

Every loop decides energy ties by the library's one rule, through
``tie_ranks``: sorted energies whose consecutive gaps are all within the
tolerance form one chained group, and a vector is higher than another iff
its group ranks higher.  ``tie_ranks`` is plain Python and shares no code
with the library's grouping.  ``difference_vectors`` is every cut and
``adjacent_cuts`` the pairwise definition of the generators the library
reads.  ``log_populations`` is the numpy normalizer of level states that
the library's Python-float functional replaced, and ``thermal_functionals``
the Gibbs level functional on it as it was before it exponentiated the
populations once.  ``gibbs_crossing_pair`` (the crossing of a state and its
isoentropic thermal state), ``same_level_log_gap_ok`` and
``ground_spread_witness`` are the paper's flattening lemmas on dense
states, and their only implementation: the library checks a flattened state
through its passivity verdict and ``is_k_structurally_stable`` instead.
``passive_tol`` is the tolerance at which the tests hold a state built on
the passive cone's boundary to ``is_n_passive``.
"""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from npassive.spectra import default_energy_tol, state_energy


def compositions(d, total):
    """Yield all tuples of d non-negative ints summing to total, lexicographic."""
    if d == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(d - 1, total - first):
            yield (first,) + rest


def slot_log_populations(rho):
    """ln(lambda) of every slot of a state; -inf for an empty slot."""
    return tuple(math.log(p) if p > 0 else -math.inf for p in rho.populations)


def passive_tol(log_populations, N):
    """1e-8*N*max(1, largest finite |ln(lambda)|): the log-weight tolerance
    that absorbs the rounding of a state built on the passive cone's boundary."""
    return 1e-8 * N * max(1.0, max(abs(x) for x in log_populations if math.isfinite(x)))


def log_weights(vectors, logpops):
    """Sum of count*ln(lambda) per vector; zero counts contribute 0 always."""
    out = np.empty(len(vectors))
    for k, vec in enumerate(vectors):
        acc = 0.0
        for c, lp in zip(vec, logpops):
            if c:
                acc += c * lp
        out[k] = acc
    return out


def tie_ranks(values, etol):
    """Each value's chained tie group, ranked from 0 upward: sort, then start
    a new group wherever the gap to the previous value exceeds etol."""
    ranks = [0] * len(values)
    rank, prev = -1, -math.inf
    for k in sorted(range(len(values)), key=values.__getitem__):
        if values[k] - prev > etol:
            rank += 1
        ranks[k] = rank
        prev = values[k]
    return ranks


def _groups(energies, logpops, N, energy_tol):
    """The order-N vectors, their tie ranks, and the log-weights per group."""
    vectors = list(compositions(len(energies), N))
    evals = [sum(c * e for c, e in zip(v, energies)) for v in vectors]
    lweights = log_weights(vectors, logpops)
    ranks = tie_ranks(evals, energy_tol)
    groups = [[] for _ in range(max(ranks) + 1)]
    for r, lw in zip(ranks, lweights):
        groups[r].append(float(lw))
    return vectors, ranks, lweights, groups


def scan_passive(energies, logpops, N, tol, energy_tol):
    """None if passive, else the lexicographically first violating pair."""
    vectors, ranks, lweights, groups = _groups(energies, logpops, N, energy_tol)
    running_max = -math.inf
    for grp in reversed(groups):
        if running_max > min(grp) + tol:
            break
        running_max = max(running_max, max(grp))
    else:
        return None
    for i, vi in enumerate(vectors):
        for j, vj in enumerate(vectors):
            if ranks[i] > ranks[j] and lweights[i] > lweights[j] + tol:
                return vi, vj


def scan_stable(energies, logpops, k, tol, energy_tol):
    """True iff equal-energy order-k occupation pairs carry equal log-weights."""
    for grp in _groups(energies, logpops, k, energy_tol)[3]:
        finite = [math.isfinite(x) for x in grp]
        if all(finite):
            if max(grp) - min(grp) > tol:
                return False
        elif any(finite):
            return False
    return True


def n_ergotropy(s, rho, N):
    """Block-wise N-copy ergotropy over compositions with multinomial counts."""
    eps = s.energies
    pops = rho.populations
    blocks = []
    for vec in compositions(s.d, N):
        mult = math.factorial(N)
        for c in vec:
            mult //= math.factorial(c)
        w = 1.0
        for c, p in zip(vec, pops):
            if c:
                w *= p**c
        e = sum(c * x for c, x in zip(vec, eps))
        blocks.append((w, e, mult))
    by_weight = sorted(blocks, key=lambda t: -t[0])
    by_energy = sorted(blocks, key=lambda t: t[1])
    e_passive = 0.0
    j = 0
    remaining = by_energy[0][2]
    for w, _, mult in by_weight:
        need = mult
        while need:
            take = min(need, remaining)
            e_passive += take * w * by_energy[j][1]
            need -= take
            remaining -= take
            if remaining == 0 and j + 1 < len(by_energy):
                j += 1
                remaining = by_energy[j][2]
    return N * state_energy(s, rho) - e_passive


def n_ergotropy_exact(s, rho, N):
    """The N-copy ergotropy with exact integer multiplicities, weights and
    energies in 60-digit ``decimal`` from the float populations and levels,
    and the pairing by exact integer eigenvalue counts; only the result is
    rounded to a float."""
    with localcontext() as ctx:
        ctx.prec = 60
        pops = [Decimal(p) for p in rho.populations]
        eps = [Decimal(e) for e in s.energies]
        blocks = []
        for vec in compositions(s.d, N):
            mult = math.factorial(N)
            for c in vec:
                mult //= math.factorial(c)
            w = math.prod((p**c for p, c in zip(pops, vec) if c), start=Decimal(1))
            blocks.append((w, sum(c * e for c, e in zip(vec, eps)), mult))
        by_energy = sorted(blocks, key=lambda t: t[1])
        e_passive = Decimal(0)
        j, remaining = 0, by_energy[0][2]
        for w, _, mult in sorted(blocks, key=lambda t: -t[0]):
            while mult:
                take = min(mult, remaining)
                e_passive += take * w * by_energy[j][1]
                mult -= take
                remaining -= take
                if remaining == 0 and j + 1 < len(by_energy):
                    j += 1
                    remaining = by_energy[j][2]
        e_actual = N * sum(p * e for p, e in zip(pops, eps))
        return float(e_actual - e_passive)


def prep1_envelope(N, eps_a, eps_b, eps_c, lam_a, lam_c):
    """Middle-population interval from every ordered pair of triple vectors."""
    la, lc = math.log(lam_a), math.log(lam_c)
    vecs = [(i, j, N - i - j) for i in range(N + 1) for j in range(N + 1 - i)]
    lo, hi = -math.inf, math.inf
    eb, ec = eps_b - eps_a, eps_c - eps_a
    ranks = tie_ranks([b * eb + c * ec for _, b, c in vecs], default_energy_tol(ec, N))
    for (a1, b1, c1), r1 in zip(vecs, ranks):
        for (a2, b2, c2), r2 in zip(vecs, ranks):
            if r1 <= r2:
                continue
            coeff = b1 - b2
            rhs = (a2 - a1) * la + (c2 - c1) * lc
            if coeff > 0:
                hi = min(hi, rhs / coeff)
            elif coeff < 0:
                lo = max(lo, rhs / coeff)
    return math.exp(lo), math.exp(hi)


def verify_level_passive(s, rho, N):
    """Order-N scan of a per-level state over the level energies."""
    scale = max(1.0, max(abs(x) for x in rho.log_populations if math.isfinite(x)))
    tol = 1e-8 * N * scale
    etol = default_energy_tol(s.eps_max, N)
    return scan_passive(tuple(s.level_energies), rho.log_populations, N, tol, etol) is None


def difference_vectors(energies, N):
    """The pairwise scan: every (I, J) pair, I outer, deduplicated in a set."""
    vectors = list(compositions(len(energies), N))
    evals = [sum(c * e for c, e in zip(v, energies)) for v in vectors]
    ranks = tie_ranks(evals, default_energy_tol(max(energies), N))
    seen, rows = set(), []
    for vi, ri in zip(vectors, ranks):
        for vj, rj in zip(vectors, ranks):
            if ri > rj:
                diff = tuple(a - b for a, b in zip(vi, vj))
                if diff not in seen:
                    seen.add(diff)
                    rows.append(diff)
    return np.array(rows, dtype=float)


def adjacent_cuts(energies, N):
    """The set of differences I-J with I in the tie group just above J's,
    pair by pair over the vectors bucketed by group."""
    vectors = list(compositions(len(energies), N))
    evals = [sum(c * e for c, e in zip(v, energies)) for v in vectors]
    ranks = tie_ranks(evals, default_energy_tol(max(energies), N))
    groups = [[] for _ in range(max(ranks) + 1)]
    for v, r in zip(vectors, ranks):
        groups[r].append(v)
    return {
        tuple(a - b for a, b in zip(vi, vj))
        for lower, upper in zip(groups, groups[1:])
        for vi in upper
        for vj in lower
    }


def prep1_envelope_exact(N, eps_a, eps_b, eps_c, lam_a, lam_c):
    """The ``prep1_envelope`` interval, correctly rounded.

    The cuts and the logs ln(lam_a), ln(lam_c) are the float ones; each bound
    within 1e-9 of the float extreme is redone in ``Fraction``, and the exact
    extreme is exponentiated in 40-digit ``decimal``.
    """
    V = difference_vectors((0.0, eps_b - eps_a, eps_c - eps_a), N).astype(int).tolist()
    la, lc = math.log(lam_a), math.log(lam_c)
    ends = []
    for sign, pick in ((-1, max), (1, min)):
        rows = [(v0, v1, v2) for v0, v1, v2 in V if v1 * sign > 0]
        floats = [(-v0 * la - v2 * lc) / v1 for v0, v1, v2 in rows]
        near = pick(floats)
        exact = pick(
            (-v0 * Fraction(la) - v2 * Fraction(lc)) / v1
            for (v0, v1, v2), x in zip(rows, floats)
            if abs(x - near) <= 1e-9
        )
        with localcontext() as ctx:
            ctx.prec = 40
            ends.append(float((Decimal(exact.numerator) / Decimal(exact.denominator)).exp()))
    return tuple(ends)


def log_populations(logg, b):
    """Per-slot log-populations of level weights b (population ~ exp(-b)).

    Levels run along the last axis of ``b``; leading axes are a batch.  The
    normalizer is m + log1p(sum of the other exp(t_k - m)), so a state whose
    excited mass is far below 1e-16 keeps its -lambda_0 ln lambda_0 term.
    """
    terms = logg - b
    m = terms.max(axis=-1, keepdims=True)
    top = terms == m
    # exp(0) = 1 for each tied maximum; all but one of them stay in the sum
    rest = np.where(top, 0.0, np.exp(terms - m)).sum(axis=-1, keepdims=True)
    rest += top.sum(axis=-1, keepdims=True) - 1
    return -b - (m + np.log1p(rest))


def thermal_functionals(eps, logg, beta):
    """(logZ, E, S - ln g0, Var E, lnp) with one exp of the populations per
    sum; lnp is the list ln(lambda) + ln g0."""
    if math.isinf(beta):
        return float(logg[0]), 0.0, 0.0, 0.0, [0.0] + [-math.inf] * (len(logg) - 1)
    rel = logg - logg[0]
    lnp = log_populations(rel, beta * eps)
    energy = float((np.exp(rel + lnp) * eps).sum(axis=-1))
    var = float((np.exp(rel + lnp) * (eps - energy) ** 2).sum(axis=-1))
    entropy = float(-(np.exp(rel + lnp) * lnp).sum(axis=-1))
    return float(logg[0] - lnp[0]), energy, entropy, var, lnp.tolist()


def gibbs_crossing_pair(energies, populations, beta, logZ, tol):
    """The paper's crossing pair of a state whose leading population lies
    below 1/Z at its isoentropic beta: the first slot b of an excited level
    populated at least to its thermal value (within tol) that has a later
    slot c of higher energy populated at most to its own; None when there is
    no such pair."""
    hat = [math.exp(-beta * e - logZ) for e in energies]
    for b, (eb, pb) in enumerate(zip(energies, populations)):
        if eb <= 0 or pb < hat[b] - tol:
            continue
        for c in range(b + 1, len(energies)):
            if energies[c] > eb and populations[c] <= hat[c] + tol:
                return eb, energies[c]
    return None


def same_level_log_gap_ok(levels, level_populations, logZ, N, tol):
    """Every ordered pair (i, j) inside every positive-energy level of
    multiplicity >= 2 has ln lambda_j - ln lambda_i < -(ln Z + ln lambda_j)/(N-1)
    + tol; ``level_populations`` lists each level's populations."""
    for (e, g), chunk in zip(levels, level_populations):
        if e <= 0 or g < 2:
            continue
        for li in chunk:
            for lj in chunk:
                if li <= 0 or lj <= 0:
                    return False
                if math.log(lj) - math.log(li) >= -(logZ + math.log(lj)) / (N - 1) + tol:
                    return False
    return True


def ground_spread_witness(energies, populations, d0, beta, N, tol):
    """The smallest positive slot energy eps_a with max - min of ln(lambda)
    over the d0 ground slots below beta*eps_a/(N-1) + tol; None when a ground
    slot is empty, beta is infinite or no energy qualifies."""
    ground = [math.log(p) for p in populations[:d0] if p > 0]
    if len(ground) < d0 or not math.isfinite(beta):
        return None
    spread = max(ground) - min(ground)
    for e in energies:
        if e > 0 and spread < beta * e / (N - 1) + tol:
            return e
    return None


def classify_slots(energies, populations, d0, tol):
    """(tag, beta, residual) of the least-squares thermal fit over the slots,
    one row per slot."""
    support = [j for j, p in enumerate(populations) if p > 0]
    if all(j < d0 for j in support):
        return "GroundState", None, 0.0
    if len(support) < len(populations):
        return "NotCP", None, math.inf
    b = np.array([-math.log(p) for p in populations])
    A = np.column_stack([energies, np.ones(len(energies))])
    (beta, logZ), *_ = np.linalg.lstsq(A, b, rcond=None)
    residual = float(np.max(np.abs(A @ np.array([beta, logZ]) - b)))
    tag = "Gibbs" if residual <= tol and beta >= -1e-12 else "NotCP"
    return tag, float(beta), residual
