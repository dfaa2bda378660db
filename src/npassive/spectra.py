"""Canonical representation of Hamiltonian spectra and diagonal states.

Energies are stored zero-shifted (ground level at 0) and grouped into
distinct levels; populations are index-aligned to the dense energy list.
The occupation table lives here because every other module consumes it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

STATE_SUM_TOL = 1e-12

# dense expansion refuses above this dimension; level-resolved code paths
# (gibbs functionals, extremal module) have no such limit
DENSE_DIM_CAP = 2_000_000

# the one size guard on occupation tables, shared by every enumerating caller
DEFAULT_CAP = 200_000


class SpectrumError(ValueError):
    """Invalid spectral data."""


class StateError(ValueError):
    """Invalid population data."""


class EnumerationCapError(RuntimeError):
    """Occupation-vector enumeration would exceed the size guard."""


@dataclass(frozen=True)
class Spectrum:
    """Zero-shifted, non-decreasing energy spectrum with degeneracy structure.

    ``distinct_levels`` is the authoritative field: a tuple of
    ``(energy, multiplicity)`` pairs with strictly increasing energies and
    ``energy[0] == 0``.  The dense ``energies`` view is materialized on
    demand and refuses for astronomically degenerate spectra.
    """

    distinct_levels: tuple[tuple[float, int], ...]
    rational_levels: tuple[tuple[Fraction, int], ...] | None = None

    def __post_init__(self):
        if not self.distinct_levels:
            raise SpectrumError("spectrum needs at least one level")
        energies = [e for e, _ in self.distinct_levels]
        mults = [g for _, g in self.distinct_levels]
        if not all(math.isfinite(e) for e in energies):
            raise SpectrumError("energies must be finite")
        if energies[0] != 0.0:
            raise SpectrumError("ground level must sit at energy 0")
        if any(e2 <= e1 for e1, e2 in zip(energies, energies[1:])):
            raise SpectrumError("distinct level energies must strictly increase")
        if any(g < 1 for g in mults):
            raise SpectrumError("multiplicities must be positive")

    @property
    def num_levels(self) -> int:
        return len(self.distinct_levels)

    @cached_property
    def d(self) -> int:
        return sum(g for _, g in self.distinct_levels)

    @property
    def d0(self) -> int:
        return self.distinct_levels[0][1]

    @property
    def eps_max(self) -> float:
        return self.distinct_levels[-1][0]

    @cached_property
    def level_energies(self) -> np.ndarray:
        return np.array([e for e, _ in self.distinct_levels], dtype=float)

    @cached_property
    def level_multiplicities(self) -> np.ndarray:
        return np.array([g for _, g in self.distinct_levels], dtype=float)

    @cached_property
    def log_multiplicities(self) -> np.ndarray:
        return np.log(self.level_multiplicities)

    @cached_property
    def energies(self) -> tuple[float, ...]:
        if self.d > DENSE_DIM_CAP:
            raise SpectrumError(
                f"dense energy list refused for d={self.d}; use level-resolved access"
            )
        out = []
        for e, g in self.distinct_levels:
            out.extend([e] * g)
        return tuple(out)

    @cached_property
    def level_slices(self) -> tuple[tuple[int, int], ...]:
        """Half-open dense index ranges, one per distinct level."""
        out, start = [], 0
        for _, g in self.distinct_levels:
            out.append((start, start + g))
            start += g
        return tuple(out)

    def is_two_level(self) -> bool:
        """Zero ground level plus exactly one positive level (any degeneracies)."""
        return self.num_levels == 2

    def is_degenerate(self) -> bool:
        return any(g > 1 for _, g in self.distinct_levels)

    @classmethod
    def from_levels(cls, levels) -> "Spectrum":
        """Build from (energy, multiplicity) pairs; shifts the minimum to 0."""
        levels = sorted((float(e), int(g)) for e, g in levels)
        if not levels:
            raise SpectrumError("spectrum needs at least one level")
        e0 = levels[0][0]
        return cls(tuple((e - e0, g) for e, g in levels))

    @classmethod
    def from_rationals(cls, raw: list[Fraction]) -> "Spectrum":
        """Exact-rational spectrum; degeneracy is exact equality."""
        if not raw:
            raise SpectrumError("empty energy list")
        vals = sorted(Fraction(x) for x in raw)
        lo = vals[0]
        shifted = [v - lo for v in vals]
        levels: list[tuple[Fraction, int]] = []
        for v in shifted:
            if levels and v == levels[-1][0]:
                levels[-1] = (v, levels[-1][1] + 1)
            else:
                levels.append((v, 1))
        return cls(
            tuple((float(e), g) for e, g in levels),
            rational_levels=tuple(levels),
        )


def default_energy_tol(eps_max: float, N: int) -> float:
    """Order-N energy sums within this tolerance of each other tie."""
    return 1e-9 * max(1.0, eps_max * N)


def normalize_spectrum(raw_energies) -> Spectrum:
    """Shift, sort, and merge tied levels of a raw energy list.

    Sorted values whose consecutive gaps are all within
    ``default_energy_tol(eps_max, 1)`` form one distinct level: the order-1
    tie groups of the passivity checks.  Its energy is the group minimum, so
    the ground level stays exactly at 0.
    """
    vals = [float(x) for x in raw_energies]
    if not vals:
        raise SpectrumError("empty energy list")
    if any(not math.isfinite(x) for x in vals):
        raise SpectrumError("energies must be finite")
    vals.sort()
    vals = [v - vals[0] for v in vals]
    etol = default_energy_tol(vals[-1], 1)
    levels: list[tuple[float, int]] = []
    for prev, v in zip([-math.inf] + vals, vals):
        if v - prev <= etol:
            levels[-1] = (levels[-1][0], levels[-1][1] + 1)
        else:
            levels.append((v, 1))
    return Spectrum(tuple(levels))


@dataclass(frozen=True)
class DiagonalState:
    """Populations of a state diagonal in the energy eigenbasis."""

    populations: tuple[float, ...]

    def __post_init__(self):
        pops = self.populations
        if not pops:
            raise StateError("empty population list")
        if not all(math.isfinite(p) for p in pops):
            raise StateError("populations must be finite")
        if any(p < 0 for p in pops):
            raise StateError("populations must be non-negative")
        if abs(sum(pops) - 1.0) > STATE_SUM_TOL:
            raise StateError(f"populations sum to {sum(pops)!r}, expected 1")

    @property
    def d(self) -> int:
        return len(self.populations)

    @cached_property
    def ln_populations(self) -> tuple[float, ...]:
        """ln(lambda_j); -inf for zero populations."""
        return tuple(math.log(p) if p > 0 else -math.inf for p in self.populations)

    @classmethod
    def from_weights(cls, weights) -> "DiagonalState":
        w = [float(x) for x in weights]
        total = sum(w)
        if total <= 0:
            raise StateError("weights must have positive sum")
        return cls(tuple(x / total for x in w))


@dataclass(frozen=True)
class OccupationVector:
    """d non-negative integer counts summing to the order N."""

    counts: tuple[int, ...]

    def __post_init__(self):
        if any(c < 0 for c in self.counts):
            raise ValueError("occupation counts must be non-negative")

    @property
    def order(self) -> int:
        return sum(self.counts)


def _check_aligned(s: Spectrum, rho: DiagonalState):
    if rho.d != s.d:
        raise StateError(f"state has {rho.d} populations, spectrum has d={s.d}")


def state_energy(s: Spectrum, rho: DiagonalState) -> float:
    """Mean energy sum(lambda_j * eps_j)."""
    _check_aligned(s, rho)
    return float(np.dot(rho.populations, s.energies))


def state_entropy(rho: DiagonalState) -> float:
    """von Neumann entropy -sum(lambda ln lambda), with 0 ln 0 = 0."""
    return float(sum(-p * math.log(p) for p in rho.populations if p > 0))


def composition_count(d: int, total: int) -> int:
    return math.comb(total + d - 1, d - 1)


@lru_cache(maxsize=16)
def occupations(d: int, N: int) -> np.ndarray:
    """All occupation vectors of order N over d slots, one per row.

    Rows run in lexicographic order, first entry ascending from 0.  The
    integer table is read-only and shared between callers; above
    ``DEFAULT_CAP`` rows it is refused with ``EnumerationCapError``.
    """
    if d < 1 or N < 1:
        raise ValueError("need d >= 1 and N >= 1")
    count = composition_count(d, N)
    if count > DEFAULT_CAP:
        raise EnumerationCapError(
            f"C({N + d - 1},{d - 1}) = {count} occupation vectors exceeds cap {DEFAULT_CAP}"
        )
    # stars and bars: lexicographic bar positions give lexicographic counts
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(N + d - 1), d - 1)),
        dtype=np.int64,
        count=count * (d - 1),
    ).reshape(count, d - 1)
    edges = np.column_stack((np.full(count, -1), bars, np.full(count, N + d - 1)))
    table = edges[:, 1:] - edges[:, :-1] - 1
    table.flags.writeable = False
    return table

