"""Canonical representation of Hamiltonian spectra and diagonal states.

Energies are stored zero-shifted (ground level at 0) and grouped into
distinct levels; a state is held as population blocks in slot order, and
every reader takes one view of it, ``_fold``: its blocks cut into classes of
one level and one population.  The state functionals and the occupation
table live here because every other module consumes them.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

STATE_SUM_TOL = 1e-12

# the one size guard, in array entries (rows x columns), on every array sized
# from its input: tables, cut sets, grids and the dense views of a state
DEFAULT_CAP = 2_000_000


class SpectrumError(ValueError):
    """Invalid spectral data."""


class StateError(ValueError):
    """Invalid population data."""


class EnumerationCapError(RuntimeError):
    """A table or grid would exceed the size guard."""


def check_size(entries: int, what: str, error: type[Exception] = EnumerationCapError) -> None:
    """Refuse with ``error`` an array of more than ``DEFAULT_CAP`` entries, before it is built."""
    if entries > DEFAULT_CAP:
        raise error(f"{what} refused: {entries} entries exceed the cap of {DEFAULT_CAP}")


def _check_tol(tol: float, name: str = "tol") -> None:
    """The one tolerance guard: refuse a NaN, negative or infinite tolerance."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {tol}")


def _check_order(N, name: str = "N") -> None:
    """The one order guard: refuse, by name, anything but an integer >= 1 (a bool too)."""
    if not (isinstance(N, numbers.Integral) and not isinstance(N, bool) and N >= 1):
        raise ValueError(f"{name} must be >= 1 and an integer, got {N!r}")


@dataclass(frozen=True)
class Spectrum:
    """Zero-shifted, non-decreasing energy spectrum with degeneracy structure.

    ``distinct_levels`` is the authoritative field: a tuple of
    ``(energy, multiplicity)`` pairs with strictly increasing energies,
    ``energy[0] == 0`` and Python-int multiplicities.  The dense
    ``energies`` view is materialized on demand and refuses for
    astronomically degenerate spectra.
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
        # a bool or a float is refused, as by _check_order; numpy integers are stored as ints
        bad = [g for g in mults if not isinstance(g, numbers.Integral) or isinstance(g, bool)]
        if bad:
            raise SpectrumError(f"multiplicities must be integers, got {bad[0]!r}")
        object.__setattr__(self, "distinct_levels", tuple((e, int(g)) for e, g in self.distinct_levels))
        if any(g < 1 for g in mults):
            raise SpectrumError("multiplicities must be positive")
        # the least integer that rounds to inf: log_multiplicities could not convert it
        if any(g >= 2**1024 - 2**970 for g in mults):
            raise SpectrumError("multiplicities must be below 2**1024 - 2**970, the float range")

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
    def log_multiplicities(self) -> np.ndarray:
        return np.log(np.array([g for _, g in self.distinct_levels], dtype=float))

    @cached_property
    def energies(self) -> tuple[float, ...]:
        check_size(self.d, "dense energy list", SpectrumError)
        out = []
        for e, g in self.distinct_levels:
            out.extend([e] * g)
        return tuple(out)

    @classmethod
    def from_levels(cls, levels) -> "Spectrum":
        """Build from (energy, multiplicity) pairs; shifts the minimum to 0."""
        levels = sorted((float(e), g) for e, g in levels)
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
        levels = tuple((v - vals[0], len(list(run))) for v, run in itertools.groupby(vals))
        return cls(tuple((float(e), g) for e, g in levels), rational_levels=levels)


def default_energy_tol(eps_max: float, N: int) -> float:
    """Order-N energy sums within this tolerance of each other tie."""
    _check_order(N)
    return 1e-9 * max(1.0, eps_max * N)


def _tie_breaks(e: np.ndarray, eps_max: float, N: int) -> np.ndarray:
    """The one tie rule: True where a new group starts in the sorted order-N
    energy sums e, at the first and past each gap above
    ``default_energy_tol(eps_max, N)``; a run of smaller gaps chains into one
    group, which can span more than the tolerance."""
    return np.concatenate(([True], e[1:] - e[:-1] > default_energy_tol(eps_max, N)))


def normalize_spectrum(raw_energies) -> Spectrum:
    """Shift, sort, and merge tied levels of a raw energy list.

    The levels are the order-1 tie groups of the sorted values
    (``_tie_breaks``), the rule of the passivity checks.  A level's energy is
    its group's minimum, so the ground level stays exactly at 0.
    """
    vals = [float(x) for x in raw_energies]
    if not vals:
        raise SpectrumError("empty energy list")
    if any(not math.isfinite(x) for x in vals):
        raise SpectrumError("energies must be finite")
    e = np.sort(vals) - min(vals)
    starts = np.flatnonzero(_tie_breaks(e, e[-1], 1)).tolist()
    ends = starts[1:] + [len(vals)]
    return Spectrum(tuple((float(e[a]), b - a) for a, b in zip(starts, ends)))


@dataclass(frozen=True, init=False)
class DiagonalState:
    """A state diagonal in the energy eigenbasis: (population, count) blocks
    in slot order, each block's ln(population), and its d slots.
    ``DiagonalState(populations)`` makes one block of each run of equal
    populations, ``from_levels`` one block per level of a spectrum.  Equality
    compares these blocks and logs, so it is by representation: a state built
    both ways can compare unequal, and the readers give both the same answers.
    """

    blocks: tuple[tuple[float, int], ...]
    log_populations: tuple[float, ...]

    def __init__(self, populations):
        blocks = tuple((p, len(list(run))) for p, run in itertools.groupby(populations))
        self._set(blocks, tuple(math.log(p) if p > 0 else -math.inf for p, _ in blocks))

    @classmethod
    def _of(cls, blocks, log_populations) -> "DiagonalState":
        rho = cls.__new__(cls)
        rho._set(blocks, log_populations)
        return rho

    def _set(self, blocks, log_populations):
        if not blocks:
            raise StateError("empty population list")
        if not all(math.isfinite(p) for p, _ in blocks):
            raise StateError("populations must be finite")
        if any(p < 0 for p, _ in blocks):
            raise StateError("populations must be non-negative")
        total = sum(p * c for p, c in blocks)
        if abs(total - 1.0) > STATE_SUM_TOL:
            raise StateError(f"populations sum to {total!r}, expected 1")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "log_populations", log_populations)
        object.__setattr__(self, "d", sum(c for _, c in blocks))

    @property
    def populations(self) -> tuple[float, ...]:
        """One population per slot; refused above ``DEFAULT_CAP`` slots."""
        check_size(self.d, "dense population list", StateError)
        return tuple(p for p, c in self.blocks for _ in range(c))

    @classmethod
    def from_weights(cls, weights) -> "DiagonalState":
        w = [float(x) for x in weights]
        total = sum(w)
        if total <= 0:
            raise StateError("weights must have positive sum")
        return cls(tuple(x / total for x in w))

    @classmethod
    def from_levels(cls, s: Spectrum, log_populations) -> "DiagonalState":
        """The order-1 stable state whose every slot in level k of s holds
        population exp(log_populations[k])."""
        lnp = tuple(float(x) for x in log_populations)
        if len(lnp) != s.num_levels:
            raise StateError(f"{len(lnp)} log-populations for {s.num_levels} levels")
        if not all(x <= 0.0 for x in lnp):
            raise StateError("log-populations must be <= 0")
        return cls._of(tuple((math.exp(x), g) for x, (_, g) in zip(lnp, s.distinct_levels)), lnp)


@dataclass(frozen=True)
class OccupationVector:
    """An occupation vector over d slots as the (slot, count) pairs of its
    non-zero counts in slot order; ``counts``, one per slot, on request."""

    d: int
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if any(c < 0 for _, c in self.entries):
            raise ValueError("occupation counts must be non-negative")

    @property
    def counts(self) -> tuple[int, ...]:
        check_size(self.d, "dense occupation counts", StateError)
        out = [0] * self.d
        for slot, c in self.entries:
            out[slot] = c
        return tuple(out)


class Classes(NamedTuple):
    """Per class, a run of slots of one level holding one population."""

    level: tuple[int, ...]
    energies: tuple[float, ...]
    populations: tuple[float, ...]
    log_populations: tuple[float, ...]
    counts: tuple[int, ...]
    last: tuple[int, ...]


@lru_cache(maxsize=8)
def _fold(s: Spectrum, rho: DiagonalState) -> Classes:
    """The classes of rho on s, the one view every reader of a state takes:
    its blocks cut at the level boundaries, in slot order.  Order-N vectors
    over slots and over classes realise the same (energy, log-weight) pairs.
    The last 8 folds are kept.
    """
    if rho.d != s.d:
        raise StateError(f"state has {rho.d} populations, spectrum has d={s.d}")
    rows = []
    levels = iter(enumerate(s.distinct_levels))
    start = 0
    level_end = 0
    for (p, c), x in zip(rho.blocks, rho.log_populations):
        end = start + c
        while start < end:  # the block's pieces, one per level it meets
            if start == level_end:
                k, (e, g) = next(levels)
                level_end += g
            stop = min(end, level_end)
            rows.append((k, e, p, x, stop - start, stop - 1))
            start = stop
    return Classes(*map(tuple, zip(*rows)))


def _energy(eps: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Mean energy of the masses w (count times population) along the last axis."""
    return np.add.reduce(w * eps, axis=-1)  # ndarray.sum, without its wrapper


def _entropy(w: np.ndarray, lnp: np.ndarray) -> np.ndarray:
    """-sum w*ln(lambda) of the masses w along the last axis; lnp must be
    finite, any value, where w is 0."""
    return -np.add.reduce(w * lnp, axis=-1)


def state_energy(s: Spectrum, rho: DiagonalState) -> float:
    """Mean energy sum(lambda_j * eps_j), read over the classes."""
    f = _fold(s, rho)
    w = np.array([p * c for p, c in zip(f.populations, f.counts)])
    return float(_energy(np.array(f.energies), w))


@lru_cache(maxsize=8)
def _entropy_gap(s: Spectrum, rho: DiagonalState) -> float:
    """S(rho) - ln d0, at most ln d - ln d0, as -sum w*ln(d0*lambda) over the
    classes.  For d0 > 1, ln(lambda) + ln(d0) cancels; a ground level held by
    one class with most of the mass takes ln(d0*lambda) = log1p(-W) for the
    excited mass W instead, so a cold state's gap stays exact far below
    1e-16*ln d0, as in gibbs._thermal_functionals.  The last 8 are kept.
    """
    f = _fold(s, rho)
    w = np.multiply(f.populations, f.counts)
    t = np.add(f.log_populations, s.log_multiplicities[0])
    excited = float(np.add.reduce(w[f.level.count(0):]))
    if s.d0 > 1 and f.level[1:2] != (0,) and excited < 0.5:
        t[0] = math.log1p(-excited)
    gap = float(_entropy(w, np.where(w > 0, t, 0.0)))
    return min(gap, math.log(s.d) - float(s.log_multiplicities[0]))


def state_entropy(rho: DiagonalState) -> float:
    """von Neumann entropy -sum(lambda ln lambda), with 0 ln 0 = 0."""
    w = np.array([p * c for p, c in rho.blocks])
    return float(_entropy(w, np.where(w > 0, rho.log_populations, 0.0)))


@lru_cache(maxsize=16, typed=True)
def occupations(d: int, N: int) -> np.ndarray:
    """All occupation vectors of order N over d slots, one per row.

    Rows run in lexicographic order, first entry ascending from 0.  The
    integer table is read-only and shared between callers; above
    ``DEFAULT_CAP`` entries it is refused with ``EnumerationCapError``.
    The cache is typed, so True misses the entry of 1 and meets the guard.
    """
    _check_order(d, "d")
    _check_order(N)
    count = math.comb(N + d - 1, d - 1)
    check_size(count * d, f"occupation table of C({N + d - 1},{d - 1}) = {count} rows x {d}")
    # stars and bars: lexicographic bar positions give lexicographic counts
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(N + d - 1), d - 1)),
        dtype=np.int64,
        count=count * (d - 1),
    ).reshape(count, d - 1)
    # a count is the gap between neighbouring bars less one; -1 and N + d - 1 close a row
    table = np.empty((count, d), dtype=np.int64)
    if d == 1:
        table[:, 0] = N
    else:
        table[:, 0] = bars[:, 0]
        np.subtract(bars[:, 1:], bars[:, :-1], out=table[:, 1:-1])
        table[:, 1:-1] -= 1
        np.subtract(N + d - 2, bars[:, -1], out=table[:, -1])
    table.flags.writeable = False
    return table

