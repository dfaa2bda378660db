"""The benchmark's workloads run against the library as it is.

``bench/workloads.py`` is imported read-only and one full deck of each of its
four workloads runs in-process: no op may raise and no output check may
fail.  A change that renames or reshapes a name the benchmark reads fails
here instead of in a benchmark run.
"""

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

from npassive import extremal, flattening, passivity, spectra  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_deck_runs_clean(name, tmp_path):
    wl = workloads.WORKLOADS[name]([7, 0], tmp_path / "work")
    try:
        deck = wl.deck()
        assert len(deck) == len(wl.shapes())
        for inp in deck:
            out = wl.op(inp)
            assert wl.check(inp, out).failed == [], (wl.label(inp), out)
    finally:
        wl.close()


def test_names_the_benchmark_reads():
    s = spectra.normalize_spectrum([0.0, 1.0, 1.9])
    rho = spectra.DiagonalState((0.5, 0.3, 0.2))
    assert rho.populations == (0.5, 0.3, 0.2) and len(s.energies) == 3
    assert spectra.DiagonalState.from_weights([5, 3, 2]).populations == rho.populations
    assert passivity.passive_rearrangement(s, [0.2, 0.5, 0.3]) == rho
    assert "resolution" in inspect.signature(extremal.max_alpha_scan).parameters
    levels = spectra.Spectrum.from_levels([(0, 1), (1, 1), (1.001, 10**12)])
    (row,) = extremal.max_alpha_scan(levels, 5, [2.0], resolution=8)
    assert len(row.state.log_populations) == 3
    assert flattening.flatten(s, rho).delta_S == 0.0
