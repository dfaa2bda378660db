"""The benchmark's workloads run against the library as it is.

``bench/workloads.py`` is imported read-only and one full deck of each of its
four workloads runs in-process: no op may raise and no output check may
fail.  A change that renames or reshapes a name the benchmark reads fails
here instead of in a benchmark run.
"""

import contextlib
import inspect
import io
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402

from npassive import cli, extremal, flattening, passivity, spectra  # noqa: E402
from npassive.spectra import check_size  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_deck_runs_clean(name, tmp_path, monkeypatch):
    """One deck runs clean, and every size it hands the size guard stays far
    under the cap, so the guard can never fail a benchmark op.  The largest, uncached: a d = 10,
    N = 5 table of 20,020 entries (passivity_scan); 19,951 cut pairs on
    [0, 0, 0, 1, 2] at N = 8 (bound_sweep).  alpha_scan hands it none: its
    three-level cone is in closed form."""
    sizes = []

    def recording(entries, *args):
        sizes.append(entries)
        check_size(entries, *args)

    for module in (spectra, passivity, cli):
        monkeypatch.setattr(module, "check_size", recording)
    for cache in (spectra.occupations, passivity._energy_groups, passivity._cuts):
        cache.cache_clear()
    wl = workloads.WORKLOADS[name]([7, 0], tmp_path / "work")
    try:
        deck = wl.deck()
        assert len(deck) == len(wl.shapes())
        for inp in deck:
            out = wl.op(inp)
            assert wl.check(inp, out).failed == [], (wl.label(inp), out)
    finally:
        wl.close()
    if name == "alpha_scan":
        assert sizes == []
    else:
        assert sizes and max(sizes) <= spectra.DEFAULT_CAP // 50, max(sizes)


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
    # the resolution the benchmark passes is accepted and ignored
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["scan-alpha", "--energies", "0", "1", "1.001", "--degeneracies", "1",
                         "1", "100", "--n", "5", "--beta-min", "2", "--beta-max", "4",
                         "--points", "1", "--resolution", "8"]) == 0
    assert flattening.flatten(s, rho).delta_S == 0.0
