"""Every public tolerance is checked: each public function with a parameter
named ``tol`` or ``*_tol`` refuses NaN, a negative and an infinite value
with ``ValueError``, and answers a valid call."""

import importlib
import inspect
import math
import pkgutil

import pytest

import npassive
from npassive.commensurability import n_star, rational_ratio_detect, triple_forces_gibbs
from npassive.gibbs import gibbs_populations, isentropic_point
from npassive.passivity import (
    classify_complete_passivity,
    is_k_structurally_stable,
    is_n_passive,
)
from npassive.spectra import DiagonalState, normalize_spectrum

S012 = normalize_spectrum([0, 1, 1.9])
RHO012 = DiagonalState((0.42, 0.33, 0.25))
S013 = normalize_spectrum([0, 1, 3])

# one valid call per public function with a tolerance, as (args, kwargs)
VALID_CALLS = {
    rational_ratio_detect: ((1.5,), {}),
    n_star: ((S013,), {}),
    triple_forces_gibbs: ((S013, gibbs_populations(S013, 1.0), (0, 1, 2)), {}),
    isentropic_point: ((S012, 0.5), {}),
    is_n_passive: ((S012, RHO012, 2), {}),
    is_k_structurally_stable: ((S012, RHO012, 2), {}),
    classify_complete_passivity: ((S012, RHO012), {}),
}


def tolerance_parameters():
    """(function, parameter name) for every public function of every module."""
    found = []
    for info in pkgutil.iter_modules(npassive.__path__):
        mod = importlib.import_module(f"npassive.{info.name}")
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            found += [(fn, p) for p in inspect.signature(fn).parameters
                      if p == "tol" or p.endswith("_tol")]
    return found


def test_every_tolerance_has_a_valid_call():
    functions = {fn for fn, _ in tolerance_parameters()}
    assert functions == set(VALID_CALLS)


@pytest.mark.parametrize("fn, param", tolerance_parameters(),
                         ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("bad", [math.nan, -1.0, math.inf])
def test_bad_tolerance_refused(fn, param, bad):
    args, kwargs = VALID_CALLS[fn]
    fn(*args, **kwargs)  # the valid call answers
    with pytest.raises(ValueError, match=f"^{param} must be finite and non-negative"):
        fn(*args, **kwargs, **{param: bad})
