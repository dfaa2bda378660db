"""Every public order argument goes through one guard: anything but an
integer >= 1 (a bool included) is refused with one ValueError line naming
the argument."""

import numpy as np
import pytest

from npassive.bounds import (alpha_max, bound_report, check_bound, exponential_factor,
                             low_entropy_bound)
from npassive.extremal import sample_n_passive
from npassive.flattening import RegimeError, delta_S_bound
from npassive.gibbs import gibbs_populations
from npassive.passivity import is_k_structurally_stable, is_n_passive, n_ergotropy
from npassive.spectra import default_energy_tol, normalize_spectrum, occupations

S = normalize_spectrum([0, 0, 1, 1.9])
RHO = gibbs_populations(S, 1.0)

# per public function, the name of its order argument and a call with that order
CALLS = {
    "is_n_passive": ("N", lambda n: is_n_passive(S, RHO, n)),
    "is_k_structurally_stable": ("k", lambda k: is_k_structurally_stable(S, RHO, k)),
    "n_ergotropy": ("N", lambda n: n_ergotropy(S, RHO, n)),
    "bound_report": ("N", lambda n: bound_report(S, RHO, n)),
    "check_bound": ("N", lambda n: check_bound(S, RHO, n)),
    "alpha_max": ("N", lambda n: alpha_max(n, 1.9)),
    "exponential_factor": ("N", lambda n: exponential_factor(1.0, 1.9, 1.9, n)),
    "low_entropy_bound": ("N", lambda n: low_entropy_bound(S, 0.3, n)),
    "default_energy_tol": ("N", lambda n: default_energy_tol(1.9, n)),
    "delta_S_bound": ("N", lambda n: delta_S_bound(S, RHO, n)),
    "sample_n_passive": ("N", lambda n: sample_n_passive(S, n, 1, 0)),
    "occupations": ("N", lambda n: occupations(3, n)),
}


@pytest.mark.parametrize("order", [2.5, 0, True], ids=["2.5", "0", "True"])
@pytest.mark.parametrize("name", sorted(CALLS))
def test_bad_order_is_refused_by_name(name, order):
    arg, call = CALLS[name]
    with pytest.raises(ValueError) as exc:
        call(order)
    assert exc.type is ValueError
    assert str(exc.value) == f"{arg} must be >= 1 and an integer, got {order!r}"


@pytest.mark.parametrize("name", sorted(CALLS))
def test_numpy_integer_order_is_accepted(name):
    _, call = CALLS[name]
    try:
        call(np.int64(3))
    except RegimeError:  # the state's regime, decided after the guard
        pass


def test_occupations_names_its_dimension():
    with pytest.raises(ValueError, match=r"^d must be >= 1 and an integer, got 0$"):
        occupations(0, 2)


def test_a_cached_table_does_not_admit_a_bool():
    # True == 1 and hashes alike, so an untyped cache returned the order-1 table
    occupations(3, 1)
    with pytest.raises(ValueError, match=r"^N must be >= 1 and an integer, got True$"):
        occupations(3, True)
