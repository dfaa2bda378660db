"""The level functionals give the same bits whatever the memory order of their
batch.

numpy reduces an axis of fewer than 8 entries left to right in either
layout, so a level-major batch (the level axis has the largest stride) and
a C-ordered one must agree bit for bit on 2 to 5 levels.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from npassive.spectra import Spectrum, _energy, _entropy

batch_shapes = st.one_of(
    st.tuples(st.integers(1, 40)),
    st.tuples(st.integers(1, 9), st.integers(1, 9)),
)


def level_major(x):
    """A copy of x whose last (level) axis is outermost in memory."""
    return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)


def spectrum(rng, L):
    eps = np.concatenate(([0.0], np.cumsum(rng.uniform(0.05, 2.0, L - 1))))
    return Spectrum(tuple((float(e), int(g)) for e, g in zip(eps, 10 ** rng.integers(0, 13, L))))


@given(L=st.integers(2, 5), batch=batch_shapes, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_functionals_ignore_the_layout(L, batch, seed):
    rng = np.random.default_rng(seed)
    s = spectrum(rng, L)
    b = rng.uniform(-40.0, 40.0, batch + (L,))
    # excited levels at +inf, as gibbs_populations passes at beta = inf
    b[..., 1:][rng.random(batch + (L - 1,)) < 0.2] = math.inf
    logg = s.log_multiplicities
    lnp = oracle.log_populations(logg, b)
    w = np.exp(logg + lnp)
    lnp0 = np.where(w > 0, lnp, 0.0)
    assert _entropy(w, lnp0).tobytes() == _entropy(level_major(w), level_major(lnp0)).tobytes()
    eps = s.level_energies
    assert _energy(eps, w).tobytes() == _energy(eps, level_major(w)).tobytes()
