"""Numerical toolkit for order-N passive states, ergotropy, and isoentropic
thermal energy bounds on finite spectra."""

from .bounds import BoundReport, alpha_max, bound_report, check_bound, spectral_ratio
from .commensurability import n_star, rational_ratio_detect, triple_forces_gibbs
from .extremal import (
    AlphaScanRow,
    max_alpha_scan,
    sample_n_passive,
    saturation_construct,
)
from .flattening import delta_S_bound, flatten
from .gibbs import (
    GibbsPoint,
    NoGibbsCounterpartError,
    gibbs_point,
    gibbs_populations,
    isentropic_point,
    isoentropic_energy,
)
from .passivity import (
    CPClass,
    PassivityVerdict,
    classify_complete_passivity,
    ergotropy_1,
    is_k_structurally_stable,
    is_n_passive,
    n_ergotropy,
    passive_rearrangement,
    prep1_envelope,
)
from .spectra import (
    DiagonalState,
    OccupationVector,
    Spectrum,
    normalize_spectrum,
    occupations,
    state_energy,
    state_entropy,
)

__version__ = "0.1.0"
