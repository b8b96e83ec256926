"""Exact Howe-duality data for the dual pair (U_l, U_l').

Occurrence tests and the correspondence map for genuine representations,
intertwining distributions as exact Gaussian-times-polynomial data, the
full normalization-constant chain, the multiplicity-one identity, and a
numeric harness that independently verifies the matrix integrals the
constants rest on.
"""

from .exact import HalfInt, MultiPoly, Rat, SymScalar, det, factorial, rising
from .intertwine import (
    DistributionData,
    constants,
    distribution_G,
    distribution_Gprime,
    divide_by_vandermonde,
    eval_distribution,
    eval_on_W,
    multiplicity_one_check,
    p_mu_product,
    proportionality,
    skew_symmetrize,
    value_at_zero_closed,
    value_at_zero_oracle,
    vol_unitary,
)
from .pab import laguerre, pab2, pab_minus2, pab_piecewise_eval, pab_value_at_zero
from .reps import (
    DualPair,
    HCParam,
    HighestWeight,
    ab_params,
    correspond,
    correspond_back,
    delta_of,
    dim_piprime,
    dim_weyl,
    hc_param,
    hw_of,
    mysterious_factor,
    occurs_G,
    occurs_Gprime,
    rho,
    rho_pp,
    s0_apply,
)
from .verify import (
    McReport,
    RngStream,
    cayley_invariance_check,
    cayley_volume_check,
    cw_identity_check,
    dan_determinant,
    distribution_invariance,
    forrester_warnaar_check,
    gaussian_vandermonde,
    haar_unitary,
    vandermonde_identity,
)

__version__ = "0.1.0"
