"""Exact Howe-duality data for the dual pair (U_l, U_l').

Occurrence tests and the correspondence map for genuine representations,
intertwining distributions as exact Gaussian-times-polynomial data, the
full normalization-constant chain, the multiplicity-one identity, and a
numeric harness that independently verifies the matrix integrals the
constants rest on.  The harness (``howedual.verify`` and the names taken
from it here) loads numpy and is imported on first use.
"""

import importlib

from .exact import MultiPoly, SymScalar, det, factorial, rising
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
from .pab import pab2
from .reps import (
    DualPair,
    HCParam,
    HighestWeight,
    ab_params,
    correspond,
    correspond_back,
    delta_of,
    dim_partner,
    dim_piprime,
    dim_weyl,
    hc_param,
    mysterious_factor,
    occurs_G,
    occurs_Gprime,
    rho,
    rho_pp,
    s0_apply,
)

# Resolved by the module __getattr__ (PEP 562), which imports verify on first access.
_VERIFY_NAMES = (
    "McReport",
    "RngStream",
    "cayley_invariance_check",
    "cayley_volume_check",
    "cw_identity_check",
    "dan_determinant",
    "distribution_invariance",
    "forrester_warnaar_check",
    "gaussian_vandermonde",
    "vandermonde_identity",
)


def __getattr__(name):
    # importlib, not ``from . import verify``: that looks the name up on this
    # package first and would land back here.
    if name == "verify" or name in _VERIFY_NAMES:
        module = importlib.import_module(".verify", __name__)
        return module if name == "verify" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), "verify", *_VERIFY_NAMES})


__version__ = "0.1.0"
