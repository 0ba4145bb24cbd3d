"""Concentrated differential privacy accounting.

Exact Renyi divergences for finite distributions and Gaussian mechanisms,
budget tracking under composition and group privacy, conversions between
privacy notions, information-theoretic bounds, and brute-force oracles
that double-check every closed form.
"""

import types

from .accountant import (
    DpPoint,
    LedgerEntry,
    McdpParams,
    ZcdpParams,
    advanced_composition_baseline,
    approx_zcdp_to_dp,
    compose,
    delta_of_eps,
    delta_of_eps_grid,
    dp_composition_bound,
    dp_composition_refined,
    dp_family_to_zcdp,
    dp_to_approx_zcdp,
    dp_to_approx_zcdp_maxdiv,
    entry_to_zcdp,
    eps_for_delta,
    eps_of_delta,
    group_privacy,
    mcdp_to_zcdp,
    pure_dp_to_zcdp,
    zcdp_to_dp_refined,
    zcdp_to_dp_simple,
    zcdp_to_mcdp,
)
from .bounds import (
    FiniteChannel,
    MetricPointSet,
    PackingRecord,
    PurifiedMechanism,
    certify_zcdp,
    channel_pushforward,
    greedy_packing_net,
    mi_bound,
    mutual_information,
    packing_lower_bound,
    product_channel,
    purify,
)
from .divergence import (
    ALPHA_GRID,
    OutcomeDist,
    PrivacyLossDist,
    aligned_probs,
    divergence_from_loss,
    loss_tail_bound,
    mixture,
    privacy_loss_dist,
    product,
    pushforward,
    renyi_divergence,
)
from .mechanisms import (
    ExpMechSpec,
    GaussianMech,
    MultiGaussianMech,
    approx_randomized_response,
    calibrate_sigma_for_dp,
    calibrate_sigma_for_rho,
    exponential_mechanism,
    gaussian_renyi,
    gaussian_rho,
    normal_upper_tail,
    randomized_response,
    thresholded_gaussian,
)
from .oracle import (
    McEstimate,
    PinskerRecord,
    QuadratureSpec,
    ViolationRecord,
    delta_exact_gaussian,
    delta_from_pld,
    delta_gaussian_mc,
    gaussian_pld_discretized,
    gaussian_renyi_quadrature,
    hyperbolic_inequality_check,
    mc_divergence_estimate,
    mcdp_gaussian_check,
    mcdp_postprocess_violation,
    pinsker_check,
)

__version__ = "0.1.0"

# The public names imported above; importing them also binds the
# submodules here, which are not part of the API.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
