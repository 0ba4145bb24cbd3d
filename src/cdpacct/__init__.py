"""Concentrated differential privacy accounting.

Exact Renyi divergences for finite distributions and Gaussian mechanisms,
budget tracking under composition and group privacy, conversions between
privacy notions, information-theoretic bounds, and brute-force oracles
that double-check every closed form.

Importing the package runs none of its library modules.  Each of them is
registered in sys.modules through importlib.util.LazyLoader and runs on
first attribute access, so a command pays only for the modules it uses;
`import cdpacct.accountant` and `sys.modules["cdpacct.accountant"]` work
as with eager imports.  A public name is looked up in its module on each
access.  On Python 3.10 and 3.11 LazyLoader is not thread-safe, so two
threads that first touch a module together could both run it; cdpacct
itself runs on one thread.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# Each library module and the public names it defines.
_EXPORTS = {
    "accountant": (
        "DpPoint", "LedgerEntry", "McdpParams", "ZcdpParams", "advanced_composition_baseline",
        "approx_zcdp_to_dp", "compose", "delta_exact_gaussian", "delta_of_eps", "delta_of_eps_grid",
        "dp_composition_bound", "dp_composition_refined", "dp_family_to_zcdp", "dp_to_approx_zcdp",
        "dp_to_approx_zcdp_maxdiv", "entry_to_zcdp", "eps_for_delta", "eps_of_delta",
        "group_privacy", "mcdp_to_zcdp", "pure_dp_to_zcdp", "zcdp_to_dp_refined",
        "zcdp_to_dp_simple", "zcdp_to_mcdp",
    ),
    "bounds": (
        "FiniteChannel", "MetricPointSet", "PackingRecord", "PurifiedMechanism", "certify_zcdp",
        "channel_pushforward", "greedy_packing_net", "mi_bound", "mutual_information",
        "packing_lower_bound", "product_channel", "purify",
    ),
    "divergence": (
        "ALPHA_GRID", "OutcomeDist", "PrivacyLossDist", "aligned_probs", "divergence_from_loss",
        "loss_tail_bound", "mixture", "privacy_loss_dist", "product", "pushforward",
        "renyi_divergence",
    ),
    "mechanisms": (
        "ExpMechSpec", "GaussianMech", "MultiGaussianMech", "approx_randomized_response",
        "calibrate_sigma_for_dp", "calibrate_sigma_for_rho", "exponential_mechanism",
        "gaussian_renyi", "gaussian_rho", "normal_upper_tail", "randomized_response",
        "thresholded_gaussian",
    ),
    "oracle": (
        "McEstimate", "PinskerRecord", "ViolationRecord", "delta_from_pld",
        "delta_gaussian_mc", "gaussian_pld_discretized", "gaussian_renyi_quadrature",
        "hyperbolic_inequality_check", "mc_divergence_estimate", "mcdp_gaussian_check",
        "mcdp_postprocess_violation", "pinsker_check",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def _register_lazily(name: str):
    """The submodule `name`, registered in sys.modules, to run on first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# Bound here too, so that `from . import accountant` does not run the module.
globals().update((module, _register_lazily(module)) for module in _EXPORTS)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_MODULE_OF[name]], name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
