"""First-order uncertainty analysis of isentropic turbine efficiency.

Efficiency from stagnation conditions across the stage:

    eta = (T01 - T02) / (T01 * (1 - (P02/P01)^((gamma-1)/gamma)))

Parameters are ordered z = (T01, T02, P01, P02, gamma). The Taylor variance is
the quadratic form sigma_eta^2 = grad^T Sigma grad with Sigma = D rho D, D the
diagonal of per-parameter standard deviations and rho their correlation
matrix. Per-parameter contributions (d eta/d z_i)^2 sigma_i^2 show where the
budget goes; they sum to the variance only when rho = I.
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateRatio, DimensionMismatch, InvalidCorrelation, InvalidParams
from .geometry import _finite
from .propagation import _sigmas, validate_correlation

PARAM_NAMES = ("T01", "T02", "P01", "P02", "gamma")

# Per-parameter standard deviations of a well-instrumented rig:
# 2.4 K and 1.4 K on the inlet/outlet temperatures, 600 Pa and 100 Pa on the
# pressures, 0.001 on gamma.
DEFAULT_SIGMAS = np.array([2.4, 1.4, 600.0, 100.0, 0.001])


def _terms(z):
    """The domain checks of a state or a stack of states z, then the terms
    eta and its gradient share: (T01, T02, P01, P02, gamma, D, pr, exponent)
    with pr = (P02/P01)^exponent, exponent = (gamma-1)/gamma and D = 1 - pr.
    """
    z = np.asarray(z, dtype=float)
    if z.shape[-1] != 5:
        raise DimensionMismatch("state vector must have 5 entries (T01,T02,P01,P02,gamma)")
    T01, T02, P01, P02, gamma = (z[..., i] for i in range(5))
    _finite(z, "z")
    if np.any(T01 <= 0.0) or np.any(P01 <= 0.0) or np.any(P02 <= 0.0):
        raise InvalidParams("temperatures and pressures must be positive")
    if np.any(gamma <= 1.0):
        raise InvalidParams("gamma must exceed 1")
    exponent = (gamma - 1.0) / gamma
    pr = np.power(P02 / P01, exponent)
    D = 1.0 - pr
    if np.any(D == 0.0):
        raise DegenerateRatio("pressure-ratio term vanished (P02 = P01 or gamma = 1)")
    return T01, T02, P01, P02, gamma, D, pr, exponent


def efficiency(z):
    """Isentropic efficiency at state(s) z; z may be (5,) or (n, 5).

    z must be finite, with positive temperatures and pressures and gamma
    above 1.
    """
    T01, T02, _, _, _, D, _, _ = _terms(z)
    eta = (T01 - T02) / (T01 * D)
    return float(eta) if np.ndim(z) == 1 else eta


def _value_and_gradient(z):
    """(eta, its analytic gradient) at a single state z, from one ``_terms``."""
    if np.ndim(z) != 1:
        raise DimensionMismatch(f"z must be a single state vector, got shape {np.shape(z)}")
    T01, T02, P01, P02, gamma, D, pr, exponent = _terms(z)
    num = T01 - T02
    core = num * exponent * pr / (T01 * D**2)  # shared by both pressure terms
    grad = np.array(
        [
            T02 / (T01**2 * D),
            -1.0 / (T01 * D),
            -core / P01,
            core / P02,
            num * pr * np.log(P02 / P01) / (T01 * D**2 * gamma**2),
        ]
    )
    return float(num / (T01 * D)), grad


def efficiency_gradient(z) -> np.ndarray:
    """Analytic gradient of the efficiency wrt (T01, T02, P01, P02, gamma)."""
    return _value_and_gradient(z)[1]


@dataclass(frozen=True)
class StationState:
    """Means, standard deviations and correlations of the five parameters."""

    z: np.ndarray
    sigma: np.ndarray
    rho: np.ndarray = None

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        sigma = np.asarray(self.sigma, dtype=float)
        if z.shape != (5,) or sigma.shape != (5,):
            raise DimensionMismatch("z and sigma must both have 5 entries")
        sigma = _sigmas(sigma, "sigma")
        efficiency(z)  # validates the mean state
        rho = np.eye(5) if self.rho is None else validate_correlation(self.rho, 5)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "rho", rho)

    @property
    def covariance(self) -> np.ndarray:
        return (self.sigma[:, None] * self.rho) * self.sigma[None, :]


# Synthetic but representative single-stage turbine state used by the demos
# and as the CLI default; not measured data.
DEFAULT_STATE = StationState(
    z=np.array([1600.0, 1180.0, 1.6e6, 4.0e5, 1.33]),
    sigma=DEFAULT_SIGMAS.copy(),
)


@dataclass(frozen=True)
class EfficiencyReport:
    """First-order efficiency uncertainty and its per-parameter breakdown."""

    eta_mean: float
    eta_variance: float
    contributions: dict
    contribution_fractions: dict

    @property
    def sigma_eta(self) -> float:
        return float(np.sqrt(self.eta_variance))


def taylor_variance(state: StationState) -> EfficiencyReport:
    """Propagate the state covariance through the first-order expansion."""
    eta, grad = _value_and_gradient(state.z)
    var = float(grad @ state.covariance @ grad)
    if var < 0.0:
        var = 0.0
    contrib = (grad * state.sigma) ** 2
    total = contrib.sum()
    fractions = contrib / total if total > 0.0 else np.zeros_like(contrib)
    return EfficiencyReport(
        eta_mean=eta,
        eta_variance=var,
        contributions=dict(zip(PARAM_NAMES, contrib.tolist())),
        contribution_fractions=dict(zip(PARAM_NAMES, fractions.tolist())),
    )


def block_correlation(rho_value: float) -> np.ndarray:
    """5x5 correlation with rho between the temperatures and between the
    pressures, gamma independent."""
    if not -1.0 <= rho_value <= 1.0:
        raise InvalidCorrelation(f"rho_value {rho_value} outside [-1, 1]")
    rho = np.eye(5)
    rho[0, 1] = rho[1, 0] = rho_value
    rho[2, 3] = rho[3, 2] = rho_value
    return rho


def correlation_sweep(state: StationState, rho_values) -> np.ndarray:
    """sigma(eta) as the temperature and pressure pair correlations sweep.

    Returns one standard deviation per requested correlation value: that of
    ``taylor_variance`` at the state with its rho replaced by the block
    pattern ``block_correlation(r)``.
    """
    return np.array([
        taylor_variance(replace(state, rho=block_correlation(float(r)))).sigma_eta
        for r in rho_values
    ])
