"""Area averaging of the reconstructed field over the annulus.

Integrating the Fourier model over the full circumference kills every
harmonic, so only the constant-coefficient row of X survives:

    mean = 2/(r_o^2 - r_i^2) * integral r * v(r)^T mu_1 dr,

with mu_1 the constant-harmonic coefficients across stations (first row of
mu_X) and r the physical radius r_i + (r_o - r_i) * fraction. The variance
integrates the two-point covariance of circumferential ring means against the
same radius weighting on both arguments:

    var = 4/(r_o^2 - r_i^2)^2 * double integral r r' K(f, f') dr dr',
    K(f, f') = v(f)^T C00 v(f'),

where C00 is the constant-row block Cov(X[0, m], X[0, m']) of Sigma_X. Both
reduce to the station weight vector q = integral r v(f) dr, the variance to
a multiple of q^T C00 q. C00 is read from the field's X_blocks: with K x K
station blocks it is diagonal, c_m the (0, 0) entry of block m (one entry
for all m when one block stands for every station), so
q^T C00 q = sum_m c_m q_m^2; with one KM x KM block it is picked out of
that block.

The blend v is a cubic (or linear) polynomial on each panel between
neighbouring stations and constant on the edge panels, and r is linear in
f, so r * v(f) is at most quartic per panel and a 3-point Gauss-Legendre
rule (exact to degree 5) on each panel gives q exactly, up to roundoff.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NegativeVariance
from .fourier import FourierModel, _coefficients
from .propagation import FieldDistribution, _field_moments


# 3-point Gauss-Legendre rule on [-1, 1], exact to degree 5.
_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(3)


def _radius_weight_vector(model: FourierModel) -> np.ndarray:
    """q = integral over span of r(f) * v(f) * dr, as a length-M vector."""
    geometry = model.geometry
    knots = np.unique(np.concatenate(([0.0], geometry.r_stations, [1.0])))
    half = 0.5 * np.diff(knots)[:, None]  # (panels, 1)
    f = (knots[:-1, None] + half * (_GAUSS_NODES + 1.0)).ravel()
    w = (half * _GAUSS_WEIGHTS).ravel() * geometry.span * geometry.physical_radius(f)
    return w @ model.radial.blend(f)


def _area_norm(model: FourierModel) -> float:
    """2 / (r_o^2 - r_i^2), the reciprocal of the annulus area over pi."""
    geometry = model.geometry
    return 2.0 / (geometry.r_outer**2 - geometry.r_inner**2)


def _mean_from_weights(model: FourierModel, q: np.ndarray, mu_X: np.ndarray) -> float:
    return float(_area_norm(model) * (q @ mu_X[0, :]))


def area_average_mean(model: FourierModel, mu_X) -> float:
    """Annulus area average of the mean reconstructed field."""
    mu_X = _coefficients(mu_X, "mu_X", model)
    return _mean_from_weights(model, _radius_weight_vector(model), mu_X)


@dataclass(frozen=True)
class AreaAverageResult:
    """Area-averaged value with its variance and 1.96-sigma half width."""

    mean: float
    variance: float
    two_sigma: float


def area_average(model: FourierModel, field: FieldDistribution) -> AreaAverageResult:
    """Area-average the propagated field distribution.

    The field must come from ``model``. A variance below -1e-10 times the
    Frobenius norm of Sigma_X raises NegativeVariance; roundoff below zero
    reads 0. One block standing for M stations counts M times in that norm.
    """
    mu_X, X_blocks = _field_moments(field, model)
    K, M = mu_X.shape
    q = _radius_weight_vector(model)
    n_blocks, width, _ = X_blocks.shape
    if width == K:
        qCq = (q * X_blocks[:, 0, 0]) @ q
    else:
        qCq = q @ X_blocks[0].reshape(M, K, M, K)[:, 0, :, 0] @ q
    var = float(_area_norm(model) ** 2 * qCq)
    if var < 0.0:
        copies = mu_X.size // (n_blocks * width)
        if var < -1e-10 * math.sqrt(copies) * float(np.linalg.norm(X_blocks)):
            raise NegativeVariance(f"area-average variance {var:.3e} is negative")
        var = 0.0
    return AreaAverageResult(_mean_from_weights(model, q, mu_X), var, 1.96 * float(np.sqrt(var)))
