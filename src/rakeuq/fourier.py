"""Circumferential Fourier model of an annular flow field.

The field at one axial plane is modelled station by station as a truncated
Fourier series in circumferential angle,

    T(r, theta) = v(r)^T U X^T a(theta),

where a(theta) = [1, cos(w1 t), sin(w1 t), ..., cos(wk t), sin(wk t)]^T is the
harmonic basis evaluated at the angle, X is the (2k+1) x M coefficient matrix
(one column per radial station) and v(r)^T U blends the per-station values
radially. By default U is the identity and v(r) holds natural-cubic-spline
cardinal weights through the stations, so v(r_m)^T U = e_m^T and the model
interpolates each station's circumferential fit exactly.

Fitting is multivariate least squares over the N x M measurement matrix B:
X = argmin ||A X - B||_F^2, where row n of the design matrix A is a(theta_n)^T.
When A^T A is ill-conditioned (few rakes, aliased harmonics, nearly coincident
angles) the fit walks a ladder of ridge penalties, solving
argmin ||A X - B||_F^2 + lambda^2 ||X||_F^2 with increasing lambda until the
coefficient spectral norm drops below the guard value beta.

Angles are degrees at every public interface and radians internally.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidParams,
    OutOfDomain,
    RegularizationExhausted,
    SingularDesign,
)
from .geometry import AnnulusGeometry, HarmonicSet

# Ridge penalties tried in order once the plain fit exceeds the norm guard.
DEFAULT_LADDER = (0.0001, 0.001, 0.1, 10.0)

# Coefficient spectral-norm guard, in measurement units. 1e3 suits O(100)-unit
# fields; campaigns with larger absolute levels should raise it.
DEFAULT_BETA = 1e3


def design_matrix(theta_deg, omega) -> np.ndarray:
    """Harmonic design matrix for angles in degrees.

    ``theta_deg`` may be shape (N,) for a single design or (L, N) for a stack;
    the result has one extra trailing axis of length 2k+1 laid out as
    [1, cos(w1 t), sin(w1 t), ..., cos(wk t), sin(wk t)].
    """
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    scalar_input = theta.ndim == 1
    theta = np.atleast_2d(theta)
    omega = np.asarray(tuple(omega), dtype=float)
    arg = theta[..., :, None] * omega[None, :]  # (..., N, k)
    out = np.empty(theta.shape + (2 * omega.size + 1,), dtype=float)
    out[..., 0] = 1.0
    out[..., 1::2] = np.cos(arg)
    out[..., 2::2] = np.sin(arg)
    return out[0] if scalar_input else out


def design_row(theta_deg, omega) -> np.ndarray:
    """Basis vector a(theta); with an array argument, one row per angle."""
    theta = np.asarray(theta_deg, dtype=float)
    rows = design_matrix(np.atleast_1d(theta), omega)
    return rows[0] if theta.ndim == 0 else rows


def qr_solve(A, B) -> np.ndarray:
    """Least-squares solve via reduced QR; A may be one design or a stack.

    Raises numpy's LinAlgError when R is exactly singular; near-singular
    designs come back with huge or non-finite entries and are left for the
    caller's norm guard.
    """
    Q, R = np.linalg.qr(A)
    return np.linalg.solve(R, np.swapaxes(Q, -1, -2) @ B)


def ridge_solve(A, B, lam: float) -> np.ndarray:
    """Ridge least-squares solve min ||AX-B||_F^2 + lam^2 ||X||_F^2 via QR.

    Implemented by augmenting A with lam*I so the plain and ridge paths share
    one factorization routine. Works on a single design or a stack.
    """
    if lam == 0.0:
        return qr_solve(A, B)
    ncoef = A.shape[-1]
    eye = lam * np.eye(ncoef)
    if A.ndim == 2:
        A_aug = np.concatenate([A, eye], axis=0)
    else:
        A_aug = np.concatenate([A, np.broadcast_to(eye, A.shape[:-2] + eye.shape)], axis=-2)
    pad = np.zeros((ncoef, B.shape[-1]))
    if B.ndim > 2 or A.ndim > 2:
        B = np.broadcast_to(B, A.shape[:-2] + B.shape[-2:]) if B.ndim == 2 else B
        pad = np.broadcast_to(pad, B.shape[:-2] + pad.shape)
        B_aug = np.concatenate([B, pad], axis=-2)
    else:
        B_aug = np.concatenate([B, pad], axis=0)
    return qr_solve(A_aug, B_aug)


def _natural_curvatures(s) -> np.ndarray:
    """C[m, j]: second derivative at station m of the natural cubic spline
    through e_j. End rows are zero; the interior rows solve the tridiagonal
    continuity system h_{m-1} c_{m-1} + 2 (h_{m-1} + h_m) c_m + h_m c_{m+1}
    = 6 * (second divided difference of e_j at m), h_m = s_{m+1} - s_m."""
    M = s.size
    C = np.zeros((M, M))
    if M >= 3:
        h = np.diff(s)
        T = np.diag(2.0 * (h[:-1] + h[1:])) + np.diag(h[1:-1], 1) + np.diag(h[1:-1], -1)
        C[1:-1] = np.linalg.solve(T, 6.0 * np.diff(np.diff(np.eye(M), axis=0) / h[:, None], axis=0))
    return C


@dataclass(frozen=True)
class RadialBasis:
    """Radial blending weights v(r) over the probe stations.

    ``kind`` selects natural-cubic-spline cardinal weights ("cubic", default)
    or piecewise-linear hat weights ("linear"). On the panel s_m <= f <= s_{m+1}
    (h = s_{m+1} - s_m, t = (f - s_m)/h, u = 1 - t) both are the cubic
    v(f) = u e_m + t e_{m+1} + h^2/6 [(u^3 - u) c_m + (t^3 - t) c_{m+1}],
    with c_m the knot second derivatives: the natural spline's for "cubic",
    zero for "linear". Either way v(s_m) = e_m at the stations, weights are
    held constant outside the station range, and U (identity unless
    supplied) maps station values to blending coefficients.
    """

    stations: np.ndarray
    kind: str = "cubic"
    U: np.ndarray = None

    def __post_init__(self):
        stations = np.atleast_1d(np.asarray(self.stations, dtype=float))
        if self.kind not in ("cubic", "linear"):
            raise InvalidParams(f"unknown radial basis kind {self.kind!r}")
        U = np.eye(stations.size) if self.U is None else np.asarray(self.U, dtype=float)
        if U.shape != (stations.size, stations.size):
            raise DimensionMismatch("U must be M x M")
        object.__setattr__(self, "stations", stations)
        object.__setattr__(self, "U", U)
        C = _natural_curvatures(stations) if self.kind == "cubic" else np.zeros(U.shape)
        object.__setattr__(self, "_curvatures", C)

    @property
    def n_stations(self) -> int:
        return self.stations.size

    def weights(self, frac) -> np.ndarray:
        """Cardinal weights v at span fraction(s) in [0, 1].

        Returns shape (M,) for a scalar argument, (n, M) for an array.
        """
        f = np.asarray(frac, dtype=float)
        if np.any(f < 0.0) or np.any(f > 1.0):
            raise OutOfDomain("radial fraction outside [0, 1]")
        scalar_input = f.ndim == 0
        f = np.atleast_1d(f)
        s = self.stations
        if s.size == 1:
            w = np.ones((f.size, 1))
        else:
            fc = np.clip(f, s[0], s[-1])  # hold end weights outside the stations
            idx = np.clip(np.searchsorted(s, fc, side="right") - 1, 0, s.size - 2)
            h = s[idx + 1] - s[idx]
            t = (fc - s[idx]) / h
            u = 1.0 - t
            C = self._curvatures
            w = (h * h / 6.0)[:, None] * (
                (u * (u * u - 1.0))[:, None] * C[idx] + (t * (t * t - 1.0))[:, None] * C[idx + 1]
            )
            rows = np.arange(f.size)
            w[rows, idx] += u
            w[rows, idx + 1] += t
        return w[0] if scalar_input else w

    def blend(self, frac) -> np.ndarray:
        """U^T v(frac): the station mixture actually applied to X columns."""
        return self.weights(frac) @ self.U


class _RidgeGuard(NamedTuple):
    """The fit guard: ridge penalties to try in order, and the norm bound."""

    lambda_ladder: tuple
    beta: float


def _ridge_guard(lambda_ladder, beta: float) -> _RidgeGuard:
    """Checked guard settings: beta and every ladder entry must be positive."""
    if beta <= 0.0:
        raise InvalidParams("beta must be positive")
    ladder = tuple(float(l) for l in (lambda_ladder or ()))
    if any(l <= 0.0 for l in ladder):
        raise InvalidParams("ladder entries must be positive")
    return _RidgeGuard(ladder, float(beta))


def _design_conditioning(A):
    """cond(A^T A) and the numerical-singularity flag of a design or a stack.

    A design is singular when it has fewer rows than columns or its smallest
    singular value is at most sigma_max * max(N, K) * eps; its cond is then
    inf. A stack gives one value per slice.
    """
    sv = np.linalg.svd(A, compute_uv=False)
    tol = sv[..., 0] * max(A.shape[-2:]) * np.finfo(float).eps
    singular = (A.shape[-2] < A.shape[-1]) | (sv[..., -1] <= tol)
    ratio = np.divide(sv[..., 0], sv[..., -1], out=np.full(singular.shape, np.inf), where=~singular)
    return ratio**2, singular


@dataclass(frozen=True)
class FourierModel:
    """Design matrix, pseudoinverse and fit configuration for one geometry.

    ``P`` is the unregularized pseudoinverse (A^T A)^{-1} A^T, or None when
    A^T A is numerically singular and fits must go through the ridge ladder.
    ``cond_AtA`` records cond(A^T A) for diagnostics.
    """

    geometry: AnnulusGeometry
    harmonics: HarmonicSet
    A: np.ndarray
    P: np.ndarray
    cond_AtA: float
    lambda_ladder: tuple
    beta: float
    radial: RadialBasis

    @property
    def n_rakes(self) -> int:
        return self.geometry.n_rakes

    @property
    def n_stations(self) -> int:
        return self.geometry.n_stations

    @property
    def n_coeffs(self) -> int:
        return self.harmonics.n_coeffs

    def pseudoinverse(self, lam: float = 0.0) -> np.ndarray:
        """(A^T A + lam^2 I)^{-1} A^T; the plain pseudoinverse for lam = 0."""
        if lam == 0.0:
            if self.P is None:
                raise SingularDesign(
                    "A^T A is numerically singular; an unregularized "
                    "pseudoinverse does not exist"
                )
            return self.P
        return ridge_solve(self.A, np.eye(self.n_rakes), lam)


def build_design_matrix(
    geometry: AnnulusGeometry,
    harmonics: HarmonicSet,
    *,
    lambda_ladder=DEFAULT_LADDER,
    beta: float = DEFAULT_BETA,
    radial_basis: str = "cubic",
    U: np.ndarray = None,
) -> FourierModel:
    """Assemble the Fourier model for a geometry and harmonic set.

    Raises SingularDesign when A^T A is numerically singular and the ladder is
    empty, because no fit could ever succeed. With a non-empty ladder the
    model is built anyway and fits go straight to the ridge penalties.
    """
    guard = _ridge_guard(lambda_ladder, beta)
    A = design_matrix(geometry.theta_deg, harmonics.omega)
    cond, singular = _design_conditioning(A)
    cond, singular = float(cond), bool(singular)
    if singular and not guard.lambda_ladder:
        raise SingularDesign(
            f"A^T A is numerically singular for omega={harmonics.omega} at "
            f"{geometry.n_rakes} rakes and no ridge requested"
        )
    P = None if singular else qr_solve(A, np.eye(geometry.n_rakes))
    radial = RadialBasis(geometry.r_stations, kind=radial_basis, U=U)
    return FourierModel(geometry, harmonics, A, P, cond, guard.lambda_ladder, guard.beta, radial)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Fitted Fourier coefficients and the ridge penalty that produced them."""

    X: np.ndarray
    lambda_used: float

    @property
    def spectral_norm(self) -> float:
        return float(np.linalg.norm(self.X, 2))


def coefficient_norm(X) -> float:
    """Spectral norm used by the fit guard; non-finite inputs map to inf."""
    X = np.asarray(X)
    if not np.all(np.isfinite(X)):
        return math.inf
    return float(np.linalg.norm(X, 2))


def fit(model: FourierModel, B) -> CoefficientMatrix:
    """Fit coefficients to an N x M measurement matrix.

    Tries the plain least-squares solution first; if its spectral norm
    reaches the model's beta guard (or the design is singular), walks the
    ridge ladder and returns the first solution below the guard. Raises
    RegularizationExhausted when no ladder entry succeeds.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape != (model.n_rakes, model.n_stations):
        raise DimensionMismatch(
            f"measurements must be {model.n_rakes} x {model.n_stations}, got {B.shape}"
        )
    candidates = [0.0] if model.P is not None else []
    candidates += list(model.lambda_ladder)
    if not candidates:
        raise SingularDesign("singular design and empty ladder")
    for lam in candidates:
        try:
            X = ridge_solve(model.A, B, lam)
        except np.linalg.LinAlgError:
            continue
        if coefficient_norm(X) < model.beta:
            return CoefficientMatrix(X, lam)
    raise RegularizationExhausted(
        f"no ladder entry brought ||X||_2 below beta={model.beta}"
    )


def predict_point(model: FourierModel, X, r_frac, theta_deg):
    """Evaluate the reconstructed field at one radius and angle(s).

    ``r_frac`` is a scalar span fraction in [0, 1]; ``theta_deg`` may be a
    scalar or an array of angles. Returns a float or an array accordingly.
    """
    X = np.asarray(X, dtype=float)
    if X.shape != (model.n_coeffs, model.n_stations):
        raise DimensionMismatch(
            f"coefficients must be {model.n_coeffs} x {model.n_stations}, got {X.shape}"
        )
    w = model.radial.blend(float(r_frac))
    a = design_row(theta_deg, model.harmonics.omega)
    values = a @ (X @ w)
    return float(values) if np.ndim(theta_deg) == 0 else values


def station_predictions(X, theta_deg, omega) -> np.ndarray:
    """Per-station circumferential predictions design(theta) @ X.

    With zero angle scatter the rake-position Monte Carlo returns exactly
    this grid: its origin is the same product for the nominal fit.
    """
    return design_matrix(np.atleast_1d(np.asarray(theta_deg, dtype=float)), omega) @ X
