"""Circumferential Fourier model of an annular flow field.

The field at one axial plane is modelled station by station as a truncated
Fourier series in circumferential angle,

    T(r, theta) = v(r)^T X^T a(theta),

where a(theta) = [1, cos(w1 t), sin(w1 t), ..., cos(wk t), sin(wk t)]^T is the
harmonic basis evaluated at the angle, X is the (2k+1) x M coefficient matrix
(one column per radial station) and v(r) blends the per-station values
radially. By default v(r) holds natural-cubic-spline cardinal weights
through the stations, so v(r_m) = e_m and the model interpolates each
station's circumferential fit exactly.

Fitting is multivariate least squares over the N x M measurement matrix B:
X = argmin ||A X - B||_F^2, where row n of the design matrix A is a(theta_n)^T.
When A^T A is ill-conditioned (few rakes, aliased harmonics, nearly coincident
angles) the fit walks a ladder of ridge penalties, solving
argmin ||A X - B||_F^2 + lambda^2 ||X||_F^2 with increasing lambda until the
coefficient spectral norm drops below the guard value beta. The guard reads
the Frobenius norm first, since ||X||_F / sqrt(min(K, M)) <= ||X||_2 <=
||X||_F, and computes the exact spectral norm only for coefficients whose
Frobenius norm leaves the decision open.

There is one ladder walk, ``_fit_batch``, over a stack of designs: ``fit``
hands it a stack of one, and the harmonic scan and the rake-placement Monte
Carlo hand it many. Each rung is a stacked QR factorization followed by one
back-substitution vectorised over the whole stack. The plain solve
(lambda = 0) is tried only for designs that are not numerically singular
under ``_design_conditioning``; a singular design starts at the first rung,
because its plain solve is meaningless even when it happens to pass the
guard.

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
from .geometry import AnnulusGeometry, HarmonicSet, _finite, _floats

# Ridge penalties tried in order once the plain fit exceeds the norm guard.
DEFAULT_LADDER = (0.0001, 0.001, 0.1, 10.0)

# Coefficient spectral-norm guard, in measurement units. 1e3 suits O(100)-unit
# fields; campaigns with larger absolute levels should raise it.
DEFAULT_BETA = 1e3


def design_matrix(theta_deg, omega) -> np.ndarray:
    """Harmonic design matrix for angles in degrees, of any shape.

    The result has one extra trailing axis of length 2k+1 laid out as
    [1, cos(w1 t), sin(w1 t), ..., cos(wk t), sin(wk t)]: a scalar angle
    gives the basis vector a(theta), (N,) angles one design and (L, N) a
    stack of designs.
    """
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    omega = np.asarray(tuple(omega), dtype=float)
    arg = theta[..., None] * omega  # (..., k)
    out = np.empty(theta.shape + (2 * omega.size + 1,), dtype=float)
    out[..., 0] = 1.0
    out[..., 1::2] = np.cos(arg)
    out[..., 2::2] = np.sin(arg)
    return out


def qr_solve(A, B) -> np.ndarray:
    """Least-squares solve via reduced QR; A may be one design or a stack.

    B has two dimensions or more: a matrix, or a stack that broadcasts
    against A's. R is solved by back-substitution with the stack axes moved
    last, so each of its K steps is a few elementwise operations over the
    whole stack and every slice equals the same design solved alone, bit for
    bit. numpy's R has exact zeros below the diagonal, so the solve breaks
    down exactly when a diagonal entry is exactly zero: such a slice comes
    back as NaN, and the others are solved as usual. Near-singular designs
    come back with huge or non-finite entries. Both are left for the
    caller's norm guard. B may have fewer rows than A; its missing rows are
    read as zeros.
    """
    Q, R = np.linalg.qr(A)
    QtB = np.swapaxes(Q[..., : B.shape[-2], :], -1, -2) @ B
    n = R.ndim
    stack_last = (n - 2, n - 1) + tuple(range(n - 2))
    X = _back_substitute(R.transpose(stack_last).copy(), QtB.transpose(stack_last).copy())
    diag = R.diagonal(0, -2, -1)
    if np.count_nonzero(diag) < diag.size:
        X[..., (diag == 0.0).any(axis=-1)] = np.nan
    return np.ascontiguousarray(X.transpose(tuple(range(2, n)) + (0, 1)))


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _back_substitute(R, Y):
    """Solve R X = Y in place, R upper triangular (K, K, ...), Y (K, m, ...).

    Column by column from the last: x_k = y_k / r_kk, then r_ik x_k is
    subtracted from every row i above. A zero r_kk gives inf or NaN without
    a warning, as do overflowing near-singular slices; the caller masks the
    former.
    """
    for k in range(R.shape[0] - 1, -1, -1):
        Y[k] /= R[k, k]
        if k:
            Y[:k] -= R[:k, k, None] * Y[k]
    return Y


def ridge_solve(A, B, lam: float) -> np.ndarray:
    """Ridge least-squares solve min ||AX-B||_F^2 + lam^2 ||X||_F^2 via QR.

    Implemented by augmenting A with lam*I so the plain and ridge paths share
    one factorization routine; B is not padded, since ``qr_solve`` reads its
    missing rows as zeros. Works on a single design or a stack; B
    broadcasts against the stack.
    """
    if lam == 0.0:
        return qr_solve(A, B)
    nrows, ncoef = A.shape[-2:]
    augmented = np.zeros(A.shape[:-2] + (nrows + ncoef, ncoef))
    augmented[..., :nrows, :] = A
    augmented[..., nrows:, :] = lam * np.eye(ncoef)
    return qr_solve(augmented, B)


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
    zero for "linear". Either way v(s_m) = e_m at the stations, and the
    weights are held constant outside the station range. v is the station
    mixture applied to the columns of X.
    """

    stations: np.ndarray
    kind: str = "cubic"

    def __post_init__(self):
        stations = np.atleast_1d(np.asarray(self.stations, dtype=float))
        if self.kind not in ("cubic", "linear"):
            raise InvalidParams(f"kind must be 'cubic' or 'linear', got {self.kind!r}")
        object.__setattr__(self, "stations", stations)
        M = stations.size
        C = _natural_curvatures(stations) if self.kind == "cubic" else np.zeros((M, M))
        object.__setattr__(self, "_curvatures", C)

    def blend(self, frac) -> np.ndarray:
        """Cardinal weights v at span fraction(s) in [0, 1].

        Returns shape (M,) for a scalar argument, (n, M) for an array.
        """
        f = np.asarray(frac, dtype=float)
        if not np.all((f >= 0.0) & (f <= 1.0)):  # NaN fails too
            raise OutOfDomain("radial fraction must lie in [0, 1]")
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


class _RidgeGuard(NamedTuple):
    """The fit guard: ridge penalties to try in order, and the norm bound."""

    lambda_ladder: tuple
    beta: float


def _ridge_guard(lambda_ladder, beta: float) -> _RidgeGuard:
    """Checked guard settings: beta must be positive (+inf turns the guard
    off), and every ladder entry positive and finite. The comparisons are
    written so that NaN fails them."""
    beta = float(beta)
    if not beta > 0.0:
        raise InvalidParams(f"beta must be positive, got {beta}")
    ladder = tuple(float(l) for l in (lambda_ladder or ()))
    if not all(0.0 < l < math.inf for l in ladder):
        raise InvalidParams(f"lambda_ladder entries must be positive and finite, got {ladder}")
    return _RidgeGuard(ladder, beta)


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


def _spectral_norms(X: np.ndarray) -> np.ndarray:
    """||X_i||_2 for every slice of a (b, K, M) stack; inf where non-finite.

    ||X||_2^2 is the largest eigenvalue of the K x K Gram matrix X X^T. Each
    slice is first divided by the power of two just above its largest entry:
    exact, and the Gram matrix cannot overflow. The fit guard calls this only
    for the slices its Frobenius screen cannot decide (``_below_beta``).
    """
    norms = np.full(X.shape[0], np.inf)
    finite = np.isfinite(X).all(axis=(1, 2))
    if np.any(finite):
        Xf = X[finite]
        scale = np.ldexp(1.0, np.frexp(np.abs(Xf).max(axis=(1, 2)))[1])
        Xs = Xf / scale[:, None, None]
        top = np.linalg.eigvalsh(Xs @ Xs.transpose(0, 2, 1))[..., -1]
        norms[finite] = scale * np.sqrt(np.maximum(top, 0.0))
    return norms


# Relative margin of the Frobenius screen, far above the rounding error of
# either norm (a few hundred ulps at K = 21), so the screen decides exactly
# as the exact norm would.
_SCREEN_MARGIN = 1e-12
# Below this Frobenius norm the squared entries may have underflowed, so the
# computed f can be far below the true one; such slices are accepted only
# when beta exceeds the floor itself.
_SCREEN_FLOOR = 1e-140


def _below_beta(X: np.ndarray, beta: float) -> np.ndarray:
    """The guard's accept mask, ``_spectral_norms(X) < beta``, screened.

    With f = ||X||_F and r = min(K, M), f / sqrt(r) <= ||X||_2 <= f (Golub
    & Van Loan, Matrix Computations, 2.3). A slice is accepted when
    max(f, floor) (1 + margin) < beta and rejected when f is finite and
    f / sqrt(r) >= beta (1 + margin); the margin exceeds the rounding error
    of both norms, so either decision is the exact norm's. Only the slices
    in between, those whose f overflowed and those holding NaN or inf go to
    the exact ``_spectral_norms``. When every slice is accepted, as on most
    rungs, the reject bound is not formed.
    """
    beta = float(beta)  # a Python float: the bounds may overflow to inf quietly
    f = np.sqrt(np.einsum("bij,bij->b", X, X))
    accept = np.maximum(f, _SCREEN_FLOOR) < beta / (1.0 + _SCREEN_MARGIN)
    if np.count_nonzero(accept) == accept.size:
        return accept
    reject = np.isfinite(f) & (f >= math.sqrt(min(X.shape[1:])) * beta * (1.0 + _SCREEN_MARGIN))
    band = ~(accept | reject)
    if band.any():
        accept[band] = _spectral_norms(X[band]) < beta
    return accept


def _fit_batch(guard, A_stack: np.ndarray, B: np.ndarray, plain=True, *, carry=None):
    """Fit every design in a stack, walking the ridge ladder rung by rung.

    ``guard`` supplies ``lambda_ladder`` and ``beta``: a FourierModel, or a
    ``_RidgeGuard``. ``plain`` (a bool, or a mask over the stack) marks the
    slices that first try lambda = 0; the rest go straight to the ladder, as
    a numerically singular design must. Each rung is one stacked
    ``ridge_solve`` over the slices still failing, kept where the spectral
    norm is below beta; ``_below_beta`` decides that by the Frobenius screen
    and takes the exact norm only for the slices the screen cannot decide.
    A rung over every slice skips the gathers, and when nothing has passed
    yet its candidates become the output; the walk stops at the first rung
    that leaves no slice failing. Returns (X (b, K, M), lambdas
    (b,), ok mask (b,)); failed slices keep lambda 0 and NaN coefficients.

    ``carry``, an N x C array, rides along: each rung solves its columns
    beside B's in the same factorization, the guard reads only B's M
    columns, and X comes back (b, K, M + C), each slice's carried block
    solved at the lambda its fit was accepted at. Carrying the identity
    gives every accepted slice its pseudoinverse without a second QR.
    """
    size = A_stack.shape[0]
    n_guarded = B.shape[-1]
    if carry is not None:
        B = np.concatenate([B, carry], axis=-1)
    X = None
    lambdas = np.zeros(size)
    ok = np.zeros(size, dtype=bool)
    n_ok = 0
    for lam, allowed in [(0.0, plain)] + [(lam, True) for lam in guard.lambda_ladder]:
        if n_ok == size:
            break
        todo = (allowed & ~ok).nonzero()[0]
        if not todo.size:
            continue
        every = todo.size == size
        cand = ridge_solve(A_stack if every else A_stack[todo], B, lam)
        good = _below_beta(cand[..., :n_guarded], guard.beta)
        idx = todo[good]
        if every:
            X = cand
        else:
            if X is None:
                X = np.full((size,) + cand.shape[1:], np.nan)
            X[idx] = cand[good]
        lambdas[idx] = lam
        ok[idx] = True
        n_ok += idx.size
    if X is None:
        X = np.full((size, A_stack.shape[-1], B.shape[-1]), np.nan)
    elif n_ok < size:
        X[~ok] = np.nan
    return X, lambdas, ok


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
        """(A^T A + lam^2 I)^{-1} A^T; the plain pseudoinverse for lam = 0.

        lam must be 0, or positive and finite like a ladder entry; NaN, a
        negative or an infinite lam raises InvalidParams.
        """
        if not 0.0 <= lam < math.inf:
            raise InvalidParams(f"lam must be nonnegative and finite, got {lam!r}")
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
    radial = RadialBasis(geometry.r_stations, kind=radial_basis)
    return FourierModel(geometry, harmonics, A, P, cond, guard.lambda_ladder, guard.beta, radial)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Fitted Fourier coefficients and the ridge penalty that produced them."""

    X: np.ndarray
    lambda_used: float

    @property
    def spectral_norm(self) -> float:
        """||X||_2, measured as the fit guard measures it."""
        return float(_spectral_norms(self.X[None])[0])


def _readings(B, name: str, model=None) -> np.ndarray:
    """The one reader of N x M readings (B, mu_B, mu_F): B as a float matrix.

    A vector is one station's readings. Any other number of dimensions is
    refused with DimensionMismatch, and so is a shape other than n_rakes x
    n_stations where ``model`` (a FourierModel or an AnnulusGeometry) is
    given. Non-finite readings are refused with InvalidParams. ``name`` is
    the input's name in the messages.
    """
    B = _floats(B, name)
    shape = B.shape
    if B.ndim == 1:
        B = B[:, None]
    if B.ndim != 2 or model is not None and B.shape != (model.n_rakes, model.n_stations):
        want = "an N x M matrix" if model is None else f"{model.n_rakes} x {model.n_stations}"
        raise DimensionMismatch(f"{name} must be {want}, got shape {shape}")
    return _finite(B, name)


def _coefficients(X, name: str, model) -> np.ndarray:
    """The one reader of K x M coefficient matrices: X as a float matrix of
    ``model``'s n_coeffs x n_stations, else DimensionMismatch. Non-finite
    coefficients are refused with InvalidParams."""
    X = _floats(X, name)
    if X.shape != (model.n_coeffs, model.n_stations):
        raise DimensionMismatch(
            f"{name} must be {model.n_coeffs} x {model.n_stations}, got shape {X.shape}"
        )
    return _finite(X, name)


def _location(value, name: str, max_ndim: int = 1) -> np.ndarray:
    """The one reader of prediction locations: span fractions or angles in
    degrees (``theta_deg``) as a float array; ``name`` names the input.

    More than ``max_ndim`` dimensions (a scalar for 0, a vector for 1) is
    refused with DimensionMismatch, and a non-finite angle with
    InvalidParams. Span fractions are range-checked, NaN included, where
    ``RadialBasis.blend`` reads them.
    """
    value = _floats(value, name)
    if value.ndim > max_ndim:
        want = "a scalar" if max_ndim == 0 else "a scalar or a vector"
        raise DimensionMismatch(f"{name} must be {want}, got shape {value.shape}")
    return _finite(value, name) if name == "theta_deg" else value


def fit(model: FourierModel, B) -> CoefficientMatrix:
    """Fit coefficients to an N x M measurement matrix.

    Tries the plain least-squares solution first, unless the design is
    numerically singular; if its spectral norm reaches the model's beta
    guard, walks the ridge ladder and returns the first solution below the
    guard. A rung whose R is exactly singular gives NaN coefficients, which
    the guard rejects like any other failure. Raises RegularizationExhausted
    when no ladder entry succeeds.
    """
    B = _readings(B, "B", model)
    plain = model.P is not None
    if not plain and not model.lambda_ladder:
        raise SingularDesign("lambda_ladder must not be empty for a singular design")
    X, lambdas, ok = _fit_batch(model, model.A[None], B, plain=plain)
    if not ok[0]:
        raise RegularizationExhausted(
            f"no ladder entry brought ||X||_2 below beta={model.beta}"
        )
    return CoefficientMatrix(X[0], float(lambdas[0]))


def predict_point(model: FourierModel, X, r_frac, theta_deg):
    """Evaluate the reconstructed field at one radius and angle(s).

    ``r_frac`` is a scalar span fraction in [0, 1]; ``theta_deg`` may be a
    scalar or a vector of finite angles. Returns a float or an array
    accordingly.
    """
    X = _coefficients(X, "X", model)
    w = model.radial.blend(_location(r_frac, "r_frac", 0))
    theta = _location(theta_deg, "theta_deg")
    values = design_matrix(theta, model.harmonics.omega) @ (X @ w)
    return float(values) if theta.ndim == 0 else values


def station_predictions(X, theta_deg, omega) -> np.ndarray:
    """Per-station circumferential predictions design(theta) @ X.

    With zero angle scatter the rake-position Monte Carlo returns exactly
    this grid: its origin is the same product for the nominal fit.
    """
    return design_matrix(np.atleast_1d(theta_deg), omega) @ X
