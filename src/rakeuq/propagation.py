"""Gaussian propagation of measurement uncertainty through the Fourier fit.

Measurements are modelled as a matrix Gaussian over the N x M measurement
matrix B, carried in vectorized form: vec(B) stacks columns (rake index
fastest, station slowest) and Sigma_B is the NM x NM covariance of that
vector. Because the fit acts column-wise, X = P B vectorizes to
vec(X) = (I_M kron P) vec(B), and first/second moments push through exactly:

    mu_X = P mu_B                Sigma_X = (I kron P) Sigma_B (I kron P)^T
    mu_F = A mu_X                Sigma_F = (I kron A) Sigma_X (I kron A)^T
    mu_R = mu_F - mu_B           Sigma_R = (I kron (AP - I)) Sigma_B (...)^T

F is the fitted value at the rakes and R = F - B the fit residual.

Every covariance is a congruence by I_M kron T, T in {P, A, AP - I}, taken
by ``_station_map`` in the block form of Sigma_B, which is read from Sigma_B
itself when the MeasurementDistribution is built. A (B, n, n) stack of
blocks stands for the block-diagonal matrix whose diagonal repeats each
block size / (B n) times, size being the matrix's order (NM for Sigma_B):

- when every cross-station block of Sigma_B is exactly zero (iid noise,
  diagonal noise, correlation within a station), as its M diagonal N x N
  blocks S_m, and each congruence is the stack of small blocks T S_m T^T;
  for iid noise one sigma_b^2 I block, shape (1, N, N), stands for all M
  stations, so each congruence maps one block and its cost does not grow
  with M;
- otherwise as one NM x NM block, mapped from both sides by two station
  maps, O(N^3 M^2) work instead of O((NM)^3). Sigma_F, the congruence of
  the dense KM x KM Sigma_X by A, takes this path.

The Monte Carlo engine maps its noise factor and its sums of draws with
``_station_map`` too. No reported number needs a dense matrix: the residual
moments read the blocks of Sigma_R, the chi-square law only mu_R, and the
area average and the predictive grid the blocks of Sigma_X, one K x K block
per station (or one for all of them) or one KM x KM block. The dense
Sigma_B, Sigma_X, Sigma_F and Sigma_R are built on first read only.

Every PSD check in the package is one rule, ``_psd_factor``: non-finite
input is refused, a Cholesky factor that exists is kept, and otherwise the
eigenvalues decide against the mean diagonal entry s (refused below -1e-10 s,
a RuntimeWarning below -1e3 eps s, negative ones clipped). Sigma_B's blocks
are checked and factored once, when the MeasurementDistribution is built
(iid noise needs neither). Correlated noise Sigma_B = D rho D, with
D = diag(sigma), is not factored as such: rho is checked and factored once,
in its own block form, and D L_rho is the factor, exact even where a sigma
is zero. Diagonal noise is the case rho = I, whose factor is D itself. A
congruence of a PSD matrix is PSD, so the propagated covariances are only
symmetrized.

Every standard deviation is checked by one rule too, ``_sigmas``, and every
N x M readings and K x M coefficient input by one reader each,
``fourier._readings`` and ``fourier._coefficients``. A field read against a
model goes through ``_field_moments``, built on the latter, and its
covariance blocks through ``_blocks_of``.
"""

import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, InvalidCorrelation, InvalidParams, NotPSD
from .fourier import FourierModel, _coefficients, _location, _readings, design_matrix
from .geometry import _finite


def vec(matrix) -> np.ndarray:
    """Column-major vectorization: rake index fastest, station slowest."""
    return np.asarray(matrix, dtype=float).reshape(-1, order="F")


def unvec(vector, n_rakes: int, n_stations: int) -> np.ndarray:
    """Inverse of :func:`vec`."""
    return np.asarray(vector, dtype=float).reshape((n_rakes, n_stations), order="F")


def _psd_factor(S, name: str = "covariance", error=NotPSD):
    """(S, L): S symmetrized and clipped if need be, and L with S = L L^T.

    S is (n, n) or a (B, n, n) stack of the diagonal blocks of one matrix.
    Cholesky first; only if it fails do the eigenvalues decide, against the
    mean diagonal entry s of the whole matrix: ``error`` below -1e-10 s, a
    RuntimeWarning below -1e3 eps s, and clipping. Non-finite S raises
    InvalidParams.
    """
    S = _finite(S, name)
    S = S + np.swapaxes(S, -1, -2)
    S *= 0.5
    try:
        return S, np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        pass
    scale = float(np.mean(np.diagonal(S, axis1=-2, axis2=-1)))
    if scale < 0.0:
        raise error(f"{name} has negative trace")
    evals, evecs = np.linalg.eigh(S)
    low = float(evals.min())
    if low < -1e-10 * scale:
        raise error(f"{name} has eigenvalue {low:.3e} below -1e-10 * mean diagonal")
    if low < -1e3 * np.finfo(float).eps * scale:
        warnings.warn(
            f"clipping {np.sum(evals < 0.0)} negative eigenvalue(s) of {name}",
            RuntimeWarning,
            stacklevel=3,
        )
    L = evecs * np.sqrt(np.maximum(evals, 0.0))[..., None, :]
    if low < 0.0:
        S = L @ np.swapaxes(L, -1, -2)
        S = 0.5 * (S + np.swapaxes(S, -1, -2))
    return S, L


def validate_correlation(rho, n: int) -> np.ndarray:
    """Check a correlation matrix: square, finite, symmetric and with a unit
    diagonal to 1e-12 absolute, PSD under the rule of ``_psd_factor``.
    Returns it symmetrized, and clipped if that rule clips."""
    return _correlation_factor(rho, n)[0][0]


# A standard deviation is 0 or lies in [_SIGMA_MIN, _SIGMA_MAX]: exactly the
# range whose square is a finite normal double (2^-511 and the largest double
# whose square does not overflow).
_SIGMA_MIN = math.sqrt(sys.float_info.min)
_SIGMA_MAX = math.sqrt(sys.float_info.max)


def _sigmas(value, name: str):
    """The one rule for standard deviations; ``name`` names the input.

    A sigma must be finite and nonnegative, and either 0 or with a square
    that is a finite normal double; NaN fails the comparisons. On that
    range sqrt(fl(s^2)) = s under round-to-nearest, so the variance s^2 and
    the factor s describe the same noise. The sigmas come back as a float
    array; InvalidParams reports the first sigma that breaks the rule.
    """
    value = np.asarray(value, dtype=float)
    bad = value[~((value == 0.0) | ((value >= _SIGMA_MIN) & (value <= _SIGMA_MAX)))]
    if bad.size:
        raise InvalidParams(
            f"{name} must be 0 or in [{_SIGMA_MIN:.4g}, {_SIGMA_MAX:.4g}], where its square "
            f"is a finite normal double; got {float(bad[0])!r}"
        )
    return value


def _vec_sigmas(mu: np.ndarray, sigma) -> np.ndarray:
    """One sigma per reading in vec order, under ``_sigmas``: a flat NM
    vector as given, or an N x M array like mu read column by column. Any
    other shape is refused."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape == mu.shape:
        sigma = vec(sigma)
    elif sigma.shape != (mu.size,):
        raise DimensionMismatch(
            f"sigma must be a vector of {mu.size} in vec order or an "
            f"{mu.shape[0]} x {mu.shape[1]} array, got shape {sigma.shape}"
        )
    return _sigmas(sigma, "sigma")


def _diagonal_blocks(blocks: np.ndarray, n_rakes: int) -> np.ndarray:
    """The diagonal N x N blocks of a matrix in block form, (M, N, N) or,
    for one block standing for all stations, (1, N, N): station blocks come
    back as they are, and the whole matrix (1, NM, NM) gives its M diagonal
    blocks, in station order.

    The blocks are viewed as (B, k, N, k, N), k stations to a block, and
    one index takes the diagonal blocks. Only these forms are read: with
    more than one block of more than one station, numpy would put the index
    axis first and the blocks would come out of station order.
    """
    n_blocks, n, _ = blocks.shape
    k = n // n_rakes
    idx = np.arange(k)
    diagonal = blocks.reshape(n_blocks, k, n_rakes, k, n_rakes)[:, idx, :, idx]
    return diagonal.reshape(-1, n_rakes, n_rakes)


def _station_blocks(S: np.ndarray, n_rakes: int) -> np.ndarray:
    """Sigma's blocks: its M diagonal N x N blocks, or the whole of it.

    Returns (M, N, N) when every cross-station block is exactly zero (the
    diagonal blocks hold every nonzero entry; no tolerance), and
    (1, NM, NM), a view of S, otherwise.
    """
    blocks = _diagonal_blocks(S[None], n_rakes)
    if np.count_nonzero(blocks) == np.count_nonzero(S):
        return blocks
    return S[None]


def _block_diagonal(blocks: np.ndarray, size: int) -> np.ndarray:
    """The dense size x size matrix whose diagonal repeats the (B, n, n)
    blocks size / (B n) times, with zeros elsewhere."""
    n = blocks.shape[1]
    if n == size:
        return blocks[0]
    n_blocks = size // n
    out = np.zeros((n_blocks, n, n_blocks, n))
    idx = np.arange(n_blocks)
    out[idx, :, idx, :] = blocks
    return out.reshape(size, size)


def _correlation_factor(rho, n_rakes: int, n_stations: int = 1):
    """(rho_b, L_b): rho checked and factored once, in its block form.

    rho is NM x NM in vec order, and its blocks are those of
    ``_station_blocks``: M blocks of N x N when no two stations correlate,
    one NM x NM block otherwise. Symmetry, the unit diagonal and the range
    [-1, 1] are read off the blocks to 1e-12 absolute; then ``_psd_factor``
    decides, raising InvalidCorrelation. Non-finite rho is refused first.
    The symmetry and range checks share one temporary of rho's size.
    """
    rho = np.asarray(rho, dtype=float)
    n = n_rakes * n_stations
    if rho.shape != (n, n):
        raise InvalidCorrelation(f"correlation matrix must be {n} x {n}")
    blocks = _station_blocks(_finite(rho, "correlation matrix", InvalidCorrelation), n_rakes)
    work = np.subtract(blocks, blocks.transpose(0, 2, 1))
    if np.any(np.abs(work, out=work) > 1e-12):
        raise InvalidCorrelation("correlation matrix must be symmetric")
    if np.any(np.abs(np.diagonal(blocks, axis1=1, axis2=2) - 1.0) > 1e-12):
        raise InvalidCorrelation("correlation matrix needs a unit diagonal")
    if np.any(np.abs(blocks, out=work) > 1.0 + 1e-12):
        raise InvalidCorrelation("correlations must lie in [-1, 1]")
    return _psd_factor(blocks, "correlation matrix", InvalidCorrelation)


def _exact_iid_sigma(blocks: np.ndarray, factor: np.ndarray, n_rakes: int):
    """(iid_sigma, station_blocks, factor_blocks) from a (B, n, n) stack of
    checked blocks and their factor.

    iid_sigma is sqrt(v) if every block is exactly v I, and the blocks are
    then one N x N block v I, shape (1, N, N), standing for every station,
    v as given, with factor sqrt(v) I; otherwise it is None and the blocks
    are kept. Exactly: every off-diagonal entry is zero and every diagonal
    entry equals the first, a finite nonnegative number. No tolerance, so a
    block one ulp away is not iid. Where v is not the square of a double
    (v = 2, say), fl(sqrt(v))^2 is one ulp off v: the gap reaches only what
    reads the factor or iid_sigma (the Monte Carlo draws, and chi2.scale =
    iid_sigma^2 / NM), as a Cholesky factor's rounding would.
    """
    d = np.diagonal(blocks, axis1=1, axis2=2)
    if (d.size == 0 or not 0.0 <= d[0, 0] < math.inf or np.any(d != d[0, 0])
            or np.count_nonzero(blocks) > np.count_nonzero(d)):
        return None, blocks, factor
    variance = float(d[0, 0])
    sigma = math.sqrt(variance)
    eye = np.eye(n_rakes)[None]
    return sigma, variance * eye, sigma * eye


@dataclass(frozen=True)
class MeasurementDistribution:
    """Gaussian measurement model: mean matrix plus vectorized covariance.

    ``iid_sigma`` is the scalar noise level sqrt(v) when Sigma_B is exactly
    v I and None otherwise. It is always derived from Sigma_B, never given.

    ``station_blocks`` is Sigma_B as the propagation reads it: the M
    diagonal N x N blocks, shape (M, N, N), when no two stations correlate
    (for iid noise one v I block, shape (1, N, N), standing for all M),
    and the whole matrix as one block, shape (1, NM, NM), otherwise.
    ``factor_blocks`` holds L_b with block b = L_b L_b^T. The general
    constructor reads the block form off Sigma_B (every cross-station entry
    exactly zero) and factors the blocks in its one PSD check. For
    Sigma_B = D rho D (``from_correlation``, and ``from_diagonal`` with
    rho = I) the block form is rho's, and L_b is D_b times the factor of
    rho's block b, so the factor is D L_rho. iid noise keeps sigma_b I,
    unchecked. If a check clipped, blocks and factor describe the clipped
    matrix, and so does ``Sigma_B``, built when read.

    The constructor takes (mu_B, Sigma_B) while the dataclass fields are
    (mu_B, iid_sigma, station_blocks, factor_blocks), so
    ``dataclasses.replace`` does not work on it; build a new one from
    ``Sigma_B`` instead.
    """

    mu_B: np.ndarray
    iid_sigma: float
    station_blocks: np.ndarray
    factor_blocks: np.ndarray

    def __init__(self, mu_B, Sigma_B):
        mu = _readings(mu_B, "mu_B")
        S = np.asarray(Sigma_B, dtype=float)
        if S.shape != (mu.size, mu.size):
            raise DimensionMismatch(
                f"Sigma_B must be {mu.size} x {mu.size} for mu_B {mu.shape}"
            )
        blocks, factor = _psd_factor(_station_blocks(S, mu.shape[0]), "Sigma_B")
        self._fill(mu, *_exact_iid_sigma(blocks, factor, mu.shape[0]))

    def _fill(self, mu, iid_sigma, station_blocks, factor_blocks):
        object.__setattr__(self, "mu_B", mu)
        object.__setattr__(self, "iid_sigma", iid_sigma)
        object.__setattr__(self, "station_blocks", station_blocks)
        object.__setattr__(self, "factor_blocks", factor_blocks)

    @classmethod
    def _from_blocks(cls, mu, iid_sigma, station_blocks, factor_blocks):
        meas = object.__new__(cls)
        meas._fill(mu, iid_sigma, station_blocks, factor_blocks)
        return meas

    @classmethod
    def _scaled(cls, mu, sigma, rho_blocks, L_blocks):
        """D rho D and its factor D L_rho, block by block, for d = sigma in
        vec order and rho's blocks rho_b = L_b L_b^T (one N x N block
        stands for all M).

        d_b d_b^T is formed and rho_b multiplied into it, the product
        rho_b * (d_b d_b^T), exactly symmetric. ``L_blocks`` has the shape of
        the blocks and is the caller's to give up: it is scaled in place
        into D L_rho. So no more than rho's blocks, their factor and one
        array of their size are alive at once.
        """
        d = sigma.reshape(-1, rho_blocks.shape[-1], 1)
        blocks = d * d.transpose(0, 2, 1)
        blocks *= rho_blocks
        L_blocks *= d
        return cls._from_blocks(mu, *_exact_iid_sigma(blocks, L_blocks, mu.shape[0]))

    @classmethod
    def from_iid(cls, mu_B, sigma_b: float) -> "MeasurementDistribution":
        """Independent identical noise sigma_b on every probe reading.

        sigma_b is checked by the rule of ``_sigmas``; sigma_b^2 I is then
        PSD with factor sigma_b I, so nothing is factored, and no NM x NM
        matrix is built until Sigma_B is read.
        """
        sigma_b = float(_sigmas(sigma_b, "sigma_b"))
        mu = _readings(mu_B, "mu_B")
        eye = np.eye(mu.shape[0])[None]
        return cls._from_blocks(mu, sigma_b, sigma_b * sigma_b * eye, sigma_b * eye)

    @classmethod
    def from_diagonal(cls, mu_B, sigma) -> "MeasurementDistribution":
        """Independent noise with one sigma per probe: a flat vector in vec
        (column) order, or an N x M array like mu_B.

        This is :meth:`from_correlation` with rho = I, which needs no check:
        the M diagonal N x N station blocks are diag(sigma^2) and their
        factor is diag(sigma) exactly, so nothing is factored and no NM x NM
        matrix is formed. It is iid exactly when every sigma is equal: with
        round-to-nearest, sqrt(fl(s^2)) = s on the range ``_sigmas`` admits,
        so distinct sigmas square to distinct variances.
        """
        mu = _readings(mu_B, "mu_B")
        eye = np.eye(mu.shape[0])
        return cls._scaled(mu, _vec_sigmas(mu, sigma), eye, np.repeat(eye[None], mu.shape[1], 0))

    @classmethod
    def from_correlation(cls, mu_B, sigma, rho) -> "MeasurementDistribution":
        """Correlated noise Sigma_B = D rho D with D = diag(vec(sigma)).

        sigma is read as in :meth:`from_diagonal`; rho is NM x NM in vec order.
        rho is checked and factored once, rho_b = L_b L_b^T, in its own block
        form: M Cholesky factorizations of N x N blocks when no two stations
        correlate, one of NM x NM otherwise. The blocks of Sigma_B are then
        D_b rho_b D_b with factor D_b L_b, exact also where a sigma is zero;
        D rho D itself is never formed or factored.
        """
        mu = _readings(mu_B, "mu_B")
        return cls._scaled(mu, _vec_sigmas(mu, sigma), *_correlation_factor(rho, *mu.shape))

    @cached_property
    def Sigma_B(self) -> np.ndarray:
        """The dense NM x NM covariance of vec(B)."""
        return _block_diagonal(self.station_blocks, self.mu_B.size)


def _station_map(D: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """D X in the block form of X, for D block diagonal: a k x w matrix T
    stands for I kron T, and a (B, k, w) stack of blocks for the matrix
    whose diagonal repeats them as often as the rows of X need.

    Station blocks (M, N, c) give the (M, k, c) stack of T X_m, one
    (1, NM, c) block one (1, Mk, c) block. Both are one stacked product over
    the w-row slices of X, and one block of D meets every slice.
    """
    n_blocks, _, c = blocks.shape
    return (D @ blocks.reshape(-1, D.shape[-1], c)).reshape(n_blocks, -1, c)


def _block_congruence(D: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """D Sigma D^T, symmetrized, in the block form of Sigma, for D as in
    ``_station_map``.

    Two station maps, one from each side: station blocks (M, N, N) give the
    stack of T (T S_m)^T = T S_m T^T, (M, k, k), one block standing for
    every station gives one such block, and one (1, NM, NM) block gives one
    (1, Mk, Mk) block.
    """
    out = _station_map(D, _station_map(D, blocks).transpose(0, 2, 1))
    return 0.5 * (out + out.transpose(0, 2, 1))


@dataclass(frozen=True)
class FieldDistribution:
    """All propagated Gaussian moments for one model and measurement set.

    ``X_blocks`` and ``R_blocks`` are Sigma_X and Sigma_R in the block form
    of the measurement covariance (see MeasurementDistribution.station_blocks):
    M station blocks of K x K and of N x N when no two stations correlate
    (for iid noise one (1, K, K) and one (1, N, N) block standing for every
    station), and one KM x KM and one NM x NM block otherwise. ``design`` is
    the N x K rake design A. The dense Sigma_X, Sigma_F and Sigma_R are
    built on first read.
    """

    mu_X: np.ndarray
    X_blocks: np.ndarray
    mu_F: np.ndarray
    mu_R: np.ndarray
    R_blocks: np.ndarray
    iid_sigma: float
    lambda_used: float
    design: np.ndarray

    @classmethod
    def from_measurements(
        cls, model: FourierModel, meas: MeasurementDistribution, lam: float = 0.0
    ) -> "FieldDistribution":
        """Sigma_X is the congruence of Sigma_B by P, Sigma_R by AP - I."""
        _readings(meas.mu_B, "mu_B", model)
        P = model.pseudoinverse(lam)
        K = model.A @ P - np.eye(model.n_rakes)
        blocks = meas.station_blocks
        mu_X = P @ meas.mu_B
        mu_F = model.A @ mu_X
        return cls(
            mu_X, _block_congruence(P, blocks), mu_F, mu_F - meas.mu_B,
            _block_congruence(K, blocks), meas.iid_sigma, lam, model.A,
        )

    @cached_property
    def Sigma_X(self) -> np.ndarray:
        return _block_diagonal(self.X_blocks, self.mu_X.size)

    @cached_property
    def Sigma_F(self) -> np.ndarray:
        return _block_congruence(self.design, self.Sigma_X[None])[0]

    @cached_property
    def Sigma_R(self) -> np.ndarray:
        return _block_diagonal(self.R_blocks, self.mu_R.size)


def _blocks_of(blocks, name: str, n: int, n_stations: int) -> np.ndarray:
    """The covariance of an n x M matrix in one of its block forms, as a
    float array: M station blocks (M, n, n), one (1, n, n) block standing
    for every station, or one (1, nM, nM) block; else DimensionMismatch
    naming it."""
    blocks = np.asarray(blocks, dtype=float)
    nm = n * n_stations
    if blocks.shape not in ((n_stations, n, n), (1, n, n), (1, nm, nm)):
        raise DimensionMismatch(
            f"{name} must be {n_stations} x {n} x {n}, 1 x {n} x {n} or 1 x {nm} x {nm}, "
            f"got shape {blocks.shape}"
        )
    return blocks


def _field_moments(field: FieldDistribution, model: FourierModel):
    """The one reader of a field against a model: (mu_X, X_blocks).

    mu_X is read by ``_coefficients``, and X_blocks must be Sigma_X in one
    of its block forms for the model's K x M: M station blocks (M, K, K),
    one (1, K, K) block standing for every station, or one (1, KM, KM)
    block, else DimensionMismatch naming it; so a field from another model
    is refused, not reshaped.
    """
    mu_X = _coefficients(field.mu_X, "mu_X", model)
    return mu_X, _blocks_of(field.X_blocks, "X_blocks", *mu_X.shape)


def _row_quadratic_forms(A: np.ndarray, S: np.ndarray) -> np.ndarray:
    """a_t^T S_i a_t for every row a_t of A (T x K) and block S_i of S (I x K x K).

    Returns shape (I, T). One product of S, flattened to K^2 columns, with
    the outer products a_t a_t^T, so no (I, T, K) intermediate is formed.
    """
    T, K = A.shape
    return S.reshape(-1, K * K) @ (A[:, :, None] * A[:, None, :]).reshape(T, K * K).T


def _grid_moments(W: np.ndarray, A_g: np.ndarray, mu_X: np.ndarray, X_blocks: np.ndarray):
    """Mean and variance of the grid W X A_g^T for coefficients X (K x M).

    X has mean mu_X and covariance Sigma_X in vec order (K fastest), given
    as ``X_blocks`` in one of its block forms, so the value at (r, t) is
    g^T vec(X) with g = W[r] kron A_g[t]. For K x K station blocks X_m the
    variance g^T Sigma_X g is sum_m W[r, m]^2 a_t^T X_m a_t; one block
    standing for every station has its one row of forms repeated to M rows,
    so one (R, M) @ (M, T) product takes the sum either way. For one
    KM x KM block it is taken with matrix products: W contracts both
    station axes of the (M, K, M, K) view, leaving one K x K block per
    radius, and A_g closes each block from both sides.
    """
    R, M = W.shape
    K = mu_X.shape[0]
    mean = W @ mu_X.T @ A_g.T
    if X_blocks.shape[1] == K:
        forms = _row_quadratic_forms(A_g, X_blocks)
        var = (W * W) @ (forms if len(forms) == M else forms.repeat(M, axis=0))
    else:
        left = (W @ X_blocks.reshape(M, K * M * K)).reshape(R, K, M, K)
        var = _row_quadratic_forms(A_g, (W[:, None, None, :] @ left)[:, :, 0, :])
    return mean, np.maximum(var, 0.0)


def predictive_grid(model: FourierModel, field: FieldDistribution, r_fracs, theta_deg):
    """Vectorized predictive mean and variance on an (r, theta) grid.

    ``r_fracs`` and ``theta_deg`` are each a scalar or a vector. Returns two
    arrays of shape (len(r_fracs), len(theta_deg)). Span fractions must lie
    in [0, 1] and angles be finite; the field must come from ``model``.
    """
    mu_X, X_blocks = _field_moments(field, model)
    W = np.atleast_2d(model.radial.blend(_location(r_fracs, "r_fracs")))
    A_g = np.atleast_2d(design_matrix(_location(theta_deg, "theta_deg"), model.harmonics.omega))
    return _grid_moments(W, A_g, mu_X, X_blocks)
