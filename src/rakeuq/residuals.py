"""Distribution of the spatial sampling error metric.

The sampling metric is the per-probe mean-square misfit between the fitted
field and the measured means,

    eps_p^2 = ||A X - mu_B||_F^2 / (NM - 1).

The residual R = F - B is Gaussian with mean mu_R and covariance Sigma_R
for every measurement covariance Sigma_B and every ridge penalty lambda, so
the scaled residual power ||R||_F^2 / NM has the exact moments

    mu(eps_p^2)      = (tr Sigma_R + ||mu_R||^2) / NM
    sigma^2(eps_p^2) = (2 ||Sigma_R||_F^2 + 4 mu_R^T Sigma_R mu_R) / NM^2

Its law is a weighted sum of noncentral chi-square(1) terms (Imhof 1961).
Only for iid probe noise sigma_b > 0, an unregularized fit and more rakes
than coefficients (N > K) is Sigma_R / sigma_b^2 = I_M kron (I - H) a
projector, of rank M (N - K) since the design has full column rank; then
(NM/sigma_b^2) * ||R||_F^2 / NM is noncentral chi-square with the closed
forms

    g = M (N - K)    phi = ||mu_R||_F^2 / sigma_b^2

(mu_R lies in the range of I - H; Seber & Lee 2003, chs. 2-3), and the
moments above reduce to

    mu(eps_p^2)      = sigma_b^2/(NM) * (g + phi)
    sigma^2(eps_p^2) = (sigma_b^2/(NM))^2 * (2g + 4 phi)

Note the two divisors: the metric itself uses NM-1, the moments use NM.
Both are reported so the mixed convention stays auditable. The measurement
imprecision metric is the gap eps_m^2 = mu(eps_p^2) - eps_p^2, which
vanishes as sigma_b -> 0 for data inside the model span.

``frequency_scan`` ranks every harmonic pair by that exact mean, for every
noise structure. With R = K B, K = A P(lambda) - I, only the M diagonal
N x N blocks S_mm of Sigma_B enter it:

    tr Sigma_R = sum_m tr(K S_mm K^T) = <K^T K, S_sum>,   S_sum = sum_m S_mm

so one N x N matrix, formed once per scan from the measurement
distribution's station blocks, carries the noise of every pair; for iid
noise S_sum = M sigma_b^2 I. The pairs' designs are stacked and fitted in
the fit module's one ridge-ladder walk, which carries the identity beside
mu_B, so every pair's residual map comes from the same factorizations.
"""

import math
from dataclasses import dataclass
from itertools import combinations, starmap
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidParams, RequiresIidNoise, TooFewSamples
from .fourier import (
    DEFAULT_BETA,
    DEFAULT_LADDER,
    CoefficientMatrix,
    FourierModel,
    _coefficients,
    _design_conditioning,
    _fit_batch,
    _readings,
    _ridge_guard,
    design_matrix,
)
from .geometry import AnnulusGeometry, _finite, _whole
from .propagation import FieldDistribution, MeasurementDistribution, _blocks_of, _diagonal_blocks, vec

# Stop the pdf series once a term falls below this fraction of the partial
# sum, and refuse phi once the series has taken MAX_TERMS terms.
SERIES_RTOL = 1e-14
MAX_TERMS = 100000


def sampling_metric(model: FourierModel, X, mu_B) -> float:
    """eps_p^2: mean-square misfit of the fit against the measured means."""
    mu_B = _readings(mu_B, "mu_B", model)
    X = _coefficients(X.X if isinstance(X, CoefficientMatrix) else X, "X", model)
    n_meas = mu_B.size
    if n_meas < 2:
        raise TooFewSamples("the sampling metric needs at least two probes")
    resid = model.A @ X - mu_B
    return float(np.sum(resid**2) / (n_meas - 1))


@dataclass(frozen=True)
class ChiSquareParams:
    """Noncentral chi-square parameters of the scaled residual power."""

    g: int
    phi: float
    scale: float  # sigma_b^2 / (NM)


def _law_refusal(field: FieldDistribution):
    """None where the scaled residual power is noncentral chi-square, else
    the error that says why it is not.

    The law needs Sigma_R / sigma_b^2 = I_M kron (I - H), a projector of
    rank M (N - K): iid noise with sigma_b > 0, an unregularized fit, and
    more rakes than coefficients. The design of an unregularized field has
    full column rank, since ``pseudoinverse(0)`` refuses a singular one.
    """
    n_rakes, n_coeffs = field.design.shape
    if field.iid_sigma is None:
        return RequiresIidNoise("closed-form residual statistics need Sigma_B = sigma_b^2 I")
    if not field.iid_sigma > 0.0:
        why = f"sigma_b = {field.iid_sigma!r}; it needs sigma_b > 0"
    elif field.lambda_used != 0.0:
        why = f"lambda = {field.lambda_used!r}; a ridge fit's Sigma_R is not a projector"
    elif n_rakes <= n_coeffs:
        why = f"N = {n_rakes} rakes for K = {n_coeffs} coefficients; it needs N > K"
    else:
        return None
    return InvalidParams(f"no chi-square law: {why}")


def chi_square_params(field: FieldDistribution) -> ChiSquareParams:
    """Degrees of freedom and noncentrality of the scaled residual power.

    ||R||_F^2 / sigma_b^2 is noncentral chi-square with g = M (N - K)
    degrees of freedom and noncentrality phi = ||mu_R||_F^2 / sigma_b^2,
    both exact: Sigma_R / sigma_b^2 is the projector I_M kron (I - H), and
    mu_R lies in its range. This holds only for iid noise (other
    covariances raise RequiresIidNoise) with sigma_b > 0, an unregularized
    fit and N > K; sigma_b = 0, lambda > 0 and N <= K raise InvalidParams
    saying why. ``scale`` is sigma_b^2 / NM, so the moments of
    eps^2 = ||R||_F^2 / NM are scale (g + phi) and scale^2 (2g + 4 phi).
    """
    refusal = _law_refusal(field)
    if refusal is not None:
        raise refusal
    mu_R = np.asarray(field.mu_R, dtype=float)
    variance = field.iid_sigma * field.iid_sigma
    g = mu_R.shape[1] * (field.design.shape[0] - field.design.shape[1])
    return ChiSquareParams(g, float(np.sum(mu_R**2)) / variance, float(variance / mu_R.size))


def _residual_power_moments(field: FieldDistribution):
    """Exact mean and variance of ||R||_F^2 / NM for Gaussian R, any Sigma_R.

    Sigma_R is block diagonal, its diagonal the (B, n, n) blocks R_b of
    field.R_blocks, each repeated c = NM / (B n) times, so
    tr Sigma_R = c sum_b tr R_b, ||Sigma_R||_F^2 = c sum_b ||R_b||_F^2, and
    mu^T Sigma_R mu sums mu_s^T R mu_s over the n-reading slices mu_s of mu,
    each with its block R.
    """
    R = field.R_blocks
    mu = vec(field.mu_R)
    n_meas = mu.size
    copies = n_meas // (R.shape[0] * R.shape[1])
    mu_b = mu.reshape(-1, R.shape[1], 1)
    # the traces repeated, not multiplied by c: the sum keeps its bits
    trace = np.repeat(np.trace(R, axis1=1, axis2=2), copies).sum()
    frobenius_sq = copies * np.einsum("bij,bij->", R, R)
    quadratic = np.vdot(mu_b, R @ mu_b)
    mean = (trace + mu @ mu) / n_meas
    var = (2.0 * frobenius_sq + 4.0 * quadratic) / n_meas**2
    return float(mean), float(var)


def noncentral_chisq_pdf(x, g: int, phi: float):
    """Density of the noncentral chi-square law, by its Poisson mixture series.

    Each term is a Poisson(phi/2) weight times a central chi-square density
    with g + 2j degrees of freedom; the series stops once a term drops below
    1e-14 of the running sum (past the Poisson mode). Scalar or array x;
    x and phi must be finite, and g a whole number of at least 1, read by
    ``geometry._whole``.
    """
    g = _whole(g, "g", 1)
    phi = float(_finite(phi, "phi"))
    if phi < 0.0:
        raise InvalidParams("noncentrality must be nonnegative")
    x = _finite(x, "x")
    if np.any(x < 0.0):
        raise InvalidParams("the density is supported on x >= 0")
    scalar_input = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.zeros_like(x)
    positive = x > 0.0
    if np.any(x == 0.0):
        # Pointwise limits at the origin depend only on the leading term.
        if g < 2:
            out[x == 0.0] = np.inf
        elif g == 2:
            out[x == 0.0] = 0.5 * np.exp(-0.5 * phi)
    if np.any(positive):
        xp = x[positive]
        log_x = np.log(xp)
        total = np.zeros_like(xp)
        half_phi = 0.5 * phi
        too_long = (
            f"phi must be small enough for the series to converge in {MAX_TERMS} terms, got {phi!r}"
        )
        # The series stops only past the Poisson mode, j > phi/2, and is
        # refused after MAX_TERMS terms: refuse a mode beyond that at once.
        if half_phi >= MAX_TERMS + 1:
            raise InvalidParams(too_long)
        log_half_phi = np.log(half_phi) if half_phi > 0.0 else -np.inf
        j = 0
        while True:
            dof = g + 2 * j
            # j * log(phi/2) with the 0 * -inf corner pinned to 0
            log_pow = j * log_half_phi if j > 0 else 0.0
            log_w = -half_phi + log_pow - math.lgamma(j + 1)
            log_f = (
                (0.5 * dof - 1.0) * log_x
                - 0.5 * xp
                - 0.5 * dof * np.log(2.0)
                - math.lgamma(0.5 * dof)
            )
            term = np.exp(log_w + log_f)
            total += term
            j += 1
            if half_phi == 0.0:
                break
            past_mode = j > half_phi
            if past_mode and np.all(term <= SERIES_RTOL * np.maximum(total, 1e-300)):
                break
            if j > MAX_TERMS:
                raise InvalidParams(too_long)
        out[positive] = total
    return float(out[0]) if scalar_input else out


@dataclass(frozen=True)
class UncertaintyMetrics:
    """The two reported metrics plus the moments behind them."""

    eps_p_sq: float
    eps_m_sq: float
    mean_eps: float
    var_eps: float
    chi2: ChiSquareParams = None


def compute_metrics(
    model: FourierModel,
    coeffs: CoefficientMatrix,
    meas: MeasurementDistribution,
    field: FieldDistribution,
) -> UncertaintyMetrics:
    """Assemble both metrics from a fit and its propagated moments.

    The moments are exact for every noise model and ridge penalty. The
    chi-square parameters are attached exactly where ``chi_square_params``
    returns them: iid noise with sigma_b > 0, an unregularized fit and
    N > K. The field must come from ``model``: its mu_R passes the readings
    rule, its R_blocks are Sigma_R in one of its block forms and its design
    has the model's shape, else DimensionMismatch naming the field's entry.
    """
    eps_p = sampling_metric(model, coeffs, meas.mu_B)
    _blocks_of(field.R_blocks, "R_blocks", *_readings(field.mu_R, "mu_R", model).shape)
    if np.shape(field.design) != model.A.shape:
        raise DimensionMismatch(
            f"design must be {model.n_rakes} x {model.n_coeffs}, got shape {np.shape(field.design)}"
        )
    mean_eps, var_eps = _residual_power_moments(field)
    chi2 = None if _law_refusal(field) else chi_square_params(field)
    return UncertaintyMetrics(
        eps_p_sq=eps_p,
        eps_m_sq=mean_eps - eps_p,
        mean_eps=mean_eps,
        var_eps=var_eps,
        chi2=chi2,
    )


class ScanEntry(NamedTuple):
    """One harmonic pair's expected sampling metric mu(eps_p^2) under the
    scan's measurement distribution. A named tuple: it also equals the
    plain tuple of its fields."""

    omega: tuple
    lambda_used: float
    mean_eps: float
    cond_AtA: float
    flagged: bool


@dataclass(frozen=True)
class FrequencyScanResult:
    """All unordered harmonic pairs, best (smallest mean_eps) first."""

    entries: tuple

    @property
    def best(self) -> ScanEntry:
        return self.entries[0]


def frequency_scan(
    geometry: AnnulusGeometry,
    meas,
    sigma_b: float = None,
    *,
    max_freq: int = 10,
    beta: float = DEFAULT_BETA,
    lambda_ladder=DEFAULT_LADDER,
) -> FrequencyScanResult:
    """Rank every unordered harmonic pair by expected sampling metric.

    ``meas`` is a MeasurementDistribution of any noise structure, with
    ``sigma_b`` omitted, or the N x M mean readings (a vector for one
    station) with an iid noise level ``sigma_b``, taken as
    ``MeasurementDistribution.from_iid(meas, sigma_b)``.

    ``max_freq``, a whole number of at least 2, bounds the orders. Every
    pair (w1, w2), w1 < w2 <= max_freq, has a K = 5 design, so all of
    them are stacked into one (P, N, 5) array, sliced from the columns of
    one design over the harmonics 1..max_freq. One batched SVD gives each
    pair's cond(A^T A) and singular flag under ``build_design_matrix``'s
    tolerance, and ``_fit_batch`` fits the mean measurements for all pairs
    in one rung-by-rung ladder walk, the one ``fit`` and the rake engine
    use; singular pairs skip lambda = 0, as ``fit`` does. The walk carries
    the identity beside mu_B, so each rung's one stacked factorization also
    yields the pseudoinverse P(lambda) of every pair it accepts: one stacked
    pseudoinverse per rung used, with no second QR. The exact mu(eps_p^2)
    then needs only each pair's N x N residual map K = A P(lambda) - I and
    one N x N matrix of the noise, S_sum = sum_m S_mm, the sum of the M
    diagonal N x N blocks of Sigma_B (formed once per scan):

        mu(eps_p^2) = (<K^T K, S_sum> + ||K mu_B||_F^2) / NM,

    since tr Sigma_R = sum_m tr(K S_mm K^T). Cross-station covariances do
    not enter the mean. For iid noise S_sum = M sigma_b^2 I, and the noise
    term is sigma_b^2 M ||K||_F^2. A Sigma_B that is exactly zero is refused
    with InvalidParams: the scan ranks pairs by their noise as well as their
    misfit.

    Pairs whose ladder is exhausted are flagged and sort last with
    mean_eps = inf rather than being dropped. The radial basis does not
    enter: the metric lives at the rakes.
    """
    max_freq = _whole(max_freq, "max_freq", 2)
    if isinstance(meas, MeasurementDistribution) != (sigma_b is None):
        raise InvalidParams("give sigma_b with mean readings, and not with a MeasurementDistribution")
    if sigma_b is not None:
        meas = MeasurementDistribution.from_iid(meas, sigma_b)
    mu_B = _readings(meas.mu_B, "mu_B", geometry)
    guard = _ridge_guard(lambda_ladder, beta)
    N, M = mu_B.shape
    # a sum over the M stations even where one block stands for them all:
    # M times the block would put some pairs' mean_eps an ulp apart
    S_sum = np.broadcast_to(_diagonal_blocks(meas.station_blocks, N), (M, N, N)).sum(axis=0)
    if not S_sum.any():
        raise InvalidParams("Sigma_B is zero: sigma_b or the sigmas must be positive")
    pairs = list(combinations(range(1, max_freq + 1), 2))
    w = np.array(pairs)
    # Columns [1, cos w1, sin w1, cos w2, sin w2] of the all-harmonics design.
    cols = np.zeros((len(pairs), 5), dtype=int)
    cols[:, 1::2] = 2 * w - 1
    cols[:, 2::2] = 2 * w
    A_full = design_matrix(geometry.theta_deg, range(1, max_freq + 1))
    # Contiguous: a gather from the strided view keeps its slices in column
    # order, and the products below would take another BLAS path.
    A_stack = np.ascontiguousarray(A_full[:, cols].transpose(1, 0, 2))
    cond, singular = _design_conditioning(A_stack)
    eye = np.eye(N)
    X, lambdas, ok = _fit_batch(guard, A_stack, mu_B, plain=~singular, carry=eye)
    A = A_stack[ok]
    P = X[ok, :, M:]
    # K mu_B as A (P mu_B) - mu_B, not A X - mu_B: where the fit nearly
    # reproduces the data the residual is all cancellation, and on four
    # rakes the two orders put mean_eps about 1e-7 relative apart.
    resid = A @ (P @ mu_B) - mu_B
    K = A @ P - eye
    noise = np.einsum("pij,pij->p", K @ S_sum, K)
    mean_eps = np.full(len(pairs), math.inf)
    mean_eps[ok] = (noise + np.einsum("pij,pij->p", resid, resid)) / (N * M)
    # Rows in field order, sorted by (mean_eps, omega); the omegas are
    # distinct, so no other field is compared.
    lam = [l if fitted else None for l, fitted in zip(lambdas.tolist(), ok.tolist())]
    rows = zip(pairs, lam, mean_eps.tolist(), cond.tolist(), (~ok).tolist())
    entries = tuple(starmap(ScanEntry, sorted(rows, key=itemgetter(2, 0))))
    return FrequencyScanResult(entries)
