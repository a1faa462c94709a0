"""Seeded Monte Carlo engine and the two sampling studies built on it.

Everything here is deterministic for a fixed seed and sample count: batches
draw from generators spawned off one seed sequence and are reduced in a fixed
order, so results are bit-identical whether batches run serially or on the
thread pool capped by the RAKEUQ_THREADS environment variable.

Two sampling studies share the sampler:

* ``mc_propagate_model`` pushes measurement noise through the fixed linear
  fit map and returns empirical moments of coefficients, fitted values,
  residuals, the sampling metric and a predictive grid. It is the sampling
  cross-check for the closed-form Gaussian propagation.
* ``rake_position_mc`` perturbs the rake angles themselves, refitting every
  draw, to expose how uncertain rake placement moves the reconstruction.

``frequency_scan`` ranks every unordered harmonic pair by the expected
sampling metric, in closed form: all pairs' designs are stacked into one
(P, N, 5) array, and the exact mean comes from each pair's N x N residual
map. The scan and the rake engine fit their stacks through the fit module's
one ridge-ladder walk, ``fourier._fit_batch``, which ``fit`` also uses: each
rung is a single stacked ridge solve over the slices that still break the
norm guard. The scan skips lambda = 0 for each singular pair; the rake
engine takes that rule from the nominal design, so every draw tries the
same rungs as the deterministic fit.

Neither sampling engine evaluates a grid per draw. Every grid value is
linear in the draw's K x M coefficients X, so its sample mean and variance
follow exactly from the coefficients' sample moments, taken as deviations
from a reference fit of the mean input:

* ``mc_propagate_model`` sums only the draws' NM x NM sample covariance
  and maps it to the sample Sigma_X, Sigma_F and Sigma_R; the value at
  (r, t) is g^T vec(X) with g = W[r] kron A_g[t], so the grid has mean
  G mu_X and variance diag(G Sigma_X G^T), taken by the same contraction
  as ``predictive_grid``.
* ``rake_position_mc`` sums, per station m, the kept draws' deviations
  (a K-vector) and their K x K cross products once, after all batches, so the variance at
  prediction angle p is a_p^T S_m a_p with S_m the K x K sample covariance.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import (
    DimensionMismatch,
    DrawFailed,
    InvalidParams,
    NotPSD,
)
from .fourier import (
    DEFAULT_BETA,
    DEFAULT_LADDER,
    FourierModel,
    _design_conditioning,
    _fit_batch,
    _ridge_guard,
    design_matrix,
    ridge_solve,
)
from .geometry import AnnulusGeometry
from .propagation import (
    MeasurementDistribution,
    _congruence,
    _grid_moments,
    _row_quadratic_forms,
    unvec,
)

BATCH = 8192


@dataclass(frozen=True)
class SamplerConfig:
    """Seed, sample count and antithetic switch for one Monte Carlo run."""

    seed: int
    n_samples: int
    antithetic: bool = False

    def __post_init__(self):
        if int(self.n_samples) < 2:
            raise InvalidParams("need at least two samples")
        if int(self.seed) < 0:
            raise InvalidParams("seed must be nonnegative")
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n_samples", int(self.n_samples))


def _worker_count() -> int:
    raw = os.environ.get("RAKEUQ_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _map_batches(fn, args_list):
    """Evaluate batches, possibly concurrently, preserving batch order."""
    workers = _worker_count()
    if workers <= 1 or len(args_list) <= 1:
        return [fn(*args) for args in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda args: fn(*args), args_list))


def _batch_plan(config: SamplerConfig):
    """Spawned child seeds and batch sizes; independent of thread count."""
    n = config.n_samples
    n_batches = max(1, math.ceil(n / BATCH))
    sizes = [BATCH] * (n_batches - 1) + [n - BATCH * (n_batches - 1)]
    children = np.random.SeedSequence(config.seed).spawn(n_batches)
    return children, sizes


def psd_factor(cov) -> np.ndarray:
    """Matrix L with cov = L L^T: Cholesky, or an eigen factor when cov is
    only semidefinite. Raises NotPSD for meaningfully negative eigenvalues."""
    cov = np.asarray(cov, dtype=float)
    cov = 0.5 * (cov + cov.T)
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        evals, evecs = np.linalg.eigh(cov)
        tol = 1e-10 * max(float(np.trace(cov)), 0.0)
        if evals[0] < -max(tol, 1e-300):
            raise NotPSD(
                f"covariance eigenvalue {evals[0]:.3e} is negative beyond tolerance"
            ) from None
        return evecs * np.sqrt(np.maximum(evals, 0.0))


def _standard_draws(rng, n: int, dim: int, antithetic: bool) -> np.ndarray:
    if not antithetic:
        return rng.standard_normal((n, dim))
    half = (n + 1) // 2
    z = rng.standard_normal((half, dim))
    return np.concatenate([z, -z], axis=0)[:n]


def sample_mvn(mean, cov, config: SamplerConfig) -> np.ndarray:
    """Draw config.n_samples rows from N(mean, cov); bitwise seed-stable."""
    mean = np.asarray(mean, dtype=float).ravel()
    L = psd_factor(cov)
    if L.shape[0] != mean.size:
        raise DimensionMismatch("mean and covariance sizes differ")
    rng = np.random.default_rng(config.seed)
    z = _standard_draws(rng, config.n_samples, mean.size, config.antithetic)
    return mean + z @ L.T


@dataclass(frozen=True)
class McPropagation:
    """Empirical moments from sampling the measurement distribution."""

    n_samples: int
    mu_X: np.ndarray
    Sigma_X: np.ndarray
    mu_F: np.ndarray
    Sigma_F: np.ndarray
    mu_R: np.ndarray
    Sigma_R: np.ndarray
    eps_mean: float
    eps_var: float
    eps_mean_se: float
    eps_var_se: float
    eps_samples: np.ndarray
    r_fracs: np.ndarray
    theta_grid_deg: np.ndarray
    grid_mean: np.ndarray
    grid_var: np.ndarray
    grid_mean_se: np.ndarray


def mc_propagate_model(
    model: FourierModel,
    meas: MeasurementDistribution,
    config: SamplerConfig,
    *,
    lam: float = 0.0,
    r_fracs=None,
    theta_grid_deg=None,
) -> McPropagation:
    """Sample measurements and push each draw through the fixed fit map.

    Every draw uses the pseudoinverse for the given lambda (default the
    unregularized fit), matching the linear map behind the closed forms this
    function cross-checks; the ridge ladder is deliberately not walked here.
    """
    if (meas.n_rakes, meas.n_stations) != (model.n_rakes, model.n_stations):
        raise DimensionMismatch("measurement shape does not match the model")
    if config.n_samples < 2:
        raise InvalidParams("empirical covariances need at least two samples")
    N, M = model.n_rakes, model.n_stations
    P = model.pseudoinverse(lam)
    H = model.A @ P
    resid = H - np.eye(N)
    # X, F and R act on each station column of B through these N-column blocks.
    maps = (P, H, resid)
    NM = N * M
    mu_vec = meas.mu_B.reshape(-1, order="F")
    L = psd_factor(meas.Sigma_B)
    if r_fracs is None:
        r_fracs = model.geometry.r_stations
    if theta_grid_deg is None:
        theta_grid_deg = np.arange(0.0, 360.0, 10.0)
    r_fracs = np.atleast_1d(np.asarray(r_fracs, dtype=float))
    theta_grid_deg = np.atleast_1d(np.asarray(theta_grid_deg, dtype=float))
    W = np.atleast_2d(model.radial.blend(r_fracs))
    A_g = design_matrix(theta_grid_deg, model.harmonics.omega)

    def run_batch(seed_child, size):
        rng = np.random.default_rng(seed_child)
        z = _standard_draws(rng, size, NM, config.antithetic)
        dB = z @ L.T
        # vec(B) is station-major with the rake fastest, so each row of the
        # (size * M, N) view is one station column of one draw.
        Rv = ((mu_vec + dB).reshape(size * M, N) @ resid.T).reshape(size, NM)
        eps = np.einsum("bi,bi->b", Rv, Rv) / NM
        return dB.sum(axis=0), dB.T @ dB, eps

    children, sizes = _batch_plan(config)
    results = _map_batches(run_batch, list(zip(children, sizes)))

    n = config.n_samples
    s1 = sum(res[0] for res in results)
    s2 = sum(res[1] for res in results)
    eps = np.concatenate([res[2] for res in results])
    # X, F and R are the fixed maps I_M kron T of the draw, so their sample
    # moments are the draws' sample moments pushed through the same maps.
    # Deviations from mu_B keep the sums well conditioned, and Sigma_B = 0
    # gives exact zeros.
    mean_B = meas.mu_B + unvec(s1 / n, N, M)
    cov_B = (s2 - np.outer(s1, s1) / n) / (n - 1)
    mu_X, mu_F, mu_R = (T @ mean_B for T in maps)
    cov_x, cov_f, cov_r = (_congruence(T, cov_B, M) for T in maps)
    # Every grid value is linear in X, so its sample moments follow exactly
    # from the sample moments of the coefficients.
    grid_mean, grid_var = _grid_moments(W, A_g, mu_X, cov_x)
    eps_mean = float(eps.mean())
    eps_var = float(eps.var(ddof=1))
    centered = eps - eps_mean
    m4 = float((centered**4).mean())
    return McPropagation(
        n_samples=n,
        mu_X=mu_X, Sigma_X=cov_x,
        mu_F=mu_F, Sigma_F=cov_f,
        mu_R=mu_R, Sigma_R=cov_r,
        eps_mean=eps_mean,
        eps_var=eps_var,
        eps_mean_se=float(np.sqrt(eps_var / n)),
        eps_var_se=float(np.sqrt(max(m4 - eps_var**2, 0.0) / n)),
        eps_samples=eps,
        r_fracs=r_fracs,
        theta_grid_deg=theta_grid_deg,
        grid_mean=grid_mean,
        grid_var=grid_var,
        grid_mean_se=np.sqrt(grid_var / n),
    )


@dataclass(frozen=True)
class ScanEntry:
    """One harmonic pair's expected sampling metric under iid noise."""

    omega: tuple
    lambda_used: float
    mean_eps: float
    cond_AtA: float
    flagged: bool


@dataclass(frozen=True)
class FrequencyScanResult:
    """All unordered harmonic pairs, best (smallest mean_eps) first."""

    entries: tuple
    sigma_b: float
    max_freq: int

    @property
    def best(self) -> ScanEntry:
        return self.entries[0]


def frequency_scan(
    geometry: AnnulusGeometry,
    mu_B,
    sigma_b: float,
    *,
    max_freq: int = 10,
    beta: float = None,
    lambda_ladder=None,
) -> FrequencyScanResult:
    """Rank every unordered harmonic pair by expected sampling metric.

    Every pair (w1, w2), w1 < w2 <= max_freq, has a K = 5 design, so all of
    them are stacked into one (P, N, 5) array, sliced from the columns of
    one design over the harmonics 1..max_freq. One batched SVD gives each
    pair's cond(A^T A) and singular flag under ``build_design_matrix``'s
    tolerance, and ``_fit_batch`` fits the mean measurements for all pairs
    in one rung-by-rung ladder walk, the one ``fit`` and the rake engine
    use; singular pairs skip lambda = 0, as ``fit`` does. The exact
    mu(eps_p^2) under iid noise sigma_b then needs only the N x N residual
    map K = A P(lambda) - I of each pair, one stacked pseudoinverse per rung
    used:

        mu(eps_p^2) = (sigma_b^2 M ||K||_F^2 + ||K mu_B||_F^2) / NM.

    Pairs whose ladder is exhausted are flagged and sort last with
    mean_eps = inf rather than being dropped. The radial basis does not
    enter: the metric lives at the rakes.
    """
    if max_freq < 2:
        raise InvalidParams("max_freq must be at least 2")
    sigma_b = float(sigma_b)
    if not 0.0 < sigma_b < math.inf:
        raise InvalidParams("sigma_b must be positive and finite")
    guard = _ridge_guard(
        DEFAULT_LADDER if lambda_ladder is None else lambda_ladder,
        DEFAULT_BETA if beta is None else beta,
    )
    mu_B = np.asarray(mu_B, dtype=float)
    if mu_B.ndim == 1:
        mu_B = mu_B[:, None]
    N, M = geometry.n_rakes, geometry.n_stations
    if mu_B.shape != (N, M):
        raise DimensionMismatch(f"measurements must be {N} x {M}, got {mu_B.shape}")
    pairs = list(combinations(range(1, max_freq + 1), 2))
    # Columns [1, cos w1, sin w1, cos w2, sin w2] of the all-harmonics design.
    cols = np.array([[0, 2 * w1 - 1, 2 * w1, 2 * w2 - 1, 2 * w2] for w1, w2 in pairs])
    A_full = design_matrix(geometry.theta_deg, range(1, max_freq + 1))
    A_stack = np.ascontiguousarray(A_full[:, cols].transpose(1, 0, 2))
    cond, singular = _design_conditioning(A_stack)
    _, lambdas, ok = _fit_batch(guard, A_stack, mu_B, plain=~singular)
    mean_eps = np.full(len(pairs), math.inf)
    for lam in np.unique(lambdas[ok]):
        idx = np.nonzero(ok & (lambdas == lam))[0]
        A = A_stack[idx]
        P = ridge_solve(A, np.eye(N), lam)
        resid = A @ (P @ mu_B) - mu_B
        K = A @ P - np.eye(N)
        noise = sigma_b**2 * M * np.einsum("pij,pij->p", K, K)
        mean_eps[idx] = (noise + np.einsum("pij,pij->p", resid, resid)) / (N * M)
    entries = [
        ScanEntry(pair, float(lambdas[i]), float(mean_eps[i]), float(cond[i]), False)
        if ok[i]
        else ScanEntry(pair, None, math.inf, float(cond[i]), True)
        for i, pair in enumerate(pairs)
    ]
    entries.sort(key=lambda e: (e.mean_eps, e.omega))
    return FrequencyScanResult(tuple(entries), sigma_b, int(max_freq))


@dataclass(frozen=True)
class RakeMCResult:
    """Per-draw fits and grid statistics under rake-placement scatter."""

    coefficients: np.ndarray  # (n_ok, 2k+1, M), draw order, failures removed
    lambdas: np.ndarray  # ridge penalty used per kept draw
    theta_pred_deg: np.ndarray
    grid_mean: np.ndarray  # (n_prediction, M)
    grid_var: np.ndarray
    n_draws: int
    n_failed: int


def rake_position_mc(
    model: FourierModel,
    B,
    sigma_theta,
    config: SamplerConfig,
    *,
    mu_theta_deg=None,
    n_prediction: int = 360,
    max_failure_fraction: float = 0.01,
) -> RakeMCResult:
    """Propagate rake-placement scatter by refitting perturbed angle draws.

    ``sigma_theta`` is either a scalar standard deviation in degrees (iid
    across rakes) or a full N x N covariance. Each draw wraps its angles into
    [0, 360), rebuilds the design matrix and fits the fixed measurement
    matrix B through the usual norm guard and ridge ladder; draws whose
    ladder is exhausted are dropped and counted, and the run aborts with
    DrawFailed when more than ``max_failure_fraction`` of draws fail.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B[:, None]
    if B.shape != (model.n_rakes, model.n_stations):
        raise DimensionMismatch("B must be N x M for this model")
    N = model.n_rakes
    mu_theta = (
        model.geometry.theta_deg
        if mu_theta_deg is None
        else np.asarray(mu_theta_deg, dtype=float)
    )
    if mu_theta.shape != (N,):
        raise DimensionMismatch("mu_theta_deg must have one angle per rake")
    Sigma_theta = np.asarray(sigma_theta, dtype=float)
    if Sigma_theta.ndim == 0:
        if Sigma_theta < 0.0:
            raise InvalidParams("sigma_theta must be nonnegative")
        Sigma_theta = float(Sigma_theta) ** 2 * np.eye(N)
    if Sigma_theta.shape != (N, N):
        raise DimensionMismatch("Sigma_theta must be N x N")
    L = psd_factor(Sigma_theta)
    if n_prediction < 1:
        raise InvalidParams("need at least one prediction angle")
    theta_pred = np.arange(n_prediction) * (360.0 / n_prediction)
    omega = model.harmonics.omega
    A_pred = design_matrix(theta_pred, omega)

    # Fit at the nominal angles, the origin of the coefficient deviations.
    # These are exactly zero when Sigma_theta = 0, so the degenerate case
    # reproduces the deterministic prediction grid bit for bit. The nominal
    # design decides, as in ``fit``, whether any fit tries lambda = 0.
    K, M = model.n_coeffs, model.n_stations
    A_nom = design_matrix(mu_theta, omega)
    plain = not _design_conditioning(A_nom)[1]
    X_nom, _, ok_nom = _fit_batch(model, A_nom[None], B, plain=plain)
    X_ref = X_nom[0] if ok_nom[0] else np.zeros((K, M))
    G_ref = A_pred @ X_ref

    def run_batch(seed_child, size):
        rng = np.random.default_rng(seed_child)
        z = _standard_draws(rng, size, N, config.antithetic)
        thetas = np.mod(mu_theta + z @ L.T, 360.0)
        A_stack = design_matrix(thetas, omega)
        X, lambdas, ok = _fit_batch(model, A_stack, B, plain=plain)
        return X[ok], lambdas[ok], int(np.sum(~ok))

    children, sizes = _batch_plan(config)
    results = _map_batches(run_batch, list(zip(children, sizes)))

    slices = [r[0] for r in results]
    lambdas = np.concatenate([r[1] for r in results])
    n_failed = sum(r[2] for r in results)
    n = config.n_samples
    if n_failed > max_failure_fraction * n or n_failed == n:
        raise DrawFailed(
            f"{n_failed} of {n} rake-position draws failed to fit "
            f"(> {max_failure_fraction:.0%})"
        )
    n_ok = n - n_failed
    coeffs = np.concatenate(slices, axis=0) if slices else np.empty((0, K, M))
    # Per station m: mean a_p^T mean(dX) about G_ref, variance a_p^T S_m a_p.
    dX = (coeffs - X_ref).transpose(2, 0, 1)  # (M, n_ok, K)
    s1 = dX.sum(axis=1)
    s2 = dX.transpose(0, 2, 1) @ dX
    cov = (s2 - s1[:, :, None] * s1[:, None, :] / n_ok) / max(n_ok - 1, 1)
    grid_mean = G_ref + A_pred @ (s1.T / n_ok)
    grid_var = np.maximum(_row_quadratic_forms(A_pred, cov).T, 0.0)
    return RakeMCResult(
        coefficients=coeffs,
        lambdas=lambdas,
        theta_pred_deg=theta_pred,
        grid_mean=grid_mean,
        grid_var=grid_var,
        n_draws=n,
        n_failed=n_failed,
    )


def efficiency_mc(state, config: SamplerConfig):
    """Sample the five-parameter state and evaluate the exact efficiency.

    Returns (mean, sigma, sigma standard error). The draws go through the
    full nonlinear formula, not the first-order expansion, so this doubles
    as a linearization check.
    """
    from .efficiency import StationState, efficiency

    if not isinstance(state, StationState):
        raise InvalidParams("state must be a StationState")
    draws = sample_mvn(state.z, state.covariance, config)
    eta = efficiency(draws)
    sigma = float(np.std(eta, ddof=1))
    se = sigma / math.sqrt(2.0 * (config.n_samples - 1))
    return float(np.mean(eta)), sigma, se
