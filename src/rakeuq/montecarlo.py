"""Seeded Monte Carlo engine and the two sampling studies built on it.

Everything here is deterministic for a fixed seed and sample count. Both
sampling engines draw in blocks of BLOCK draws, each block from its own
generator spawned off one seed sequence (``_batch_plan``), and work their
blocks through one pool helper, ``_pooled``: up to one block per usable CPU
at once, the calling thread taking one and the process's worker threads the
rest (numpy's generators and linear algebra release the GIL), with the
blocks' results taken in block order. The worker threads, named
``rakeuq-mc``, are started on first use and kept for later calls, at most
one fewer than the usable CPUs, so a repeat call starts none. The pool is
fork-safe: a forked child starts its own. A block of ``mc_propagate_model``
draws its noise and reduces it to sums, which are folded as each round
completes, so its memory does not grow with the number of blocks; a block of
``rake_position_mc`` draws, wraps and fits its own angles. A block's draws
and fits have the same bits on any thread, so the results are byte-identical
for any CPU count, and there is no setting.
``sample_mvn``, and ``efficiency_mc`` through it, draw every sample in one
block from ``np.random.default_rng(seed)``.

Two sampling studies share the sampler:

* ``mc_propagate_model`` pushes measurement noise through the fixed linear
  fit map and returns empirical moments of coefficients, fitted values,
  residuals, the sampling metric and a predictive grid. It is the sampling
  cross-check for the closed-form Gaussian propagation.
* ``rake_position_mc`` perturbs the rake angles themselves, refitting every
  draw, to expose how uncertain rake placement moves the reconstruction.

The module only samples: the harmonic scan, a closed form, lives with the
metric it ranks by in ``residuals``. The rake engine fits its stack of
draws through the fit module's one ridge-ladder walk, ``fourier._fit_batch``,
which ``fit`` and the scan also use: each rung is a single stacked ridge
solve over the draws that still break the norm guard. The guard decides
most draws from their Frobenius norm and takes the exact spectral norm only
for those close to beta, so a stack of draws well inside the guard costs no
per-draw eigenvalue call. The engine tries lambda = 0 only where the
model's own design is nonsingular, as ``fit`` does, so every draw tries the
same rungs as the deterministic fit.

Neither sampling engine evaluates a grid per draw. Every grid value is
linear in the draw's K x M coefficients X, so its sample mean and variance
follow exactly from the coefficients' sample moments, taken as deviations
from a reference fit of the mean input:

* ``mc_propagate_model`` works in the coordinates of the noise factor L
  (``MeasurementDistribution.factor_blocks``): a draw is vec(B) =
  vec(mu_B) + L z, and X and R are T mu_B + (I_M kron T) L z for T = P and
  AP - I. Those maps of z, G_X and G_R, are kept in L's block form by the
  propagation module's ``_station_map``: M station blocks, one block
  standing for every station (iid noise), or one NM x NM block. A draw's
  metric ||R||_F^2 / NM needs only the range of AP - I = -U diag(d) U^T,
  so a block maps its draws by E = diag(d) U^T, without the rows where d
  is zero (M(N - K) numbers per draw for a plain fit, against NM), and
  forms the sums of z and z z^T; no draw of B or R is formed. After all
  blocks the sums are mapped by G_X for Sigma_X and mu_X, and by G_R for
  mu_R, and for Sigma_R when that is read, with the same ``_station_map``.
  Every draw has F = A X exactly, so, as in the closed form, mu_F = A mu_X
  and Sigma_F is the congruence of Sigma_X by A. The grid value at (r, t)
  is g^T vec(X) with g = W[r] kron A_g[t], so the grid has mean G mu_X and
  variance diag(G Sigma_X G^T), taken by the same contraction as
  ``predictive_grid``.
* ``rake_position_mc`` sums the kept draws' deviations once, after all
  blocks: per station m a K-vector, and the K x K cross products, read off
  the block diagonal of one (n, KM) product. The variance at prediction
  angle p is a_p^T S_m a_p with S_m the K x K sample covariance.
"""

import contextvars
import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, DrawFailed, InvalidParams
from .fourier import FourierModel, _fit_batch, _readings, design_matrix
from .geometry import _finite, _whole
from .propagation import (
    MeasurementDistribution,
    _block_congruence,
    _grid_moments,
    _psd_factor,
    _row_quadratic_forms,
    _sigmas,
    _station_map,
    unvec,
)

# Draws per block of both sampling engines. On a 2-core x86 VM with one
# OpenBLAS thread, fitting rake draws on two threads broke even against one
# thread at 256 draws a thread and saved 13-24 % of rake_position_mc at 512,
# and the benchmark's 2048 rake draws still make a block for each CPU. There,
# 4096 mc_propagate_model draws on a 6 x 7 campaign with correlated noise
# took 4.00 ms in blocks of 1024, against 3.95 ms in blocks of 2048, 4.54 ms
# in blocks of 512 and 5.54 ms in one block (medians of six runs of 100).
BLOCK = 1024
# ``rake_position_mc`` aborts when more than this fraction of its draws fail.
MAX_FAILURE_FRACTION = 0.01


@dataclass(frozen=True)
class SamplerConfig:
    """Seed and sample count of one Monte Carlo run.

    Every sampler draws independent standard normals,
    ``rng.standard_normal((n, dim))``, from generators seeded by ``seed``.
    """

    seed: int
    n_samples: int

    def __post_init__(self):
        object.__setattr__(self, "seed", _whole(self.seed, "seed", 0))
        object.__setattr__(self, "n_samples", _whole(self.n_samples, "n_samples", 2))


def _batch_plan(config: SamplerConfig, size: int):
    """Spawned child seeds and block sizes, blocks of ``size`` draws but the
    last: the random stream of a run."""
    n = config.n_samples
    n_blocks = max(1, math.ceil(n / size))
    sizes = [size] * (n_blocks - 1) + [n - size * (n_blocks - 1)]
    children = np.random.SeedSequence(config.seed).spawn(n_blocks)
    return children, sizes


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on macOS or Windows
        return os.cpu_count() or 1


# The worker threads of both engines, one pool per process: (workers, executor),
# made on first use.
_pool = None
_pool_lock = threading.Lock()


def _workers(n: int):
    """The process's pool of worker threads, replaced when it has fewer than
    n workers. Its threads start as work is submitted and live on. A
    replaced pool is not shut down: a call still working on it keeps it to
    the end, and its threads exit once no call holds it."""
    global _pool
    with _pool_lock:
        if _pool is None or _pool[0] < n:
            from concurrent.futures import ThreadPoolExecutor

            _pool = n, ThreadPoolExecutor(n, thread_name_prefix="rakeuq-mc")
        return _pool[1]


def _forget_pool():
    """In a forked child: the parent's worker threads do not run here."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):  # Windows has no fork
    os.register_at_fork(after_in_child=_forget_pool)


def _pooled(work, tasks):
    """Yield ``work(*task)`` for every task, in task order, with up to one
    task per usable CPU worked on at once.

    The tasks go in rounds of k, k the usable CPU count or the number of
    tasks if smaller. A round's first task runs on the calling thread and
    the rest on the process's worker pool (``_workers``, usable CPUs - 1
    threads, kept between calls), each in a copy of the caller's context
    (where numpy 2 keeps ``np.errstate``). A round's results are yielded in
    order once the caller's task is done, and the next round starts when
    they have been taken, so at most k results are held at once. The call
    leaves a round only once all its tasks have finished, also on an
    exception in any task or when the generator is closed early; an
    exception reaches the caller then, and no later round starts. With k < 2
    every task runs on the calling thread and the pool is not touched.
    """
    cpus = _usable_cpus()
    k = min(cpus, len(tasks))
    if k < 2:
        for task in tasks:
            yield work(*task)
        return
    from concurrent.futures import wait

    pool = _workers(cpus - 1)
    for i in range(0, len(tasks), k):
        futures = []
        try:
            for task in tasks[i + 1 : i + k]:
                futures.append(pool.submit(contextvars.copy_context().run, work, *task))
            yield work(*tasks[i])
            for future in futures:
                yield future.result()
        finally:
            wait(futures)


def sample_mvn(mean, cov, config: SamplerConfig) -> np.ndarray:
    """Draw config.n_samples rows from N(mean, cov); bitwise seed-stable.

    All rows come in one block from ``np.random.default_rng(config.seed)``,
    not in the engines' spawned blocks. ``mean`` must be finite, and cov a
    square matrix of its size, factored under the PSD rule of
    ``propagation._psd_factor``.
    """
    mean = _finite(mean, "mean").ravel()
    cov = np.asarray(cov, dtype=float)
    if cov.shape != (mean.size, mean.size):
        raise DimensionMismatch(
            f"cov must be {mean.size} x {mean.size}, the size of mean, got shape {cov.shape}"
        )
    L = _psd_factor(cov)[1]
    z = np.random.default_rng(config.seed).standard_normal((config.n_samples, mean.size))
    return mean + z @ L.T


def _mapped_covariance(G: np.ndarray, z_sum: np.ndarray, z_cross: np.ndarray, n: int):
    """Sample covariance of G z over n draws z, from their sums.

    G is block diagonal with (B, k, w) blocks, each repeated as often as
    the draws' length needs (``_station_map``), z_sum is the sum of the
    draws and z_cross the sum of z z^T (symmetric). The covariance is
    (G z_cross G^T - g g^T / n) / (n - 1) with g = G z_sum: the mean comes
    off after the mapping, so no outer product of the draws' size is
    formed, and G z_cross G^T is one block congruence.
    """
    g = _mapped_sum(G, z_sum)
    out = _block_congruence(G, z_cross[None])[0] - np.outer(g, g / n)
    out /= n - 1
    return out


def _mapped_sum(G: np.ndarray, z_sum: np.ndarray) -> np.ndarray:
    """G z_sum, a vector, for G block diagonal as in ``_mapped_covariance``."""
    return _station_map(G, z_sum[None, :, None]).ravel()


@dataclass(frozen=True)
class McPropagation:
    """Empirical moments from sampling the measurement distribution.

    Sigma_X (KM x KM) is assembled at once. The NM x NM Sigma_F and Sigma_R
    are built on first read: Sigma_F as the congruence of Sigma_X by the
    rake design, and Sigma_R from the sums of the standard draws z and the
    map (I_M kron (AP - I)) L of the noise factor L.
    """

    n_samples: int
    mu_X: np.ndarray
    Sigma_X: np.ndarray
    mu_F: np.ndarray
    mu_R: np.ndarray
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
    _z_sum: np.ndarray = field(repr=False)
    _z_cross: np.ndarray = field(repr=False)
    _R_map: np.ndarray = field(repr=False)
    _design: np.ndarray = field(repr=False)

    @cached_property
    def Sigma_F(self) -> np.ndarray:
        return _block_congruence(self._design, self.Sigma_X[None])[0]

    @cached_property
    def Sigma_R(self) -> np.ndarray:
        return _mapped_covariance(self._R_map, self._z_sum, self._z_cross, self.n_samples)


def mc_propagate_model(
    model: FourierModel,
    meas: MeasurementDistribution,
    config: SamplerConfig,
    *,
    lam: float = 0.0,
) -> McPropagation:
    """Sample measurements and push each draw through the fixed fit map.

    Every draw uses the pseudoinverse for the given lambda (default the
    unregularized fit), matching the linear map behind the closed forms this
    function cross-checks; the ridge ladder is deliberately not walked here.
    The predictive grid is taken at the model's stations, every 10 degrees.

    The draws come in blocks of BLOCK, each from its own generator spawned
    off the seed, drawn on every usable CPU and summed in block order: the
    results are byte-identical for any CPU count.
    """
    _readings(meas.mu_B, "mu_B", model)
    N, M = model.n_rakes, model.n_stations
    NM = N * M
    P = model.pseudoinverse(lam)
    resid = model.A @ P - np.eye(N)
    # A draw of vec(B) is vec(mu_B) + L z, so X and R (the maps I_M kron T of
    # B, T in {P, AP - I}) are T mu_B plus G_T z, G_T = (I_M kron T) L in the
    # block form of L. F = A X exactly, so it needs no map of its own.
    L = meas.factor_blocks
    # z in slices of L's block width, each mapped by its block of L
    n_slices = NM // L.shape[1]
    G_X, G_R = (_station_map(T, L) for T in (P, resid))
    # A draw's metric needs only ||R||_F, so only the range of AP - I: with
    # A = U S V^T (U full), AP - I = -U diag(d) U^T, d_i = lam^2 / (s_i^2 +
    # lam^2) for the first min(N, K) columns and 1 beyond. Rows with d_i = 0,
    # all K of them at lam = 0, drop out of E = diag(d) U^T.
    U, s = np.linalg.svd(model.A)[:2]
    d = np.ones(N)
    d[: s.size] = lam * lam / (s * s + lam * lam) if lam else 0.0
    keep = d != 0.0
    E = d[keep, None] * U[:, keep].T
    E_mapT = _station_map(E, L).transpose(0, 2, 1)
    mu_E0 = (E @ meas.mu_B).T.reshape(n_slices, 1, -1)
    r_fracs = model.geometry.r_stations
    theta_grid_deg = np.arange(0.0, 360.0, 10.0)
    W = np.atleast_2d(model.radial.blend(r_fracs))
    A_g = design_matrix(theta_grid_deg, model.harmonics.omega)

    # The results are allocated before any block runs, so they sit below the
    # blocks' temporaries in the heap: arrays kept from a block pinned the
    # top of the heap and raised the peak RSS of repeated runs.
    n = config.n_samples
    z_sum, z_cross, eps = np.zeros(NM), np.zeros((NM, NM)), np.empty(n)

    def run_block(seed_child, eps_out):
        z = np.random.default_rng(seed_child).standard_normal((eps_out.size, NM))
        # Each slice of z meets its block of G_E: one stacked product.
        e = z.reshape(eps_out.size, n_slices, -1).transpose(1, 0, 2) @ E_mapT
        e += mu_E0
        np.einsum("bsi,bsi->s", e, e, out=eps_out)
        return z.sum(axis=0), z.T @ z

    children, sizes = _batch_plan(config, BLOCK)
    blocks = zip(children, np.split(eps, np.cumsum(sizes[:-1])))
    # Folded in block order, so the sums have the same bits for any CPU count.
    for block_sum, block_cross in _pooled(run_block, list(blocks)):
        z_sum += block_sum
        z_cross += block_cross
    eps /= NM
    # Sigma_B = 0 makes every G_T zero, and so every covariance exactly zero.
    mu_X, mu_R = (
        T @ meas.mu_B + unvec(_mapped_sum(G, z_sum) / n, T.shape[0], M)
        for T, G in ((P, G_X), (resid, G_R))
    )
    cov_x = _mapped_covariance(G_X, z_sum, z_cross, n)
    # Every grid value is linear in X, so its sample moments follow exactly
    # from the sample moments of the coefficients.
    grid_mean, grid_var = _grid_moments(W, A_g, mu_X, cov_x[None])
    eps_mean = float(eps.mean())
    eps_var = float(eps.var(ddof=1))
    sq = eps - eps_mean
    sq *= sq
    m4 = float(np.mean(sq * sq))
    return McPropagation(
        n_samples=n,
        mu_X=mu_X, Sigma_X=cov_x, mu_F=model.A @ mu_X, mu_R=mu_R,
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
        _z_sum=z_sum, _z_cross=z_cross, _R_map=G_R, _design=model.A,
    )


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


def _wrap_degrees(theta: np.ndarray) -> np.ndarray:
    """np.mod(theta, 360.0) bit for bit, at a quarter of its cost.

    np.mod is fmod with 360 added where the remainder is negative, and +0.0
    where it is zero; adding 0.0 elsewhere turns fmod's -0.0 into +0.0.
    """
    out = np.fmod(theta, 360.0)
    out += np.where(out < 0.0, 360.0, 0.0)
    return out


def rake_position_mc(
    model: FourierModel,
    B,
    sigma_theta,
    config: SamplerConfig,
    *,
    n_prediction: int = 360,
) -> RakeMCResult:
    """Propagate rake-placement scatter by refitting perturbed angle draws.

    The draws scatter the model's own rake angles. ``sigma_theta`` is either
    a scalar standard deviation in degrees (iid across rakes) or a full
    N x N covariance. Each draw wraps its angles into [0, 360), rebuilds the
    design matrix and fits the fixed measurement matrix B through ``fit``'s
    norm guard and ridge ladder, trying lambda = 0 only where ``fit`` does;
    draws whose ladder is exhausted are dropped and counted, and the run
    aborts with DrawFailed when more than MAX_FAILURE_FRACTION (1 %) of
    draws fail, so also when all of them do. ``n_prediction`` is a whole
    number.

    The draws come in blocks of BLOCK, each from its own generator spawned
    off the seed and fitted on every usable CPU: the results are
    byte-identical for any CPU count.
    """
    n_prediction = _whole(n_prediction, "n_prediction", 1)
    B = _readings(B, "B", model)
    N = model.n_rakes
    mu_theta = model.geometry.theta_deg
    Sigma_theta = np.asarray(sigma_theta, dtype=float)
    if Sigma_theta.ndim == 0:
        s = float(_sigmas(Sigma_theta, "sigma_theta"))
        Sigma_theta = s * s * np.eye(N)
    if Sigma_theta.shape != (N, N):
        raise DimensionMismatch("Sigma_theta must be N x N")
    L = _psd_factor(Sigma_theta, "Sigma_theta")[1]
    theta_pred = np.arange(n_prediction) * (360.0 / n_prediction)
    omega = model.harmonics.omega
    A_pred = design_matrix(theta_pred, omega)

    # Fit at the nominal angles, as ``fit`` does: the origin of the
    # coefficient deviations. These are exactly zero when Sigma_theta = 0, so
    # the degenerate case reproduces the deterministic prediction grid bit
    # for bit.
    K, M = model.n_coeffs, model.n_stations
    plain = model.P is not None
    X_nom, _, ok_nom = _fit_batch(model, model.A[None], B, plain=plain)
    X_ref = X_nom[0] if ok_nom[0] else np.zeros((K, M))
    G_ref = A_pred @ X_ref

    def run_block(seed_child, size):
        z = np.random.default_rng(seed_child).standard_normal((size, N))
        thetas = _wrap_degrees(mu_theta + z @ L.T)
        X, lambdas, ok = _fit_batch(model, design_matrix(thetas, omega), B, plain=plain)
        if ok.all():
            return X, lambdas, 0
        return X[ok], lambdas[ok], int(np.sum(~ok))

    blocks = list(zip(*_batch_plan(config, BLOCK)))
    coeff_blocks, lambda_blocks, failed = zip(*_pooled(run_block, blocks))
    lambdas = np.concatenate(lambda_blocks)
    n_failed = sum(failed)
    n = config.n_samples
    if n_failed > MAX_FAILURE_FRACTION * n:
        raise DrawFailed(
            f"{n_failed} of {n} rake-position draws failed to fit "
            f"(> {MAX_FAILURE_FRACTION:.0%})"
        )
    n_ok = n - n_failed
    coeffs = np.concatenate(coeff_blocks)
    # Per station m: mean a_p^T mean(dX) about G_ref, variance a_p^T S_m a_p.
    # One (n_ok, KM) cross product holds every station's K x K sums on its
    # block diagonal.
    dX = (coeffs - X_ref).reshape(n_ok, K * M)
    s1 = dX.sum(axis=0).reshape(K, M).T
    idx = np.arange(M)
    s2 = (dX.T @ dX).reshape(K, M, K, M)[:, idx, :, idx]
    # n_ok >= 2: a run has at least 2 draws, and below 100 draws none may fail
    cov = (s2 - s1[:, :, None] * s1[:, None, :] / n_ok) / (n_ok - 1)
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
