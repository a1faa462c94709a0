"""Shared synthetic campaign used across the test modules.

Six rakes at irregular angles, seven immersion stations, and a field built
from circumferential frequencies (1, 4) with radially varying amplitudes.
The numbers are arbitrary but fixed: every expected value in the tests was
either derived by hand from these inputs or cross-checked by an independent
oracle (brute-force enumeration, finite differences, dense quadrature, or
Monte Carlo) before being frozen.

The six angles sit on a coarse 36-degree lattice, which makes several
frequency pairs alias exactly; that is deliberate (one test suite exercises
the ill-conditioned path) but it means the frequency-scan tests use the
nine-rake set below instead.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from rakeuq import (
    AnnulusGeometry,
    FieldDistribution,
    HarmonicSet,
    MeasurementDistribution,
    build_design_matrix,
)

settings.register_profile(
    "numeric",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("numeric")

ENGINE_THETA = np.array([54.0, 90.0, 162.0, 234.0, 270.0, 342.0])
SCAN_THETA = np.array(
    [12.0, 47.0, 89.0, 144.0, 176.0, 221.0, 263.0, 301.0, 338.0]
)
STATIONS = np.linspace(0.05, 0.95, 7)
R_INNER = 0.45
R_OUTER = 0.75
SIGMA_B = 0.51
OMEGA = (1, 4)
# Kelvin-scale intercepts push the coefficient norm past the documented
# default norm guard, so campaign fixtures pin a wider one explicitly.
BETA = 1e4


def readme_readings(theta):
    """The README campaign's kelvin-scale readings, N x 7, at the rake angles
    ``theta`` (degrees): 520 + 15 r + 5 cos t + 2 r sin 4t."""
    t = np.radians(np.asarray(theta, dtype=float))[:, None]
    return 520.0 + 15.0 * STATIONS + 5.0 * np.cos(t) + 2.0 * STATIONS * np.sin(4.0 * t)


def coefficient_truth(stations=STATIONS):
    """Ground-truth coefficient matrix: mean ~520 K, gentle radial trends."""
    s = np.asarray(stations, dtype=float)
    X = np.zeros((5, s.size))
    X[0] = 520.0 + 15.0 * s
    X[1] = 5.0 * (1.0 - 0.5 * s)
    X[2] = 2.0 + s
    X[3] = 3.0 * s
    X[4] = -1.5 + 2.0 * s
    return X


@pytest.fixture(scope="session")
def engine_geometry():
    return AnnulusGeometry(ENGINE_THETA, STATIONS, R_INNER, R_OUTER)


@pytest.fixture(scope="session")
def engine_model(engine_geometry):
    return build_design_matrix(engine_geometry, HarmonicSet(OMEGA), beta=BETA)


@pytest.fixture(scope="session")
def truth():
    return coefficient_truth()


@pytest.fixture(scope="session")
def engine_data(engine_model, truth):
    """Noise-free measurements lying exactly in the model span."""
    return engine_model.A @ truth


@pytest.fixture(scope="session")
def engine_meas(engine_data):
    return MeasurementDistribution.from_iid(engine_data, SIGMA_B)


@pytest.fixture(scope="session")
def engine_field(engine_model, engine_meas):
    return FieldDistribution.from_measurements(engine_model, engine_meas)


@pytest.fixture(scope="session")
def scan_geometry():
    return AnnulusGeometry(SCAN_THETA, STATIONS, R_INNER, R_OUTER)


def random_psd(n, rng, jitter=0.1):
    """Random well-conditioned PSD matrix for covariance inputs."""
    Q = rng.normal(size=(n, n))
    return Q @ Q.T / n + jitter * np.eye(n)
