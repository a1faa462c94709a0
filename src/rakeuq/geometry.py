"""Measurement geometry for annular rake traverses.

An annulus is instrumented with N rakes at fixed circumferential angles, each
carrying probes at the same M radial stations. Angles are degrees at every
public interface; radial stations are fractions of span, 0 at the inner casing
and 1 at the outer.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParams


def _finite(value, name: str, error=InvalidParams) -> np.ndarray:
    """The one reader of finite input: ``value`` as a float array. Any NaN
    or infinity is refused with ``error`` naming ``name``."""
    value = np.asarray(value, dtype=float)
    if np.count_nonzero(np.isfinite(value)) < value.size:
        raise error(f"{name} must be finite")
    return value


def _whole(value, name: str, low=None) -> int:
    """The one reader of counts, seeds and orders: ``value`` as an int.

    An int, a numpy integer or a float with no fractional part (2.0) is
    accepted; anything else, 2.5, NaN or a string among them, is refused
    with InvalidParams naming ``name``, never truncated, and so is a value
    below ``low`` where it is given.
    """
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):  # None, "2", NaN, inf
        whole = None
    if whole is None or whole != value:
        raise InvalidParams(f"{name} must be a whole number, got {value!r}")
    if low is not None and whole < low:
        raise InvalidParams(f"{name} must be at least {low}")
    return whole


@dataclass(frozen=True)
class AnnulusGeometry:
    """Rake angles, radial stations and casing radii of one measurement plane.

    Parameters
    ----------
    theta_deg : array_like, shape (N,)
        Rake angles in degrees, distinct, each in [0, 360).
    r_stations : array_like, shape (M,)
        Probe radial stations as fractions of span, strictly increasing,
        each in [0, 1].
    r_inner, r_outer : float
        Casing radii in length units, 0 <= r_inner < r_outer < inf.

    Every range check is written so that NaN fails it.
    """

    theta_deg: np.ndarray
    r_stations: np.ndarray
    r_inner: float
    r_outer: float

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta_deg, dtype=float))
        stations = np.atleast_1d(np.asarray(self.r_stations, dtype=float))
        if theta.ndim != 1 or theta.size < 1:
            raise InvalidParams("theta_deg must be a non-empty 1-d array")
        if not np.all((theta >= 0.0) & (theta < 360.0)):
            raise InvalidParams("rake angles must lie in [0, 360) degrees")
        if len(np.unique(theta)) != theta.size:
            raise InvalidParams("rake angles must be distinct")
        if stations.ndim != 1 or stations.size < 1:
            raise InvalidParams("r_stations must be a non-empty 1-d array")
        if not np.all((stations >= 0.0) & (stations <= 1.0)):
            raise InvalidParams("radial stations must lie in [0, 1]")
        if not np.all(np.diff(stations) > 0.0):
            raise InvalidParams("radial stations must be strictly increasing")
        if not 0.0 <= self.r_inner < self.r_outer < np.inf:
            raise InvalidParams("need 0 <= r_inner < r_outer < inf")
        theta = theta.copy()
        stations = stations.copy()
        theta.setflags(write=False)
        stations.setflags(write=False)
        object.__setattr__(self, "theta_deg", theta)
        object.__setattr__(self, "r_stations", stations)

    @property
    def n_rakes(self) -> int:
        return self.theta_deg.size

    @property
    def n_stations(self) -> int:
        return self.r_stations.size

    @property
    def span(self) -> float:
        return self.r_outer - self.r_inner

    def physical_radius(self, frac):
        """Map span fraction(s) to physical radius r_inner + span * frac."""
        return self.r_inner + self.span * np.asarray(frac, dtype=float)


@dataclass(frozen=True)
class HarmonicSet:
    """Circumferential harmonic orders retained by the model.

    Holds k distinct positive integer frequencies. The associated Fourier
    basis has 2k+1 columns (constant plus cosine/sine per frequency); an
    unregularized fit additionally needs 2k+1 <= N, which is enforced where
    the fit happens, not here.
    """

    omega: tuple = field(default=(1,))

    def __post_init__(self):
        try:
            omega = tuple(_whole(w, "harmonic orders", 1) for w in self.omega)
        except TypeError as exc:
            raise InvalidParams("harmonic orders must be integers") from exc
        if len(omega) < 1:
            raise InvalidParams("need at least one harmonic order")
        if len(set(omega)) != len(omega):
            raise InvalidParams("harmonic orders must be distinct")
        object.__setattr__(self, "omega", omega)

    @property
    def k(self) -> int:
        return len(self.omega)

    @property
    def n_coeffs(self) -> int:
        return 2 * self.k + 1
