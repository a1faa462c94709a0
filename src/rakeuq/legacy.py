"""Conventional sample-scatter uncertainty metrics, kept for comparison.

The traditional recipe treats the K probe readings as repeat samples of one
value and quotes the Bessel-corrected standard deviation

    s = sqrt( sum (T_i - Tbar)^2 / (K - 1) )

as the "spatial sampling uncertainty", then root-sum-squares it with the
other budget components. On a structured circumferential profile that number
measures the profile itself, not reconstruction error: it stays at the field
RMS no matter how many rakes sample the pattern, while the model-based
sampling metric drops to zero as soon as the harmonics are captured. The
demo table makes that contrast concrete.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams, NegativeComponent, TooFewSamples
from .fourier import DEFAULT_BETA, build_design_matrix, fit
from .geometry import AnnulusGeometry, HarmonicSet, _finite, _floats, _whole
from .propagation import _SIGMA_MAX, _sigmas
from .residuals import sampling_metric


def _unit_scaled(values):
    """(values * 2^-e, e), with 2^e the power of two above the largest
    magnitude: every scaled value lies in (-1, 1), so no square of one
    overflows. Scaling by a power of two is exact, so a root of a sum of
    scaled squares, times 2^e, keeps the bits of the unscaled one wherever
    that neither overflows nor underflows."""
    e = math.frexp(float(np.max(np.abs(values), initial=0.0)))[1]
    return np.ldexp(values, -e), e


def legacy_sampling_uncertainty(samples) -> float:
    """Bessel-corrected standard deviation of the pooled, finite readings."""
    samples = _finite(samples, "samples").ravel()
    if samples.size < 2:
        raise TooFewSamples("need at least two readings")
    scaled, e = _unit_scaled(samples)
    return float(np.ldexp(np.sqrt(np.sum((scaled - scaled.mean()) ** 2) / (samples.size - 1)), e))


def rss_total(components) -> float:
    """Root-sum-square combination of finite, nonnegative budget components."""
    values = _finite(components, "components").ravel()
    if np.any(values < 0.0):
        raise NegativeComponent("budget components must be nonnegative")
    scaled, e = _unit_scaled(values)
    return float(np.ldexp(np.sqrt(np.sum(scaled**2)), e))


@dataclass(frozen=True)
class HarmonicField:
    """Single-harmonic circumferential field for the demo table."""

    mean: float = 0.0
    amplitude: float = 1.0
    frequency: int = 2
    phase_deg: float = 0.0

    def __post_init__(self):
        # |mean| and the amplitude keep to the range of a standard deviation,
        # so that the field's squares are finite; NaN fails both rules
        mean = float(_floats(self.mean, "mean"))
        if not abs(mean) <= _SIGMA_MAX:
            raise InvalidParams(
                f"mean must lie in [-{_SIGMA_MAX:.4g}, {_SIGMA_MAX:.4g}], got {self.mean!r}"
            )
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "amplitude", float(_sigmas(self.amplitude, "amplitude")))
        object.__setattr__(self, "phase_deg", float(_finite(self.phase_deg, "phase_deg")))
        object.__setattr__(self, "frequency", _whole(self.frequency, "frequency", 1))

    def sample(self, theta_deg) -> np.ndarray:
        t = np.deg2rad(np.asarray(theta_deg, dtype=float))
        return self.mean + self.amplitude * np.cos(
            self.frequency * t + np.deg2rad(self.phase_deg)
        )

    @property
    def rms_about_mean(self) -> float:
        return self.amplitude / np.sqrt(2.0)


@dataclass(frozen=True)
class DemoRow:
    """One rake count's legacy metric versus the model sampling metric."""

    n_rakes: int
    legacy: float
    model_eps_p_sq: float


def fig1_demo(
    field: HarmonicField = None,
    rake_counts=(3, 8, 300),
    *,
    offset_deg: float = 0.0,
) -> list:
    """Legacy scatter versus model misfit across uniformly spaced rake counts.

    Rakes are placed at offset + i * 360/K degrees. The one-harmonic model
    has 2k+1 = 3 coefficients, so counts below 3 cannot determine it and are
    refused with InvalidParams before any fit.
    """
    field = HarmonicField() if field is None else field
    offset_deg = float(_finite(offset_deg, "offset_deg"))
    harmonics = HarmonicSet((field.frequency,))
    counts = [_whole(count, "rake_counts", harmonics.n_coeffs) for count in rake_counts]
    # keep the guard clear of the coefficient scale itself
    beta = max(DEFAULT_BETA, 10.0 * (abs(field.mean) + field.amplitude))
    rows = []
    for count in counts:
        theta = np.mod(offset_deg + np.arange(count) * (360.0 / count), 360.0)
        readings = field.sample(theta)
        geometry = AnnulusGeometry(theta, np.array([0.5]), 0.0, 1.0)
        model = build_design_matrix(geometry, harmonics, beta=beta)
        coeffs = fit(model, readings[:, None])
        rows.append(
            DemoRow(
                n_rakes=count,
                legacy=legacy_sampling_uncertainty(readings),
                model_eps_p_sq=sampling_metric(model, coeffs, readings[:, None]),
            )
        )
    return rows
