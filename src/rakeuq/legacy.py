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
from .geometry import AnnulusGeometry, HarmonicSet, _whole
from .residuals import sampling_metric


def legacy_sampling_uncertainty(samples) -> float:
    """Bessel-corrected standard deviation of the pooled, finite readings."""
    samples = np.asarray(samples, dtype=float).ravel()
    if samples.size < 2:
        raise TooFewSamples("need at least two readings")
    if np.count_nonzero(np.isfinite(samples)) < samples.size:
        raise InvalidParams("samples must be finite")
    return float(np.sqrt(np.sum((samples - samples.mean()) ** 2) / (samples.size - 1)))


def rss_total(components) -> float:
    """Root-sum-square combination of finite, nonnegative budget components."""
    values = np.asarray(components, dtype=float).ravel()
    if np.count_nonzero(np.isfinite(values)) < values.size:
        raise InvalidParams("components must be finite")
    if np.any(values < 0.0):
        raise NegativeComponent("budget components must be nonnegative")
    return float(np.sqrt(np.sum(values**2)))


@dataclass(frozen=True)
class HarmonicField:
    """Single-harmonic circumferential field for the demo table."""

    mean: float = 0.0
    amplitude: float = 1.0
    frequency: int = 2
    phase_deg: float = 0.0

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidParams(f"{name} must be finite")
        if self.amplitude < 0.0:
            raise InvalidParams("amplitude must be nonnegative")
        frequency = _whole(self.frequency, "frequency")
        if frequency < 1:
            raise InvalidParams("frequency must be a positive integer")
        object.__setattr__(self, "frequency", frequency)

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
    if not math.isfinite(offset_deg):
        raise InvalidParams("offset_deg must be finite")
    counts = [_whole(count, "rake_counts") for count in rake_counts]
    harmonics = HarmonicSet((field.frequency,))
    if any(count < harmonics.n_coeffs for count in counts):
        raise InvalidParams(
            f"rake_counts must all be at least 2k+1 = {harmonics.n_coeffs}, got {counts}"
        )
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
