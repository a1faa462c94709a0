import math
import statistics
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rakeuq import (
    HarmonicField,
    InvalidParams,
    NegativeComponent,
    TooFewSamples,
    fig1_demo,
    legacy_sampling_uncertainty,
    rss_total,
)


def test_legacy_hand_example():
    assert legacy_sampling_uncertainty([1.0, 2.0, 3.0]) == pytest.approx(1.0)


def test_legacy_equal_readings():
    assert legacy_sampling_uncertainty([5.0, 5.0, 5.0, 5.0]) == 0.0


def test_legacy_needs_two_readings():
    with pytest.raises(TooFewSamples):
        legacy_sampling_uncertainty([42.0])


@given(
    st.lists(st.floats(-100.0, 100.0), min_size=2, max_size=30),
    st.floats(-50.0, 50.0),
)
def test_legacy_offset_and_permutation_invariant(samples, offset):
    base = legacy_sampling_uncertainty(samples)
    shifted = legacy_sampling_uncertainty([s + offset for s in samples])
    assert shifted == pytest.approx(base, abs=1e-9)
    assert legacy_sampling_uncertainty(samples[::-1]) == pytest.approx(base, rel=1e-12)


def test_rss_pythagorean_example():
    assert rss_total([3.0, 4.0]) == pytest.approx(5.0)


def test_rss_reference_budget():
    # sqrt(1^2 + 2.371^2) rounds to 2.573
    assert rss_total([1.0, 2.371]) == pytest.approx(2.573, abs=5e-4)


def test_rss_single_component():
    assert rss_total([2.5]) == pytest.approx(2.5)


@given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=10), st.floats(0.1, 10.0))
def test_rss_grows_with_extra_component(components, extra):
    assert rss_total(components + [extra]) > rss_total(components)


def test_rss_rejects_negative():
    with pytest.raises(NegativeComponent):
        rss_total([1.0, -0.5])


def test_harmonic_field_rms():
    f = HarmonicField(mean=300.0, amplitude=4.0)
    assert f.rms_about_mean == pytest.approx(4.0 / math.sqrt(2.0))


def test_harmonic_field_validation():
    with pytest.raises(InvalidParams):
        HarmonicField(amplitude=-1.0)
    with pytest.raises(InvalidParams):
        HarmonicField(frequency=0)


def test_demo_teaser_table():
    t0 = time.time()
    rows = fig1_demo()
    elapsed = time.time() - t0
    assert elapsed < 5.0
    assert [r.n_rakes for r in rows] == [3, 8, 300]
    for row in rows:
        assert row.legacy > 0.0
        assert row.model_eps_p_sq < 1e-12
    # uniform grids hit the harmonic at exactly computable phases:
    # 3 rakes see cos values (1, -1/2, -1/2); 8 rakes see (1,0,-1,0,...)
    assert rows[0].legacy == pytest.approx(math.sqrt(0.75), rel=1e-9)
    assert rows[1].legacy == pytest.approx(math.sqrt(4.0 / 7.0), rel=1e-9)
    assert rows[2].legacy == pytest.approx(math.sqrt(150.0 / 299.0), rel=1e-9)


def test_demo_dense_count_approaches_rms():
    field = HarmonicField(mean=288.0, amplitude=3.0)
    rows = fig1_demo(field, rake_counts=(300,))
    assert rows[0].legacy == pytest.approx(field.rms_about_mean, rel=0.01)
    assert rows[0].model_eps_p_sq < 1e-12


def test_demo_offset_does_not_matter_on_uniform_grids():
    plain = fig1_demo(rake_counts=(8, 40))
    moved = fig1_demo(rake_counts=(8, 40), offset_deg=13.7)
    for a, b in zip(plain, moved):
        assert b.legacy == pytest.approx(a.legacy, rel=1e-9)
        assert b.model_eps_p_sq < 1e-12


def test_demo_flat_field_is_silent():
    # counts of 5 and 16 keep the frequency-2 columns independent (a count
    # of 4 would alias sin(2 theta) to zero and force the ridge ladder)
    rows = fig1_demo(HarmonicField(mean=500.0, amplitude=0.0), rake_counts=(5, 16))
    for row in rows:
        assert row.legacy == pytest.approx(0.0, abs=1e-12)
        assert row.model_eps_p_sq == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("counts", [(0,), (3, -2)])
def test_demo_rejects_counts_below_one(monkeypatch, counts):
    import rakeuq.legacy as legacy_mod

    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the counts were checked")

    monkeypatch.setattr(legacy_mod, "fit", no_fit)
    with pytest.raises(InvalidParams, match="rake_counts"):
        fig1_demo(rake_counts=counts)


def test_demo_kelvin_scale_field():
    # the default norm guard must clear kelvin-scale intercepts
    field = HarmonicField(mean=1500.0, amplitude=2.0)
    rows = fig1_demo(field, rake_counts=(6,))
    assert rows[0].model_eps_p_sq < 1e-12


@pytest.mark.parametrize("counts", [(2,), (8, 1)])
def test_demo_rejects_counts_below_two_k_plus_one(monkeypatch, counts):
    # one harmonic has 2k+1 = 3 coefficients; fewer rakes cannot fix them
    import rakeuq.legacy as legacy_mod

    def no_fit(*args, **kwargs):
        raise AssertionError("fit before the counts were checked")

    monkeypatch.setattr(legacy_mod, "fit", no_fit)
    with pytest.raises(InvalidParams, match="rake_counts"):
        fig1_demo(rake_counts=counts)


def _ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("components", [
    (1e200, 1e200), (1.5e308, 1e307), (1e-200, 3e-201), (5e-324, 5e-324), (3.0, 4.0), (1e200, 1.0),
])
def test_rss_total_is_hypot_where_the_squares_overflow_or_underflow(components):
    # each square of the first four overflows or underflows, yet the
    # root-sum-square fits in a double
    assert _ulps(rss_total(components), math.hypot(*components)) <= 1.0


@pytest.mark.parametrize("samples", [
    (1e200, -1e200, 3.0), (1.5e308, 1.5e308, -1e308), (1e-170, 3e-170, -2e-170), (1.0, 2.0, 3.0),
])
def test_legacy_is_stdev_where_the_squares_overflow_or_underflow(samples):
    # the mean of the second overflows too when summed unscaled
    assert _ulps(legacy_sampling_uncertainty(samples), statistics.stdev(samples)) <= 2.0


@given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=20))
def test_scaled_legacy_sums_keep_the_bits_of_the_plain_ones(values):
    # scaling by a power of two is exact: wherever the largest square is
    # well inside the normal range, the plain formulas give the same bits
    x = np.array(values)
    deviations = x - x.mean()
    plain_sd = float(np.sqrt(np.sum(deviations**2) / (x.size - 1)))
    plain_rss = float(np.sqrt(np.sum(x**2)))
    normal = 2.0**60 * np.finfo(float).tiny
    if not np.any(deviations) or np.max(deviations**2) > normal:
        assert legacy_sampling_uncertainty(x) == plain_sd
    if not np.any(x) or np.max(x**2) > normal:
        assert rss_total(np.abs(x)) == plain_rss


def test_harmonic_field_at_the_edge_of_the_range_stays_finite():
    edge = math.sqrt(np.finfo(float).max)
    for mean in (edge, -edge):
        rows = fig1_demo(HarmonicField(mean=mean, amplitude=edge), rake_counts=(3, 8))
        assert all(math.isfinite(r.legacy) and math.isfinite(r.model_eps_p_sq) for r in rows)
