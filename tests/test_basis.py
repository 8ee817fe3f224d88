"""Basis construction against an independent spline oracle."""

from dataclasses import asdict

import numpy as np
import pytest
from scipy.interpolate import BSpline

from curdur.basis import BasisConfig, build_basis
from curdur.errors import ConfigurationError
from curdur.window import NUM_DAYS


def scipy_reflected_basis(config):
    """Independent construction: scipy B-splines, antiderivative, reflect."""
    boundary = float(config.support_days)
    breaks = np.linspace(0.0, boundary, config.num_segments + 1)
    knots = np.concatenate(
        [np.zeros(config.degree), breaks, np.full(config.degree, boundary)]
    )
    grid = np.arange(config.support_days + 1, dtype=float)
    k = config.num_basis
    cols = []
    for i in range(k):
        coef = np.zeros(k)
        coef[i] = 1.0
        integral = BSpline(knots, coef, config.degree, extrapolate=False).antiderivative()
        vals = integral(grid)
        cols.append(1.0 - vals / vals[-1])
    return np.column_stack(cols)


class TestBasisConfig:
    def test_rejects_degenerate_configs(self):
        with pytest.raises(ConfigurationError):
            BasisConfig(num_segments=0)
        # more columns than the 730 support days: 727 + 3 is the largest basis
        assert BasisConfig(num_segments=727).num_basis == NUM_DAYS
        with pytest.raises(ConfigurationError):
            BasisConfig(num_segments=728)

    @pytest.mark.parametrize("value", [10.5, "10", None, float("inf")])
    def test_num_segments_must_be_a_whole_number(self, value):
        # refused as the config is made, not by build_basis
        with pytest.raises(ConfigurationError, match="num_segments .* is not a whole number"):
            BasisConfig(num_segments=value)
        assert type(BasisConfig(num_segments=10.0).num_segments) is int

    def test_window_is_fixed(self):
        # the survey window and the cubic degree are constants of the
        # method, not settings
        assert BasisConfig().support_days == NUM_DAYS
        assert BasisConfig().degree == 3
        assert asdict(BasisConfig()) == {"num_segments": 10}
        with pytest.raises(TypeError):
            BasisConfig(support_days=NUM_DAYS)
        with pytest.raises(TypeError):
            BasisConfig(degree=3)

    def test_num_basis(self):
        assert BasisConfig(num_segments=10).num_basis == 13
        assert BasisConfig(num_segments=7).num_basis == 10


class TestBuildBasis:
    def test_boundary_rows(self):
        basis = build_basis(BasisConfig())
        assert np.all(basis.values[0] == 1.0)
        assert np.all(basis.values[-1] == 0.0)

    def test_default_shape_and_monotone_columns(self):
        # exhaustive scan over every day of the default 13-column basis
        basis = build_basis(BasisConfig(num_segments=10))
        assert basis.values.shape == (731, 13)
        assert np.all(np.diff(basis.values, axis=0) <= 0.0)

    def test_entries_within_unit_interval(self):
        basis = build_basis(BasisConfig())
        assert np.all(basis.values >= 0.0)
        assert np.all(basis.values <= 1.0)

    @pytest.mark.parametrize(
        "config",
        [
            BasisConfig(),
            BasisConfig(num_segments=30),
            BasisConfig(num_segments=3),
            BasisConfig(num_segments=4),
        ],
    )
    def test_matches_scipy_oracle(self, config):
        basis = build_basis(config)
        oracle = scipy_reflected_basis(config)
        assert np.allclose(basis.values, oracle, atol=1e-12, rtol=0.0)

    # each id ends in the spline degree
    @pytest.mark.parametrize("num_segments", [1, 2, 7, 10, 30, 60],
                             ids=lambda n: f"{n}-{BasisConfig.degree}")
    def test_layouts(self, num_segments):
        config = BasisConfig(num_segments=num_segments)
        values = build_basis(config).values
        assert values.shape == (NUM_DAYS + 1, config.num_basis)
        assert np.all(np.diff(values, axis=0) <= 0.0)
        assert np.all((values >= 0.0) & (values <= 1.0))
        assert np.all(values[0] == 1.0) and np.all(values[-1] == 0.0)
        oracle = scipy_reflected_basis(config)
        assert np.allclose(values, oracle, atol=1e-12, rtol=0.0)

    def test_small_config_monotone(self):
        basis = build_basis(BasisConfig(num_segments=1))
        assert basis.values.shape == (731, 4)
        assert np.all(np.diff(basis.values, axis=0) <= 0.0)

    def test_knots_evenly_spaced(self):
        basis = build_basis(BasisConfig(num_segments=10))
        assert np.allclose(np.diff(basis.knots), 73.0)
