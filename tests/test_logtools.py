import numpy as np
import pytest
from numpy.testing import assert_allclose

from ensmc.logtools import LOG_ZERO, log_normalize, log_row


class TestSafeLog:
    """``log_row`` on a single probability."""

    def test_zero_maps_to_log_zero(self):
        """Exact zero probability becomes -inf, not an error."""
        assert log_row(0.0) == LOG_ZERO

    def test_positive_is_plain_log(self):
        assert_allclose(log_row(0.25), np.log(0.25), rtol=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            log_row(-1e-9)


class TestLogRow:
    def test_mixed_zeros(self):
        """Zeros pass through as -inf without numpy warnings."""
        row = log_row(np.array([0.5, 0.0, 0.5]))
        assert row[1] == LOG_ZERO
        assert_allclose(row[[0, 2]], np.log(0.5), rtol=1e-15)


class TestLogNormalize:
    def test_normalizes_to_unit_mass(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            logs = np.log(rng.random(5) + 1e-3) * rng.integers(1, 4)
            out = log_normalize(logs)
            assert_allclose(np.exp(out).sum(), 1.0, rtol=1e-12)

    def test_preserves_zeros(self):
        out = log_normalize(np.array([np.log(0.3), LOG_ZERO, np.log(0.1)]))
        assert out[1] == LOG_ZERO
        assert_allclose(np.exp(out[0]), 0.75, rtol=1e-12)

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError):
            log_normalize(np.array([LOG_ZERO, LOG_ZERO]))
