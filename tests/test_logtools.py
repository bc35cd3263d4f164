import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import logsumexp as scipy_logsumexp

import ensmc
from ensmc import EnsembleSpec
from ensmc.logtools import (
    LOG_ZERO,
    log_normalize,
    log_row,
    logsumexp,
    weighted_logsumexp_columns,
)


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


class TestOneTermLogSumExp:
    """One term takes a short path. Its bits must be the general path's,
    which a second, zero-probability term forces."""

    @pytest.mark.parametrize("t", [
        0.0, -0.0, float("inf"), float("-inf"), float("nan"), 5e-324, -5e-324,
        2.2250738585072014e-308, -1e-310, 1e308, -1e308, 1.7976931348623157e308, -0.5, 3.25,
    ])
    def test_bits_equal_the_general_path(self, t):
        want = struct.pack("<d", logsumexp([t, LOG_ZERO]))
        for one in ([t], [np.float64(t)], np.array([t])):
            got = logsumexp(one)
            assert type(got) is float
            assert struct.pack("<d", got) == want, (t, one)

    def test_empty_is_log_zero(self):
        assert logsumexp([]) == LOG_ZERO
        assert logsumexp(np.array([])) == LOG_ZERO


def random_columns(rng, k, n):
    """(k, n) log values with -inf entries, exact ties and mixed scales."""
    a = rng.normal(scale=rng.choice([0.5, 20.0, 400.0]), size=(k, n))
    if rng.random() < 0.5:
        a = np.round(a)  # many ties, some at the column max
    if k > 1:
        tied = rng.random(n) < 0.3
        a[1, tied] = a[0, tied]
    a[rng.random((k, n)) < 0.25] = LOG_ZERO
    return a


def random_weights(rng, k):
    w = rng.dirichlet(np.ones(k))
    w[rng.random(k) < 0.3] = 0.0
    return w


class TestWeightedColumns:
    """``weighted_logsumexp_columns`` against scipy, bit for bit."""

    def test_matches_scipy_bytes(self):
        rng = np.random.default_rng(6)
        for _ in range(300):
            k = int(rng.integers(1, 5))
            a = random_columns(rng, k, 64)
            w = random_weights(rng, k)
            ours = weighted_logsumexp_columns(a, w)
            with np.errstate(divide="ignore", invalid="ignore"):
                ref = scipy_logsumexp(a, b=w[:, None], axis=0)
            assert ours.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("tau", [-50.0, -3.0, -0.5, 0.5, 1.0, 2.0, 50.0])
    def test_power_operator_matches_scipy_bytes(self, tau):
        """The power branches of ``combine_columns`` give what they gave
        when they called scipy's weighted logsumexp."""
        rng = np.random.default_rng(int(abs(tau) * 10) + (tau < 0))
        for _ in range(100):
            k = int(rng.integers(1, 5))
            w = random_weights(rng, k)
            if not w.any():
                w[0] = 1.0
            spec = EnsembleSpec.power(tau, w)
            log_matrix = random_columns(rng, k, 32)
            log_matrix[log_matrix > 0.0] *= -1.0
            active = np.asarray(spec.weights) > 0.0
            m = log_matrix[active]
            wa = np.asarray(spec.weights)[active]
            any_zero = np.isneginf(m).any(axis=0)
            with np.errstate(divide="ignore", invalid="ignore"):
                if tau < 0.0:
                    scaled = np.where(any_zero[None, :], 0.0, tau * m)
                    ref = scipy_logsumexp(scaled, b=wa[:, None], axis=0) / tau
                    ref[any_zero] = LOG_ZERO
                else:
                    ref = scipy_logsumexp(tau * m, b=wa[:, None], axis=0) / tau
                    ref[np.isneginf(m).all(axis=0)] = LOG_ZERO
            assert spec.combine_columns(log_matrix).tobytes() == ref.tobytes()


def test_import_loads_no_scipy():
    """The package runs on numpy alone: importing it pulls in no scipy."""
    code = (
        "import sys, ensmc; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(ensmc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=env, timeout=60,
    )
    assert out.stdout.strip() == "[]"
