"""The shared scalar RLS step behind both online gain estimators."""

import pytest

from repro.control import rls_step


def test_converges_to_the_true_slope():
    theta, p = 0.0, 1e4
    for k in range(1, 40):
        phi = 1.0 + 0.1 * (k % 5)
        theta, p = rls_step(theta, p, phi, 3.5 * phi, forgetting=0.9)
    assert theta == pytest.approx(3.5, rel=1e-6)
    assert p > 0


def test_without_forgetting_it_is_ordinary_least_squares():
    samples = [(1.0, 2.1), (2.0, 3.9), (3.0, 6.2), (4.0, 7.8)]
    theta, p = 0.0, 1e9  # a flat prior
    for phi, y in samples:
        theta, p = rls_step(theta, p, phi, y, forgetting=1.0)
    ols = (sum(phi * y for phi, y in samples)
           / sum(phi * phi for phi, __ in samples))
    assert theta == pytest.approx(ols, rel=1e-6)


def test_both_estimators_take_this_step():
    """Each keeps its own policy around the one recursion."""
    from repro.core.adaptive import RlsGainEstimator as Adaptive
    from repro.obs.sysid import RlsGainEstimator as SysId

    adaptive = Adaptive(initial_gain=0.5, forgetting=0.98)
    gain = adaptive.update(4.0, 3.0)
    assert (gain, adaptive.covariance) == rls_step(0.5, 1.0, 4.0, 3.0, 0.98)
    assert adaptive.update(0.1, 9.9) == gain  # below the excitation floor

    sysid = SysId(forgetting=0.7)
    sysid.update(du=30.0, dy=10.0, period=0.5)
    assert (sysid.s, sysid.p) == rls_step(0.0, 1e4, 0.5, 20.0, 0.7)
