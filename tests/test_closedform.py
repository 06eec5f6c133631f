"""Closed-form oracle tests: frozen values and cross-checks against the
exact superoperator computation."""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from qprobe.closedform import (RingCaseTag, classify_ring_case, ring_nbar_exp,
                               ring_nsq_exp, ring_tsq_exp, tls_stats)
from qprobe.errors import DivergenceError
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval
from qprobe.model import build_ring, build_two_level, spectral_reduce
from qprobe.superop import build_superops, detection_stats


def exact_ring_stats(L, x_d, gamma, mu):
    model = build_ring(L, gamma, 0, x_d)
    dist = ExponentialInterval(mu)
    return detection_stats(build_superops(spectral_reduce(model), dist), dist)


def test_case_classification():
    assert classify_ring_case(7, 0).tag is RingCaseTag.ODD_RETURN
    assert classify_ring_case(7, 3).tag is RingCaseTag.ODD_ARRIVAL
    assert classify_ring_case(8, 0).tag is RingCaseTag.EVEN_RETURN
    assert classify_ring_case(8, 3).tag is RingCaseTag.EVEN_ARRIVAL
    assert classify_ring_case(8, 4).tag is RingCaseTag.EVEN_ANTIPODE
    # reflection folding
    folded = classify_ring_case(8, 6)
    assert folded.x_d == 2 and folded.tag is RingCaseTag.EVEN_ARRIVAL
    assert not classify_ring_case(16, 5).conjectural
    assert classify_ring_case(17, 5).conjectural


def test_nbar_frozen_values():
    # antipodal L=24: 576/(32*0.36) + 13 = 63
    with pytest.warns(UserWarning):
        assert ring_nbar_exp(24, 12, 1.0, 0.6) == pytest.approx(63.0, abs=1e-12)
    # return quantization
    assert ring_nbar_exp(7, 0, 1.0, 0.37) == pytest.approx(4.0, abs=1e-15)
    # odd arrival: 6/8 + 17/4 = 5.0
    assert ring_nbar_exp(7, 1, 1.0, 1.0) == pytest.approx(5.0, abs=1e-12)


def test_nsq_frozen_values():
    # odd return, L=7: 7/mu^2 + 29.5
    for mu in (0.5, 1.0, 2.0):
        assert ring_nsq_exp(7, 0, 1.0, mu) == pytest.approx(7.0 / mu**2 + 29.5, abs=1e-12)
    # even antipode, L=4, mu=1: 0.5 + 5.25 + 16 = 21.75
    assert ring_nsq_exp(4, 2, 1.0, 1.0) == pytest.approx(21.75, abs=1e-12)


def test_tsq_frozen_values():
    # even antipode, L=4, mu=1: 0.5 + 3.75 + 19 = 23.25
    assert ring_tsq_exp(4, 2, 1.0, 1.0) == pytest.approx(23.25, abs=1e-12)
    # return case goes through the identity with Var = mu^2
    mu = 0.6
    want = mu**2 * ring_nsq_exp(7, 0, 1.0, mu) + 4 * mu**2
    assert ring_tsq_exp(7, 0, 1.0, mu) == pytest.approx(want, abs=1e-12)


def test_large_mean_limits():
    # the 1/mu^2 terms die off, leaving the constant branch terms
    big = 1e9
    assert ring_nbar_exp(7, 2, 1.0, big) == pytest.approx(17.0 / 4.0, rel=1e-9)
    assert ring_nsq_exp(8, 3, 1.0, big) == pytest.approx((64 + 48) / 2, rel=1e-9)


def test_variance_nonnegativity_over_table():
    for L in range(3, 17):
        for x_d in range(0, L // 2 + 1):
            for mu in (0.4, 1.0, 2.0):
                tsq = ring_tsq_exp(L, x_d, 1.0, mu)
                nbar = ring_nbar_exp(L, x_d, 1.0, mu)
                assert tsq >= (mu * nbar) ** 2 - 1e-9, (L, x_d, mu)


def test_reflection_mapping_consistency():
    for L, x_d in ((9, 7), (10, 8), (12, 11)):
        assert ring_nbar_exp(L, x_d, 1.0, 0.7) == ring_nbar_exp(L, L - x_d, 1.0, 0.7)
        assert ring_nsq_exp(L, x_d, 1.0, 0.7) == ring_nsq_exp(L, L - x_d, 1.0, 0.7)
        assert ring_tsq_exp(L, x_d, 1.0, 0.7) == ring_tsq_exp(L, L - x_d, 1.0, 0.7)


@pytest.mark.parametrize("gamma", [1.0, 0.7])
@pytest.mark.parametrize("L,x_d", [(5, 2), (7, 0), (8, 3), (8, 4), (12, 5)])
def test_closed_forms_match_exact_computation(L, x_d, gamma):
    mu = 0.6
    st = exact_ring_stats(L, x_d, gamma, mu)
    assert st.n_mean == pytest.approx(ring_nbar_exp(L, x_d, gamma, mu), rel=1e-8)
    assert st.n_sq == pytest.approx(ring_nsq_exp(L, x_d, gamma, mu), rel=1e-8)
    assert st.t_sq == pytest.approx(ring_tsq_exp(L, x_d, gamma, mu), rel=1e-8)


def test_tls_return_frozen_values():
    dist = ExponentialInterval(0.6)
    r = tls_stats("return", dist, 1.0)
    assert r.p_det == 1.0
    assert r.n_mean == 2.0
    assert r.n_sq == pytest.approx(79.0 / 9.0, rel=1e-12)
    assert r.t_mean == pytest.approx(1.2, abs=1e-12)
    assert r.t_sq == pytest.approx(3.88, abs=1e-12)
    assert r.nbar_var == pytest.approx(197.0 / 115.0, rel=1e-12)
    assert r.nbar_var == pytest.approx(1.713, abs=5e-4)


def test_tls_arrival_frozen_values():
    dist = ExponentialInterval(0.6)
    r = tls_stats("arrival", dist, 1.0)
    # <cos^2 tau> = 43/61, so n_mean = 61/18
    assert r.n_mean == pytest.approx(61.0 / 18.0, rel=1e-12)
    assert r.n_mean == pytest.approx(3.389, abs=1e-3)
    assert r.nbar_var is None
    assert r.t_mean == pytest.approx(0.6 * r.n_mean, rel=1e-12)


@pytest.mark.parametrize("problem,x_in", [("return", 0), ("arrival", 1)])
@pytest.mark.parametrize("dist", [ExponentialInterval(0.6), GammaInterval(5.0, 0.6),
                                  FixedInterval(0.6)])
def test_tls_matches_exact_two_site_computation(problem, x_in, dist):
    # single-bond coupling g equals a 2-site ring with hopping g/2
    cf = tls_stats(problem, dist, gamma=1.0)
    model = build_two_level(1.0, x_in=x_in, x_d=0)
    st = detection_stats(build_superops(spectral_reduce(model), dist), dist)
    ring = build_ring(2, 0.5, x_in, 0)
    st_ring = detection_stats(build_superops(spectral_reduce(ring), dist), dist)
    for name in ("p_det", "n_mean", "n_sq", "t_mean", "t_sq"):
        assert getattr(st, name) == pytest.approx(getattr(cf, name), rel=1e-8)
        assert getattr(st_ring, name) == pytest.approx(getattr(cf, name), rel=1e-8)


def test_tls_fixed_interval_stroboscopic_values():
    tau = 0.6
    r = tls_stats("return", FixedInterval(tau), 1.0)
    c = np.cos(tau) ** 2
    assert r.n_sq == pytest.approx(2 + 2 / (1 - c), rel=1e-12)
    assert r.nbar_var == pytest.approx(0.0, abs=1e-12)
    assert r.t_sq == pytest.approx(tau**2 * r.n_sq, rel=1e-12)


def test_tls_divergence_at_exceptional_interval():
    with pytest.raises(DivergenceError):
        tls_stats("return", FixedInterval(np.pi), 1.0)
    with pytest.raises(DivergenceError):
        tls_stats("arrival", FixedInterval(2 * np.pi), 1.0)


def test_zeno_limit_constant_on_ring():
    # n_mean * mu^2 -> x_d (L - x_d) / (8 gamma^2) as the mean interval
    # shrinks (odd-ring arrival)
    sd = spectral_reduce(build_ring(7, 1.0, 0, 1))
    for mu in (0.02, 0.01):
        dist = ExponentialInterval(mu)
        st = detection_stats(build_superops(sd, dist), dist)
        assert st.n_mean * mu**2 == pytest.approx(6.0 / 8.0, rel=5e-3)


def test_tls_zeno_scaling_exponent():
    # n_sq ~ 2/(gamma^2 <tau^2>) = 1/mu^2 for exponential intervals
    mus = np.geomspace(1e-3, 1e-2, 7)
    vals = np.array([tls_stats("return", ExponentialInterval(m), 1.0).n_sq for m in mus])
    slope = np.polyfit(np.log(mus), np.log(vals), 1)[0]
    assert slope == pytest.approx(-2.0, abs=0.05)
    assert vals[0] == pytest.approx(2.0 / (2 * mus[0] ** 2), rel=0.01)


def test_optimal_mean_interval_matches_closed_form():
    # t_mean(mu) = A/mu + B mu for exponential arrival; the sweep minimum
    # must sit at sqrt(A/B)
    L, x_d = 7, 1
    a_coeff = x_d * (L - x_d) / 8.0
    b_coeff = (2 * L + 3) / 4.0
    mu_star = np.sqrt(a_coeff / b_coeff)
    model = build_ring(L, 1.0, 0, x_d)
    sd = spectral_reduce(model)

    def t_mean(mu):
        dist = ExponentialInterval(mu)
        return detection_stats(build_superops(sd, dist), dist).t_mean

    res = minimize_scalar(t_mean, bounds=(0.05, 3.0), method="bounded",
                          options={"xatol": 1e-8})
    assert res.x == pytest.approx(mu_star, rel=1e-2)


def test_ring_tsq_return_warns_once_at_the_caller():
    # the return branch goes through the n^2 formula without its own warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ring_tsq_exp(20, 0, 1.0, 0.6)
    assert [w.filename for w in caught] == [__file__]
    assert "L=20 is outside the numerically verified range" in str(caught[0].message)


def test_conjectural_range_warns():
    with pytest.warns(UserWarning):
        ring_nbar_exp(17, 3, 1.0, 0.6)
    with pytest.warns(UserWarning):
        ring_tsq_exp(20, 5, 1.0, 0.6)
