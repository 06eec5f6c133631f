"""Monte Carlo trajectory tests.

The two-level return problem is the main oracle here: the detection
profile of a given interval sequence has an elementary product form, so
the simulator can be checked realization by realization, not only in
distribution.
"""

import numpy as np
import pytest

from qprobe.errors import DegenerateProblemError
from qprobe.intervals import ExponentialInterval, FixedInterval
from qprobe.model import build_dense, build_ring, build_two_level, spectral_reduce
from qprobe.superop import build_superops, detection_stats, fn_series
from qprobe.trajectory import (_chunk_generators, run_bernoulli,
                               run_per_realization)
from qprobe.verify import stroboscopic_fn_direct


def replay_taus(dist, n_real, n_cut, seed, chunk=1 << 15):
    """Re-draw the exact interval matrix used by run_per_realization."""
    cols = []
    for rng, m in _chunk_generators(seed, n_real, chunk):
        block = np.empty((n_cut, m))
        for n in range(n_cut):
            block[n] = np.atleast_1d(dist.sample(rng, m))
        cols.append(block)
    return np.hstack(cols)


def test_tls_return_profile_matches_product_form():
    # F_1 = cos^2(g t1); F_n = sin^2(g t1) * prod cos^2(g t_k) * sin^2(g t_n)
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    n_real, n_cut, seed = 64, 12, 424242
    ens = run_per_realization(model, dist, n_real, n_cut, seed, keep_fn=True)
    taus = replay_taus(dist, n_real, n_cut, seed)
    for j in range(n_real):
        t = taus[:, j]
        expect = np.empty(n_cut)
        expect[0] = np.cos(t[0]) ** 2
        for n in range(2, n_cut + 1):
            inner = np.prod(np.cos(t[1:n - 1]) ** 2)
            expect[n - 1] = np.sin(t[0]) ** 2 * inner * np.sin(t[n - 1]) ** 2
        assert np.max(np.abs(ens.fn_records[j] - expect)) < 1e-12


def test_per_realization_mass_bounds():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    ens = run_per_realization(model, dist, n_real=2000, n_cut=200, seed=9)
    assert np.all(ens.pdet <= 1.0 + 1e-10)
    # return problem: the undetected tail beyond n_cut=200 is a product of
    # ~200 cos^2 factors, far below any fixed tolerance
    assert np.all(ens.pdet >= 1.0 - 1e-8)


def test_per_realization_fn_mean_matches_exact_series():
    model = build_ring(6, 1.0, 1, 0)
    dist = ExponentialInterval(0.6)
    series = fn_series(build_superops(spectral_reduce(model), dist), 30)
    ens = run_per_realization(model, dist, n_real=20000, n_cut=30, seed=1234)
    dev = np.abs(ens.fn_mean - series) / np.maximum(ens.fn_stderr, 1e-300)
    assert dev.max() <= 4.0


def test_per_realization_nbar_moments_tls():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    ens = run_per_realization(model, dist, n_real=10**5, n_cut=90, seed=31)
    s = ens.summary()
    assert abs(s["nbar_mean"] - 2.0) <= 4 * s["nbar_stderr"]
    assert abs(s["nbar_var"] - 197.0 / 115.0) <= 4 * s["nbar_var_stderr"]


def test_nbar_histogram_square_root_divergence_near_one():
    # P(nbar < 1 + eps) ~ c sqrt(eps): quadrupling eps should double the mass
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    ens = run_per_realization(model, dist, n_real=10**5, n_cut=90, seed=77)
    eps = 0.01
    lo = np.mean(ens.nbar < 1 + eps)
    hi = np.mean(ens.nbar < 1 + 4 * eps)
    assert lo > 0.02
    assert 1.6 < hi / lo < 2.4


def test_bernoulli_tls_return_mean():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    ens = run_bernoulli(model, dist, n_real=10**5, seed=5150, n_abort=5000)
    s = ens.summary()
    assert ens.censored == 0
    assert abs(s["n_mean"] - 2.0) <= 4 * s["n_stderr"]


def test_bernoulli_matches_per_realization_histogram():
    dist = ExponentialInterval(0.6)
    for model in (build_two_level(1.0), build_ring(6, 1.0, 1, 0)):
        nb = run_bernoulli(model, dist, n_real=60000, seed=21, n_abort=1000)
        pr = run_per_realization(model, dist, n_real=60000, n_cut=20, seed=22)
        frac, se_b = nb.attempt_fn_estimate(20)
        comb = np.sqrt(se_b**2 + pr.fn_stderr**2)
        dev = np.abs(frac - pr.fn_mean) / np.maximum(comb, 1e-300)
        assert dev.max() <= 4.0, model.label


def test_bernoulli_matches_exact_series():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    series = fn_series(build_superops(spectral_reduce(model), dist), 20)
    ens = run_bernoulli(model, dist, n_real=10**5, seed=88, n_abort=2000)
    frac, se = ens.attempt_fn_estimate(20)
    dev = np.abs(frac - series) / np.maximum(se, 1e-300)
    assert dev.max() <= 4.0


def test_censored_fraction_matches_dark_weight():
    # half the initial weight lives on dark states here
    model = build_ring(6, 1.0, 1, 0)
    dist = ExponentialInterval(0.6)
    n_real = 10**4
    ens = run_bernoulli(model, dist, n_real=n_real, seed=40, n_abort=300)
    p = 0.5
    sigma = np.sqrt(p * (1 - p) / n_real)
    assert abs(ens.censored / n_real - p) <= 3 * sigma
    # detected times are positive sums of the sampled intervals
    assert np.all(ens.times > 0)
    assert np.all(ens.attempts >= 1)


def test_stationary_detection_state_detects_immediately():
    model = build_dense(np.diag([0.0, 2.0]), [1, 0], [1, 0])
    dist = FixedInterval(0.37)
    ens = run_bernoulli(model, dist, n_real=500, seed=3, n_abort=50)
    assert ens.censored == 0
    assert np.all(ens.attempts == 1)
    assert np.allclose(ens.times, 0.37, atol=1e-15)


def test_bernoulli_fixed_interval_time_is_attempts_times_tau():
    model = build_two_level(1.0)
    dist = FixedInterval(0.6)
    ens = run_bernoulli(model, dist, n_real=2000, seed=17, n_abort=4000)
    assert np.allclose(ens.times, 0.6 * ens.attempts, atol=1e-12)


def test_reproducibility_bit_identical():
    model = build_ring(5, 1.0, 1, 0)
    dist = ExponentialInterval(0.6)
    a = run_bernoulli(model, dist, n_real=5000, seed=123, n_abort=500)
    b = run_bernoulli(model, dist, n_real=5000, seed=123, n_abort=500)
    assert np.array_equal(a.attempts, b.attempts)
    assert np.array_equal(a.times, b.times)
    c = run_per_realization(model, dist, n_real=5000, n_cut=25, seed=123)
    d = run_per_realization(model, dist, n_real=5000, n_cut=25, seed=123)
    assert np.array_equal(c.nbar, d.nbar)
    assert np.array_equal(c.fn_mean, d.fn_mean)
    e = run_bernoulli(model, dist, n_real=5000, seed=124, n_abort=500)
    assert not np.array_equal(a.attempts, e.attempts)


def test_chunking_does_not_change_the_estimate():
    # different chunk sizes draw different streams but estimate the same law
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    a = run_per_realization(model, dist, n_real=40000, n_cut=40, seed=5, chunk=1 << 12)
    b = run_per_realization(model, dist, n_real=40000, n_cut=40, seed=5, chunk=1 << 15)
    se = np.sqrt(2.0) * np.maximum(a.fn_stderr, 1e-300)
    assert np.all(np.abs(a.fn_mean - b.fn_mean) <= 5 * se)


def test_argument_validation():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    with pytest.raises(ValueError):
        run_bernoulli(model, dist, n_real=10, seed=1, n_abort=0)
    with pytest.raises(ValueError):
        run_per_realization(model, dist, n_real=10, n_cut=1, seed=1)
    with pytest.raises(ValueError):
        run_per_realization(model, dist, n_real=0, n_cut=5, seed=1)


@pytest.mark.parametrize("L, n_abort", [(5, 300), (6, 200)])
def test_bernoulli_is_inverse_cdf_of_stroboscopic_profile(L, n_abort):
    # a fixed interval draws no random numbers, so each realization's one
    # uniform v fixes its attempt: the first n with F_1 + ... + F_n > v,
    # read off an independent expm propagation (ring 6: dark overlap)
    model = build_ring(L, 1.0, 1, 0)
    tau, n_real, seed, chunk = 0.7, 10000, 2024, 1 << 12
    ens = run_bernoulli(model, FixedInterval(tau), n_real, seed, n_abort=n_abort,
                        chunk=chunk)
    cum = np.cumsum(stroboscopic_fn_direct(model, tau, n_abort))
    v = np.concatenate([rng.random(m) for rng, m in _chunk_generators(seed, n_real, chunk)])
    expect = np.searchsorted(cum, v, side="right") + 1
    assert np.array_equal(ens.attempts, expect[expect <= n_abort])
    assert ens.censored == np.count_nonzero(expect > n_abort)
    assert 0 < ens.censored < n_real


def test_dark_initial_state_per_realization_raises():
    # antisymmetric combination about the detection site never shows up there
    psi_in = np.zeros(4, dtype=complex)
    psi_in[1], psi_in[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    model = build_dense(build_ring(4, 1.0, 0, 0).hamiltonian, psi_in, [1, 0, 0, 0])
    dist = ExponentialInterval(0.6)
    with pytest.raises(DegenerateProblemError):
        run_per_realization(model, dist, n_real=500, n_cut=30, seed=3)
    # "never detected" is a true answer in bernoulli mode
    ens = run_bernoulli(model, dist, n_real=500, seed=3, n_abort=30)
    assert ens.censored == 500 and len(ens.attempts) == 0
