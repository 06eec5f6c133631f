"""Monte Carlo trajectory tests.

The two-level return problem is the main oracle here: the detection
profile of a given interval sequence has an elementary product form, so
the simulator can be checked realization by realization, not only in
distribution.
"""

import sys
import tracemalloc

import numpy as np
import pytest

from qprobe import trajectory
from qprobe.errors import DegenerateProblemError
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval
from qprobe.model import build_dense, build_ring, build_two_level, spectral_reduce
from qprobe.superop import build_superops, detection_stats, fn_series
from qprobe.trajectory import (_chunk_generators, _eigenphase_setup, _probe, _Tiles,
                               run_bernoulli, run_per_realization)
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
    assert s["censored_reason"] is None and s["probe_steps"] == ens.attempts.sum()
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
    with pytest.raises(ValueError, match="n_real must be >= 1, got 0"):
        run_bernoulli(model, dist, n_real=0, seed=1)
    with pytest.raises(ValueError):
        run_per_realization(model, dist, n_real=10, n_cut=1, seed=1)
    with pytest.raises(ValueError):
        run_per_realization(model, dist, n_real=0, n_cut=5, seed=1)
    ens = run_per_realization(model, dist, n_real=10, n_cut=5, seed=1)
    with pytest.raises(ValueError, match="only defined for bernoulli mode"):
        ens.attempt_fn_estimate(5)


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


def reference_probe(c, tau, neg_half_w, coeff_d, tiles=None):
    """The probe step written with temporaries over all rows at once: the
    half-angle phase from the tangent of the contiguous half phase, the
    step's row kernel for the amplitude and the rank-one update as one
    product."""
    t = np.tan(tau[:, None] * neg_half_w[None, :])
    s = 2.0 / (1.0 + t * t)
    e = np.empty(c.shape, dtype=complex)
    e.real, e.imag = s - 1.0, t * s
    c *= e
    amp = np.einsum("ij,j->i", c, coeff_d.conj())
    c -= amp[:, None] * coeff_d[None, :]
    return np.abs(amp) ** 2


def exp_oracle_probe(c, tau, neg_half_w, coeff_d):
    """The independent oracle of the step: the complex exp of the imaginary
    phase and the BLAS gemv for the amplitude."""
    w = -2.0 * neg_half_w
    c *= np.exp(-1j * tau[:, None] * w[None, :])
    amp = c @ coeff_d.conj()
    c -= amp[:, None] * coeff_d[None, :]
    return np.abs(amp) ** 2


def random_dense_model(n, seed):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    psi_in = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi_d = rng.normal(size=n) + 1j * rng.normal(size=n)
    return build_dense(h + h.conj().T, psi_in / np.linalg.norm(psi_in),
                       psi_d / np.linalg.norm(psi_d))


@pytest.mark.parametrize("dist", [FixedInterval(0.7), GammaInterval(2.5, 0.6)],
                         ids=["fixed", "gamma"])
@pytest.mark.parametrize("n", [2, 6, 64])
def test_fused_probe_is_bitwise_the_reference_step(n, dist):
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(random_dense_model(n, seed=n))
    assert np.iscomplexobj(coeff_d) and np.any(coeff_d.imag != 0)
    m, rng = 257, np.random.default_rng(11)
    c_ref, c_new = np.tile(coeff_in, (m, 1)), np.tile(coeff_in, (m, 1))
    with _Tiles(m, n) as tiles:
        for _ in range(6):
            tau = np.atleast_1d(dist.sample(rng, m))
            f_ref = reference_probe(c_ref, tau, neg_half_w, coeff_d)
            f_new = _probe(c_new, tau, neg_half_w, coeff_d, tiles)
            assert np.array_equal(f_new, f_ref)
            assert np.array_equal(c_new, c_ref)
        # fewer rows than the buffers hold, as after a bernoulli compaction
        k = 100
        f_ref = reference_probe(c_ref[:k], np.full(k, 0.3), neg_half_w, coeff_d)
        f_new = _probe(c_new[:k], np.full(k, 0.3), neg_half_w, coeff_d, tiles)
    assert np.array_equal(f_new, f_ref) and np.array_equal(c_new, c_ref)


@pytest.mark.parametrize("n", [2, 6, 64])
def test_row_kernel_step_is_within_rounding_of_the_gemv_step(n):
    # the tangent phase and the row kernel differ from the complex exp and
    # the BLAS gemv in the last bits; over 40 steps the two stay within
    # 1e-13 of the step's largest F under each law
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(random_dense_model(n, seed=n))
    m = 2000
    for dist in (FixedInterval(0.7), ExponentialInterval(0.6), GammaInterval(2.5, 0.6)):
        rng = np.random.default_rng(11)
        c_ref, c_new = np.tile(coeff_in, (m, 1)), np.tile(coeff_in, (m, 1))
        with _Tiles(m, n) as tiles:
            for _ in range(40):
                tau = np.atleast_1d(dist.sample(rng, m))
                f_ref = exp_oracle_probe(c_ref, tau, neg_half_w, coeff_d)
                f_new = _probe(c_new, tau, neg_half_w, coeff_d, tiles)
                assert np.max(np.abs(f_new - f_ref)) <= 1e-13 * f_ref.max(), dist
                assert np.max(np.abs(c_new - c_ref)) <= 1e-13 * np.abs(c_ref).max(), dist


def test_probe_phase_is_within_rounding_of_expj():
    # with psi_d = 0 the step leaves c = 1 times the phase factor, so a
    # column of half-rate 1/2 (and one of -1/2) reads e = exp(+-i theta)
    # off the step itself, against a 30-digit mpmath.expj
    mpmath = pytest.importorskip("mpmath")
    theta = np.concatenate([
        [0.0, 1e-300, 1e-10, np.pi, 2 * np.pi, 1e6],
        np.pi * (2 * np.arange(0, 159000, 797) + 1),   # odd multiples of pi
        np.logspace(-10, 6, 1500),
        np.random.default_rng(7).uniform(0.0, 100.0, 500),
    ])
    c = np.ones((len(theta), 2), dtype=complex)
    with _Tiles(len(theta), 2) as tiles:
        _probe(c, theta, np.array([0.5, -0.5]), np.zeros(2, dtype=complex), tiles)
    with mpmath.workdps(30):
        for th, (e_pos, e_neg) in zip(theta, c):
            exact = mpmath.expj(mpmath.mpf(float(th)))
            assert abs(mpmath.mpc(e_pos) - exact) <= 4.5e-16, th
            assert abs(mpmath.mpc(e_neg) - mpmath.conj(exact)) <= 4.5e-16, th


def test_probe_takes_tan_of_a_contiguous_buffer_and_allocates_no_c_sized_array(monkeypatch):
    # every tangent runs in place on a C-contiguous float64 tile buffer (the
    # vectorized loop), and no cos, sin or exp is called; tracemalloc sees
    # the returned F and per-tile amplitudes, not an array of c's 20 MB
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(random_dense_model(64, seed=64))
    m = 20000
    tau = ExponentialInterval(0.6).sample(np.random.default_rng(5), m)
    c = np.tile(coeff_in, (m, 1))
    tan, seen = np.tan, []

    def checked_tan(x, out):
        assert x.dtype == np.float64 and x.flags.c_contiguous and out is x
        seen.append(x.size)
        return tan(x, out=out)

    def refused(*args, **kwargs):
        raise AssertionError("the probe step calls no cos, sin or exp")

    monkeypatch.setattr(np, "tan", checked_tan)
    for name in ("cos", "sin", "exp"):
        monkeypatch.setattr(np, name, refused)
    with _Tiles(m, 64) as tiles:
        tracemalloc.start()
        try:
            _probe(c, tau, neg_half_w, coeff_d, tiles)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sum(seen) == c.size and max(seen) == trajectory.TILE_ELEMS
    assert peak < c.nbytes / 16


@pytest.mark.parametrize("model, m, threads", [(random_dense_model(6, seed=6), 10000, 1),
                                               (random_dense_model(6, seed=6), 20000, 2),
                                               (build_two_level(1.0), trajectory.DEFAULT_CHUNK, 1)],
                         ids=["dense6-two-tiles", "dense6-four-tiles", "tls-two-tiles"])
def test_a_step_splits_only_with_two_tiles_a_worker(monkeypatch, model, m, threads):
    # with two CPUs, 2**15-amplitude tiles cut 10 000 rows of 6 and a
    # default chunk of two-level rows into two tiles, which stay on one
    # worker; 20 000 rows of 6 make four tiles, two for each worker
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(model)
    tau = ExponentialInterval(0.6).sample(np.random.default_rng(3), m)

    def step(workers):
        monkeypatch.setattr(trajectory, "_workers", lambda: workers)
        c = np.tile(coeff_in, (m, 1))
        with _Tiles(m, len(coeff_in)) as tiles:
            f = _probe(c, tau, neg_half_w, coeff_d, tiles)
        return f, c, tiles.threads

    f_one, c_one, threads_one = step(1)
    f_two, c_two, threads_two = step(2)
    assert (threads_one, threads_two) == (1, threads)
    assert np.array_equal(f_two, f_one) and np.array_equal(c_two, c_one)


def reference_bernoulli(model, dist, n_real, seed, n_abort, chunk):
    """Bernoulli mode with the live set kept as an index array: every probe
    indexes v and the elapsed times by it and steps the reference probe."""
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(model)
    attempts, times, censored = [], [], 0
    for rng, m in _chunk_generators(seed, n_real, chunk):
        v = rng.random(m)
        c = np.tile(coeff_in, (m, 1))
        live, cum = np.arange(m), np.zeros(m)
        attempt, t_acc = np.zeros(m, dtype=np.int64), np.zeros(m)
        for n in range(1, n_abort + 1):
            tau = np.atleast_1d(dist.sample(rng, len(live)))
            t_acc[live] += tau
            cum += reference_probe(c, tau, neg_half_w, coeff_d)
            hit = cum > v[live]
            attempt[live[hit]] = n
            live, c, cum = live[~hit], c[~hit], cum[~hit]
            if not len(live):
                break
        censored += len(live)
        attempts.append(attempt[attempt > 0])
        times.append(t_acc[attempt > 0])
    return np.concatenate(attempts), np.concatenate(times), censored


@pytest.mark.parametrize("model", [build_ring(6, 1.0, 1, 0), random_dense_model(6, seed=3)],
                         ids=["ring6", "dense6"])
def test_fused_probe_runs_match_the_reference_step(monkeypatch, model):
    # ring 6 has dark overlap, so bernoulli rows detect, shrink the live set
    # and the rest is censored; chunk 2**10 gives several chunks
    dist = ExponentialInterval(0.6)
    kw = dict(n_real=3000, chunk=1 << 10)

    def runs():
        b = run_bernoulli(model, dist, seed=5, n_abort=200, **kw)
        p = run_per_realization(model, dist, n_cut=40, seed=6, **kw)
        return b, p

    b_new, p_new = runs()
    attempts, times, censored = reference_bernoulli(model, dist, seed=5, n_abort=200, **kw)
    monkeypatch.setattr(trajectory, "_probe", reference_probe)
    b_ref, p_ref = runs()
    assert b_new.censored == b_ref.censored == censored
    assert np.array_equal(b_new.attempts, b_ref.attempts)
    assert np.array_equal(b_new.attempts, attempts)
    assert np.array_equal(b_new.times, b_ref.times)
    assert np.array_equal(b_new.times, times)
    for name in ("nbar", "pdet", "fn_mean", "fn_stderr"):
        assert np.array_equal(getattr(p_new, name), getattr(p_ref, name)), name
    if model.label.startswith("ring"):
        assert 0 < censored < 3000


@pytest.mark.parametrize("mode", ["bernoulli", "per_realization"])
def test_probe_steps_count(mode):
    model, dist = build_ring(6, 1.0, 1, 0), ExponentialInterval(0.6)
    if mode == "bernoulli":
        ens = run_bernoulli(model, dist, n_real=500, seed=3, n_abort=50)
        assert ens.censored > 0
        assert ens.probe_steps == ens.attempts.sum() + 50 * ens.censored
        assert ens.summary()["censored_reason"] == "n_abort"
    else:
        ens = run_per_realization(model, dist, n_real=500, n_cut=30, seed=3)
        assert ens.probe_steps == 500 * 30
        assert ens.summary()["censored_reason"] is None
    assert ens.summary()["probe_steps"] == ens.probe_steps


@pytest.mark.parametrize("model, n_abort", [(build_ring(6, 1.0, 1, 0), 200),
                                            (random_dense_model(64, seed=4), 30)],
                         ids=["ring6", "dense64"])
def test_runs_are_bitwise_the_same_for_any_worker_count_and_tile(monkeypatch, model, n_abort):
    # 1500 realizations in chunks of 2**9; tiles of 37 rows leave a ragged
    # last tile, and bernoulli detections shrink the tile count mid-run
    dist = ExponentialInterval(0.6)
    kw = dict(n_real=1500, chunk=1 << 9)
    n = len(model.psi_in)

    def runs(workers, tile_rows):
        monkeypatch.setattr(trajectory, "_workers", lambda: workers)
        monkeypatch.setattr(trajectory, "TILE_ELEMS", tile_rows * n)
        b = run_bernoulli(model, dist, seed=5, n_abort=n_abort, **kw)
        p = run_per_realization(model, dist, n_cut=20, seed=6, **kw)
        return b, p

    b_one, p_one = runs(1, 1 << 12)
    assert b_one.threads == p_one.threads == 1
    # 128-row tiles make four tiles of a 512-row chunk, and each worker
    # takes at least two, so two of three workers run; three workers
    # outnumber the cores of a small machine, and a short switch interval
    # makes the workers interleave as often as they can
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, tile_rows, threads in [(1, 37, 1), (2, 37, 2), (3, 37, 3), (3, 128, 2)]:
            b, p = runs(workers, tile_rows)
            assert b.threads == p.threads == p.summary()["threads"] == threads
            assert b.censored == b_one.censored
            assert np.array_equal(b.attempts, b_one.attempts)
            assert np.array_equal(b.times, b_one.times)
            for name in ("nbar", "pdet", "fn_mean", "fn_stderr"):
                assert np.array_equal(getattr(p, name), getattr(p_one, name)), name
    finally:
        sys.setswitchinterval(interval)
