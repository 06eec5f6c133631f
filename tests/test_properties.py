"""Property tests: the structured moments, the census and the series
against dense oracles, and real against complex diagonalization.

Random dense models of dimension 3-6 with one planted degenerate pair,
random complex initial and detection states, and fixed, exponential and
Gamma interval laws with means in [0.3, 0.9].  ``detection_stats`` must
match ``verify.dense_reference_stats`` and obey p_det = sum(q) and
t_mean = <tau> n_mean, within a relative tolerance that grows with the
dense cond_1(J).

Random real dense models of dimension 3-9 with planted 2- and 3-fold
levels must reduce like their complex twins under a random diagonal
phase gauge.

On both families, real or under a complex gauge: a return problem
(psi_in = psi_d) is detected with certainty after, on average, as many
attempts as there are levels (Grunbaum, Velazquez, Werner and Werner,
Commun. Math. Phys. 320, 2013), and under a fixed interval the averaged
series is the stroboscopic one.  Both also draw exceptional fixed periods
tau = 2 pi m / (E_j - E_k), m = 1, 2, of the drawn levels, where the
levels of U(tau) = exp(-i H tau) are its distinct eigenphases.

At Nr = 13-16, real and complex, where the census runs shift-invert
Arnoldi, its Perron root matches max|eigvals| of the dense transfer
matrix.  At n = 3-6 the partial sums of the averaged series plus their
tail, taken from the dense transfer matrix, reach p_det.  The runs are
derandomized, so Tier-1 stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qprobe.errors import IllConditionedError
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval
from qprobe.model import build_dense, spectral_full, spectral_reduce
from qprobe.superop import (DEFAULT_COND_LIMIT, DENSE_CENSUS_MAX_DIM, build_superops,
                            detection_stats, fn_series, zero_mode_census)
from qprobe.verify import dense_reference_stats, stroboscopic_fn_direct
from test_model import assert_reductions_agree, bright_states, gauged

MOMENTS = ("p_det", "n_mean", "n_sq", "t_mean", "t_sq")


def _rtol(cond: float) -> float:
    return max(1e-10, 1e-14 * cond)


@st.composite
def models(draw, n_min=3, n_max=6, real=False):
    """A dense model of dimension n_min-n_max whose two lowest energies
    coincide exactly; the other gaps lie in [0.05, 3], so fixed intervals
    can come near resonance.  Complex, or real when ``real`` is set."""
    n = draw(st.integers(n_min, n_max))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 2, max_size=n - 2))
    e0 = draw(st.floats(-2.0, 2.0))
    energies = e0 + np.concatenate([[0.0, 0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    h = (u * energies) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    psi = rng.standard_normal((2, n))
    if not real:
        psi = psi + 1j * rng.standard_normal((2, n))
    psi_in, psi_d = psi
    return build_dense(h, psi_in / np.linalg.norm(psi_in), psi_d / np.linalg.norm(psi_d))


laws = st.one_of(
    st.builds(FixedInterval, st.floats(0.3, 0.9)),
    st.builds(ExponentialInterval, st.floats(0.3, 0.9)),
    st.builds(GammaInterval, st.floats(2.0, 20.0), st.floats(0.3, 0.9)),
)
# (m, j, k): the fixed period 2 pi m / |E_j - E_k| of two drawn levels,
# the indices taken modulo the level count
resonances = st.tuples(st.integers(1, 2), st.integers(0, 8), st.integers(1, 8))


def _exceptional_period(energies, resonance):
    """The period a drawn ``resonances`` tuple names, or None with one level."""
    m, j, dk = resonance
    n = len(energies)
    if n < 2:
        return None
    j %= n
    k = (j + 1 + dk % (n - 1)) % n
    return 2 * np.pi * m / abs(energies[j] - energies[k])


def _distinct_eigenphases(energies, tau):
    """The number of distinct exp(-i E tau), 1e-9 apart."""
    z = np.exp(-1j * energies * tau)
    return sum(not np.any(np.abs(z[:i] - z[i]) <= 1e-9) for i in range(len(z)))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(model=models(), dist=laws)
def test_structured_stats_match_dense_oracle(model, dist):
    sd = spectral_reduce(model)
    assert sd.reduced_dim == model.dim - 1          # the planted pair is one cluster
    sset = build_superops(sd, dist)
    ref = dense_reference_stats(sset)
    try:
        stats = detection_stats(sset, dist)
    except IllConditionedError:
        assert ref["condition"] > DEFAULT_COND_LIMIT / 10
        return
    rtol = _rtol(max(ref["condition"], stats.condition))
    for name in MOMENTS:
        assert abs(getattr(stats, name) - ref[name]) <= rtol * abs(ref[name]), name
    assert abs(stats.p_det - sd.p_init.sum()) <= rtol * sd.p_init.sum()
    assert abs(stats.t_mean - dist.mean * stats.n_mean) <= rtol * stats.t_mean


@st.composite
def real_models(draw):
    """A real dense model whose levels have multiplicities 1-3 and gaps in
    [0.05, 3], with real states (the return problem when psi_in = psi_d);
    returns the model and its number of levels."""
    n = draw(st.integers(3, 9))
    sizes = []
    while sum(sizes) < n:
        sizes.append(draw(st.integers(1, min(3, n - sum(sizes)))))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=len(sizes) - 1,
                         max_size=len(sizes) - 1))
    levels = draw(st.floats(-2.0, 2.0)) + np.concatenate([[0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = (u * np.repeat(levels, sizes)) @ u.T
    psi_in, psi_d = rng.standard_normal((2, n))
    if draw(st.booleans()):
        psi_in = psi_d
    return build_dense(0.5 * (h + h.T), psi_in / np.linalg.norm(psi_in),
                       psi_d / np.linalg.norm(psi_d)), len(sizes)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(case=real_models())
def test_real_models_reduce_like_their_complex_gauge_twins(case):
    model, levels = case
    assert np.isrealobj(bright_states(model, spectral_full(model)))    # the real solver ran
    a = spectral_reduce(model)
    assert a.reduced_dim == levels          # each planted level is one bright cluster
    assert_reductions_agree(a, spectral_reduce(gauged(model)))


# either family with its level count: the planted pair of models() is one level
any_models = st.one_of(real_models(), models().map(lambda model: (model, model.dim - 1)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=any_models, dist=st.one_of(laws, resonances), twin=st.booleans())
def test_return_problem_is_quantized(case, dist, twin):
    model, levels = case
    model = build_dense(model.hamiltonian, model.psi_d, model.psi_d)
    if twin:
        model = gauged(model)
    sd = spectral_reduce(model)
    if isinstance(dist, tuple):
        tau = _exceptional_period(sd.energies, dist)
        dist = FixedInterval(tau if tau is not None else 0.6)
        levels = _distinct_eigenphases(sd.energies, dist.tau0)
    sset = build_superops(sd, dist)
    try:
        stats = detection_stats(sset, dist)
    except IllConditionedError:
        assert dense_reference_stats(sset)["condition"] > DEFAULT_COND_LIMIT / 10
        return
    assert abs(stats.p_det - 1.0) <= 1e-10
    assert abs(stats.n_mean - levels) <= 1e-9 * levels


@settings(derandomize=True, max_examples=60, deadline=None)
@given(case=any_models, tau=st.one_of(st.floats(0.3, 0.9), resonances), twin=st.booleans())
def test_fixed_interval_series_is_stroboscopic(case, tau, twin):
    model, _ = case
    if twin:
        model = gauged(model)
    sd = spectral_reduce(model)
    if isinstance(tau, tuple):
        tau = _exceptional_period(sd.energies, tau) or 0.6
    series = fn_series(build_superops(sd, FixedInterval(tau)), 30)
    assert np.abs(series - stroboscopic_fn_direct(model, tau, 30)).max() <= 1e-10


# Nr = 13-16 after the planted pair: the census runs shift-invert Arnoldi
arnoldi_models = st.one_of(*(models(DENSE_CENSUS_MAX_DIM + 2, DENSE_CENSUS_MAX_DIM + 5, real)
                             for real in (False, True)))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(model=arnoldi_models, dist=laws)
def test_arnoldi_census_matches_dense_eigvals(model, dist):
    sset = build_superops(spectral_reduce(model), dist)
    census = zero_mode_census(sset)
    assert census.structural
    rho = np.abs(np.linalg.eigvals(sset.transfer)).max()
    assert abs(census.slowest_decay - rho) <= 1e-12


@settings(derandomize=True, max_examples=15, deadline=None)
@given(model=models(), dist=laws)
def test_partial_sums_reach_p_det(model, dist):
    # p_det - S_N is the tail sum_{n > N} F_n = 1^T (I - T)^-1 T^N (phi o src),
    # taken from the dense transfer matrix by repeated squaring
    sset = build_superops(spectral_reduce(model), dist)
    try:
        stats = detection_stats(sset, dist)
    except IllConditionedError:
        assert dense_reference_stats(sset)["condition"] > DEFAULT_COND_LIMIT / 10
        return
    n = 4000
    partial = fn_series(sset, n).sum()
    src = sset.phase_avg * sset.source_vec
    tail = np.linalg.solve(sset.resolvent, np.linalg.matrix_power(sset.transfer, n) @ src)
    assert partial <= stats.p_det + 1e-12
    assert abs(partial + tail.sum().real - stats.p_det) <= _rtol(stats.condition) * stats.p_det
