"""Superoperator machinery tests.

The main oracles: the two-level system where everything is available in
closed form, direct stroboscopic propagation for point-mass intervals,
and the structural constraints (zero modes, Hermiticity pairing, rank-one
source) that the construction must satisfy for any model.
"""

import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from qprobe import cli
from qprobe.errors import (ConvergenceError, DegenerateProblemError, DenseSizeError,
                           IllConditionedError, MomentOverflowError)
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval
from qprobe.model import (build_dense, build_ring, build_two_level,
                          spectral_full, spectral_reduce)
from qprobe.superop import (PINV_DENSE_ARRAYS, SuperoperatorSet, build_superops,
                            detection_stats, fn_series,
                            universal_identity_check, zero_mode_census)
from qprobe.verify import dense_reference_stats, stroboscopic_fn_direct


def tls_superops(dist, gamma=1.0, x_in=0):
    sd = spectral_reduce(build_two_level(gamma, x_in=x_in, x_d=0))
    return build_superops(sd, dist)


def test_tls_return_projection_kron_matrix():
    sset = tls_superops(ExponentialInterval(0.6))
    expect = 0.25 * np.array([
        [1, -1, -1, 1],
        [-1, 1, 1, -1],
        [-1, 1, 1, -1],
        [1, -1, -1, 1],
    ])
    assert np.allclose(sset.proj_kron, expect, atol=1e-14)


def test_tls_phase_avg_diagonal():
    # ascending energies (-g, g): compound entries (11),(12),(21),(22)
    dist = ExponentialInterval(0.6)
    sset = tls_superops(dist)
    z = complex(dist.charfn(2.0))          # <cos 2g tau> + i <sin 2g tau>
    assert np.allclose(sset.phase_avg, [1.0, z.conjugate(), z, 1.0], atol=1e-14)


def test_phase_avg_unit_diagonal_exactly():
    for model in (build_ring(7, 1.0, 1, 0), build_ring(8, 1.0, 0, 0)):
        sd = spectral_reduce(model)
        sset = build_superops(sd, GammaInterval(3.0, 0.7))
        n = sd.reduced_dim
        diag_idx = [j * n + j for j in range(n)]
        assert np.all(sset.phase_avg[diag_idx] == 1.0 + 0.0j)


def test_fixed_interval_phase_entries_unimodular():
    sd = spectral_reduce(build_ring(5, 1.0, 1, 0))
    tau0 = 0.6
    sset = build_superops(sd, FixedInterval(tau0))
    diff = (sd.energies[:, None] - sd.energies[None, :]).ravel()
    assert np.allclose(sset.phase_avg, np.exp(1j * diff * tau0), atol=1e-14)
    assert np.allclose(np.abs(sset.phase_avg), 1.0, atol=1e-14)


def test_transfer_hermiticity_pairing():
    # entry (jk)(lm) equals the conjugate of entry (kj)(ml)
    sd = spectral_reduce(build_ring(7, 1.0, 2, 0))
    sset = build_superops(sd, ExponentialInterval(0.6))
    n = sd.reduced_dim
    m = sset.transfer.reshape(n, n, n, n)
    assert np.max(np.abs(m - m.transpose(1, 0, 3, 2).conj())) < 1e-14


def test_tls_return_series_closed_form():
    dist = ExponentialInterval(0.6)
    c_sq = 0.5 * (1.0 + complex(dist.charfn(2.0)).real)   # <cos^2 tau>
    series = fn_series(tls_superops(dist), 12)
    assert series[0] == pytest.approx(c_sq, abs=1e-12)
    for n in range(2, 13):
        assert series[n - 1] == pytest.approx(
            c_sq ** (n - 2) * (1 - c_sq) ** 2, abs=1e-12
        )


@pytest.mark.parametrize("tau0", [0.3, 0.6, 1.1])
def test_fixed_interval_series_matches_direct_propagation(tau0):
    for model in (build_two_level(1.0), build_ring(5, 1.0, 1, 0), build_ring(8, 1.0, 3, 0)):
        sset = build_superops(spectral_reduce(model), FixedInterval(tau0))
        series = fn_series(sset, 50)
        direct = stroboscopic_fn_direct(model, tau0, 50)
        assert np.max(np.abs(series - direct)) < 1e-10, model.label


def test_series_shape_and_total_mass_l24():
    sd = spectral_reduce(build_ring(24, 1.0, 12, 0))
    sset = build_superops(sd, ExponentialInterval(0.6))
    series = fn_series(sset, 2000)
    assert np.all(series > -1e-10)
    # the complex bilinear form carries only roundoff in its imaginary part
    v = sset.phase_avg * sset.source_vec
    imag_residue = 0.0
    for _ in range(60):
        imag_residue = max(imag_residue, abs(v.sum().imag))
        v = sset.transfer @ v
    assert imag_residue < 1e-10
    # ballistic rise peaks around n ~ 11-12, then exponential decay
    assert 10 <= int(np.argmax(series[:30])) + 1 <= 14
    assert abs(series.sum() - 1.0) < 1e-3


def test_partial_sums_converge_at_slowest_decay_rate():
    dist = ExponentialInterval(0.6)
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    sset = build_superops(sd, dist)
    p_det = detection_stats(sset, dist).p_det
    series = fn_series(sset, 120)
    lam = abs(zero_mode_census(sset).slowest_decay)
    res60 = abs(p_det - series[:60].sum())
    res120 = abs(p_det - series.sum())
    assert res120 < res60
    ratio = res120 / res60
    assert 0.2 * lam**60 < ratio < 5.0 * lam**60


def test_fn_series_rejects_bad_nmax():
    sset = tls_superops(ExponentialInterval(0.6))
    with pytest.raises(ValueError):
        fn_series(sset, 0)


@pytest.mark.parametrize("tol", [0.0, -1e-10, np.nan])
def test_zero_mode_census_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive"):
        zero_mode_census(tls_superops(ExponentialInterval(0.6)), tol=tol)


def test_l24_exponential_and_fixed_headline_numbers():
    sd = spectral_reduce(build_ring(24, 1.0, 12, 0))
    dist = ExponentialInterval(0.6)
    st = detection_stats(build_superops(sd, dist), dist)
    assert st.p_det == pytest.approx(1.0, abs=1e-9)
    assert st.n_mean == pytest.approx(63.0, rel=1e-6)
    fixed = FixedInterval(0.6)
    stf = detection_stats(build_superops(sd, fixed), fixed)
    assert stf.n_mean == pytest.approx(101.4, rel=5e-3)


def test_return_quantization_sample():
    for L, dist in ((5, ExponentialInterval(0.6)), (8, GammaInterval(25.0, 0.6)),
                    (11, FixedInterval(0.7))):
        sd = spectral_reduce(build_ring(L, 1.0, 0, 0))
        st = detection_stats(build_superops(sd, dist), dist)
        assert st.p_det == pytest.approx(1.0, abs=1e-10)
        assert st.n_mean == pytest.approx(L // 2 + 1, abs=1e-8)


def test_tls_return_second_moment_frozen():
    # <cos^2 tau> = 43/61 for exponential mean 0.6, so n_sq = 2 + 2/(18/61) = 79/9
    dist = ExponentialInterval(0.6)
    st = detection_stats(tls_superops(dist), dist)
    assert st.n_sq == pytest.approx(79.0 / 9.0, rel=1e-10)
    assert st.n_sq >= st.n_mean**2 - 1e-8
    assert st.t_sq >= st.t_mean**2 - 1e-8
    assert st.t_mean == pytest.approx(dist.mean * st.n_mean, rel=1e-8)


def test_detection_stats_p_det_equals_overlap_sum():
    dist = GammaInterval(5.0, 0.6)
    for model in (build_ring(7, 1.0, 0, 0), build_ring(7, 1.0, 3, 0),
                  build_ring(6, 1.0, 1, 0)):
        sd = spectral_reduce(model)
        st = detection_stats(build_superops(sd, dist), dist)
        assert st.p_det == pytest.approx(float(sd.p_init.sum()), abs=1e-10)


def test_zero_mode_census_bounds():
    dist = ExponentialInterval(0.6)
    for model in (build_two_level(1.0), build_ring(7, 1.0, 1, 0),
                  build_ring(10, 1.0, 0, 0)):
        sd = spectral_reduce(model)
        census = zero_mode_census(build_superops(sd, dist))
        n = sd.reduced_dim
        assert census.n_zero >= 2 * n - 1
        assert census.n_nonzero <= (n - 1) ** 2


def degenerate_model_nr14():
    # 16 random levels, one of them three-fold degenerate: Nr = 14
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    e = rng.uniform(-2.0, 2.0, 14)
    h = (q * np.r_[e, e[3], e[3]]) @ q.conj().T
    psi_in, psi_d = rng.normal(size=(2, 16)) + 1j * rng.normal(size=(2, 16))
    return spectral_reduce(build_dense(0.5 * (h + h.conj().T), psi_in / np.linalg.norm(psi_in),
                                       psi_d / np.linalg.norm(psi_d)))


PERRON_CASES = [(f"ring{L}_{name}", lambda L=L: spectral_reduce(build_ring(L, 1.0, L // 2, 0)),
                 dist)
                for L in (24, 40)
                for name, dist in (("fixed0.6", FixedInterval(0.6)),
                                   ("fixed0.7", FixedInterval(0.7)),
                                   ("exp", ExponentialInterval(0.6)),
                                   ("gamma", GammaInterval(10.0, 0.6)))]
PERRON_CASES += [(f"dense_nr14_{name}", degenerate_model_nr14, dist)
                 for name, dist in (("exp", ExponentialInterval(0.6)),
                                    ("gamma", GammaInterval(10.0, 0.6)))]
PERRON_CASES += [("ring8_fixed0.6", lambda: spectral_reduce(build_ring(8, 1.0, 4, 0)),
                  FixedInterval(0.6))]


@pytest.mark.parametrize("make_sd, dist", [c[1:] for c in PERRON_CASES],
                         ids=[c[0] for c in PERRON_CASES])
def test_zero_mode_census_perron_root_matches_dense(make_sd, dist):
    # At fixed 0.6 on L = 24 and 40, LAPACK lists -0.72+0.69i and
    # -0.73-0.68i first among the eigenvalues of largest modulus; the
    # census reports the Perron root rho on the real axis instead.
    sd = make_sd()
    sset = build_superops(sd, dist)
    census = zero_mode_census(sset)
    mags = np.abs(np.linalg.eigvals(sset.transfer))
    assert census.structural == (sd.reduced_dim > 12)
    assert abs(census.slowest_decay - mags.max()) <= 1e-12
    assert census.slowest_decay.imag == 0.0
    n_zero = int(np.sum(mags < 1e-8))
    assert (census.n_zero, census.n_nonzero) == (n_zero, mags.size - n_zero)


def test_zero_mode_census_holds_no_nr4_array():
    # the Arnoldi basis and the structured solve are O(Nr^2); measured
    # peak ~38 x 16 Nr^2 bytes at Nr = 41, where the dense transfer
    # matrix alone would be 45 MB
    sset = build_superops(spectral_reduce(build_ring(80, 1.0, 40, 0)),
                          GammaInterval(10.0, 0.6))
    assert sset.dim == 41
    zero_mode_census(sset)                        # warm up lazy imports
    tracemalloc.start()
    census = zero_mode_census(sset)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert census.structural
    assert peak < 64 * 16 * sset.dim**2


def test_zero_mode_census_falls_back_to_dense_when_solve_is_singular():
    # the full 26-site space keeps degenerate pairs (phi_jk = 1) and dark
    # states (p_j = 0), so no structured solve exists; dark states are
    # never detected, so the Perron root is 1
    sset = build_superops(spectral_full(build_ring(26, 1.0, 1, 0)), ExponentialInterval(0.6))
    assert sset.dim == 26
    census = zero_mode_census(sset)
    assert not census.structural
    assert census.slowest_decay == pytest.approx(1.0, abs=1e-12)
    assert (census.n_zero, census.n_nonzero) == (51, 26**2 - 51)


@pytest.mark.parametrize("ritz", [None, [0.99 + 1e-6j, 0.5, 0.2],
                                  [0.97 + 0.1j, 0.5, 0.2], [0.99, -1.2, 0.3]])
def test_zero_mode_census_refuses_unchecked_arnoldi(monkeypatch, ritz):
    # no convergence, and Ritz values whose nearest-to-1 member is not
    # real or not of largest modulus, raise instead of returning a number;
    # Arnoldi runs on -J^-1, so the fake returns nu = 1/(lam - 1)
    import scipy.sparse.linalg as sla

    def fake_eigs(*args, **kwargs):
        if ritz is None:
            raise sla.ArpackNoConvergence("no convergence", np.array([]), None)
        return 1.0 / (np.array(ritz, dtype=complex) - 1.0)

    monkeypatch.setattr(sla, "eigs", fake_eigs)
    sset = build_superops(spectral_reduce(build_ring(24, 1.0, 12, 0)), ExponentialInterval(0.6))
    with pytest.raises(ConvergenceError):
        zero_mode_census(sset)


def test_solver_keeps_no_reference_to_its_set():
    # the set caches its solver, so a solver holding the set would make a
    # cycle that only the cyclic garbage collector frees
    dist = ExponentialInterval(0.6)
    sd = spectral_reduce(build_ring(40, 1.0, 20, 0))
    gc.disable()
    try:
        sset = build_superops(sd, dist)
        assert sset.dim == 21
        detection_stats(sset, dist)
        assert zero_mode_census(sset).structural
        ref = weakref.ref(sset)
        del sset
        assert ref() is None
    finally:
        gc.enable()


def test_transfer_refuses_arrays_over_the_dense_budget():
    # 16 Nr^4 bytes: 1.05e9 at Nr = 90 (allowed), 1.10e9 at Nr = 91; the
    # pseudo-inverse counts the 9 arrays of its SVD
    sset = build_superops(spectral_reduce(build_ring(180, 1.0, 90, 0)),
                          ExponentialInterval(0.6))
    assert sset.dim == 91
    for make, nbytes in (
            (lambda: sset.transfer, 1097199376), (lambda: sset.resolvent, 1097199376),
            (lambda: sset.proj_kron, 1097199376),
            (lambda: detection_stats(sset, ExponentialInterval(0.6), pseudo_inverse=True),
             9 * 1097199376)):
        tracemalloc.start()
        with pytest.raises(DenseSizeError, match=f"Nr=91 needs {nbytes} bytes"):
            make()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 91**2 * 64


def test_pseudo_inverse_traced_peak_is_five_arrays_the_size_of_j():
    # tracemalloc sees u, vh and the three arrays that form the
    # pseudo-inverse; the SVD's copy of J, its factors and workspace are
    # allocated outside it, and the RSS rise is 8.6-8.8 arrays at Nr = 31-41,
    # hence the budget counts PINV_DENSE_ARRAYS = 9
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(40, 1.0, 20, 0)), dist)
    assert sset.dim == 21
    tracemalloc.start()
    detection_stats(sset, dist, pseudo_inverse=True)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak == pytest.approx(5 * 16 * 21**4, rel=0.01)
    assert peak < PINV_DENSE_ARRAYS * 16 * 21**4


@pytest.mark.parametrize("L, refused", [(102, False), (104, True)])
def test_pseudo_inverse_budget_counts_its_svd(monkeypatch, capsys, L, refused):
    # 9 * 16 Nr^4 bytes: 1.05e9 at Nr = 52 (allowed), 1.14e9 at Nr = 53;
    # J is a stand-in and the SVD raises, so nothing large is built
    def no_svd(a, *args, **kwargs):
        raise RuntimeError("the SVD was reached")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    monkeypatch.setattr(SuperoperatorSet, "resolvent", property(lambda self: np.eye(2)))
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(L, 1.0, L // 2, 0)), dist)
    assert sset.dim == L // 2 + 1
    if refused:
        message = r"9 dense Nr\^2 x Nr\^2 array\(s\) at Nr=53 needs 1136229264 bytes"
        with pytest.raises(DenseSizeError, match=message):
            detection_stats(sset, dist, pseudo_inverse=True)
        assert cli.main(["stats", "--L", str(L), "--gamma", "1", "--xin", str(L // 2),
                         "--xd", "0", "--dist", "exp", "--mean", "0.6", "--pseudo-inverse"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Nr=53" in err and err.count("\n") == 1
    else:
        with pytest.raises(RuntimeError, match="the SVD was reached"):
            detection_stats(sset, dist, pseudo_inverse=True)


def test_tls_return_single_nonzero_mode():
    dist = ExponentialInterval(0.6)
    sset = tls_superops(dist)
    census = zero_mode_census(sset)
    c_sq = 0.5 * (1.0 + complex(dist.charfn(2.0)).real)
    assert census.n_nonzero == 1
    assert abs(census.slowest_decay - c_sq) < 1e-12


def test_trivial_one_dimensional_space():
    # detection state sitting on a single eigenstate: the reduced space is 1d,
    # the transfer matrix vanishes, and detection happens at the first probe
    model = build_dense(np.diag([0.0, 2.0]), [1, 0], [1, 0])
    sd = spectral_reduce(model)
    assert sd.reduced_dim == 1
    dist = ExponentialInterval(0.6)
    sset = build_superops(sd, dist)
    assert np.allclose(sset.transfer, 0.0)
    census = zero_mode_census(sset)
    assert (census.n_zero, census.n_nonzero) == (1, 0)
    st = detection_stats(sset, dist)
    assert st.n_mean == pytest.approx(1.0, abs=1e-12)
    assert st.t_sq == pytest.approx(dist.second_moment, rel=1e-10)


def test_entirely_dark_initial_state_raises():
    # antisymmetric combination about the detection site never shows up there
    psi_in = np.zeros(4, dtype=complex)
    psi_in[1], psi_in[3] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    model = build_dense(build_ring(4, 1.0, 0, 0).hamiltonian, psi_in, [1, 0, 0, 0])
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(model), dist)
    with pytest.raises(DegenerateProblemError, match="no overlap with the bright subspace"):
        detection_stats(sset, dist)


def test_vanishing_pdet_with_bright_weight_names_the_exceptional_interval():
    # bright weight 1/2, but tau = pi makes every phase exp(-i E tau) on ring 4 equal 1
    dist = FixedInterval(np.pi)
    sd = spectral_reduce(build_ring(4, 1.0, 1, 0))
    assert sd.p_init.sum() == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(DegenerateProblemError,
                       match=r"bright weight is 0\.5: the interval law is exceptional"):
        detection_stats(build_superops(sd, dist), dist, pseudo_inverse=True)


def test_stats_invariant_under_eigenbasis_rephasing():
    model = build_ring(12, 1.0, 5, 2)
    dist = GammaInterval(3.0, 0.8)
    w, v = np.linalg.eigh(model.hamiltonian)
    rng = np.random.default_rng(11)
    v2 = v * np.exp(1j * rng.uniform(0, 2 * np.pi, len(w)))[None, :]
    h2 = (v2 * w[None, :]) @ v2.conj().T
    st1 = detection_stats(build_superops(spectral_reduce(model), dist), dist)
    m2 = build_dense(h2, model.psi_in, model.psi_d)
    st2 = detection_stats(build_superops(spectral_reduce(m2), dist), dist)
    for name in ("p_det", "n_mean", "n_sq", "t_mean", "t_sq"):
        assert getattr(st1, name) == pytest.approx(getattr(st2, name), abs=1e-10)


def test_universal_identity_all_distributions():
    dists = (FixedInterval(0.7), ExponentialInterval(0.6), GammaInterval(25.0, 0.6))
    models = (build_two_level(1.0), build_two_level(1.0, x_in=1),
              build_ring(6, 1.0, 1, 0), build_ring(9, 1.0, 0, 0))
    for model in models:
        sd = spectral_reduce(model)
        for dist in dists:
            report = universal_identity_check(build_superops(sd, dist), dist)
            assert report.passed, (model.label, dist)
            if sd.is_return_problem():
                assert report.t_sq_residual is not None
            else:
                assert report.t_sq_residual is None


def test_tls_return_time_second_moment_value():
    # t_sq - mean^2 n_sq = 2 Var(tau) = 0.72 for exponential mean 0.6
    dist = ExponentialInterval(0.6)
    st = detection_stats(tls_superops(dist), dist)
    assert st.t_sq - dist.mean**2 * st.n_sq == pytest.approx(0.72, abs=1e-8)


def test_exceptional_interval_raises_with_diagnostics():
    dist = FixedInterval(np.pi)
    sset = tls_superops(dist)
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    err = info.value
    assert err.condition > 1e12
    assert any(mag > 1 - 1e-9 for (_, _, mag) in err.pairs)
    assert (0, 1, pytest.approx(1.0)) in [(i, j, m) for i, j, m in err.pairs]


def test_ill_conditioned_message_lists_eight_pairs_and_the_total():
    pairs = [(i, i + 1, 1.0 - 1e-3 * i) for i in range(10)]
    err = IllConditionedError(1e17, pairs, p_min=1e-13, p_min_index=4)
    message = str(err)
    assert message.count("|phi|=") == 8
    assert "(7,8) |phi|=0.993000000000, ... (10 pairs total)]" in message
    assert message.endswith("; smallest detection weight p[4] = 1.000e-13")


def test_exceptional_fixed_period_names_only_resonant_pair():
    # A fixed interval has |phi| = 1 on every pair; at tau_c only (0,3)
    # and (3,0) have phi = 1.  Just past tau_c the condition (~11 /
    # |1 - phi|^2) is still far above the gate and (0,3) is still named.
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    tau_c = 2 * np.pi / (sd.energies[3] - sd.energies[0])

    def named_pairs(tau):
        dist = FixedInterval(tau)
        with pytest.raises(IllConditionedError) as info:
            detection_stats(build_superops(sd, dist), dist)
        return info.value, [(i, j) for i, j, _ in info.value.pairs]

    _, pairs = named_pairs(tau_c)
    assert set(pairs) == {(0, 3), (3, 0)}
    err, pairs = named_pairs(tau_c + 1e-7)
    assert err.condition > 1e13
    assert (0, 3) in pairs


def test_pseudo_inverse_opt_in_returns_finite_stats():
    dist = FixedInterval(np.pi)
    sset = tls_superops(dist)
    st = detection_stats(sset, dist, pseudo_inverse=True)
    assert np.isfinite(st.p_det) and np.isfinite(st.n_mean)
    assert st.condition > 1e12


def test_full_space_pseudo_inverse_matches_reduced_p_det():
    # With dark states kept, the resolvent is singular; the truncated-SVD
    # pseudo-inverse still recovers the detection probability.  Higher
    # moments do NOT survive this treatment (the singular directions are
    # removed orthogonally, not spectrally), so only p_det is compared;
    # the reduced space is the supported route for moments.
    model = build_ring(6, 1.0, 1, 0)
    dist = ExponentialInterval(0.6)
    st_red = detection_stats(build_superops(spectral_reduce(model), dist), dist)
    st_full = detection_stats(build_superops(spectral_full(model), dist), dist,
                              pseudo_inverse=True)
    assert st_full.p_det == pytest.approx(st_red.p_det, abs=1e-8)
    # the averaged series itself is identical in both representations
    s_red = fn_series(build_superops(spectral_reduce(model), dist), 50)
    s_full = fn_series(build_superops(spectral_full(model), dist), 50)
    assert np.max(np.abs(s_red - s_full)) < 1e-12


def planted_degeneracy_model():
    # random unitary times a diagonal with a repeated value, random states
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
    h = (q * np.array([-1.3, -0.4, 0.2, 0.2, 0.9, 1.7])) @ q.conj().T
    h = 0.5 * (h + h.conj().T)
    psi_in, psi_d = rng.normal(size=(2, 6)) + 1j * rng.normal(size=(2, 6))
    return spectral_reduce(build_dense(h, psi_in / np.linalg.norm(psi_in),
                                       psi_d / np.linalg.norm(psi_d)))


CROSS_MODELS = {
    "two_level": lambda: spectral_reduce(build_two_level(1.0)),
    "ring7_x1": lambda: spectral_reduce(build_ring(7, 1.0, 1, 0)),
    "ring6_x1_dark": lambda: spectral_reduce(build_ring(6, 1.0, 1, 0)),
    "ring24_x12": lambda: spectral_reduce(build_ring(24, 1.0, 12, 0)),
    "dense_degenerate": planted_degeneracy_model,
    "full_ring6": lambda: spectral_full(build_ring(6, 1.0, 1, 0)),   # p_j = 0
}
CROSS_DISTS = {"fixed": FixedInterval(0.6), "exp": ExponentialInterval(0.6),
               "gamma": GammaInterval(10.0, 0.6)}


@pytest.mark.parametrize("dist_name", list(CROSS_DISTS))
@pytest.mark.parametrize("model_name", list(CROSS_MODELS))
def test_structured_survival_matches_dense_superoperators(model_name, dist_name):
    sd = CROSS_MODELS[model_name]()
    dist = CROSS_DISTS[dist_name]
    sset = build_superops(sd, dist)
    n = sset.dim
    # only O(Nr^2) data is held
    held = [v for v in vars(sset).values() if isinstance(v, np.ndarray)]
    assert held and all(a.size <= n * n for a in held)
    # the on-demand dense matrices are the Kronecker construction
    surv = np.eye(n) - np.outer(sd.p_detect, np.ones(n))
    assert np.max(np.abs(sset.proj_kron - np.kron(surv, surv))) <= 1e-14
    transfer = sset.transfer
    assert np.max(np.abs(transfer - sset.phase_avg[:, None] * np.kron(surv, surv))) <= 1e-14
    assert np.max(np.abs(sset.resolvent - (np.eye(n * n) - transfer))) <= 1e-14
    # structured S (x) S apply against the dense product
    rng = np.random.default_rng(3)
    v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    assert np.max(np.abs(sset.survive(v) - sset.proj_kron @ v)) <= 1e-14
    # fn_series against dense powers of the transfer matrix
    w = sset.phase_avg * sset.source_vec
    dense = np.empty(60)
    for i in range(60):
        dense[i] = w.sum().real
        w = transfer @ w
    assert np.max(np.abs(fn_series(sset, 60) - dense)) <= 1e-14
    # moments against a dense solve; the full space needs the pseudo-inverse
    pinv = model_name == "full_ring6"
    st = detection_stats(sset, dist, pseudo_inverse=pinv)
    ref = dense_reference_stats(sset, pinv)
    true_cond = ref.pop("condition")
    for name, expect in ref.items():
        assert getattr(st, name) == pytest.approx(expect, rel=1e-10), name
    assert st.backend == ("pinv" if pinv else "structured")
    if not pinv:
        # exact ||J||_1 times a lower bound on ||J^-1||_1, no refinement step
        assert true_cond / 3 <= st.condition <= true_cond * (1 + 1e-8)
        assert st.residual <= 1e-13
    # a second call sees the same, untouched set
    assert detection_stats(sset, dist, pseudo_inverse=pinv) == st


def test_dense_resolvent_is_the_only_nr4_allocation():
    # building the transfer matrix or J allocates one complex Nr^4 array,
    # plus numpy's fixed ~0.25 MB of ufunc buffers (Nr = 21 here, J is
    # 3.1 MB); detection_stats stays far below, see the test that follows
    sset = build_superops(spectral_reduce(build_ring(40, 1.0, 20, 0)),
                          ExponentialInterval(0.6))
    nr4_bytes = 16 * sset.dim**4
    for make in (lambda: sset.transfer, lambda: sset.resolvent,
                 lambda: detection_stats(sset, ExponentialInterval(0.6))):
        tracemalloc.start()
        make()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 1.2 * nr4_bytes


def test_detection_stats_holds_no_nr4_array():
    # the structured solve keeps O(Nr^2) arrays; measured peak ~19 x 16 Nr^2
    # bytes at Nr = 41, where one dense Nr^4 array would be 45 MB
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(80, 1.0, 40, 0)), dist)
    assert sset.dim == 41
    detection_stats(sset, dist)                   # warm up lazy imports
    tracemalloc.start()
    detection_stats(sset, dist)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 64 * 16 * sset.dim**2


def p_min_ladder_model(p_min):
    # dense 5-level model whose smallest detection weight is p_min
    rng = np.random.default_rng(8)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    h = (q * np.array([-1.1, -0.3, 0.4, 0.9, 1.6])) @ q.conj().T
    p = np.array([p_min, 0.1, 0.2, 0.3, 0.4])
    p[1:] *= 1.0 - p_min
    psi_in = rng.normal(size=5) + 1j * rng.normal(size=5)
    return spectral_reduce(build_dense(0.5 * (h + h.conj().T), psi_in / np.linalg.norm(psi_in),
                                       q @ np.sqrt(p)))


@pytest.mark.parametrize("dist_name", list(CROSS_DISTS))
def test_small_detection_weight_ladder(dist_name):
    # n_mean grows like 1/p_min, and so does cond_1(J): 1e3 at p_min = 6e-3,
    # 1e11 at 1e-10.  Structured and dense LU agree to within 0.12 cond eps
    # on this ladder (pinned at 2e-16 cond, the dense cond_1 itself carries
    # an error of that size); at p_min = 3e-12 the gate fires (cond 2.7e12
    # to 4.0e12) with no pair near 1, and names p_min instead.
    dist = CROSS_DISTS[dist_name]
    for p_min in (6e-3, 1e-4, 1e-6, 1e-8, 1e-10):
        sset = build_superops(p_min_ladder_model(p_min), dist)
        st = detection_stats(sset, dist)
        ref = dense_reference_stats(sset)
        true_cond = ref.pop("condition")
        tol = 2e-16 * st.condition
        assert true_cond / 3 <= st.condition <= true_cond * (1 + 1e-8 + tol)
        for name, expect in ref.items():
            assert getattr(st, name) == pytest.approx(expect, rel=tol), name
    sset = build_superops(p_min_ladder_model(3e-12), dist)
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    err = info.value
    assert err.pairs == [] and err.p_min_index == 0
    assert err.p_min == pytest.approx(3e-12, rel=1e-6)
    assert "smallest detection weight p[0] = 3.000e-12" in str(err)


@pytest.mark.parametrize("law", ["fixed", "gamma"])
def test_phase_near_one_route_to_the_gate(law):
    # the other route to a large cond_1(J): a pair phase phi -> 1 at
    # tau = tau_c (1 + eps), tau_c = 2 pi / (E_3 - E_0) on ring 7.  Fixed
    # intervals take cond from 3e3 at eps = 1e-2 to 2.9e11 at 1e-6; the
    # gamma law's |phi| < 1 holds it near 7e5, where W = phi / (1 - phi)
    # reaches 1e4.  Structured and dense agree to within 0.16 cond eps
    # (pinned at 2e-16 cond, as on the ladder).  There the residual is
    # <= 6e-12 (LU: 3e-12) with the solver's refinement step, 1.3e-8 without
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    tau_c = 2 * np.pi / (sd.energies[3] - sd.energies[0])
    conds, residuals = [], []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        tau = tau_c * (1 + eps)
        dist = FixedInterval(tau) if law == "fixed" else GammaInterval(1e6, tau)
        sset = build_superops(sd, dist)
        st = detection_stats(sset, dist)
        ref = dense_reference_stats(sset)
        ref.pop("condition")
        conds.append(st.condition)
        residuals.append(st.residual)
        for name, expect in ref.items():
            assert getattr(st, name) == pytest.approx(expect, rel=2e-16 * st.condition), \
                (eps, name)
    if law == "fixed":
        assert conds == sorted(conds) and conds[0] < 1e4 and 1e11 < conds[-1] < 1e12
    else:
        assert max(residuals) <= 1e-10


SOLVE_MODELS = {name: make for name, make in CROSS_MODELS.items() if name != "full_ring6"}
SOLVE_MODELS.update({f"ladder_{p_min:g}": lambda p_min=p_min: p_min_ladder_model(p_min)
                     for p_min in (6e-3, 1e-4, 1e-6, 1e-8, 1e-10)})


@pytest.mark.parametrize("model_name", list(SOLVE_MODELS))
def test_structured_forward_and_adjoint_solves_match_dense(model_name):
    # one bordered factor serves J and, through S^T = diag(p)^-1 S diag(p),
    # J^H; measured errors <= 0.29 cond eps (1.5e-7 at p_min = 1e-10,
    # where q = p (x) p reaches 1e-20), pinned at 2e-16 cond
    sd = SOLVE_MODELS[model_name]()
    rng = np.random.default_rng(4)
    for dist_name, dist in CROSS_DISTS.items():
        sset = build_superops(sd, dist)
        solver, j = sset._solver, sset.resolvent
        b = rng.normal(size=len(j)) + 1j * rng.normal(size=len(j))
        for solve, dense in ((solver.solve, j), (solver.solve_adjoint, j.conj().T)):
            ref = np.linalg.solve(dense, b)
            err = np.linalg.norm(solve(b) - ref) / np.linalg.norm(ref)
            assert err <= 2e-16 * solver.condition, (dist_name, solve.__name__, err)


def test_one_bordered_factorization_per_superoperator_set(capsys, bordered_inverses):
    # the moments, the adjoint solves of the condition estimate and the
    # census share the bordered inverse a set builds on first use
    ring80 = ["--L", "80", "--gamma", "1", "--xin", "40", "--xd", "0", "--dist", "exp"]
    assert cli.main(["stats", *ring80, "--mean", "0.6"]) == 0
    assert json.loads(capsys.readouterr().out)["reduced_dim"] == 41
    assert [a.shape for a in bordered_inverses] == [(42, 42)]
    del bordered_inverses[:]
    assert cli.main(["sweep", *ring80, "--axis", "mean_tau", "--grid", "0.5,0.6,0.7"]) == 0
    assert "ill-conditioned" not in capsys.readouterr().out
    assert len(bordered_inverses) == 3
    del bordered_inverses[:]
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(24, 1.0, 12, 0)), dist)
    detection_stats(sset, dist, pseudo_inverse=True)
    assert bordered_inverses == []
    detection_stats(sset, dist)
    zero_mode_census(sset)
    universal_identity_check(sset, dist)
    assert len(bordered_inverses) == 1


@pytest.mark.parametrize("L, x_in, factors", [(9, 2, 0), (24, 12, 2)])
def test_lambda_max_sweep_factors_only_for_the_census(capsys, bordered_inverses,
                                                      L, x_in, factors):
    # Nr = 5 takes the dense census and inverts nothing; Nr = 13 inverts once
    # a point for the shift-invert census and nothing for a condition
    assert cli.main(["sweep", "--L", str(L), "--gamma", "1", "--xin", str(x_in),
                     "--xd", "0", "--dist", "exp", "--axis", "mean_tau",
                     "--grid", "0.5,0.6", "--outputs", "lambda_max"]) == 0
    assert "ill-conditioned" not in capsys.readouterr().out
    assert len(bordered_inverses) == factors


def test_singular_full_space_raises_without_pseudo_inverse():
    # degenerate energies give phi_jk = 1 exactly and dark states p_j = 0:
    # the bordered system cannot be formed, so the condition is inf
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_full(build_ring(6, 1.0, 1, 0)), dist)
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    assert info.value.condition == np.inf
    assert info.value.p_min == 0.0 and info.value.pairs


def test_singular_bordered_matrix_leaves_the_condition_infinite(monkeypatch):
    # an exactly singular bordered matrix makes numpy.linalg.inv raise:
    # nothing is inverted, the gate fires and the census takes dense eigvals
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(24, 1.0, 12, 0)), dist)
    assert sset.dim == 13 and sset._solver.condition == np.inf
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    assert info.value.condition == np.inf
    census = zero_mode_census(sset)
    assert census.structural is False and census.n_zero + census.n_nonzero == 13**2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("L, x_in, dist", [
    (7, 1, FixedInterval(1e154)),              # t_mean**2 raised OverflowError
    (24, 12, ExponentialInterval(1e153)),      # t_sq came out nan
])
def test_overflowing_moment_raises_naming_it(L, x_in, dist):
    assert np.isfinite(dist.second_moment)
    sset = build_superops(spectral_reduce(build_ring(L, 1.0, x_in, 0)), dist)
    with pytest.raises(MomentOverflowError, match=r"^t_sq = (inf|nan) is not finite"):
        detection_stats(sset, dist)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dist", [FixedInterval(1e150), ExponentialInterval(1e150),
                                  GammaInterval(2.0, 1e80), GammaInterval(3.0, 1e100)])
def test_huge_but_representable_time_moments(dist):
    # the time moments scale with the interval while n_mean does not, and
    # t_mean = <tau> n_mean holds for every law
    st = detection_stats(build_superops(spectral_reduce(build_ring(7, 1.0, 1, 0)), dist),
                         dist)
    assert all(np.isfinite([st.t_mean, st.t_sq, st.t_var, st.n_var]))
    assert st.t_mean == pytest.approx(dist.mean * st.n_mean, rel=1e-10)
