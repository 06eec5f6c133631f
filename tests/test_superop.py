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

from qprobe import cli, superop
from qprobe.errors import (ConvergenceError, DegenerateProblemError, DenseSizeError,
                           IllConditionedError, MomentOverflowError)
from qprobe.intervals import (ExponentialInterval, FixedInterval, GammaInterval,
                              IntervalDistribution)
from qprobe.model import (SpectralData, build_dense, build_ring, build_two_level,
                          ring_spectrum, spectral_full, spectral_reduce)
from qprobe.superop import (build_superops, detection_stats, fn_series,
                            universal_identity_check, zero_mode_census)
from qprobe.verify import (dense_reference_stats, proj_kron, resolvent, run_verify,
                           stroboscopic_fn_direct, transfer)


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
    assert np.allclose(proj_kron(sset), expect, atol=1e-14)


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


def planted_spectrum(energies):
    """A return problem on the given levels with equal weights, built
    directly: spectral_reduce would cluster levels spanning 1e250."""
    n = len(energies)
    p = np.full(n, 1.0 / n)
    return SpectralData(energies=energies, p_detect=p, p_init=p, cross_amp=p.astype(complex),
                        degeneracy_tol=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1e-3, 1.0, 2.37, 10.0, 100.9, 1e6])
def test_gamma_time_weights_from_one_power_match_weighted_charfn(alpha):
    # build_superops takes phi_t = mu phi / b and phi_tt = mu (1 + 1/alpha)
    # phi_t / b from the one power phi = b^-alpha, b = 1 - i delta mu/alpha;
    # weighted_charfn raises b to -(alpha + p) itself.  Both round the
    # exponent (alpha + p) log b, so the bound grows with it: measured at
    # most 2.8 eps per unit, pinned at 4, and within 1e-320 where the
    # values are subnormal (measured 1.5e-321).  |delta| mu/alpha reaches
    # 1e250, where numpy's integer power overflows for alpha = 1 and 10
    # and _base_power takes its polar form
    mu, eps = 0.6, np.finfo(float).eps
    dist = GammaInterval(alpha, mu)
    energies = np.concatenate([[0.0], np.geomspace(1e-8, 1e250, 40)]) * alpha / mu
    sset = build_superops(planted_spectrum(energies), dist)
    diff = energies[:, None] - energies[None, :]
    base = dist._base(diff).ravel()
    assert np.array_equal(sset.phase_avg, dist.charfn(diff).ravel())
    polar = False
    for got, power in ((sset.phase_avg_t, 1), (sset.phase_avg_tt, 2)):
        want = dist.weighted_charfn(diff, power).ravel()
        bound = 4 * eps * (1 + (alpha + power) * np.abs(np.log(base))) * np.abs(want) + 1e-320
        assert np.all(np.abs(got - want) <= bound), power
        try:
            with np.errstate(over="raise", invalid="raise"):
                base ** (-alpha - power)
        except FloatingPointError:
            polar = True
    assert polar == (alpha in (1.0, 10.0))


@pytest.mark.parametrize("tau0", [0.3, 0.6, 1.1, 1e5])
def test_fixed_time_weights_are_bitwise_weighted_charfn(tau0):
    # tau0 phi and tau0^2 phi are the very products weighted_charfn forms;
    # the interface's generic _phase_factors, which calls charfn and
    # weighted_charfn, is the oracle
    dist = FixedInterval(tau0)
    for sd in (spectral_reduce(build_ring(24, 1.0, 7, 0)),
               planted_spectrum(np.array([-2.0, -0.31, 0.2, 1.7, 40.0]))):
        sset = build_superops(sd, dist)
        assert sset.dim == sd.reduced_dim
        diff = sd.energies[:, None] - sd.energies[None, :]
        want = IntervalDistribution._phase_factors(dist, diff)
        for got, expect in zip((sset.phase_avg, sset.phase_avg_t, sset.phase_avg_tt), want):
            assert np.array_equal(got, expect.ravel())


def test_transfer_hermiticity_pairing():
    # entry (jk)(lm) equals the conjugate of entry (kj)(ml)
    sd = spectral_reduce(build_ring(7, 1.0, 2, 0))
    sset = build_superops(sd, ExponentialInterval(0.6))
    n = sd.reduced_dim
    m = transfer(sset).reshape(n, n, n, n)
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
    t = transfer(sset)
    imag_residue = 0.0
    for _ in range(60):
        imag_residue = max(imag_residue, abs(v.sum().imag))
        v = t @ v
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
                  FixedInterval(0.6)),
                 # Nr = 4 and 2: the basis spans the pair space in one sweep
                 ("ring7_gamma", lambda: spectral_reduce(build_ring(7, 1.0, 1, 0)),
                  GammaInterval(10.0, 0.6)),
                 ("tls_fixed0.7", lambda: spectral_reduce(build_two_level(1.0, x_in=1, x_d=0)),
                  FixedInterval(0.7))]


@pytest.mark.parametrize("make_sd, dist", [c[1:] for c in PERRON_CASES],
                         ids=[c[0] for c in PERRON_CASES])
def test_zero_mode_census_perron_root_matches_dense(make_sd, dist):
    # At fixed 0.6 on L = 24 and 40, LAPACK lists -0.72+0.69i and
    # -0.73-0.68i first among the eigenvalues of largest modulus; the
    # census reports the Perron root rho on the real axis instead.
    sd = make_sd()
    sset = build_superops(sd, dist)
    census = zero_mode_census(sset)
    mags = np.abs(np.linalg.eigvals(transfer(sset)))
    assert census.structural
    assert abs(census.slowest_decay - mags.max()) <= 1e-12
    assert census.slowest_decay.imag == 0.0
    n_zero = int(np.sum(mags < 1e-8))
    assert (census.n_zero, census.n_nonzero) == (n_zero, mags.size - n_zero)


@pytest.mark.parametrize("dist", [ExponentialInterval(0.6), GammaInterval(10.0, 0.6),
                                  FixedInterval(0.9)], ids=["exp", "gamma", "fixed0.9"])
def test_arnoldi_ritz_values_match_dense_eigvals_at_nr21(dist):
    # all three Ritz values, not only rho, against the eigenvalues of the
    # dense 441^2 transfer matrix nearest 1; fixed 0.9 takes two restarts
    sset = build_superops(spectral_reduce(build_ring(40, 1.0, 7, 0)), dist)
    assert sset.dim == 21
    census = zero_mode_census(sset)
    solve = sset._solver.solve
    nu, solves = superop._dominant_eigenvalues(lambda x: -solve(x), 21**2)
    lam = np.linalg.eigvals(transfer(sset))
    nearest = lam[np.argsort(np.abs(lam - 1.0))[:3]]
    assert solves == census.solves > superop.ARNOLDI_NCV
    assert np.abs(np.sort_complex(1.0 + 1.0 / nu) - np.sort_complex(nearest)).max() <= 1e-12
    assert abs(census.slowest_decay - np.abs(lam).max()) <= 1e-12
    if isinstance(dist, FixedInterval):
        assert solves == 40


def test_arnoldi_continues_past_an_invariant_start_vector():
    # A maps the all-ones start vector exactly onto itself (integer rows
    # summing to 1, 1/sqrt(256) = 1/16), so the first step leaves a zero
    # residual; the run goes on from a fixed random vector and still finds
    # the three planted dominant eigenvalues
    rng = np.random.default_rng(5)
    m = 256
    a = rng.integers(-1, 2, (m, m)).astype(float)
    a[[0, 1, 2], [0, 1, 2]] = 100.0, 90.0, 80.0
    a[np.arange(m), (np.arange(m) + 7) % m] -= a.sum(axis=1) - 1.0
    assert np.array_equal(a @ np.full(m, 1 / 16), np.full(m, 1 / 16))
    nu, _ = superop._dominant_eigenvalues(lambda x: a @ x, m)
    lam = np.linalg.eigvals(a)
    dominant = lam[np.argsort(-np.abs(lam))[:3]]
    assert np.abs(nu - dominant).max() <= 1e-12 * abs(dominant[0])


def normal_map(m):
    """An m x m normal matrix with eigenvalue moduli 1 .. m, random phases."""
    rng = np.random.default_rng(m)
    lam = np.arange(1.0, m + 1) * np.exp(2j * np.pi * rng.random(m))
    q, _ = np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))
    return (q * lam) @ q.conj().T


# rows summing to 2: the all-ones start vector is an eigenvector, so the
# first step leaves a zero residual with three directions unspanned
ONES_EIGENVECTOR_MAP = np.array([[3.0, -1.0, 0.0, 0.0], [0.0, 1.0, 1.0, 0.0],
                                 [1.0, 0.0, 0.5, 0.5], [0.0, 0.0, -2.0, 4.0]])


@pytest.mark.parametrize("a", [normal_map(1), normal_map(4), normal_map(16), ONES_EIGENVECTOR_MAP],
                         ids=["m1", "m4", "m16", "m4_ones_eigenvector"])
def test_arnoldi_on_a_space_within_one_basis_is_exact(a):
    # m <= ARNOLDI_NCV: the basis spans C^m after m steps and the sweep ends
    # with a zero residual, taking no random continuation vector there (at
    # m = 1 it would divide by a zero norm, a warning); the Ritz values are
    # then the eigenvalues, found without a restart
    m = len(a)
    nu, calls = superop._dominant_eigenvalues(lambda x: a @ x, m)
    lam = np.linalg.eigvals(a)
    assert calls == m
    assert np.abs(nu - lam[np.argsort(-np.abs(lam))[:superop.ARNOLDI_NEV]]).max() <= 1e-13 * m


def test_zero_mode_census_holds_no_nr4_array():
    # the 21-vector Arnoldi basis and the structured solve are O(Nr^2);
    # measured peak 27.5 x 16 Nr^2 bytes at Nr = 41 (32.7 under a fixed
    # law, whose restart rotates the basis), where the dense transfer
    # matrix alone would be 45 MB
    sset = build_superops(spectral_reduce(build_ring(80, 1.0, 40, 0)),
                          GammaInterval(10.0, 0.6))
    assert sset.dim == 41
    zero_mode_census(sset)                        # first call outside the trace
    tracemalloc.start()
    census = zero_mode_census(sset)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert census.structural
    assert peak < 64 * 16 * sset.dim**2


def test_pair_space_solves_allocate_only_their_result(monkeypatch):
    # at Nr = 81 a pair array is 16 Nr^2 = 105 KB, under glibc's 128 KiB
    # mmap threshold; the solver's scratch holds every temporary, so after a
    # first call a solve, an adjoint solve and an Arnoldi operator call each
    # allocate the array they return and O(Nr) vectors (3.0, 4.0 and 4.0
    # pair arrays at the parent)
    sset = build_superops(ring_spectrum(160, 1.0, 33, 0), ExponentialInterval(0.6))
    assert sset.dim == 81
    ops, arnoldi = [], superop._dominant_eigenvalues

    def recording(op, m):
        ops.append(op)
        return arnoldi(op, m)

    monkeypatch.setattr(superop, "_dominant_eigenvalues", recording)
    zero_mode_census(sset)
    b = sset.phase_avg * sset.source_vec
    for call in (sset._solver.solve, sset._solver.solve_adjoint, ops[0]):
        call(b)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call(b)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * 81**2, call


def test_zero_mode_census_raises_when_solve_is_singular():
    # the full 26-site space keeps degenerate pairs (phi_jk = 1) and dark
    # states (p_j = 0), so no structured solve exists; the census raises
    # the error detection_stats raises, naming the same pairs and weight
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_full(build_ring(26, 1.0, 1, 0)), dist)
    assert sset.dim == 26
    with pytest.raises(IllConditionedError) as census_info:
        zero_mode_census(sset)
    with pytest.raises(IllConditionedError) as stats_info:
        detection_stats(sset, dist)
    assert census_info.value.condition == np.inf and census_info.value.p_min == 0.0
    assert str(census_info.value) == str(stats_info.value)


@pytest.mark.parametrize("ritz", [None, [0.99 + 1e-6j, 0.5, 0.2],
                                  [0.97 + 0.1j, 0.5, 0.2], [0.99, -1.2, 0.3]])
def test_zero_mode_census_refuses_unchecked_arnoldi(monkeypatch, ritz):
    # no convergence, and Ritz values whose nearest-to-1 member is not
    # real or not of largest modulus, raise instead of returning a number;
    # Arnoldi runs on -J^-1, so the fake returns nu = 1/(lam - 1)
    def fake_arnoldi(op, m):
        if ritz is None:
            raise ConvergenceError("Arnoldi took 50 restarts (520 solves)")
        return 1.0 / (np.array(ritz, dtype=complex) - 1.0), 20

    monkeypatch.setattr(superop, "_dominant_eigenvalues", fake_arnoldi)
    sset = build_superops(spectral_reduce(build_ring(24, 1.0, 12, 0)), ExponentialInterval(0.6))
    with pytest.raises(ConvergenceError, match="shift-invert Arnoldi"):
        zero_mode_census(sset)


def test_zero_mode_census_raises_when_arnoldi_runs_out_of_restarts(monkeypatch):
    # a fixed law needs two thick restarts at Nr = 13 (40 solves); with none
    # allowed the real iteration stops after its first 20 and raises
    sset = build_superops(spectral_reduce(build_ring(24, 1.0, 12, 0)), FixedInterval(0.6))
    assert zero_mode_census(sset).solves == 40
    monkeypatch.setattr(superop, "ARNOLDI_MAX_RESTARTS", 0)
    with pytest.raises(ConvergenceError,
                       match="did not converge at Nr=13") as info:
        zero_mode_census(sset)
    assert str(info.value.__cause__) == "Arnoldi took 0 restarts (20 solves)"


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
    # 16 Nr^4 bytes: 1.05e9 at Nr = 90 (allowed), 1.10e9 at Nr = 91
    sset = build_superops(spectral_reduce(build_ring(180, 1.0, 90, 0)),
                          ExponentialInterval(0.6))
    assert sset.dim == 91
    for make in (transfer, resolvent, proj_kron):
        tracemalloc.start()
        with pytest.raises(DenseSizeError, match="array at Nr=91 needs 1097199376 bytes"):
            make(sset)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert peak < 16 * 91**2 * 64


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
    assert np.allclose(transfer(sset), 0.0)
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


def test_exceptional_interval_leaving_no_bright_weight_raises():
    # bright weight 1/2 in H, but tau = pi makes every phase exp(-i E tau)
    # on ring 4 equal 1: U(tau) = I, one merged level whose amplitude
    # <0|1> vanishes, so nothing is ever detected
    dist = FixedInterval(np.pi)
    sd = spectral_reduce(build_ring(4, 1.0, 1, 0))
    assert sd.p_init.sum() == pytest.approx(0.5, abs=1e-12)
    sset = build_superops(sd, dist)
    assert sset.dim == 1 and abs(sset.source_vec[0]) < 1e-30
    with pytest.raises(DegenerateProblemError,
                       match=r"no overlap with the bright subspace \(bright weight \S+\)"):
        detection_stats(sset, dist)


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
    # at tau = pi (1 + 1e-9) the two-level phase is 6e-9 from 1: too far to
    # merge, close enough to trip the gate, which names the pair; at pi
    # itself U(tau) = -I and the merged level is detected at once
    dist = FixedInterval(np.pi * (1 + 1e-9))
    sset = tls_superops(dist)
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    err = info.value
    assert err.condition > 1e12
    assert any(mag > 1 - 1e-9 for (_, _, mag) in err.pairs)
    assert (0, 1, pytest.approx(1.0)) in [(i, j, m) for i, j, m in err.pairs]
    dist = FixedInterval(np.pi)
    st = detection_stats(tls_superops(dist), dist)
    assert (st.reduced_dim, st.p_det, st.n_mean) == (1, pytest.approx(1.0, abs=1e-15),
                                                     pytest.approx(1.0, abs=1e-15))


def test_ill_conditioned_message_lists_eight_pairs_and_the_total():
    pairs = [(i, i + 1, 1.0 - 1e-3 * i) for i in range(10)]
    err = IllConditionedError(1e17, pairs, p_min=1e-13, p_min_index=4)
    message = str(err)
    assert message.count("|phi|=") == 8
    assert "(7,8) |phi|=0.993000000000, ... (10 pairs total)]" in message
    assert message.endswith("; smallest detection weight p[4] = 1.000e-13")


def test_fixed_thresholds_are_not_keywords():
    # the condition gate, the zero-mode threshold and the dark cutoff are
    # module constants, there is one solver, and the verify printer and the
    # identity check's solver are fixed; passing any of them is an error
    dist = ExponentialInterval(0.6)
    sset = tls_superops(dist)
    calls = [
        lambda: detection_stats(sset, dist, cond_limit=1e12),
        lambda: detection_stats(sset, dist, pseudo_inverse=True),
        lambda: dense_reference_stats(sset, pseudo_inverse=False),
        lambda: zero_mode_census(sset, tol=1e-8),
        lambda: spectral_reduce(build_two_level(1.0), dark_tol=1e-12),
        lambda: universal_identity_check(sset, dist, pseudo_inverse=False),
        lambda: IllConditionedError(1e17, []),
        lambda: run_verify("quick", out=print),
    ]
    for call in calls:
        with pytest.raises(TypeError):
            call()


def test_exceptional_fixed_period_names_only_resonant_pair():
    # A fixed interval has |phi| = 1 on every pair; at tau_c only (0,3)
    # and (3,0) have phi = 1 (|1 - phi| = 2.4e-16), so levels 0 and 3
    # merge and the structured solve answers.  At tau_c (1 + delta) no
    # level merges (|1 - phi| = 2 pi delta) and the condition (~11 /
    # |1 - phi|^2) is far above the gate, which names (0,3) alone.
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    tau_c = 2 * np.pi / (sd.energies[3] - sd.energies[0])
    dist = FixedInterval(tau_c)
    sset = build_superops(sd, dist)
    st = detection_stats(sset, dist)
    assert sset.dim == st.reduced_dim == 3 and st.condition < 1e2
    direct = stroboscopic_fn_direct(build_ring(7, 1.0, 1, 0), tau_c, 2000).sum()
    assert st.p_det == pytest.approx(direct, abs=1e-14)
    for delta in (1e-12, 1e-10, 1e-8, 1e-7):
        dist = FixedInterval(tau_c * (1 + delta))
        sset = build_superops(sd, dist)
        assert sset.dim == 4
        with pytest.raises(IllConditionedError) as info:
            detection_stats(sset, dist)
        assert info.value.condition > 1e13
        assert sorted((i, j) for i, j, _ in info.value.pairs) == [(0, 3), (3, 0)]


def planted_pair_model(gap):
    # dense 5-level model whose two lowest levels lie ``gap`` apart
    rng = np.random.default_rng(12)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    h = (q * np.array([-1.1, -1.1 + gap, 0.3, 0.8, 1.6])) @ q.conj().T
    psi_in, psi_d = rng.normal(size=(2, 5)) + 1j * rng.normal(size=(2, 5))
    return build_dense(0.5 * (h + h.conj().T), psi_in / np.linalg.norm(psi_in),
                       psi_d / np.linalg.norm(psi_d))


@pytest.mark.parametrize("dist", [ExponentialInterval(0.6), GammaInterval(10.0, 0.6)],
                         ids=["exp", "gamma"])
def test_random_laws_merge_no_levels(dist):
    # dE mu = 6e-13: |1 - phi| is under PHASE_MERGE_TOL, but |phi| < 1, so
    # the levels stay apart (bitwise the unmerged arrays) and the gate
    # refuses the solve; a fixed interval of the same mean merges them
    sd = spectral_reduce(planted_pair_model(1e-12), degeneracy_tol=1e-13)
    assert sd.reduced_dim == 5
    sset = build_superops(sd, dist)
    assert sset.dim == 5 and abs(1 - sset.phase_avg[1]) <= 1e-12
    diff = sd.energies[:, None] - sd.energies[None, :]
    assert np.array_equal(sset.phase_avg, dist.charfn(diff).ravel())
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    assert (0, 1) in [(i, j) for i, j, _ in info.value.pairs]
    assert build_superops(sd, FixedInterval(0.6)).dim == 4


def _series_moments(model, tau, rho):
    """p_det and n_mean of the stroboscopic series: the direct sum until
    rho^n < 1e-17, plus its geometric tail F_N rho / (1 - rho)."""
    n_max = max(10, int(np.ceil(np.log(1e-17) / np.log(rho)))) if rho > 0 else 10
    f = stroboscopic_fn_direct(model, tau, n_max)
    n = np.arange(1, n_max + 1)
    tail = f[-1] * rho / (1 - rho)
    p_det = f.sum() + tail
    n_sum = n @ f + f[-1] * rho * (n_max + 1 / (1 - rho)) / (1 - rho)
    return p_det, n_sum / p_det


def _check_against_series(model, tau):
    sd = spectral_reduce(model)
    dist = FixedInterval(tau)
    sset = build_superops(sd, dist)
    assert sset.dim < sd.reduced_dim                  # some pair merged
    st = detection_stats(sset, dist)
    series = fn_series(sset, 60)
    assert np.abs(series - stroboscopic_fn_direct(model, tau, 60)).max() <= 1e-12
    rho = abs(zero_mode_census(sset).slowest_decay)
    assert rho < 0.99
    p_det, n_mean = _series_moments(model, tau, rho)
    assert st.p_det == pytest.approx(p_det, abs=1e-13)
    assert st.n_mean == pytest.approx(n_mean, rel=1e-12)


@pytest.mark.parametrize("L", [5, 7, 9])
def test_exceptional_periods_match_the_stroboscopic_series(L):
    # every level pair (j, k) of the ring, tau = 2 pi / (E_j - E_k), and
    # every start site: the merged structured solve against the direct
    # propagation oracle.  Measured: series within 6.9e-15, p_det within
    # 1.1e-14, n_mean within 5.0e-14 relative; rho <= 0.968, cond <= 121
    e = spectral_reduce(build_ring(L, 1.0, 0, 0)).energies
    for j in range(len(e)):
        for k in range(j):
            for x_in in range(L):
                _check_against_series(build_ring(L, 1.0, x_in, 0), 2 * np.pi / (e[j] - e[k]))


@pytest.mark.parametrize("m", [1, 2])
def test_exceptional_period_of_a_complex_dense_model(m):
    model = planted_pair_model(0.7)
    e = spectral_reduce(model).energies
    _check_against_series(model, 2 * np.pi * m / (e[3] - e[1]))


def test_full_space_series_matches_reduced():
    # the averaged series is identical in both representations, although
    # the full space, dark states kept, admits no solve for the moments
    model = build_ring(6, 1.0, 1, 0)
    dist = ExponentialInterval(0.6)
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
               "gamma": GammaInterval(10.0, 0.6), "gamma2.37": GammaInterval(2.37, 0.6)}


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
    # the on-demand dense matrices are the Kronecker construction; a fixed
    # interval merges the repeated levels of the full space
    surv = np.eye(n) - np.outer(sset.p_detect, np.ones(n))
    assert np.max(np.abs(proj_kron(sset) - np.kron(surv, surv))) <= 1e-14
    t = transfer(sset)
    assert np.max(np.abs(t - sset.phase_avg[:, None] * np.kron(surv, surv))) <= 1e-14
    assert np.max(np.abs(resolvent(sset) - (np.eye(n * n) - t))) <= 1e-14
    # structured S (x) S apply against the dense product
    rng = np.random.default_rng(3)
    v = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    assert np.max(np.abs(sset.survive(v) - proj_kron(sset) @ v)) <= 1e-14
    # fn_series against dense powers of the transfer matrix
    w = sset.phase_avg * sset.source_vec
    dense = np.empty(60)
    for i in range(60):
        dense[i] = w.sum().real
        w = t @ w
    assert np.max(np.abs(fn_series(sset, 60) - dense)) <= 1e-14
    # moments against a dense solve; the full space keeps repeated levels
    # and dark states, singular for every law that merges nothing
    if model_name == "full_ring6" and dist_name != "fixed":
        with pytest.raises(IllConditionedError) as info:
            detection_stats(sset, dist)
        assert info.value.condition == np.inf
        return
    st = detection_stats(sset, dist)
    ref = dense_reference_stats(sset)
    true_cond = ref.pop("condition")
    for name, expect in ref.items():
        assert getattr(st, name) == pytest.approx(expect, rel=1e-10), name
    assert st.backend == "structured"
    # exact ||J||_1 times a lower bound on ||J^-1||_1, no refinement step
    assert true_cond / 3 <= st.condition <= true_cond * (1 + 1e-8)
    assert st.residual <= 1e-13
    # a second call sees the same, untouched set
    assert detection_stats(sset, dist) == st


def test_dense_resolvent_is_the_only_nr4_allocation():
    # building the transfer matrix or J allocates one complex Nr^4 array,
    # plus numpy's fixed ~0.25 MB of ufunc buffers (Nr = 21 here, J is
    # 3.1 MB); detection_stats stays far below, see the test that follows
    sset = build_superops(spectral_reduce(build_ring(40, 1.0, 20, 0)),
                          ExponentialInterval(0.6))
    nr4_bytes = 16 * sset.dim**4
    for make in (lambda: transfer(sset), lambda: resolvent(sset),
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


NORM1_MODELS = {**{name: make for name, make in CROSS_MODELS.items() if name != "full_ring6"},
                "ring38_x5": lambda: spectral_reduce(build_ring(38, 1.0, 5, 0)),     # Nr = 20
                "ladder_1e-8": lambda: p_min_ladder_model(1e-8)}


@pytest.mark.parametrize("dist_name", list(CROSS_DISTS))
@pytest.mark.parametrize("model_name", list(NORM1_MODELS))
def test_resolvent_norm1_matches_the_dense_column_sums(model_name, dist_name):
    # ||J||_1 from the rank-one-plus-diagonal |S| in O(Nr^2) against the
    # column sums of the dense J; also on ring 7's set at an exceptional
    # fixed period, where levels 0 and 3 merge
    sset = build_superops(NORM1_MODELS[model_name](), CROSS_DISTS[dist_name])
    sets = [sset]
    if model_name == "ring7_x1":
        sd = NORM1_MODELS[model_name]()
        tau_c = 2 * np.pi / (sd.energies[3] - sd.energies[0])
        sets.append(build_superops(sd, FixedInterval(tau_c)))
        assert sets[-1].dim == 3
    for s in sets:
        dense = np.abs(resolvent(s)).sum(axis=0).max()
        got = superop._resolvent_norm1(s.p_detect, s.phase_avg.reshape(s.dim, s.dim))
        assert abs(got - dense) <= 1e-14 * dense


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
        solver, j = sset._solver, resolvent(sset)
        b = rng.normal(size=len(j)) + 1j * rng.normal(size=len(j))
        for solve, dense in ((solver.solve, j), (solver.solve_adjoint, j.conj().T)):
            ref = np.linalg.solve(dense, b)
            err = np.linalg.norm(solve(b) - ref) / np.linalg.norm(ref)
            assert err <= 2e-16 * solver.condition, (dist_name, solve.__name__, err)


@pytest.mark.parametrize("model_name", ["ring24_x12", "dense_degenerate", "ring160_x33"])
def test_bordered_matrix_is_real_to_rounding(model_name):
    # phi_kj = conj(phi_jk), so the complex bordered matrix, built here as
    # the derivation states it, holds W + W^T = 2 Re W and p^T W + W p =
    # 2 Re(W p): its imaginary part is rounding (measured <= 9.4e-15
    # max|M| over these models and four laws), and the solver's real M is
    # its real part
    sd = (spectral_reduce(build_ring(160, 1.0, 33, 0)) if model_name == "ring160_x33"
          else CROSS_MODELS[model_name]())
    for dist in CROSS_DISTS.values():
        sset = build_superops(sd, dist)
        n, p = sset.dim, sset.p_detect
        phi = sset.phase_avg.reshape(n, n)
        off = ~np.eye(n, dtype=bool)
        w = np.zeros((n, n), dtype=complex)
        w[off] = phi[off] / (1.0 - phi[off])
        m = np.zeros((n + 1, n + 1), dtype=complex)
        m[:n, :n] = np.diag(2.0 + p @ w + w @ p) - p[:, None] * (w + w.T)
        m[:n, n], m[n, :n], m[n, n] = -p, 1.0, -1.0
        scale = np.abs(m).max()
        assert np.abs(m.imag).max() <= 1e-14 * scale
        assert np.abs(-sset._solver._neg_m - m.real).max() <= 1e-14 * scale


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
    detection_stats(sset, dist)
    zero_mode_census(sset)
    universal_identity_check(sset, dist)
    assert len(bordered_inverses) == 1


@pytest.mark.parametrize("L, x_in, factors", [(9, 2, 2), (24, 12, 2)])
def test_lambda_max_sweep_factors_only_for_the_census(capsys, bordered_inverses,
                                                      L, x_in, factors):
    # Nr = 5 and 13 invert once a point for the shift-invert census and
    # nothing for a condition
    assert cli.main(["sweep", "--L", str(L), "--gamma", "1", "--xin", str(x_in),
                     "--xd", "0", "--dist", "exp", "--axis", "mean_tau",
                     "--grid", "0.5,0.6", "--outputs", "lambda_max"]) == 0
    assert "ill-conditioned" not in capsys.readouterr().out
    assert len(bordered_inverses) == factors


def test_singular_full_space_raises_without_pseudo_inverse():
    # degenerate energies give phi_jk = 1 exactly and dark states p_j = 0:
    # the bordered system cannot be formed, so the condition is inf, and
    # an exponential law merges no levels
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_full(build_ring(6, 1.0, 1, 0)), dist)
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    assert info.value.condition == np.inf
    assert info.value.p_min == 0.0 and info.value.pairs


def test_singular_bordered_matrix_leaves_the_condition_infinite(monkeypatch):
    # an exactly singular bordered matrix makes numpy.linalg.inv raise:
    # nothing is inverted, and the gate and the census both raise
    def singular(a):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    dist = ExponentialInterval(0.6)
    sset = build_superops(spectral_reduce(build_ring(24, 1.0, 12, 0)), dist)
    assert sset.dim == 13 and sset._solver.condition == np.inf
    with pytest.raises(IllConditionedError) as info:
        detection_stats(sset, dist)
    assert info.value.condition == np.inf
    with pytest.raises(IllConditionedError) as info:
        zero_mode_census(sset)
    assert info.value.condition == np.inf


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
