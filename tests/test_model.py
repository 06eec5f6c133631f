"""Model construction and spectral reduction tests."""

import copy
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from qprobe.closedform import ring_nbar_exp
from qprobe.config import model_from_config
from qprobe.errors import InvalidModelError
from qprobe.intervals import ExponentialInterval, GammaInterval
from qprobe.model import (QuantumModel, _cluster_starts, basis_state, build_dense, build_ring,
                          build_two_level, spectral_full, spectral_reduce)
from qprobe.superop import build_superops, detection_stats
from qprobe.trajectory import run_bernoulli, run_per_realization


def ring_energies(L, gamma):
    return np.sort(np.array([-2 * gamma * np.cos(2 * np.pi * k / L) for k in range(L)]))


def bright_states(model, sd):
    """The bright states of ``sd`` as columns in the site basis, rebuilt from
    ``eigh`` of H: for ``spectral_full``, the eigenvectors as ``eigh`` returns
    them (real for a real H); for a reduction, the normalized projection of
    psi_d onto each kept cluster, found by its mean energy."""
    w, v = np.linalg.eigh(model.hamiltonian)
    if not sd.reduced:
        return v
    starts = _cluster_starts(w, sd.degeneracy_tol)
    means = np.add.reduceat(w, starts) / np.diff(starts, append=len(w))
    kept = np.searchsorted(means, sd.energies)
    assert np.array_equal(means[kept], sd.energies)
    proj = np.add.reduceat(v * (v.conj().T @ model.psi_d), starts, axis=1)
    return proj[:, kept] / np.sqrt(sd.p_detect)


def test_two_site_ring_doubles_the_bond():
    model = build_ring(2, 1.0, 0, 0)
    w = np.linalg.eigvalsh(model.hamiltonian)
    assert np.allclose(w, [-2.0, 2.0], atol=1e-12)
    # a single-bond two-level model with twice the hopping matches it
    tls = build_two_level(2.0)
    assert np.allclose(tls.hamiltonian, model.hamiltonian)


def test_ring_l4_energy_multiset():
    w = np.linalg.eigvalsh(build_ring(4, 1.0, 0, 1).hamiltonian)
    assert np.allclose(np.sort(w), [-2.0, 0.0, 0.0, 2.0], atol=1e-12)


@pytest.mark.parametrize("L", [3, 5, 7, 12, 16])
def test_ring_cosine_spectrum(L):
    w = np.linalg.eigvalsh(build_ring(L, 1.0, 0, 1).hamiltonian)
    assert np.max(np.abs(np.sort(w) - ring_energies(L, 1.0))) < 1e-12


def test_ring_rejects_bad_arguments():
    with pytest.raises(InvalidModelError):
        build_ring(1, 1.0, 0, 0)
    with pytest.raises(InvalidModelError):
        build_ring(5, -1.0, 0, 0)
    with pytest.raises(InvalidModelError):
        build_ring(5, 1.0, 0, 5)


def test_ring_over_the_dense_budget_is_refused_before_allocating(monkeypatch):
    # a complex L x L Hamiltonian takes 16 L^2 bytes: 1 GiB at L = 8192
    def reached(*args, **kwargs):
        raise AssertionError("np.zeros reached")

    monkeypatch.setattr(np, "zeros", reached)
    with pytest.raises(InvalidModelError, match=r"^a ring of L=1000000 sites needs a "
                       r"16000000000000-byte Hamiltonian, over the 1073741824-byte budget"):
        build_ring(10**6, 1.0, 1, 0)
    with pytest.raises(InvalidModelError, match="L=8193 sites"):
        build_ring(8193, 1.0, 1, 0)


@pytest.mark.parametrize("k", [-1, 2, 5])
def test_basis_state_rejects_site_out_of_range(k):
    with pytest.raises(InvalidModelError):
        basis_state(2, k)


def test_model_validation():
    h = np.array([[0.0, 1.0], [0.5, 0.0]])   # not Hermitian
    with pytest.raises(InvalidModelError):
        QuantumModel(h, basis_state(2, 0), basis_state(2, 1))
    h = np.zeros((2, 2))
    with pytest.raises(InvalidModelError):
        QuantumModel(h, 2.0 * basis_state(2, 0), basis_state(2, 1))
    with pytest.raises(InvalidModelError, match="psi_d is not normalized"):
        QuantumModel(h, basis_state(2, 0), 2.0 * basis_state(2, 1))
    with pytest.raises(InvalidModelError, match=r"must be square, got shape \(2, 3\)"):
        QuantumModel(np.zeros((2, 3)), basis_state(2, 0), basis_state(2, 1))
    with pytest.raises(InvalidModelError, match="must match the Hamiltonian dimension"):
        QuantumModel(h, basis_state(3, 0), basis_state(2, 1))


@pytest.mark.parametrize("gamma", [0.0, -1.0, np.nan])
def test_two_level_rejects_non_positive_hopping(gamma):
    with pytest.raises(InvalidModelError, match="hopping strength must be positive"):
        build_two_level(gamma)


@pytest.mark.parametrize("where", ["hamiltonian", "psi_in", "psi_d"])
def test_build_dense_rejects_non_finite_entries(where):
    # inf on H's diagonal and nan in a state both passed the Hermiticity
    # and norm tests, which compare against nan
    parts = {"hamiltonian": np.zeros((2, 2), dtype=complex),
             "psi_in": basis_state(2, 0), "psi_d": basis_state(2, 1)}
    parts[where].flat[0] = np.inf if where == "hamiltonian" else np.nan
    with pytest.raises(InvalidModelError, match=f"{where} has a non-finite entry"):
        build_dense(parts["hamiltonian"], parts["psi_in"], parts["psi_d"])


@pytest.mark.parametrize("tol", [0.0, -1.0, np.inf, np.nan])
def test_spectral_reduce_rejects_bad_degeneracy_tol(tol):
    with pytest.raises(ValueError, match="degeneracy_tol"):
        spectral_reduce(build_ring(5, 1.0, 1, 0), degeneracy_tol=tol)


def test_model_arrays_frozen():
    model = build_ring(4, 1.0, 0, 1)
    with pytest.raises(ValueError):
        model.hamiltonian[0, 0] = 5.0


@pytest.mark.parametrize("L", range(2, 33))
def test_ring_reduced_dimension(L):
    for x_d in range(L):
        sd = spectral_reduce(build_ring(L, 1.0, 0, x_d))
        assert sd.reduced_dim == L // 2 + 1, (L, x_d)


def test_reduction_invariants_ring7():
    sd = spectral_reduce(build_ring(7, 1.0, 1, 0))
    assert sd.reduced_dim == 4
    assert np.all(sd.p_detect > 0)
    assert abs(sd.p_detect.sum() - 1.0) < 1e-10
    assert np.all(np.diff(sd.energies) > sd.degeneracy_tol)
    # Cauchy-Schwarz per index
    assert np.all(np.abs(sd.cross_amp) ** 2 <= sd.p_detect * sd.p_init + 1e-12)
    # bright states orthonormal
    bright = bright_states(build_ring(7, 1.0, 1, 0), sd)
    gram = bright.conj().T @ bright
    assert np.max(np.abs(gram - np.eye(4))) < 1e-10


def test_overlap_sums():
    # antipodal even case keeps the full initial weight
    sd = spectral_reduce(build_ring(24, 1.0, 12, 0))
    assert sd.reduced_dim == 13
    assert sd.p_init.sum() == pytest.approx(1.0, abs=1e-10)
    # generic arrival on an even ring loses half to dark states
    sd = spectral_reduce(build_ring(6, 1.0, 1, 0))
    assert sd.p_init.sum() == pytest.approx(0.5, abs=1e-10)


def test_return_problem_structure():
    sd = spectral_reduce(build_ring(9, 1.3, 2, 2))
    assert sd.is_return_problem()
    assert np.allclose(sd.cross_amp.imag, 0.0, atol=1e-14)
    assert np.allclose(sd.cross_amp.real, sd.p_detect, atol=1e-13)
    assert np.allclose(sd.p_init, sd.p_detect, atol=1e-13)
    # equality case of Cauchy-Schwarz
    assert np.allclose(np.abs(sd.cross_amp) ** 2, sd.p_detect * sd.p_init, atol=1e-13)


def test_reflection_symmetry_relabeling():
    # relabeling sites by the reflection about x_d leaves the reduction alone
    L, x_d = 9, 3
    model = build_ring(L, 1.0, 6, x_d)
    perm = [(2 * x_d - k) % L for k in range(L)]
    h2 = model.hamiltonian[np.ix_(perm, perm)]
    m2 = build_dense(h2, model.psi_in[perm], model.psi_d[perm])
    a, b = spectral_reduce(model), spectral_reduce(m2)
    assert np.allclose(a.energies, b.energies, atol=1e-12)
    assert np.allclose(a.p_detect, b.p_detect, atol=1e-12)
    assert np.allclose(a.p_init, b.p_init, atol=1e-12)
    assert np.allclose(np.abs(a.cross_amp), np.abs(b.cross_amp), atol=1e-12)


def test_propagator_reconstruction_no_dark_component():
    # x_in antipodal to x_d on an even ring: no dark overlap
    model = build_ring(8, 1.0, 4, 0)
    sd = spectral_reduce(model)
    for t in (0.1, 1.0, 5.0):
        direct = np.vdot(model.psi_d, expm(-1j * t * model.hamiltonian) @ model.psi_in)
        spectral = np.sum(sd.cross_amp * np.exp(-1j * sd.energies * t))
        assert abs(direct - spectral) < 1e-8


def test_propagator_reconstruction_with_dark_component():
    model = build_ring(6, 1.0, 1, 0)
    sd = spectral_reduce(model)
    bright = bright_states(model, sd)
    proj_in = bright @ (bright.conj().T @ model.psi_in)
    for t in (0.1, 1.0, 5.0):
        direct = np.vdot(model.psi_d, expm(-1j * t * model.hamiltonian) @ proj_in)
        spectral = np.sum(sd.cross_amp * np.exp(-1j * sd.energies * t))
        assert abs(direct - spectral) < 1e-8


def test_eigenvector_rephasing_invariance():
    # the reduction must not see arbitrary eigenvector phases or the basis
    # chosen inside degenerate clusters; rebuild from a rephased eigenbasis
    model = build_ring(12, 1.0, 5, 2)
    sd = spectral_reduce(model)
    w, v = np.linalg.eigh(model.hamiltonian)
    rng = np.random.default_rng(7)
    v2 = v * np.exp(1j * rng.uniform(0, 2 * np.pi, len(w)))[None, :]
    h2 = (v2 * w[None, :]) @ v2.conj().T
    assert np.max(np.abs(h2 - model.hamiltonian)) < 1e-12
    sd2 = spectral_reduce(build_dense(h2, model.psi_in, model.psi_d))
    assert np.allclose(sd.energies, sd2.energies, atol=1e-10)
    assert np.allclose(sd.p_detect, sd2.p_detect, atol=1e-10)
    assert np.allclose(sd.p_init, sd2.p_init, atol=1e-10)
    assert np.allclose(sd.cross_amp, sd2.cross_amp, atol=1e-10)


def test_clusters_anchor_at_lowest_eigenvalue():
    # 0, 0.6e-9 and 1.2e-9 chain within degeneracy_tol = 1e-9, but a cluster
    # spans at most the tolerance from its lowest member: {0, 0.6e-9} and
    # {1.2e-9}, whose energies then sit only 0.9e-9 apart
    rng = np.random.default_rng(3)
    u, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    h = (u * np.array([0.0, 0.6e-9, 1.2e-9, 1.0, 2.0])) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    psi_d = u @ np.full(5, 1 / np.sqrt(5))      # bright on every eigenvector
    sd = spectral_reduce(build_dense(h, psi_d, psi_d), degeneracy_tol=1e-9)
    assert sd.reduced_dim == 4
    assert np.allclose(sd.energies, [0.3e-9, 1.2e-9, 1.0, 2.0], rtol=0, atol=1e-12)


@pytest.mark.parametrize("L, x_in, nr", [(7, 1, 4), (24, 12, 13), (40, 7, 21)])
def test_large_energy_scales_reduce_like_unit_hopping(L, x_in, nr):
    # eigh resolves a degenerate pair only to a few eps max|E|, so at gamma >= 1e11
    # the absolute 1e-9 tolerance alone split ring pairs into separate bright levels
    dist = ExponentialInterval(0.6)
    p_det = {}
    for gamma in (1.0, 1e11, 1e20, 1e150, 1e300):
        sd = spectral_reduce(build_ring(L, gamma, x_in, 0))
        assert sd.reduced_dim == nr, gamma
        # the tolerance is 1e-9 at unit hopping and 8 N eps max|E| (max|E| = 2 gamma) above it
        floor = 8 * L * np.finfo(float).eps * 2 * gamma
        assert sd.degeneracy_tol == (1e-9 if gamma == 1.0 else pytest.approx(floor, rel=1e-12))
        stats = detection_stats(build_superops(sd, dist), dist)
        p_det[gamma] = stats.p_det
        if gamma <= 1e150:                     # the closed form squares gamma
            nbar = ring_nbar_exp(L, x_in, gamma, 0.6)
            assert stats.n_mean == pytest.approx(nbar, rel=1e-9), gamma
    assert max(abs(p - p_det[1.0]) for p in p_det.values()) < 1e-12


def test_spectral_full_keeps_everything():
    model = build_ring(6, 1.0, 1, 0)
    sd = spectral_full(model)
    assert not sd.reduced
    assert sd.reduced_dim == 6
    assert sd.p_detect.sum() == pytest.approx(1.0, abs=1e-12)
    assert sd.p_init.sum() == pytest.approx(1.0, abs=1e-12)


def gauged(model, seed=5):
    """The model under a random diagonal phase gauge D: D H D*, D psi_in and
    D psi_d.  Its H is complex, so ``eigh`` runs in complex arithmetic."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0, 2 * np.pi, model.dim))
    return build_dense(d[:, None] * model.hamiltonian * d.conj()[None, :],
                       d * model.psi_in, d * model.psi_d, label=model.label)


def planted_real_dense():
    """A real 9-level model with a 3-fold level, a 2-fold level and a pair
    split by 3e-11 (one cluster at the default tolerance): Nr = 5."""
    rng = np.random.default_rng(11)
    energies = np.array([-1.3, -1.3, -1.3, -0.2, -0.2, 0.4, 0.4 + 3e-11, 1.1, 2.0])
    u, _ = np.linalg.qr(rng.standard_normal((9, 9)))
    h = (u * energies) @ u.T
    psi_in, psi_d = rng.standard_normal((2, 9))
    return build_dense(0.5 * (h + h.T), psi_in / np.linalg.norm(psi_in),
                       psi_d / np.linalg.norm(psi_d))


PARITY_MODELS = {   # name -> (model, Nr, return problem)
    "ring7": (lambda: build_ring(7, 1.0, 1, 0), 4, False),
    "ring24-return": (lambda: build_ring(24, 1.0, 5, 5), 13, True),
    "ring80": (lambda: build_ring(80, 1.0, 33, 0), 41, False),
    "dense9-planted": (planted_real_dense, 5, False),
}
MOMENTS = ("p_det", "n_mean", "n_sq", "t_mean", "t_sq")


def assert_reductions_agree(a, b):
    """Two reductions of one model agree to roundoff, field by field and in
    every moment under exponential and Gamma(10) intervals."""
    assert a.reduced_dim == b.reduced_dim
    assert a.is_return_problem() == b.is_return_problem()
    for field in ("energies", "p_detect", "p_init", "cross_amp"):
        assert np.max(np.abs(getattr(a, field) - getattr(b, field))) <= 1e-12, field
    for dist in (ExponentialInterval(0.6), GammaInterval(10.0, 0.6)):
        sa = detection_stats(build_superops(a, dist), dist)
        sb = detection_stats(build_superops(b, dist), dist)
        for name in MOMENTS:
            x, y = getattr(sa, name), getattr(sb, name)
            assert abs(x - y) <= 1e-10 * abs(x), (dist, name)


@pytest.mark.parametrize("name", PARITY_MODELS)
def test_real_hamiltonian_reduces_like_its_complex_gauge_twin(name):
    # a real H goes through the real symmetric eigensolver (its eigenvectors
    # come back real), the gauged twin through the complex one; the bright
    # states' fixed phases make the reductions agree at roundoff
    build, nr, is_return = PARITY_MODELS[name]
    model = build()
    twin = gauged(model)
    assert np.isrealobj(bright_states(model, spectral_full(model)))
    assert np.iscomplexobj(bright_states(twin, spectral_full(twin)))
    a, b = spectral_reduce(model), spectral_reduce(twin)
    assert a.reduced_dim == nr
    assert a.is_return_problem() == is_return
    assert_reductions_agree(a, b)


RING_REDUCE_PEAK = """
import json
from qprobe.model import build_ring, spectral_reduce


def peak_kib():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))


spectral_reduce(build_ring(8, 1.0, 1, 0))
before = peak_kib()
spectral_reduce(build_ring(1500, 1.0, 17, 0))
print(json.dumps([before, peak_kib()]))
"""


def test_ring_build_and_reduce_peak_within_three_hamiltonians():
    # the peak RSS of a fresh process over building and reducing ring 1500,
    # against a 16 L^2-byte complex H: the real H, its symmetry check and the
    # real eigh reach ~2.6 of it (~3.2 while H was complex; a complex eigh
    # reaches ~5.1).  VmHWM is this process image's own peak; ru_maxrss would
    # start from the RSS of the test process that spawned it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", RING_REDUCE_PEAK], env=env,
                         capture_output=True, text=True, check=True)
    before, after = json.loads(out.stdout)
    assert (after - before) * 1024 <= 3 * 16 * 1500**2


def loop_ring(L, gamma):
    """The ring Hamiltonian built bond by bond, as a complex matrix."""
    h = np.zeros((L, L), dtype=complex)
    for j in range(L):
        h[j, (j + 1) % L] += -gamma
        h[j, (j - 1) % L] += -gamma
    return h


@pytest.mark.parametrize("L", [2, 3, 4, 7, 64])
def test_real_hamiltonians_stay_real(L):
    # rings, the two-level model and dense configs with a zero imaginary
    # part keep a float64 H, bitwise the real part of the complex one
    ring = build_ring(L, 0.7, 1, 0)
    assert ring.hamiltonian.dtype == np.float64
    assert ring.hamiltonian.tobytes() == loop_ring(L, 0.7).real.tobytes()
    assert build_two_level(1.3).hamiltonian.dtype == np.float64
    dense = model_from_config({"kind": "dense", "n": str(L), "x_in": "1", "x_d": "0",
                               "hamiltonian": ",".join(
                                   map(repr, loop_ring(L, 0.7).view(float).ravel().tolist()))})
    assert dense.hamiltonian.dtype == np.float64
    assert np.array_equal(dense.hamiltonian, ring.hamiltonian)
    twin = gauged(ring)
    assert twin.hamiltonian.dtype == np.complex128 and twin.hamiltonian.imag.any()


@pytest.mark.parametrize("mode", ["bernoulli", "per_realization"])
def test_monte_carlo_records_do_not_see_the_real_hamiltonian(mode):
    # the Monte Carlo diagonalizes its own complex copy of H, so a real H
    # gives bitwise the records of the complex H a ring used to carry
    model = build_ring(9, 1.0, 2, 0)
    complex_twin = copy.copy(model)
    object.__setattr__(complex_twin, "hamiltonian", loop_ring(9, 1.0))
    dist = ExponentialInterval(0.6)
    if mode == "bernoulli":
        a, b = (run_bernoulli(m, dist, n_real=3000, seed=4, n_abort=200)
                for m in (model, complex_twin))
        assert np.array_equal(a.attempts, b.attempts) and np.array_equal(a.times, b.times)
    else:
        a, b = (run_per_realization(m, dist, n_real=500, n_cut=60, seed=4)
                for m in (model, complex_twin))
        assert np.array_equal(a.nbar, b.nbar) and np.array_equal(a.pdet, b.pdet)
    assert a.summary() == b.summary()


@pytest.mark.parametrize("L, gamma, x_in, x_d", [
    (2, 1.0, 1, 0), (7, 1.0, 3, 0), (64, 0.8, 17, 5), (65, 2.5, 0, 40),
    (1001, 1.0, 300, 2), (3000, 1.3, 1717, 9),
])
def test_spectral_reduce_matches_the_analytic_ring(L, gamma, x_in, x_d):
    # levels -2 gamma cos(2 pi k / L), k = 0 .. L/2, each the cluster {k, L - k}:
    # p_k = 2/L (1/L at k = 0 and L/2) and cross amplitude 2 cos(2 pi k (x_in -
    # x_d) / L) / L (half that at k = 0 and L/2).  eigh resolves a level to a
    # few eps max|E|, and a bright state to eps max|E| / gap against its
    # nearest level (Davis-Kahan): gap = 2 gamma (1 - cos(2 pi / L)) at k = 0.
    # Measured at L = 3000: energies within 14 eps max|E|, p and the
    # amplitudes within 1.6 eps max|E| / gap of 1/L
    sd = spectral_reduce(build_ring(L, gamma, x_in, x_d))
    k = np.arange(L // 2 + 1)
    ends = (k == 0) | (2 * k == L)
    energies = -2 * gamma * np.cos(2 * np.pi * k / L)
    p = np.where(ends, 1.0, 2.0) / L
    amp = p * np.cos(2 * np.pi * k * (x_in - x_d) / L)
    scale = np.finfo(float).eps * 2 * gamma
    gap = 2 * gamma * (1 - np.cos(2 * np.pi / L))
    assert sd.reduced_dim == len(k)
    assert np.abs(sd.energies - energies).max() <= 64 * scale
    assert np.abs(sd.p_detect - p).max() * L <= 10 * scale / gap
    assert np.abs(sd.cross_amp - amp).max() * L <= 10 * scale / gap
    assert np.abs(sd.p_init - amp**2 / p).max() * L <= 10 * scale / gap
