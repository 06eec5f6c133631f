"""Built-in verification suite: cross-checks between independent routes.

Each check exercises a different pair of computation paths (exact
superoperator machinery, closed forms, brute-force propagation, Monte
Carlo) and raises AssertionError on disagreement.  The quick level runs
in seconds; the full level adds the large cross-check grids and the
statistical Monte Carlo comparisons.

The dense Nr^2 x Nr^2 matrices of a superoperator set (S (x) S, the
transfer matrix and the resolvent) are built here and nowhere in the
program: they are the slow-path oracles of the structured solve and of
the census, and are refused above DENSE_MAX_BYTES.
"""

from __future__ import annotations

import functools
import time

import numpy as np

from .closedform import ring_nbar_exp, ring_nsq_exp, ring_tsq_exp, tls_stats
from .errors import DenseSizeError, QprobeError
from .intervals import ExponentialInterval, FixedInterval, GammaInterval
from .model import DENSE_MAX_BYTES, QuantumModel, build_ring, build_two_level, spectral_reduce
from .superop import (SuperoperatorSet, build_superops, detection_stats, fn_series,
                      universal_identity_check, zero_mode_census)
from .trajectory import run_bernoulli, run_per_realization


def stroboscopic_fn_direct(model: QuantumModel, tau0: float, n_max: int) -> np.ndarray:
    """Brute-force fixed-interval detection series by direct propagation.

    Iterates the wave function through alternating exact propagation
    (matrix exponential, no eigenbasis shortcuts) and projection, reading
    off the detection probability before each projection.  Serves as an
    oracle for the averaged series when the interval density is a point
    mass.
    """
    from scipy.linalg import expm             # imported here: scipy slows every start-up
    u = expm(-1j * tau0 * model.hamiltonian)
    phi = u @ model.psi_in
    out = np.empty(n_max)
    for n in range(n_max):
        amp = np.vdot(model.psi_d, phi)
        out[n] = abs(amp) ** 2
        phi = u @ (phi - amp * model.psi_d)
    return out


def _check_dense_budget(sset: SuperoperatorSet) -> None:
    """Raise DenseSizeError when a complex Nr^2 x Nr^2 array would take
    more than DENSE_MAX_BYTES; called before allocating it."""
    nbytes = 16 * sset.dim**4
    if nbytes > DENSE_MAX_BYTES:
        raise DenseSizeError(
            f"a dense Nr^2 x Nr^2 array at Nr={sset.dim} needs {nbytes} bytes, "
            f"over the {DENSE_MAX_BYTES}-byte budget")


def _dense_survival(p: np.ndarray) -> np.ndarray:
    """S = I - p 1^T as a dense Nr x Nr matrix."""
    n = len(p)
    return np.eye(n) - np.outer(p, np.ones(n))


def proj_kron(sset: SuperoperatorSet) -> np.ndarray:
    """S (x) S as a dense Nr^2 x Nr^2 matrix, the map ``sset.survive`` applies."""
    _check_dense_budget(sset)
    surv = _dense_survival(sset.p_detect)
    return np.kron(surv, surv)


def transfer(sset: SuperoperatorSet) -> np.ndarray:
    """The transfer matrix T = diag(phase_avg) @ (S (x) S) in Fortran order:
    the transpose is built complex and scaled in place, so no other Nr^4
    array is made."""
    _check_dense_budget(sset)
    surv_t = np.ascontiguousarray(_dense_survival(sset.p_detect).T, dtype=complex)
    t = np.kron(surv_t, surv_t)
    t *= sset.phase_avg
    return t.T


def resolvent(sset: SuperoperatorSet) -> np.ndarray:
    """The resolvent J = I - T in Fortran order, made in place from ``transfer``."""
    j = transfer(sset)
    np.negative(j, out=j)
    j[np.diag_indices_from(j)] += 1.0
    return j


def dense_reference_stats(sset: SuperoperatorSet) -> dict:
    """The moments of ``detection_stats`` by dense linear algebra.

    Forms the Nr^2 x Nr^2 resolvent J and solves with ``np.linalg.solve``,
    so it costs O(Nr^6) time and O(Nr^4) memory; ``condition`` is the
    exact cond_1(J).  The slow-path oracle for the structured solve.
    """
    j, k = resolvent(sset), proj_kron(sset)
    solve = functools.partial(np.linalg.solve, j)
    src = sset.source_vec
    f1 = solve(sset.phase_avg * src)
    f2 = solve(f1)
    f3 = solve(f2)
    g = solve(sset.phase_avg_t * (k @ f1 + src))
    h = solve(sset.phase_avg_tt * (k @ f1 + src) + 2.0 * sset.phase_avg_t * (k @ g))
    p_det = f1.sum().real
    return {"p_det": p_det, "n_mean": f2.sum().real / p_det,
            "n_sq": (2.0 * f3.sum() - f2.sum()).real / p_det,
            "t_mean": g.sum().real / p_det, "t_sq": h.sum().real / p_det,
            "condition": float(np.linalg.cond(j, 1))}


def _stats_for(model, dist, **kwargs):
    return detection_stats(build_superops(spectral_reduce(model), dist), dist, **kwargs)


def _check_tls_return_quantization():
    model = build_two_level(1.0)
    for dist in (FixedInterval(0.6), ExponentialInterval(0.6), GammaInterval(5.0, 0.6)):
        st = _stats_for(model, dist)
        assert abs(st.p_det - 1.0) < 1e-10, f"{dist}: p_det={st.p_det}"
        assert abs(st.n_mean - 2.0) < 1e-8, f"{dist}: n_mean={st.n_mean}"


def _check_pdet_equals_overlap_sum():
    cases = [
        build_ring(7, 1.0, 0, 0),
        build_ring(7, 1.0, 1, 0),
        build_ring(6, 1.0, 1, 0),     # dark overlap, p_det = 1/2
        build_ring(24, 1.0, 12, 0),   # antipodal, p_det = 1
    ]
    dist = ExponentialInterval(0.6)
    for model in cases:
        sd = spectral_reduce(model)
        st = detection_stats(build_superops(sd, dist), dist)
        assert abs(st.p_det - sd.p_init.sum()) < 1e-10, (
            f"{model.label}: p_det={st.p_det} vs sum q={sd.p_init.sum()}"
        )


def _check_universal_identities():
    models = [build_two_level(1.0), build_ring(5, 1.0, 1, 0),
              build_ring(6, 1.0, 1, 0), build_ring(8, 1.0, 4, 0)]
    dists = [FixedInterval(0.7), ExponentialInterval(0.6), GammaInterval(25.0, 0.6)]
    for model in models:
        sd = spectral_reduce(model)
        for dist in dists:
            report = universal_identity_check(build_superops(sd, dist), dist)
            assert report.passed, f"{model.label} / {dist}: {report}"


def _check_zero_modes():
    # the shift-invert Perron root and structural count against dense eigvals
    cases = [(build_two_level(1.0), ExponentialInterval(0.6)),
             (build_ring(7, 1.0, 1, 0), ExponentialInterval(0.6)),
             (build_ring(8, 1.0, 0, 0), ExponentialInterval(0.6)),
             (build_ring(40, 1.0, 20, 0), FixedInterval(0.6)),
             (build_ring(40, 1.0, 20, 0), ExponentialInterval(0.6))]
    for model, dist in cases:
        sset = build_superops(spectral_reduce(model), dist)
        census = zero_mode_census(sset)
        mags = np.abs(np.linalg.eigvals(transfer(sset)))
        rho = mags.max()
        assert census.structural and abs(census.slowest_decay - rho) <= 1e-12, (
            f"{model.label} / {dist}: {census} vs dense max|lambda| = {rho}")
        n_zero = int(np.sum(mags < 1e-8))
        assert census.n_zero == n_zero, (
            f"{model.label} / {dist}: {census} vs dense count {n_zero}")


def _check_structured_vs_dense():
    for model in (build_two_level(1.0), build_ring(7, 1.0, 1, 0)):
        sd = spectral_reduce(model)
        for dist in (FixedInterval(0.6), ExponentialInterval(0.6), GammaInterval(10.0, 0.6)):
            sset = build_superops(sd, dist)
            st = detection_stats(sset, dist)
            ref = dense_reference_stats(sset)
            for name in ("p_det", "n_mean", "n_sq", "t_mean", "t_sq"):
                a, b = getattr(st, name), ref[name]
                assert abs(a - b) <= 1e-10 * abs(b), (
                    f"{model.label} / {dist}: {name} structured={a} dense={b}")
            cond = ref["condition"]
            assert cond / 3 <= st.condition <= cond * (1 + 1e-8), (
                f"{model.label} / {dist}: condition {st.condition} vs cond_1 {cond}")
            # the adjoint solve rides on the forward factor; check it against J^H
            b = np.exp(1j * np.arange(sset.dim**2))
            y = np.linalg.solve(resolvent(sset).conj().T, b)
            err = np.linalg.norm(sset._solver.solve_adjoint(b) - y) / np.linalg.norm(y)
            assert err <= 1e-10, f"{model.label} / {dist}: adjoint solve error {err}"


def _check_tls_closedform_match():
    for dist in (ExponentialInterval(0.6), GammaInterval(5.0, 0.6), FixedInterval(0.6)):
        for problem, x_in in (("return", 0), ("arrival", 1)):
            cf = tls_stats(problem, dist, gamma=1.0)
            st = _stats_for(build_two_level(1.0, x_in=x_in, x_d=0), dist)
            for name in ("p_det", "n_mean", "n_sq", "t_mean", "t_sq"):
                a, b = getattr(cf, name), getattr(st, name)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(a)), (
                    f"{problem}/{dist}: {name} closed={a} exact={b}"
                )


def _ring_closedform_case(L, x_d, gamma, mu):
    dist = ExponentialInterval(mu)
    st = _stats_for(build_ring(L, gamma, 0, x_d), dist)
    for got, want, name in (
        (st.n_mean, ring_nbar_exp(L, x_d, gamma, mu), "n_mean"),
        (st.n_sq, ring_nsq_exp(L, x_d, gamma, mu), "n_sq"),
        (st.t_sq, ring_tsq_exp(L, x_d, gamma, mu), "t_sq"),
    ):
        assert abs(got - want) <= 1e-6 * abs(want), (
            f"L={L} x_d={x_d} gamma={gamma} mu={mu}: {name} exact={got} closed={want}"
        )


def _check_ring_closedform_spot():
    for L, x_d in ((7, 0), (7, 2), (8, 3), (8, 4), (12, 6)):
        for gamma in (1.0, 1.3):
            _ring_closedform_case(L, x_d, gamma, 0.6)


def _check_stroboscopic_quick():
    for model in (build_two_level(1.0), build_ring(5, 1.0, 1, 0)):
        dist = FixedInterval(0.7)
        series = fn_series(build_superops(spectral_reduce(model), dist), 30)
        direct = stroboscopic_fn_direct(model, 0.7, 30)
        assert np.max(np.abs(series - direct)) < 1e-10, model.label


def _check_exceptional_fixed_interval():
    # tau = 2 pi / (E_max - E_min) on ring 5: three levels, two eigenphases of U(tau)
    dist, model = FixedInterval(1.736629707381648), build_ring(5, 1.0, 1, 0)
    st, ret = _stats_for(model, dist), _stats_for(build_ring(5, 1.0, 0, 0), dist)
    direct = stroboscopic_fn_direct(model, dist.tau0, 200).sum()
    assert st.reduced_dim == 2 and abs(st.p_det - direct) <= 1e-12, (st, direct)
    assert ret.reduced_dim == 2 and abs(ret.p_det - 1.0) <= 1e-12, ret
    assert abs(ret.n_mean - ret.reduced_dim) <= 1e-9, ret


def _check_ring_closedform_grid():
    for L in range(3, 17):
        for x_d in range(0, L // 2 + 1):
            for mu in (0.4, 0.6, 1.0, 2.0):
                _ring_closedform_case(L, x_d, 1.0, mu)


def _check_stroboscopic_full():
    models = (build_two_level(1.0), build_ring(5, 1.0, 1, 0), build_ring(8, 1.0, 3, 0))
    for model in models:
        for tau0 in (0.3, 0.6, 1.1):
            dist = FixedInterval(tau0)
            series = fn_series(build_superops(spectral_reduce(model), dist), 50)
            direct = stroboscopic_fn_direct(model, tau0, 50)
            assert np.max(np.abs(series - direct)) < 1e-10, (model.label, tau0)


def _check_mc_fn_match():
    model = build_ring(6, 1.0, 1, 0)
    dist = ExponentialInterval(0.6)
    series = fn_series(build_superops(spectral_reduce(model), dist), 30)
    ens = run_per_realization(model, dist, n_real=10**5, n_cut=30, seed=73)
    dev = np.abs(ens.fn_mean - series) / np.maximum(ens.fn_stderr, 1e-300)
    assert dev.max() <= 4.0, f"max deviation {dev.max():.2f} sigma"


def _check_mc_bernoulli_match():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    series = fn_series(build_superops(spectral_reduce(model), dist), 20)
    ens = run_bernoulli(model, dist, n_real=10**5, seed=74, n_abort=2000)
    frac, se = ens.attempt_fn_estimate(20)
    dev = np.abs(frac - series) / np.maximum(se, 1e-300)
    assert dev.max() <= 4.0, f"max deviation {dev.max():.2f} sigma"


def _check_tls_mc_variance():
    model = build_two_level(1.0)
    dist = ExponentialInterval(0.6)
    target = tls_stats("return", dist, 1.0).nbar_var
    ens = run_per_realization(model, dist, n_real=10**6, n_cut=90, seed=75)
    s = ens.summary()
    dev = abs(s["nbar_var"] - target) / s["nbar_var_stderr"]
    assert dev <= 3.0, f"var {s['nbar_var']:.4f} vs {target:.4f}: {dev:.2f} sigma"


CHECKS = [
    ("tls-return-quantization", "quick", _check_tls_return_quantization),
    ("pdet-equals-overlap-sum", "quick", _check_pdet_equals_overlap_sum),
    ("universal-time-identities", "quick", _check_universal_identities),
    ("zero-mode-census", "quick", _check_zero_modes),
    ("structured_vs_dense", "quick", _check_structured_vs_dense),
    ("tls-closedform-vs-exact", "quick", _check_tls_closedform_match),
    ("ring-closedform-spot", "quick", _check_ring_closedform_spot),
    ("stroboscopic-oracle-quick", "quick", _check_stroboscopic_quick),
    ("exceptional-fixed-interval", "quick", _check_exceptional_fixed_interval),
    ("ring-closedform-grid-3-16", "full", _check_ring_closedform_grid),
    ("stroboscopic-oracle-full", "full", _check_stroboscopic_full),
    ("mc-vs-exact-series", "full", _check_mc_fn_match),
    ("mc-bernoulli-vs-exact", "full", _check_mc_bernoulli_match),
    ("tls-mc-ensemble-variance", "full", _check_tls_mc_variance),
]


def run_verify(level: str = "quick") -> bool:
    """Run the verification suite, printing one PASS or FAIL line per
    check; returns True when everything passes.

    A check fails on an AssertionError or a QprobeError; either way it is
    reported by name and the checks after it still run.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    wanted = ("quick",) if level == "quick" else ("quick", "full")
    all_ok = True
    for name, tier, fn in CHECKS:
        if tier not in wanted:
            continue
        start = time.perf_counter()
        try:
            fn()
        except AssertionError as exc:
            all_ok = False
            print(f"FAIL {name}: {exc}")
        except QprobeError as exc:        # a solve or census that failed loudly
            all_ok = False
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"PASS {name} ({time.perf_counter() - start:.2f}s)")
    return all_ok
