"""Workloads of the qprobe benchmark: fixed lists of CLI operations.

Each workload is a closed loop with one caller that runs its operations
in order, one at a time.  Sizes (Nr, grid lengths, realization counts,
n_abort, ncut) are constants.  The seed picks only the start site, the
interval means, the alpha-grid offset and the Monte Carlo seeds, inside
the ranges written next to each draw, so a seed changes the inputs but
not the amount of work.

Every operation is a dict: ``argv`` for ``qprobe.cli.main`` plus the
parameters the oracle checks need (``cmd``, ``L``, ``x_in``, ``nr``,
``dist``, ...).  All rings use hopping 1 and detect at site 0.
"""

from __future__ import annotations

import random

WORKLOADS = {  # name -> why, as in BENCHMARK.json
    "point_nr41": (
        "Nr=41 ring: stats under fixed, exp, gamma intervals, then fn --nmax "
        "2000; the census is ~85% of a stats call, so census and fn_series "
        "changes show here"),
    "sweep_nr13": (
        "Nr=13 ring: 1000-point alpha sweep; per-point overhead and BLAS thread "
        "sync on a 169^2 LU dominate, so batched sweeps and small-LU fixes show "
        "here"),
    "moments_nr81": (
        "Nr=81 ring: 3-point mean_tau sweep, a dense 6561^2 LU per point and ~3 "
        "GB peak RSS, so the structured resolvent shows here in time and memory"),
    "mc_ring": (
        "Monte Carlo only (bernoulli L=6 with censoring, per_realization L=64); "
        "runs no superop code, so it is the no-change control for exact-path work"),
}

SWEEP_NR13_POINTS = 1000
SWEEP_NR13_ALPHA_STEP = 0.1
MOMENTS_NR81_POINTS = 3
MC_NREAL = 20_000
MC_BERNOULLI_L = 6
MC_BERNOULLI_XIN = 1
MC_N_ABORT = 500
MC_PROFILE_L = 64
MC_NCUT = 200
FN_NMAX = 2000
POINT_GAMMA_ALPHA = 10.0


def _num(x: float) -> str:
    return f"{x:.4f}"


def _ring_op(cmd: str, L: int, x_in: int, flags: dict[str, str], **params) -> dict:
    """One CLI call on the ring of L sites, start x_in, detector at site 0."""
    argv = [cmd, "--L", str(L), "--gamma", "1", "--xin", str(x_in), "--xd", "0"]
    for key, value in flags.items():
        argv += [f"--{key}", value]
    return {"cmd": cmd, "L": L, "x_in": x_in, "nr": L // 2 + 1, "argv": argv, **params}


def _mean(rng: random.Random) -> float:
    # means in [0.5, 0.7]: every |E_j - E_k| * tau <= 4 * 0.7 < 2*pi, so no
    # fixed interval is exceptional and every solve is well conditioned
    return float(_num(rng.uniform(0.5, 0.7)))


def make_ops(name: str, seed: int) -> list[dict]:
    """The operation list of workload ``name`` for ``seed``."""
    rng = random.Random(f"{name}:{seed}")
    if name == "point_nr41":
        L, x_in = 80, rng.randint(1, 40)
        tau, mu_exp, mu_gamma = _mean(rng), _mean(rng), _mean(rng)
        alpha = POINT_GAMMA_ALPHA
        return [
            _ring_op("stats", L, x_in, dist="fixed", mean=tau,
                     flags={"dist": "fixed", "tau": _num(tau)}),
            _ring_op("stats", L, x_in, dist="exp", mean=mu_exp,
                     flags={"dist": "exp", "mean": _num(mu_exp)}),
            _ring_op("stats", L, x_in, dist="gamma", mean=mu_gamma,
                     flags={"dist": "gamma", "alpha": _num(alpha), "mean": _num(mu_gamma)}),
            _ring_op("fn", L, x_in, dist="exp", mean=mu_exp, nmax=FN_NMAX,
                     flags={"dist": "exp", "mean": _num(mu_exp), "nmax": str(FN_NMAX)}),
        ]
    if name == "sweep_nr13":
        L, x_in, mu = 24, rng.randint(1, 12), _mean(rng)
        offset = rng.uniform(1.0, 1.1)
        grid = [_num(offset + SWEEP_NR13_ALPHA_STEP * k) for k in range(SWEEP_NR13_POINTS)]
        return [_ring_op("sweep", L, x_in, dist="gamma", mean=mu, axis="alpha", grid=grid,
                         flags={"dist": "gamma", "mean": _num(mu), "axis": "alpha",
                                "grid": ",".join(grid), "outputs": "n_mean,t_mean"})]
    if name == "moments_nr81":
        L, x_in = 160, rng.randint(1, 80)
        base = rng.uniform(0.5, 0.6)
        grid = [_num(base + 0.1 * k) for k in range(MOMENTS_NR81_POINTS)]
        return [_ring_op("sweep", L, x_in, dist="exp", axis="mean_tau", grid=grid,
                         flags={"dist": "exp", "axis": "mean_tau", "grid": ",".join(grid),
                                "outputs": "p_det,n_mean,t_mean"})]
    if name == "mc_ring":
        mu_b, mu_p = _mean(rng), _mean(rng)
        x_in = rng.randint(1, MC_PROFILE_L // 2)
        seed_b, seed_p = rng.randrange(2**32), rng.randrange(2**32)
        return [
            _ring_op("mc", MC_BERNOULLI_L, MC_BERNOULLI_XIN, dist="exp", mean=mu_b,
                     mode="bernoulli", nreal=MC_NREAL, n_abort=MC_N_ABORT,
                     flags={"dist": "exp", "mean": _num(mu_b), "mode": "bernoulli",
                            "nreal": str(MC_NREAL), "seed": str(seed_b),
                            "n-abort": str(MC_N_ABORT)}),
            _ring_op("mc", MC_PROFILE_L, x_in, dist="exp", mean=mu_p,
                     mode="per_realization", nreal=MC_NREAL, ncut=MC_NCUT,
                     flags={"dist": "exp", "mean": _num(mu_p), "mode": "per_realization",
                            "nreal": str(MC_NREAL), "seed": str(seed_p),
                            "ncut": str(MC_NCUT)}),
        ]
    raise KeyError(name)
