"""Monte Carlo simulation of randomly timed projective probing.

This is the independent oracle for the exact machinery: it samples
explicit interval sequences and propagates wave functions in the full
Hilbert space (dark components included, so censoring and incomplete
detection happen naturally).  Propagation uses precomputed eigenphases,
which makes a probing step O(N) per realization, and realizations are
processed in vectorized chunks.

Both modes share one probe step.  The amplitude is never renormalized,
so F_n = |<psi_d|c>|**2 is the probability, given the intervals, that
the first detection happens at probe n.  The step walks the realizations
in row tiles of ``TILE_ELEMS`` amplitudes (2**15: 0.5 MB of complex and
0.25 MB of float scratch, within L2).  On a tile it writes the half
phase tau (x) (-w/2) into a C-contiguous float buffer and takes its
tangent t in place; the phase factor is then exp(-i tau w) =
(1 + i t)/(1 - i t), whose real part 2/(1 + t**2) - 1 and imaginary part
t 2/(1 + t**2) go into the views of a complex buffer.  numpy vectorizes
the float64 tangent of a contiguous array (AVX-512) but not cos and sin,
so one tangent and a few multiplies cost well under the two libm calls;
the buffer is contiguous because a strided view such as ``e.imag`` takes
another ``tan`` loop, twice as slow.  The step takes the amplitude with a
row kernel (``einsum``, no BLAS, so no BLAS thread spins between tiles)
and forms the rank-one projection in the complex buffer.  The tiles of a
step are split into contiguous ranges over the CPUs the process may run
on (``os.sched_getaffinity``): the calling thread takes one range and a
per-run thread pool the rest, each worker with its own pair of scratch
buffers.  Each worker takes at least two tiles, so a step of fewer than
four tiles runs in the calling thread and starts no pool: a worker's
hand-off costs about as much as one tile saves, and on a host whose
CPUs are time-shared it can cost several tiles.  Sampling, the sums and
the Bernoulli compaction stay in the calling thread.

* ``bernoulli`` samples that attempt by inverse transform: one uniform v
  per realization, detection at the first n with F_1 + ... + F_n > v.
  Realizations that survive past the attempt cap are censored.
* ``per_realization`` records the full deterministic detection
  probability profile F_1..F_n_cut of each sampled interval sequence,
  together with its mean attempt number nbar = sum(n F_n)/sum(F_n).
  Ensemble averages of F_n estimate the distribution-averaged series.

Reproducibility: realizations are split into fixed-size chunks and each
chunk gets its own counter-based generator spawned deterministically from
the seed, so results are bit-identical for a given seed no matter how
chunks would be scheduled.  Every operation of the step is elementwise or
per row, and the contiguous tangent gives the same bits at any offset
and length, so they are also bit-identical for any worker count or tile
boundary.  Across machines the last bits follow numpy's dispatch of
``tan`` (AVX-512 or not).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError
from .intervals import IntervalDistribution
from .model import PDET_FLOOR, QuantumModel

DEFAULT_CHUNK = 1 << 15
DEFAULT_ABORT = 10**6
TILE_ELEMS = 1 << 15


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """Outcome of a Monte Carlo run in either mode.

    Bernoulli mode fills ``attempts``/``times`` (detected realizations
    only) and ``censored``.  Per-realization mode fills ``nbar``/``pdet``
    per realization plus the ensemble mean and standard error of F_n;
    ``fn_records`` holds the full (n_real, n_cut) profile matrix when
    requested (test-scale runs only).  ``threads`` is the number of
    workers that ran probe tiles (1 when no step had four tiles).
    """

    mode: str
    n_real: int
    seed: int
    n_abort: int | None = None
    n_cut: int | None = None
    attempts: np.ndarray | None = None
    times: np.ndarray | None = None
    censored: int = 0
    nbar: np.ndarray | None = None
    pdet: np.ndarray | None = None
    fn_mean: np.ndarray | None = None
    fn_stderr: np.ndarray | None = None
    fn_records: np.ndarray | None = None
    threads: int = 1

    def attempt_fn_estimate(self, n_max: int):
        """Empirical <F_n> and binomial standard error from bernoulli records.

        The fraction of all realizations detected exactly at attempt n is
        an unbiased estimate of the averaged detection probability there.
        """
        if self.mode != "bernoulli":
            raise ValueError("attempt histogram is only defined for bernoulli mode")
        counts = np.bincount(self.attempts, minlength=n_max + 1)[1:n_max + 1]
        frac = counts / self.n_real
        se = np.sqrt(np.maximum(frac * (1.0 - frac), 1e-300) / self.n_real)
        return frac, se

    @property
    def probe_steps(self) -> int:
        """Realization-probes propagated: a detected realization runs its
        attempt count and a censored one ``n_abort`` probes."""
        if self.mode == "bernoulli":
            return int(self.attempts.sum()) + self.censored * self.n_abort
        return self.n_real * self.n_cut

    def summary(self) -> dict:
        """Scalar summary block for reporting."""
        out: dict = {"mode": self.mode, "n_real": self.n_real, "seed": self.seed}
        if self.mode == "bernoulli":
            n_det = len(self.attempts)
            out["detected"] = n_det
            out["censored"] = self.censored
            out["n_abort"] = self.n_abort
            if n_det > 1:
                out["n_mean"] = float(np.mean(self.attempts))
                out["n_var"] = float(np.var(self.attempts, ddof=1))
                out["n_stderr"] = float(np.sqrt(out["n_var"] / n_det))
                out["t_mean"] = float(np.mean(self.times))
                out["t_var"] = float(np.var(self.times, ddof=1))
                out["t_stderr"] = float(np.sqrt(out["t_var"] / n_det))
                out["p_det_estimate"] = n_det / self.n_real
        else:
            out["n_cut"] = self.n_cut
            out["nbar_mean"] = float(np.mean(self.nbar))
            if self.n_real > 1:
                out["nbar_var"] = float(np.var(self.nbar, ddof=1))
                dev = self.nbar - np.mean(self.nbar)
                out["nbar_stderr"] = float(np.sqrt(out["nbar_var"] / self.n_real))
                out["nbar_var_stderr"] = float(
                    np.sqrt(max(np.mean(dev**4) - np.var(self.nbar) ** 2, 0.0) / self.n_real)
                )
            out["pdet_mean"] = float(np.mean(self.pdet))
        out["probe_steps"] = self.probe_steps
        out["threads"] = self.threads
        out["censored_reason"] = "n_abort" if self.censored else None
        return out


def _eigenphase_setup(model: QuantumModel):
    """Minus half the eigenvalues (the half-phase rates of the probe step;
    halving is exact) and the eigenbasis amplitudes of psi_in and psi_d."""
    w, v = np.linalg.eigh(model.hamiltonian)
    coeff_in = v.conj().T @ model.psi_in
    coeff_d = v.conj().T @ model.psi_d
    return -0.5 * w, coeff_in, coeff_d


def _chunk_generators(seed: int, n_real: int, chunk: int):
    n_chunks = (n_real + chunk - 1) // chunk
    children = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [chunk] * (n_chunks - 1) + [n_real - chunk * (n_chunks - 1)]
    return [(np.random.Generator(np.random.Philox(c)), m)
            for c, m in zip(children, sizes)]


def _workers() -> int:
    """CPUs this process may run on; ``taskset`` limits them."""
    return len(os.sched_getaffinity(0))


class _Tiles:
    """The workers of one run and their tile-sized scratch buffers.

    ``run(fn, k)`` covers rows [0, k) with row tiles of ``TILE_ELEMS``
    amplitudes, split into contiguous ranges of at least two tiles over at
    most ``_workers()`` workers; ``fn(lo, hi, e, h)`` walks one range with
    the worker's complex and float scratch.  The thread pool is made at
    the first step that splits and shut down when the run leaves the
    ``with`` block.  ``threads`` is the most workers any step used.
    """

    def __init__(self, m: int, n: int):
        self.rows = max(1, TILE_ELEMS // n)
        shape = (min(self.rows, m), n)
        workers = max(1, min(_workers(), -(-m // self.rows) // 2))
        self.scratch = [(np.empty(shape, dtype=complex), np.empty(shape))
                        for _ in range(workers)]
        self.pool = None
        self.threads = 1

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.pool is not None:
            self.pool.shutdown()

    def run(self, fn, k: int) -> None:
        n_tiles = -(-k // self.rows)
        w = max(1, min(len(self.scratch), n_tiles // 2))
        bounds = [min(k, i * n_tiles // w * self.rows) for i in range(w + 1)]
        if w > 1 and self.pool is None:
            from concurrent.futures import ThreadPoolExecutor
            self.pool = ThreadPoolExecutor(len(self.scratch) - 1)
        futures = [self.pool.submit(fn, bounds[i], bounds[i + 1], *self.scratch[i])
                   for i in range(1, w)]
        fn(bounds[0], bounds[1], *self.scratch[0])
        for fut in futures:
            fut.result()
        self.threads = max(self.threads, w)


def _probe(c, tau, neg_half_w, coeff_d, tiles):
    """Evolve row i of ``c`` (eigenbasis amplitudes) for ``tau[i]``, project
    psi_d out in place and return F = |<psi_d|c>|**2 before the projection.

    ``neg_half_w`` is minus half the eigenvalues.  With t = tan(tau (-w/2))
    and s = 2/(1 + t**2), the phase factor is exp(-i tau w) =
    (1 + i t)/(1 - i t) = s - 1 + i t s; t**2 cannot overflow for a finite
    argument.  The tangent runs in place on the contiguous float scratch,
    t is copied into the imaginary view of the complex scratch and s is
    formed over t, so only that copy and the two writes of e touch
    strided views.  ``tiles`` walks the rows tile by tile, so the step
    allocates no array of the shape of ``c``.
    """
    f = np.empty(len(c))
    coeff_dc = coeff_d.conj()

    def walk(lo, hi, e, h):
        for a in range(lo, hi, tiles.rows):
            b = min(a + tiles.rows, hi)
            ct, et, t = c[a:b], e[:b - a], h[:b - a]
            np.multiply(tau[a:b, None], neg_half_w, out=t)     # the half phase
            np.tan(t, out=t)
            et.imag = t
            t *= t
            t += 1.0
            np.divide(2.0, t, out=t)                            # s = 2/(1 + t**2)
            et.imag *= t
            np.subtract(t, 1.0, out=et.real)                    # e = exp(-i tau w)
            ct *= et
            amp = np.einsum("ij,j->i", ct, coeff_dc)
            np.multiply(amp[:, None], coeff_d, out=et)
            ct -= et
            f[a:b] = np.abs(amp) ** 2

    tiles.run(walk, len(c))
    return f


def run_bernoulli(model: QuantumModel, dist: IntervalDistribution,
                  n_real: int, seed: int, n_abort: int = DEFAULT_ABORT,
                  chunk: int = DEFAULT_CHUNK) -> TrajectoryEnsemble:
    """Sample the first-detection attempt by inverse transform.

    Each realization draws one uniform v before any interval and is
    detected at the first probe n with F_1 + ... + F_n > v, so
    P(detect at n | intervals) = F_n.  Records (attempt number, elapsed
    time) of the detected realizations in realization order; those still
    undetected after ``n_abort`` probes are censored.  A realization with
    v above its total detection probability runs all ``n_abort`` probes,
    so models with dark overlap should use a moderate ``n_abort``.
    """
    if n_abort < 1:
        raise ValueError(f"n_abort must be >= 1, got {n_abort}")
    if n_real < 1:
        raise ValueError(f"n_real must be >= 1, got {n_real}")
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(model)
    attempts_all, times_all = [], []
    censored = 0
    with _Tiles(min(chunk, n_real), len(neg_half_w)) as tiles:
        for rng, m in _chunk_generators(seed, n_real, chunk):
            v = rng.random(m)
            c = np.tile(coeff_in, (m, 1))
            live, cum, t_live = np.arange(m), np.zeros(m), np.zeros(m)
            attempt, t_acc = np.zeros(m, dtype=np.int64), np.zeros(m)
            for n in range(1, n_abort + 1):
                tau = np.atleast_1d(dist.sample(rng, len(live)))
                t_live += tau
                cum += _probe(c, tau, neg_half_w, coeff_d, tiles)
                hit = cum > v
                if not hit.any():
                    continue
                attempt[live[hit]] = n
                t_acc[live[hit]] = t_live[hit]
                keep = ~hit
                live, c, cum, v, t_live = live[keep], c[keep], cum[keep], v[keep], t_live[keep]
                if not len(live):
                    break
            censored += len(live)
            attempts_all.append(attempt[attempt > 0])
            times_all.append(t_acc[attempt > 0])
    return TrajectoryEnsemble(
        mode="bernoulli", n_real=n_real, seed=seed, n_abort=n_abort,
        attempts=np.concatenate(attempts_all), times=np.concatenate(times_all),
        censored=censored, threads=tiles.threads,
    )


def run_per_realization(model: QuantumModel, dist: IntervalDistribution,
                        n_real: int, n_cut: int, seed: int,
                        keep_fn: bool = False,
                        chunk: int = DEFAULT_CHUNK) -> TrajectoryEnsemble:
    """Deterministic detection profile of each sampled interval sequence.

    Every realization is propagated for exactly ``n_cut`` probes without
    collapsing, recording F_n at each probe.  ``keep_fn`` stores the full
    profile matrix, which costs n_real * n_cut floats; leave it off for
    large ensembles.
    """
    if n_cut < 2:
        raise ValueError(f"n_cut must be >= 2, got {n_cut}")
    if n_real < 1:
        raise ValueError(f"n_real must be >= 1, got {n_real}")
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(model)
    fn_sum = np.zeros(n_cut)
    fn_sq_sum = np.zeros(n_cut)
    nf_all, pdet_all = [], []
    records = [] if keep_fn else None
    with _Tiles(min(chunk, n_real), len(neg_half_w)) as tiles:
        for rng, m in _chunk_generators(seed, n_real, chunk):
            c = np.tile(coeff_in, (m, 1))
            sum_f = np.zeros(m)
            sum_nf = np.zeros(m)
            rec = np.empty((m, n_cut)) if keep_fn else None
            for n in range(1, n_cut + 1):
                tau = np.atleast_1d(dist.sample(rng, m))
                f = _probe(c, tau, neg_half_w, coeff_d, tiles)
                fn_sum[n - 1] += f.sum()
                fn_sq_sum[n - 1] += (f * f).sum()
                sum_f += f
                sum_nf += n * f
                if keep_fn:
                    rec[:, n - 1] = f
            nf_all.append(sum_nf)
            pdet_all.append(sum_f)
            if keep_fn:
                records.append(rec)
    pdet = np.concatenate(pdet_all)
    if pdet.max() < PDET_FLOOR:
        raise DegenerateProblemError(
            "detection probability vanishes in every realization: the initial "
            "state has no overlap with the bright subspace, so nbar is undefined"
        )
    fn_mean = fn_sum / n_real
    fn_var = np.maximum(fn_sq_sum / n_real - fn_mean**2, 0.0)
    return TrajectoryEnsemble(
        mode="per_realization", n_real=n_real, seed=seed, n_cut=n_cut,
        nbar=np.concatenate(nf_all) / pdet, pdet=pdet,
        fn_mean=fn_mean, fn_stderr=np.sqrt(fn_var / n_real),
        fn_records=np.vstack(records) if keep_fn else None, threads=tiles.threads,
    )
