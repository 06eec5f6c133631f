"""Monte Carlo simulation of randomly timed projective probing.

This is the independent oracle for the exact machinery: it samples
explicit interval sequences and propagates wave functions in the full
Hilbert space (dark components included, so censoring and incomplete
detection happen naturally).  Propagation uses precomputed eigenphases,
which makes a probing step O(N) per realization, and realizations are
processed in vectorized chunks.

Both modes share one probe step.  The amplitude is never renormalized,
so F_n = |<psi_d|c>|**2 is the probability, given the intervals, that
the first detection happens at probe n.  The step writes the half phase
tau (x) (-w/2) into a C-contiguous float buffer and takes its tangent t
in place; the phase factor is then exp(-i tau w) = (1 + i t)/(1 - i t),
whose real part 2/(1 + t**2) - 1 and imaginary part t 2/(1 + t**2) go
into the views of a complex buffer.  numpy vectorizes the float64
tangent of a contiguous array (AVX-512) but not cos and sin, so one
tangent and a few multiplies cost well under the two libm calls; the
buffer is contiguous because a strided view such as ``e.imag`` takes
another ``tan`` loop, twice as slow.  The step takes the amplitude with a
row kernel (``einsum``, no BLAS, so no BLAS thread spins beside the
workers) and forms the rank-one projection in the complex buffer.

The realization chunk is the unit of work, of randomness and of cache:
by default a chunk holds ``TILE_ELEMS`` amplitudes (2**15 complex, 0.5
MB, and 0.25 MB of float scratch, within L2).  A per-run thread pool of
one worker per CPU the process may run on (``os.sched_getaffinity``, at
most one per chunk) takes whole chunks and runs every probe of a chunk
with its own scratch: the whole bernoulli attempt loop with its live-set
compaction, or all ``n_cut`` profile steps.  The calling thread folds
the chunks' partial results in chunk order, keeping at most two chunks a
worker in flight, so memory does not grow with the ensemble beyond the
per-realization records.

* ``bernoulli`` samples that attempt by inverse transform: one uniform v
  per realization, detection at the first n with F_1 + ... + F_n > v.
  Realizations that survive past the attempt cap are censored.
* ``per_realization`` records the full deterministic detection
  probability profile F_1..F_n_cut of each sampled interval sequence,
  together with its mean attempt number nbar = sum(n F_n)/sum(F_n).
  Ensemble averages of F_n estimate the distribution-averaged series.

Reproducibility: chunk i draws from its own counter-based generator,
child i of the seed's ``SeedSequence``, and every operation of a chunk is
elementwise or per row, so the records are bit-identical for a given
seed and chunk size; the partial sums are folded in chunk order, so the
estimates are bit-identical for any worker count as well.  Across
machines the last bits follow numpy's dispatch of ``tan`` (AVX-512 or
not).
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateProblemError
from .intervals import IntervalDistribution
from .model import PDET_FLOOR, QuantumModel

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
    workers that ran chunks: one per CPU, at most one per chunk.
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
    """Yield (generator, rows) of each chunk, made only when it is reached.

    Chunk i draws from ``SeedSequence(seed).spawn(n)[i]``, built here from
    the root's entropy and spawn key (i,) without spawning the others.
    """
    root = np.random.SeedSequence(seed)
    for i, lo in enumerate(range(0, n_real, chunk)):
        child = np.random.SeedSequence(root.entropy, spawn_key=(i,))
        yield np.random.Generator(np.random.Philox(child)), min(chunk, n_real - lo)


def _workers() -> int:
    """CPUs this process may run on; ``taskset`` limits them."""
    return len(os.sched_getaffinity(0))


def _run_chunks(work, seed: int, n_real: int, chunk: int, n: int, workers: int):
    """Yield ``work(rng, m, e, h)`` of every chunk, in chunk order.

    ``workers`` threads run the chunks, each call with one complex and one
    float scratch buffer of ``chunk`` rows of ``n`` that no other running
    call holds.  At most two chunks a worker are in flight, so results are
    folded as they come; the pool ends with the generator.
    """
    shape = (min(chunk, n_real), n)
    scratch = [(np.empty(shape, dtype=complex), np.empty(shape)) for _ in range(workers)]

    def job(rng, m):
        pair = scratch.pop()          # at most ``workers`` jobs run at once
        try:
            return work(rng, m, *pair)
        finally:
            scratch.append(pair)

    from concurrent.futures import ThreadPoolExecutor   # here, not at import: cold start
    with ThreadPoolExecutor(workers) as pool:
        window = deque()
        for rng, m in _chunk_generators(seed, n_real, chunk):
            window.append(pool.submit(job, rng, m))
            if len(window) >= 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()


def _probe(c, tau, neg_half_w, coeff_d, e, h):
    """Evolve row i of ``c`` (eigenbasis amplitudes) for ``tau[i]``, project
    psi_d out in place and return F = |<psi_d|c>|**2 before the projection.

    ``neg_half_w`` is minus half the eigenvalues.  With t = tan(tau (-w/2))
    and s = 2/(1 + t**2), the phase factor is exp(-i tau w) =
    (1 + i t)/(1 - i t) = s - 1 + i t s; t**2 cannot overflow for a finite
    argument.  ``e`` (complex) and ``h`` (float) are scratch of at least
    ``len(c)`` rows.  The tangent runs in place on the contiguous float
    scratch, t is copied into the imaginary view of the complex scratch and
    s is formed over t, so only that copy and the two writes of e touch
    strided views, and the step allocates no array of the shape of ``c``.
    """
    et, t = e[:len(c)], h[:len(c)]
    np.multiply(tau[:, None], neg_half_w, out=t)            # the half phase
    np.tan(t, out=t)
    et.imag = t
    t *= t
    t += 1.0
    np.divide(2.0, t, out=t)                                # s = 2/(1 + t**2)
    et.imag *= t
    np.subtract(t, 1.0, out=et.real)                        # e = exp(-i tau w)
    c *= et
    amp = np.einsum("ij,j->i", c, coeff_d.conj())
    np.multiply(amp[:, None], coeff_d, out=et)
    c -= et
    return np.abs(amp) ** 2


def _plan(n_real: int, chunk: int | None, n: int) -> tuple[int, int]:
    """Chunk rows (``TILE_ELEMS`` amplitudes unless given) and workers."""
    chunk = max(1, TILE_ELEMS // n) if chunk is None else chunk
    return chunk, min(_workers(), -(-n_real // chunk))


def run_bernoulli(model: QuantumModel, dist: IntervalDistribution,
                  n_real: int, seed: int, n_abort: int = DEFAULT_ABORT,
                  chunk: int | None = None) -> TrajectoryEnsemble:
    """Sample the first-detection attempt by inverse transform.

    Each realization draws one uniform v before any interval and is
    detected at the first probe n with F_1 + ... + F_n > v, so
    P(detect at n | intervals) = F_n.  Records (attempt number, elapsed
    time) of the detected realizations in realization order; those still
    undetected after ``n_abort`` probes are censored.  A realization with
    v above its total detection probability runs all ``n_abort`` probes,
    so models with dark overlap should use a moderate ``n_abort``.
    ``chunk`` is the rows of a chunk (``None``: ``TILE_ELEMS`` amplitudes).
    """
    if n_abort < 1:
        raise ValueError(f"n_abort must be >= 1, got {n_abort}")
    if n_real < 1:
        raise ValueError(f"n_real must be >= 1, got {n_real}")
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(model)
    chunk, workers = _plan(n_real, chunk, len(neg_half_w))

    def work(rng, m, e, h):
        v = rng.random(m)
        c = np.tile(coeff_in, (m, 1))
        live, cum, t_live = np.arange(m), np.zeros(m), np.zeros(m)
        attempt, t_acc = np.zeros(m, dtype=np.int64), np.zeros(m)
        for n in range(1, n_abort + 1):
            tau = np.atleast_1d(dist.sample(rng, len(live)))
            t_live += tau
            cum += _probe(c, tau, neg_half_w, coeff_d, e, h)
            hit = cum > v
            if not hit.any():
                continue
            attempt[live[hit]] = n
            t_acc[live[hit]] = t_live[hit]
            keep = ~hit
            live, c, cum, v, t_live = live[keep], c[keep], cum[keep], v[keep], t_live[keep]
            if not len(live):
                break
        return attempt[attempt > 0], t_acc[attempt > 0], len(live)

    attempts_all, times_all = [], []
    censored = 0
    for attempts, times, n_live in _run_chunks(work, seed, n_real, chunk,
                                               len(neg_half_w), workers):
        attempts_all.append(attempts)
        times_all.append(times)
        censored += n_live
    return TrajectoryEnsemble(
        mode="bernoulli", n_real=n_real, seed=seed, n_abort=n_abort,
        attempts=np.concatenate(attempts_all), times=np.concatenate(times_all),
        censored=censored, threads=workers,
    )


def run_per_realization(model: QuantumModel, dist: IntervalDistribution,
                        n_real: int, n_cut: int, seed: int,
                        keep_fn: bool = False,
                        chunk: int | None = None) -> TrajectoryEnsemble:
    """Deterministic detection profile of each sampled interval sequence.

    Every realization is propagated for exactly ``n_cut`` probes without
    collapsing, recording F_n at each probe.  ``keep_fn`` stores the full
    profile matrix, which costs n_real * n_cut floats; leave it off for
    large ensembles.  ``chunk`` is as in ``run_bernoulli``.
    """
    if n_cut < 2:
        raise ValueError(f"n_cut must be >= 2, got {n_cut}")
    if n_real < 1:
        raise ValueError(f"n_real must be >= 1, got {n_real}")
    neg_half_w, coeff_in, coeff_d = _eigenphase_setup(model)
    chunk, workers = _plan(n_real, chunk, len(neg_half_w))

    def work(rng, m, e, h):
        c = np.tile(coeff_in, (m, 1))
        fn_part, fn_sq_part = np.empty(n_cut), np.empty(n_cut)
        sum_f, sum_nf = np.zeros(m), np.zeros(m)
        rec = np.empty((m, n_cut)) if keep_fn else None
        for n in range(1, n_cut + 1):
            tau = np.atleast_1d(dist.sample(rng, m))
            f = _probe(c, tau, neg_half_w, coeff_d, e, h)
            fn_part[n - 1] = f.sum()
            fn_sq_part[n - 1] = (f * f).sum()
            sum_f += f
            sum_nf += n * f
            if keep_fn:
                rec[:, n - 1] = f
        return fn_part, fn_sq_part, sum_f, sum_nf, rec

    fn_sum = np.zeros(n_cut)
    fn_sq_sum = np.zeros(n_cut)
    nf_all, pdet_all, records = [], [], []
    for fn_part, fn_sq_part, sum_f, sum_nf, rec in _run_chunks(
            work, seed, n_real, chunk, len(neg_half_w), workers):
        fn_sum += fn_part
        fn_sq_sum += fn_sq_part
        pdet_all.append(sum_f)
        nf_all.append(sum_nf)
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
        fn_records=np.vstack(records) if keep_fn else None, threads=workers,
    )
