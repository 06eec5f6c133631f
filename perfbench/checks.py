"""Oracle checks on the captured output of every benchmark operation.

The checks use routes independent of the code path that produced the
output: the ring closed form for exponential intervals, the universal
identity t_mean = <tau> * n_mean, the structural zero-mode count of the
transfer matrix, the bright-subspace weight for p_det, and the exact
series <F_n> for Monte Carlo histograms.  Monte Carlo checks are exact
binomial (or Hoeffding) tests whose p-values the caller compares with
``ALPHA_PER_RUN`` divided by the number of tests in the run, so a correct
program fails a run with probability below ``ALPHA_PER_RUN``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import warnings
from functools import lru_cache

import numpy as np
from scipy.stats import binom

from qprobe import (ExponentialInterval, build_ring, build_superops, fn_series,
                    ring_nbar_exp, spectral_reduce)

IDENTITY_RTOL = 1e-8      # |t_mean - <tau> n_mean| / t_mean
RING_NBAR_RTOL = 1e-8     # n_mean vs ring_nbar_exp; agreement measured ~1e-12 at L=80, 160
P_DET_ATOL = 1e-8         # p_det vs the weight of psi_in on the bright states
FN_SUM_ATOL = 1e-9        # partial sums of <F_n> may exceed p_det only by roundoff
ALPHA_PER_RUN = 1e-4      # chance that a correct program fails a run's MC tests


@lru_cache(maxsize=None)
def _reduced(L: int, x_in: int):
    return spectral_reduce(build_ring(L, 1.0, x_in, 0))


def p_det_exact(L: int, x_in: int) -> float:
    """Total detection probability: the weight of psi_in on the bright states."""
    return float(_reduced(L, x_in).p_init.sum())


@lru_cache(maxsize=None)
def fn_exact(L: int, x_in: int, mean: float, n_max: int) -> np.ndarray:
    dist = ExponentialInterval(mean)
    series = fn_series(build_superops(_reduced(L, x_in), dist), n_max)
    return np.clip(series, 0.0, 1.0)


def _nbar_exp(L: int, x_in: int, mean: float) -> float:
    with warnings.catch_warnings():        # L > 16 is outside the verified range
        warnings.simplefilter("ignore")
        return ring_nbar_exp(L, (-x_in) % L, 1.0, mean)


class OpCheck:
    """Errors, test p-values and computed counts from one operation's output."""

    def __init__(self):
        self.errors: list[str] = []
        self.pvalues: list[float] = []
        self.counts: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)


def _check_moments(chk: OpCheck, op: dict, mean: float, row: dict, where: str) -> None:
    n_mean, t_mean = float(row["n_mean"]), float(row["t_mean"])
    chk.expect(abs(t_mean - mean * n_mean) <= IDENTITY_RTOL * abs(t_mean),
               f"{where}: t_mean {t_mean!r} != <tau> * n_mean {mean * n_mean!r}")
    if op["dist"] == "exp":
        ref = _nbar_exp(op["L"], op["x_in"], mean)
        chk.expect(abs(n_mean - ref) <= RING_NBAR_RTOL * ref,
                   f"{where}: n_mean {n_mean!r} != ring closed form {ref!r}")
    if "p_det" in row:
        ref = p_det_exact(op["L"], op["x_in"])
        chk.expect(abs(float(row["p_det"]) - ref) <= P_DET_ATOL,
                   f"{where}: p_det {row['p_det']!r} != bright weight {ref!r}")


def _check_stats(chk: OpCheck, op: dict, out: str) -> None:
    doc = json.loads(out)
    nr = op["nr"]
    chk.expect(doc["reduced_dim"] == nr, f"reduced_dim {doc['reduced_dim']} != {nr}")
    _check_moments(chk, op, op["mean"], doc["stats"], f"stats {op['dist']}")
    zm = doc["zero_modes"]
    chk.expect(zm["n_zero"] >= 2 * nr - 1, f"census n_zero {zm['n_zero']} < 2Nr-1")
    chk.expect(zm["n_nonzero"] <= (nr - 1) ** 2, f"census n_nonzero {zm['n_nonzero']} > (Nr-1)^2")
    chk.expect(zm["n_zero"] + zm["n_nonzero"] == nr * nr, "census does not count Nr^2 modes")


def _check_fn(chk: OpCheck, op: dict, out: str) -> None:
    rows = list(csv.reader(io.StringIO(out)))
    chk.expect(rows[0] == ["n", "fn"], f"fn header {rows[0]}")
    ns = [int(r[0]) for r in rows[1:]]
    chk.expect(ns == list(range(1, op["nmax"] + 1)), "fn rows are not n = 1..nmax")
    partial = np.cumsum([float(r[1]) for r in rows[1:]])
    p_det = p_det_exact(op["L"], op["x_in"])
    chk.expect(float(partial.max()) <= p_det + FN_SUM_ATOL,
               f"fn partial sum {partial.max()!r} exceeds p_det {p_det!r}")


def _check_sweep(chk: OpCheck, op: dict, out: str) -> None:
    rows = list(csv.DictReader(io.StringIO(out)))
    axis = op["axis"]
    values = [float(r[axis]) for r in rows]
    chk.expect(values == [float(g) for g in op["grid"]], "sweep rows do not match the grid")
    for row in rows:
        where = f"sweep {axis}={row[axis]}"
        if row["status"] != "ok":
            chk.errors.append(f"{where}: status {row['status']!r}")
            continue
        mean = float(row[axis]) if axis == "mean_tau" else op["mean"]
        _check_moments(chk, op, mean, row, where)
    chk.counts["points"] = len(rows)


def _binom_p(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Exact two-sided binomial p-values (doubled smaller tail)."""
    return np.minimum(1.0, 2.0 * np.minimum(binom.cdf(k, n, p), binom.sf(k - 1, n, p)))


def _check_bernoulli(chk: OpCheck, op: dict, out: str, err: str) -> None:
    summary = json.loads(err)["summary"]
    rows = list(csv.reader(io.StringIO(out)))
    chk.expect(rows[0] == ["n", "t"], f"mc header {rows[0]}")
    attempts = np.array([int(r[0]) for r in rows[1:]], dtype=np.int64)
    n_real, n_abort = op["nreal"], op["n_abort"]
    detected, censored = len(attempts), summary["censored"]
    chk.expect(detected == summary["detected"] and detected + censored == n_real,
               f"mc counts: {detected} rows, summary {summary['detected']} + {censored}")
    chk.expect(bool(np.all((attempts >= 1) & (attempts <= n_abort))), "attempt outside 1..n_abort")
    fn = fn_exact(op["L"], op["x_in"], op["mean"], n_abort)
    hist = np.bincount(attempts, minlength=n_abort + 1)[1:n_abort + 1]
    # the histogram bins, and the cumulative counts, which see a shifted
    # distribution sooner; the last cumulative count is the detected total
    chk.pvalues.extend(_binom_p(hist, n_real, fn).tolist())
    cum_p = np.minimum(np.cumsum(fn), 1.0)
    chk.pvalues.extend(_binom_p(np.cumsum(hist), n_real, cum_p).tolist())
    chk.counts["bernoulli_real"] = n_real
    chk.counts["probe_steps"] = int(attempts.sum()) + censored * n_abort
    chk.counts["bernoulli_steps"] = chk.counts["probe_steps"]
    chk.counts["useful_steps"] = int(attempts.sum())


def _check_profile(chk: OpCheck, op: dict, out: str, err: str) -> None:
    summary = json.loads(err)["summary"]
    rows = list(csv.reader(io.StringIO(out)))
    chk.expect(rows[0] == ["realization", "nbar"], f"mc header {rows[0]}")
    nbar = np.array([float(r[1]) for r in rows[1:]])
    n_real, n_cut = op["nreal"], op["ncut"]
    chk.expect(len(nbar) == n_real == summary["n_real"], "per_realization row count")
    chk.expect(bool(np.all((nbar >= 1.0) & (nbar <= n_cut))), "nbar outside [1, ncut]")
    # per-realization p_det lies in [0, 1], so Hoeffding bounds the deviation
    ref = float(fn_exact(op["L"], op["x_in"], op["mean"], n_cut).sum())
    dev = abs(summary["pdet_mean"] - ref)
    chk.pvalues.append(min(1.0, 2.0 * math.exp(-2.0 * n_real * dev * dev)))
    chk.counts["profile_real"] = n_real
    chk.counts["probe_steps"] = n_real * n_cut


def check_op(op: dict, rc: int, out: str, err: str) -> OpCheck:
    """Check one operation's exit code and captured stdout/stderr."""
    chk = OpCheck()
    if rc != 0:
        chk.errors.append(f"exit code {rc}: {err.strip()[-300:]}")
        return chk
    chk.counts["output_bytes"] = len(out.encode()) + len(err.encode())
    try:
        if op["cmd"] == "stats":
            _check_stats(chk, op, out)
        elif op["cmd"] == "fn":
            _check_fn(chk, op, out)
        elif op["cmd"] == "sweep":
            _check_sweep(chk, op, out)
        elif op["mode"] == "bernoulli":
            _check_bernoulli(chk, op, out, err)
        else:
            _check_profile(chk, op, out, err)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        chk.errors.append(f"unparsable output: {exc!r}")
    return chk
