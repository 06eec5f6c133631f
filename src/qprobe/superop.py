"""Exact distribution-averaged detection statistics via Kronecker superoperators.

The probability of first detection at attempt n is a squared amplitude,
so averaging it over random probing intervals requires propagating pairs
of amplitudes.  Working in the reduced energy basis of dimension Nr,
every quantity becomes a trace over Nr^2 x Nr^2 matrices built from
Kronecker products.  Compound indices follow the convention
``(A (x) B)[(j,k),(l,m)] = A[j,l] * B[k,m]`` with the flat index
``j*Nr + k``, i.e. plain ``numpy.kron`` ordering.

Averaging over the intervals replaces each random evolution factor by a
diagonal matrix whose (j,k) entry is the characteristic function of the
waiting-time density at the energy difference E_j - E_k.  The averaged
series of detection probabilities is then generated by powers of a single
transfer matrix, and all of its moments reduce to geometric sums, i.e.
to linear solves against I - transfer.

Three structural facts keep everything cheap: the trace target is rank
one (so traces collapse to bilinear forms between a source vector and the
all-ones vector); the survival map S = I - p 1^T is a rank-one update of
the identity, so S (x) S acts on a pair vector X as S X S^T in O(Nr^2);
and the transfer matrix inherits at least 2*Nr - 1 zero modes from the
measurement projection, leaving at most (Nr-1)^2 active decay modes.

The same rank-one structure and the unit diagonal of the averaged phases
turn every solve against I - transfer into one (Nr+1) bordered system,
factored in O(Nr^3) and solved in O(Nr^2).  A superoperator set factors
it at most once: the moments, the adjoint solves (by the similarity
S^T = diag(p)^-1 S diag(p), with no second factor), the condition gate
(an exact 1-norm times a Hager-Higham estimate of the inverse 1-norm)
and the zero-mode census all share that one solver.  The census finds
the slowest decay rate, the Perron root of the transfer map and its
eigenvalue nearest 1, by shift-invert Arnoldi at 1.  The Nr^2 x Nr^2
matrices are formed only for the opt-in pseudo-inverse, the census of
small sets (Nr <= 12) and the dense test oracles, and never above a
1 GiB budget.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .errors import (ConvergenceError, DegenerateProblemError, DenseSizeError,
                     IllConditionedError, MomentOverflowError)
from .intervals import IntervalDistribution
from .model import PDET_FLOOR, SpectralData

DEFAULT_COND_LIMIT = 1e12
DEFAULT_ZERO_TOL = 1e-8
PINV_RTOL = 1e-10
EXCEPTIONAL_COND_SCALE = 1e4
DENSE_MAX_BYTES = 1 << 30          # one complex Nr^4 array: Nr <= 90
DENSE_CENSUS_MAX_DIM = 12          # dense eigvals up to a 144^2 transfer matrix


@dataclass(frozen=True)
class SuperoperatorSet:
    """Superoperator ingredients for one (model, interval density) pair.

    ``phase_avg`` / ``phase_avg_t`` / ``phase_avg_tt`` are the diagonals
    (length Nr^2) of the interval-averaged pair propagator, weighted by
    tau^0, tau^1, tau^2; ``p_detect`` the detection weights p_j of the
    post-measurement survival map S = I - p 1^T; ``source_vec`` the
    rank-one source conj(amp_j) * amp_k feeding every trace.

    Only these O(Nr^2) arrays are stored, plus the structured resolvent
    solver, factored on first use and shared by every later solve on the
    set.  ``survive`` applies S (x) S in O(Nr^2); the dense Nr^2 x Nr^2
    matrices ``proj_kron`` (S (x) S), ``transfer`` (diag(phase_avg) @
    proj_kron) and ``resolvent`` (I - transfer) are built afresh on every
    access, for the SVD and eigenvalue routines and the dense test oracles
    that need them, and refused with DenseSizeError above DENSE_MAX_BYTES.
    """

    dim: int
    energies: np.ndarray
    phase_avg: np.ndarray
    phase_avg_t: np.ndarray
    phase_avg_tt: np.ndarray
    p_detect: np.ndarray
    source_vec: np.ndarray
    is_return: bool

    def __post_init__(self):
        for name in ("energies", "phase_avg", "phase_avg_t", "phase_avg_tt",
                     "p_detect", "source_vec"):
            arr = np.asarray(getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    def survive(self, v: np.ndarray) -> np.ndarray:
        """(S (x) S) v, computed as S X S^T = X - p r^T - (c - s p) p^T.

        X is v reshaped to Nr x Nr, r its column sums, c its row sums and
        s its total.
        """
        p = self.p_detect
        x = v.reshape(self.dim, self.dim)
        r = x.sum(axis=0)
        c = x.sum(axis=1)
        return (x - np.outer(p, r) - np.outer(c - r.sum() * p, p)).ravel()

    @cached_property
    def _solver(self) -> _ResolventSolver:
        return _ResolventSolver(self)

    def _surv(self) -> np.ndarray:
        return np.eye(self.dim) - np.outer(self.p_detect, np.ones(self.dim))

    def _check_dense_budget(self) -> None:
        """Raise DenseSizeError when one complex Nr^2 x Nr^2 array would
        take more than DENSE_MAX_BYTES; called before allocating one."""
        nbytes = 16 * self.dim**4
        if nbytes > DENSE_MAX_BYTES:
            raise DenseSizeError(
                f"a dense Nr^2 x Nr^2 matrix at Nr={self.dim} needs {nbytes} bytes, "
                f"over the {DENSE_MAX_BYTES}-byte budget")

    @property
    def proj_kron(self) -> np.ndarray:
        self._check_dense_budget()
        surv = self._surv()
        return np.kron(surv, surv)

    @property
    def transfer(self) -> np.ndarray:
        """diag(phase_avg) @ proj_kron in Fortran order: the transpose is
        built complex and scaled in place, so no other Nr^4 array is made."""
        self._check_dense_budget()
        surv_t = np.ascontiguousarray(self._surv().T, dtype=complex)
        t = np.kron(surv_t, surv_t)
        t *= self.phase_avg
        return t.T

    @property
    def resolvent(self) -> np.ndarray:
        """I - transfer in Fortran order, made in place from ``transfer``."""
        j = self.transfer
        np.negative(j, out=j)
        j[np.diag_indices_from(j)] += 1.0
        return j


@dataclass(frozen=True)
class DetectionStatistics:
    """Conditional first-detection moments plus solver diagnostics.

    ``condition`` estimates cond_1 of the resolvent; ``backend`` names the
    solver (``"structured"`` or ``"pinv"``) and ``residual`` is the relative
    residual ||b - J x|| / ||b|| (2-norms) of the first solve.
    """

    p_det: float
    n_mean: float
    n_sq: float
    t_mean: float
    t_sq: float
    n_var: float
    t_var: float
    condition: float
    reduced_dim: int
    backend: str
    residual: float

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ZeroModeCensus:
    """Eigenvalue census of the transfer matrix.

    ``slowest_decay`` is the Perron root (real, im = 0); ``structural``
    is True when ``n_zero`` is the structural count 2 Nr - 1 rather than
    a count of computed eigenvalues.
    """

    n_zero: int
    n_nonzero: int
    slowest_decay: complex
    structural: bool


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the universal moment identities."""

    is_return: bool
    t_residual: float
    t_sq_residual: float | None
    tolerance: float
    passed: bool


def build_superops(spec: SpectralData, dist: IntervalDistribution) -> SuperoperatorSet:
    """Assemble the averaged superoperators for one spectral problem."""
    e = spec.energies
    n = len(e)
    diff = e[:, None] - e[None, :]                    # E_j - E_k
    phase = np.asarray(dist.charfn(diff), dtype=complex).ravel()
    phase_t = np.asarray(dist.weighted_charfn(diff, 1), dtype=complex).ravel()
    phase_tt = np.asarray(dist.weighted_charfn(diff, 2), dtype=complex).ravel()
    source = (spec.cross_amp.conj()[:, None] * spec.cross_amp[None, :]).ravel()
    return SuperoperatorSet(
        dim=n,
        energies=e.copy(),
        phase_avg=phase,
        phase_avg_t=phase_t,
        phase_avg_tt=phase_tt,
        p_detect=spec.p_detect.copy(),
        source_vec=source,
        is_return=spec.is_return_problem(),
    )


def fn_series(sset: SuperoperatorSet, n_max: int) -> np.ndarray:
    """Averaged detection probabilities <F_1> .. <F_n_max>.

    Iterates the transfer map against the rank-one source, so each step
    costs one structured survival product, O(Nr^2).  The
    entries are real up to roundoff; the raw real parts are returned
    without clamping.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    v = sset.phase_avg * sset.source_vec
    out = np.empty(n_max)
    for i in range(n_max):
        out[i] = v.sum().real
        if i + 1 < n_max:
            v = sset.phase_avg * sset.survive(v)
    return out


def _resolvent_norm1(sset: SuperoperatorSet) -> float:
    """||J||_1 exactly in O(Nr^3): the column (l, m) of J = I - diag(phi)
    (S (x) S) sums to (|S|^T |phi| |S|)_lm - |t_lm| + |1 - t_lm|, where
    t_lm = phi_lm S_ll S_mm is its diagonal entry of the transfer matrix."""
    n = sset.dim
    surv = sset._surv()
    phi = sset.phase_avg.reshape(n, n)
    t = phi * np.outer(surv.diagonal(), surv.diagonal())
    a = np.abs(surv)
    cols = a.T @ np.abs(phi) @ a - np.abs(t) + np.abs(1.0 - t)
    return float(cols.max())


def _unit(y: np.ndarray) -> np.ndarray:
    """y / |y| entrywise, 1 where |y| is below the smallest normal number."""
    mag = np.abs(y)
    tiny = mag <= np.finfo(float).tiny
    return np.where(tiny, 1.0, y / np.where(tiny, 1.0, mag))


def _inverse_norm1_estimate(solve, solve_adjoint, n: int, itmax: int = 5) -> float:
    """Lower bound on ||A^-1||_1 from solves with A and A^H.

    The Hager-Higham iteration with one column (Higham, ACM TOMS 14, 1988)
    as LAPACK's zlacn2 runs it: at most ``itmax`` solve pairs plus one
    solve with the alternating-sign vector, deterministic.  Unlike zlacn2,
    the estimate never drops below a value already found.
    """
    y = solve(np.full(n, 1.0 / n))
    est = np.abs(y).sum()
    if n == 1:
        return float(est)
    j = int(np.argmax(np.abs(solve_adjoint(_unit(y)))))
    for _ in range(itmax - 1):
        e = np.zeros(n)
        e[j] = 1.0
        y = solve(e)
        est_new = np.abs(y).sum()
        if not est_new > est:
            break
        est = est_new
        z = np.abs(solve_adjoint(_unit(y)))
        j_last, j = j, int(np.argmax(z))
        if z[j_last] == z[j]:
            break
    alt = np.where(np.arange(n) % 2 == 0, 1.0, -1.0) * (1.0 + np.arange(n) / (n - 1))
    return float(np.maximum(est, 2.0 * np.abs(solve(alt)).sum() / (3 * n)))


class _ResolventSolver:
    """Solves J x = b and J^H y = b from one factorization, and watches cond_1(J).

    J x = b is X - phi o (S X S^T) = B for S = I - p 1^T.  With r and c the
    column and row sums of X and s its total, S X S^T = X - p r^T - c p^T
    + s p p^T.  The diagonal equations (phi_jj = 1) read r + c - s p = g,
    g = diag(B)/p, which eliminates c; off the diagonal X_jk = Bt_jk - W_jk
    (p_j r_k + (g_j - r_j) p_k), with W = phi/(1 - phi) and Bt = B/(1 - phi)
    (both 0 on the diagonal).  Summing those into r - c, in which diag(X)
    cancels, leaves one (Nr+1) bordered system for (r, s), factored once
    here in O(Nr^3); each solve is then O(Nr^2), and diag(X) follows from r.

    The adjoint needs no second factor: S^T = diag(p)^-1 S diag(p), so with
    q = p (x) p and K = S (x) S, q o conj(J^H y) = (I - K diag(phi))^-1
    (q o conj b), and (I - K diag(phi))^-1 = I + K J^-1 diag(phi) gives
    y = b + conj(K J^-1 (phi o q o conj b) / q): one forward solve and one
    survival product, dividing by q and never by phi.

    ``condition`` estimates cond_1(J) as the exact ||J||_1 times the
    Hager-Higham estimate of ||J^-1||_1; it is inf when the estimate is not
    finite or the bordered system cannot be formed (some phi_jk = 1 off the
    diagonal, or some p_j = 0), and in that last case nothing is factored.
    """

    backend = "structured"

    def __init__(self, sset: SuperoperatorSet):
        # weak: the set caches this solver, and a cycle would keep every
        # dead set alive until the cyclic garbage collector runs
        self._sset = weakref.proxy(sset)
        n, p = sset.dim, sset.p_detect
        phi = sset.phase_avg.reshape(n, n)
        m = np.empty((n + 1, n + 1), dtype=complex)
        with np.errstate(all="ignore"):           # a pole 1 - phi_jk = 0 gives inf
            self._inv_gap = 1.0 / (1.0 - phi)
            np.fill_diagonal(self._inv_gap, 0.0)
            self._w = w = phi * self._inv_gap
            self._w_p = w @ p
            m[:n, :n] = -(p[:, None] * (w + w.T))
            m[:n, :n][np.diag_indices(n)] += 2.0 + p @ w + self._w_p
        m[:n, n] = -p
        m[n, :n] = 1.0
        m[n, n] = -1.0
        self.condition = np.inf
        if np.isfinite(m).all() and np.all(p != 0):
            self._q = np.outer(p, p).ravel()
            self._lu = lu_factor(m, check_finite=False)
            with np.errstate(all="ignore"):
                est = _inverse_norm1_estimate(self.solve, self.solve_adjoint, n * n)
            if np.isfinite(est):
                self.condition = _resolvent_norm1(sset) * est

    def solve(self, b: np.ndarray) -> np.ndarray:
        n, p, w = self._sset.dim, self._sset.p_detect, self._w
        b = b.reshape(n, n)
        bt = b * self._inv_gap
        g = b.diagonal() / p
        rhs = np.zeros(n + 1, dtype=complex)
        rhs[:-1] = bt.sum(axis=0) - bt.sum(axis=1) + g * (1.0 + self._w_p) - p * (g @ w)
        r = lu_solve(self._lu, rhs, check_finite=False)[:-1]
        x = bt - w * (np.outer(p, r) + np.outer(g - r, p))
        x[np.diag_indices(n)] = r - x.sum(axis=0)       # x_jj is still 0 here
        return x.ravel()

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        sset, q = self._sset, self._q
        z = sset.survive(self.solve(sset.phase_avg * q * b.conj()))
        return b + (z / q).conj()


class _PseudoInverseSolver:
    """Solves J x = b by a truncated-SVD pseudo-inverse of the dense J
    (cutoff PINV_RTOL relative); ``condition`` is s_max / s_min."""

    backend = "pinv"

    def __init__(self, sset: SuperoperatorSet):
        u, s, vh = np.linalg.svd(sset.resolvent)
        keep = s > PINV_RTOL * s[0]
        self._pinv = (vh[keep].conj().T / s[keep]) @ u[:, keep].conj().T
        self.condition = float(s[0] / s[-1]) if s[-1] > 0 else np.inf

    def solve(self, b: np.ndarray) -> np.ndarray:
        return self._pinv @ b


def _exceptional_pairs(sset: SuperoperatorSet, cond_limit: float):
    """Off-diagonal energy pairs whose averaged phase factor is near 1.

    A pair with charfn(E_j - E_k) -> 1 makes the resolvent singular.  At a
    fixed interval the condition grows like c / |1 - phi|^2 (c measured at
    1-14 on rings up to Nr=21), so the gate ``cond_limit`` fires while
    |1 - phi| is still ~1e-6; pairs within sqrt(EXCEPTIONAL_COND_SCALE /
    cond_limit) of 1 are named, closest first, as ``(j, k, |phi|)``.
    """
    n = sset.dim
    gap = np.abs(1.0 - sset.phase_avg).reshape(n, n)
    np.fill_diagonal(gap, np.inf)
    j, k = np.nonzero(gap <= np.sqrt(EXCEPTIONAL_COND_SCALE / cond_limit))
    order = np.argsort(gap[j, k], kind="stable")
    mag = np.abs(sset.phase_avg).reshape(n, n)
    return [(int(a), int(b), float(mag[a, b])) for a, b in zip(j[order], k[order])]


def detection_stats(sset: SuperoperatorSet, dist: IntervalDistribution,
                    pseudo_inverse: bool = False,
                    cond_limit: float = DEFAULT_COND_LIMIT) -> DetectionStatistics:
    """Total detection probability and conditional attempt/time moments.

    All moments come from repeated solves against the resolvent applied to
    the rank-one source; explicit inverses are never formed.  Every moment
    is normalized by the detection probability, so the results are
    conditioned on eventual detection.

    Raises IllConditionedError when the estimated condition number exceeds
    ``cond_limit`` (typically at an exceptional fixed probing period or a
    near-degenerate spectrum), unless ``pseudo_inverse`` is set, in which
    case a truncated-SVD pseudo-inverse is used instead.  Raises
    MomentOverflowError, naming the first moment that is not finite, when
    a moment overflows a double although the interval law's do not.
    """
    solver = _PseudoInverseSolver(sset) if pseudo_inverse else sset._solver
    if solver.condition > cond_limit and not pseudo_inverse:
        j = int(np.argmin(sset.p_detect))
        raise IllConditionedError(solver.condition, _exceptional_pairs(sset, cond_limit),
                                  p_min=float(sset.p_detect[j]), p_min_index=j)

    src = sset.phase_avg * sset.source_vec
    f1 = solver.solve(src)                # geometric sum of the series
    p_det = float(f1.sum().real)
    if p_det < PDET_FLOOR:
        raise DegenerateProblemError(
            "detection probability vanishes: the initial state has no overlap "
            "with the bright subspace, so conditional moments are undefined"
        )
    residual = np.linalg.norm(src - f1 + sset.phase_avg * sset.survive(f1))
    f2 = solver.solve(f1)                 # n-weighted sum
    f3 = solver.solve(f2)                 # enters the n^2-weighted sum
    n_mean = float(f2.sum().real) / p_det
    n_sq = float((2.0 * f3.sum() - f2.sum()).real) / p_det

    surv_f1 = sset.survive(f1)
    with np.errstate(over="ignore", invalid="ignore"):    # checked below
        g = solver.solve(sset.phase_avg_t * (surv_f1 + sset.source_vec))
        t_mean = float(g.sum().real) / p_det
        h = solver.solve(
            sset.phase_avg_tt * (surv_f1 + sset.source_vec)
            + 2.0 * sset.phase_avg_t * sset.survive(g)
        )
        t_sq = float(h.sum().real) / p_det

    moments = {"p_det": p_det, "n_mean": n_mean, "n_sq": n_sq, "t_mean": t_mean,
               "t_sq": t_sq, "n_var": n_sq - n_mean * n_mean,
               "t_var": t_sq - t_mean * t_mean}    # float * overflows to inf, ** raises
    for name, value in moments.items():
        if not math.isfinite(value):
            raise MomentOverflowError(
                f"{name} = {value} is not finite in double precision; the interval "
                f"scale (mean {dist.mean:.3e}) is too large for this model, rescale time")
    return DetectionStatistics(
        **moments,
        condition=solver.condition,
        reduced_dim=sset.dim,
        backend=solver.backend,
        residual=float(residual / np.linalg.norm(src)),
    )


def zero_mode_census(sset: SuperoperatorSet,
                     tol: float = DEFAULT_ZERO_TOL) -> ZeroModeCensus:
    """Count zero modes of the transfer matrix T and find its slowest decay.

    The spectral radius rho of T sets the asymptotic decay rate of the
    averaged detection series.  T is similar, through diag(sqrt p) (x)
    diag(sqrt p), to a completely positive map, so rho is itself an
    eigenvalue (Evans and Hoegh-Krohn, J. London Math. Soc. 17, 1978);
    since |1 - lam| >= 1 - |lam| >= 1 - rho, it is also the eigenvalue
    nearest 1.  ``slowest_decay`` is rho, real, on both branches.

    Up to ``DENSE_CENSUS_MAX_DIM``, or when the structured solve cannot be
    formed, dense ``eigvals`` of T counts the eigenvalues with |lam| <
    ``tol`` as zero modes.  Above it, shift-invert Arnoldi at sigma = 1
    finds rho with OPinv = (T - I)^-1 = -J^-1, the O(Nr^2) structured
    solve, and ``n_zero`` is the structural 2 Nr - 1: the nullity of T,
    since rank(S (x) S) = (Nr - 1)^2 and no interval law gives phi = 0.
    ``tol`` does not apply on that branch.  Raises ConvergenceError when
    Arnoldi does not converge or its Ritz value nearest 1 is not a real
    eigenvalue of largest modulus among those returned.
    """
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    n = sset.dim
    if n <= DENSE_CENSUS_MAX_DIM or not np.isfinite(sset._solver.condition):
        mags = np.abs(np.linalg.eigvals(sset.transfer))
        n_zero = int(np.sum(mags < tol))
        return ZeroModeCensus(n_zero=n_zero, n_nonzero=mags.size - n_zero,
                              slowest_decay=complex(mags.max()), structural=False)

    # imported here: scipy.sparse.linalg adds ~40 ms to every command's start
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigs
    m = n * n
    transfer = LinearOperator((m, m), dtype=complex,
                              matvec=lambda x: sset.phase_avg * sset.survive(x))
    shift_inverse = LinearOperator((m, m), dtype=complex,
                                   matvec=lambda x: -sset._solver.solve(x))
    try:
        ritz = eigs(transfer, k=3, sigma=1.0, OPinv=shift_inverse,
                    v0=np.ones(m, dtype=complex), return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceError(f"shift-invert Arnoldi did not converge at Nr={n}") from exc
    rho = ritz[np.argmin(np.abs(ritz - 1.0))]
    # a peripheral eigenvalue rho e^(i theta) may tie |rho| up to roundoff
    if not (abs(rho.imag) <= 1e-8 * abs(rho) and np.abs(ritz).max() <= abs(rho) * (1 + 1e-10)):
        raise ConvergenceError(
            f"shift-invert Arnoldi at Nr={n} gave Ritz values {ritz.tolist()}: the one "
            f"nearest 1 is not a real eigenvalue of largest modulus")
    n_zero = 2 * n - 1
    return ZeroModeCensus(n_zero=n_zero, n_nonzero=m - n_zero,
                          slowest_decay=complex(rho.real), structural=True)


def universal_identity_check(sset: SuperoperatorSet,
                             dist: IntervalDistribution,
                             pseudo_inverse: bool = False) -> IdentityReport:
    """Residuals of the distribution-free moment identities.

    The mean detection time always equals the mean interval times the mean
    attempt number.  For the return problem the second moments are tied as
    well: t-second-moment = mean^2 * n-second-moment + Nr * Var[tau].
    """
    stats = detection_stats(sset, dist, pseudo_inverse=pseudo_inverse)
    t_res = abs(stats.t_mean - dist.mean * stats.n_mean)
    t_sq_res = None
    if sset.is_return:
        t_sq_res = abs(
            stats.t_sq - dist.mean**2 * stats.n_sq - sset.dim * dist.variance
        )
    tol = 1e-8 * max(1.0, stats.t_sq)
    passed = t_res <= tol and (t_sq_res is None or t_sq_res <= tol)
    return IdentityReport(
        is_return=sset.is_return,
        t_residual=t_res,
        t_sq_residual=t_sq_res,
        tolerance=tol,
        passed=passed,
    )
