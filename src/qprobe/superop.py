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
inverted in O(Nr^3) and solved in O(Nr^2).  That system is real, since
a characteristic function has phi(-delta) = conj(phi(delta)), so it is
inverted and applied in real arithmetic.  A superoperator set inverts
it at most once: the moments, the adjoint solves (by the similarity
S^T = diag(p)^-1 S diag(p), with no second inverse), the condition gate
(an exact 1-norm, O(Nr^2) from the rank-one-plus-diagonal |S|, times a
Hager-Higham estimate of the inverse 1-norm) and the zero-mode census
all share that one solver, the only pair-space operator applied.
p_det and the first moments take three solves and the second moments
two more, which a caller that prints no second moment (a sweep without
n_sq and t_sq) skips.  The census finds the slowest decay rate, the Perron
root of the transfer map and its eigenvalue nearest 1, as 1 + 1/nu for
the dominant eigenvalue nu of -J^-1.  The Nr^2 x Nr^2 matrices are formed
only for the census of small sets (Nr <= 12) and the dense test oracles,
and never above a 1 GiB budget.  At an exceptional fixed period,
levels sharing an eigenphase of U(tau) are merged, so the same solve
works in the eigenspaces of U(tau).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (ConvergenceError, DegenerateProblemError, DenseSizeError,
                     IllConditionedError, MomentOverflowError)
from .intervals import FixedInterval, IntervalDistribution
from .model import DENSE_MAX_BYTES, PDET_FLOOR, SpectralData

DEFAULT_COND_LIMIT = 1e12
DEFAULT_ZERO_TOL = 1e-8
EXCEPTIONAL_COND_SCALE = 1e4
DENSE_CENSUS_MAX_DIM = 12          # dense eigvals up to a 144^2 transfer matrix
NORM1_ITMAX = 5                    # zlacn2's ITMAX: solve pairs of the 1-norm estimate
ARNOLDI_NEV = 3                    # Ritz values checked, so a peripheral tie beside rho shows
ARNOLDI_NCV = 20                   # basis vectors, ARPACK's default at 3 eigenvalues
ARNOLDI_KEEP = 10                  # Ritz vectors a thick restart keeps
ARNOLDI_MAX_RESTARTS = 50         # 6 at most on rings L <= 120, fixed, exp and gamma laws
ARNOLDI_ROTATE_COLS = 1 << 14      # columns rotated at once: 10 x 16384 complex, 2.6 MB
PHASE_MERGE_TOL = 1e-12            # |1 - phi_jk| at one eigenphase of U(tau): <= 19 eps, rings L <= 41


def _survive(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """S X S^T = X - p r^T - (c - s p) p^T for S = I - p 1^T, on an Nr x Nr
    matrix X with column sums r, row sums c and total s."""
    r = x.sum(axis=0)
    c = x.sum(axis=1)
    return x - np.outer(p, r) - np.outer(c - r.sum() * p, p)


def _dense_survival(p: np.ndarray) -> np.ndarray:
    """S = I - p 1^T as a dense Nr x Nr matrix."""
    n = len(p)
    return np.eye(n) - np.outer(p, np.ones(n))


@dataclass(frozen=True)
class SuperoperatorSet:
    """Superoperator ingredients for one (model, interval density) pair.

    ``phase_avg`` / ``phase_avg_t`` / ``phase_avg_tt`` are the diagonals
    (length Nr^2) of the interval-averaged pair propagator, weighted by
    tau^0, tau^1, tau^2; ``p_detect`` the detection weights p_j of the
    post-measurement survival map S = I - p 1^T; ``source_vec`` the
    rank-one source conj(amp_j) * amp_k feeding every trace.

    Only these O(Nr^2) arrays are stored, plus the structured resolvent
    solver, built on first use and shared by every later solve on the
    set.  ``survive`` applies S (x) S in O(Nr^2); the dense Nr^2 x Nr^2
    matrices ``proj_kron`` (S (x) S), ``transfer`` (diag(phase_avg) @
    proj_kron) and ``resolvent`` (I - transfer) are built afresh on every
    access, for the small census and the dense test oracles that need
    them, and refused with DenseSizeError above DENSE_MAX_BYTES.
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
        """(S (x) S) v for a flat pair vector v, as S X S^T on X = v
        reshaped to Nr x Nr."""
        return _survive(self.p_detect, v.reshape(self.dim, self.dim)).ravel()

    @cached_property
    def _solver(self) -> _ResolventSolver:
        return _ResolventSolver(self.p_detect, self.phase_avg.reshape(self.dim, self.dim))

    def _check_dense_budget(self) -> None:
        """Raise DenseSizeError when a complex Nr^2 x Nr^2 array would take
        more than DENSE_MAX_BYTES; called before allocating it."""
        nbytes = 16 * self.dim**4
        if nbytes > DENSE_MAX_BYTES:
            raise DenseSizeError(
                f"a dense Nr^2 x Nr^2 array at Nr={self.dim} needs {nbytes} bytes, "
                f"over the {DENSE_MAX_BYTES}-byte budget")

    @property
    def proj_kron(self) -> np.ndarray:
        self._check_dense_budget()
        surv = _dense_survival(self.p_detect)
        return np.kron(surv, surv)

    @property
    def transfer(self) -> np.ndarray:
        """diag(phase_avg) @ proj_kron in Fortran order: the transpose is
        built complex and scaled in place, so no other Nr^4 array is made."""
        self._check_dense_budget()
        surv_t = np.ascontiguousarray(_dense_survival(self.p_detect).T, dtype=complex)
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
    solver, always ``"structured"``, and ``residual`` is the relative
    residual ||b - J x|| / ||b|| (2-norms) of the first solve.
    ``reduced_dim`` is the set's ``dim``, the levels solved in.  The
    second moments and variances are None when ``detection_stats`` was
    asked for the first moments only.
    """

    p_det: float
    n_mean: float
    n_sq: float | None
    t_mean: float
    t_sq: float | None
    n_var: float | None
    t_var: float | None
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
    is True when ``n_zero`` is the structural count 2 Nr - 1 of the
    shift-invert Arnoldi branch rather than a count of dense eigenvalues;
    ``solves`` counts the structured solves Arnoldi took (0 when dense).
    """

    n_zero: int
    n_nonzero: int
    slowest_decay: complex
    structural: bool
    solves: int


@dataclass(frozen=True)
class IdentityReport:
    """Residuals of the universal moment identities."""

    is_return: bool
    t_residual: float
    t_sq_residual: float | None
    tolerance: float
    passed: bool


def build_superops(spec: SpectralData, dist: IntervalDistribution) -> SuperoperatorSet:
    """Assemble the averaged superoperators for one spectral problem.

    phi and its tau-weighted forms come from one power per pair
    (``dist._phase_factors``).  Under a fixed interval, levels with phi_jk
    = exp(i (E_j - E_k) tau) within PHASE_MERGE_TOL of 1 are one eigenspace
    of U(tau) and one level of the set (``dim`` < Nr): weights p and cross
    amplitudes add, and the first member's energy stands for all.  Other
    laws have |phi_jk| < 1.
    """
    e = spec.energies
    phase, phase_t, phase_tt = dist._phase_factors(e[:, None] - e[None, :])   # E_j - E_k
    p, amp = spec.p_detect.copy(), spec.cross_amp
    if isinstance(dist, FixedInterval):
        keep, group = np.unique(np.argmax(np.abs(1.0 - phase) <= PHASE_MERGE_TOL, axis=1),
                                return_inverse=True)
        if len(keep) < len(e):
            e, ix = e[keep], np.ix_(keep, keep)
            phase, phase_t, phase_tt = phase[ix], phase_t[ix], phase_tt[ix]
            p = np.bincount(group, weights=p)
            amp = np.bincount(group, weights=amp.real) + 1j * np.bincount(group, weights=amp.imag)
    return SuperoperatorSet(
        dim=len(e),
        energies=e.copy(),
        phase_avg=phase.ravel(),
        phase_avg_t=phase_t.ravel(),
        phase_avg_tt=phase_tt.ravel(),
        p_detect=p,
        source_vec=(amp.conj()[:, None] * amp[None, :]).ravel(),
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


def _resolvent_norm1(p: np.ndarray, phi: np.ndarray) -> float:
    """||J||_1 exactly in O(Nr^2): the column (l, m) of J = I - diag(phi)
    (S (x) S) sums to (|S|^T |phi| |S|)_lm - |t_lm| + |1 - t_lm|, where
    t_lm = phi_lm S_ll S_mm is its diagonal entry of the transfer matrix.
    |S| = p 1^T + diag(d), with d = |1 - p| - p, so the triple product is
    p^T |phi| p + d_l (|phi| p)_l + d_m (p^T |phi|)_m + d_l d_m |phi_lm|."""
    s_diag = 1.0 - p
    d = np.abs(s_diag) - p
    mag = np.abs(phi)
    mag_p, p_mag = mag @ p, p @ mag
    t = phi * np.multiply.outer(s_diag, s_diag)
    cols = mag * np.multiply.outer(d, d)
    cols += (p_mag @ p + d * p_mag) + (d * mag_p)[:, None]
    cols += np.abs(1.0 - t) - np.abs(t)
    return float(cols.max())


def _unit(y: np.ndarray) -> np.ndarray:
    """y / |y| entrywise, 1 where |y| is below the smallest normal number;
    run under the solver's errstate, which hides the 0/0 it overwrites."""
    mag = np.abs(y)
    u = y / mag
    u[mag <= np.finfo(float).tiny] = 1.0
    return u


def _inverse_norm1_estimate(solve, solve_adjoint, n: int) -> float:
    """Lower bound on ||A^-1||_1 from solves with A and A^H.

    The Hager-Higham iteration with one column (Higham, ACM TOMS 14, 1988)
    as LAPACK's zlacn2 runs it: at most NORM1_ITMAX solve pairs plus one
    solve with the alternating-sign vector, deterministic.  Unlike zlacn2,
    the estimate never drops below a value already found.
    """
    y = solve(np.full(n, 1.0 / n))
    est = np.abs(y).sum()
    if n == 1:
        return float(est)
    j = int(np.argmax(np.abs(solve_adjoint(_unit(y)))))
    for _ in range(NORM1_ITMAX - 1):
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
    alt = 1.0 + np.arange(n) / (n - 1)
    alt[1::2] *= -1.0
    return float(np.maximum(est, 2.0 * np.abs(solve(alt)).sum() / (3 * n)))


class _ResolventSolver:
    """Solves J x = b and J^H y = b from one small real inverse, and watches cond_1(J).

    J x = b is X - phi o (S X S^T) = B for S = I - p 1^T.  With r and c the
    column and row sums of X and s its total, S X S^T = X - p r^T - c p^T
    + s p p^T.  The diagonal equations (phi_jj = 1) read r + c - s p = g,
    g = diag(B)/p, which eliminates c; off the diagonal X_jk = Bt_jk - W_jk
    (p_j r_k + (g_j - r_j) p_k), with W = phi/(1 - phi) and Bt = B/(1 - phi)
    (both 0 on the diagonal).  Summing those into r - c, in which diag(X)
    cancels, leaves one (Nr+1) bordered system M (r, s) = (h, 0), inverted
    once here in O(Nr^3).  M is real: phi is a characteristic function, so
    phi_kj = conj(phi_jk), W^T = conj(W), and M holds only W + W^T = 2 Re W
    and p^T W + W p = 2 Re(W p); its imaginary part is rounding, at most
    1e-14 max|M| on rings and dense complex models.  So M and M^-1 are kept
    real, and a complex h is solved as the two real columns of its (Nr, 2)
    view, at half the cost of a complex inverse and a quarter of a complex
    product.  A solve takes (r, s) from M^-1 in O(Nr^2) and diag(X) from r,
    with one step of iterative refinement against M: a computed inverse
    has an LU solve's forward error, but its residual can be far larger
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    sec. 14.1), 1e4-fold for J at near-exceptional gamma laws.

    The adjoint needs no second inverse: S^T = diag(p)^-1 S diag(p), so with
    q = p (x) p and K = S (x) S, q o conj(J^H y) = (I - K diag(phi))^-1
    (q o conj b), and (I - K diag(phi))^-1 = I + K J^-1 diag(phi) gives
    y = b + conj(K J^-1 (phi o q o conj b) / q): one forward solve and one
    survival product, dividing by q and never by phi.

    ``condition`` estimates cond_1(J) as the exact ||J||_1 times the
    Hager-Higham estimate of ||J^-1||_1; it is inf when the estimate is not
    finite or the bordered system cannot be formed (some phi_jk = 1 off the
    diagonal, or some p_j = 0) or is singular, and then nothing is inverted.
    It holds no reference to the set that caches it, so they form no cycle.
    """

    backend = "structured"

    def __init__(self, p: np.ndarray, phi: np.ndarray):
        n = len(p)
        self._n = n
        self._p = pc = p.astype(complex)          # every product with p is complex
        self.condition = np.inf
        with np.errstate(all="ignore"):           # a pole 1 - phi_jk = 0 gives inf
            self._inv_gap = 1.0 / (1.0 - phi)
            self._inv_gap.ravel()[::n + 1] = 0.0
            w = phi * self._inv_gap
            self._w_pj, self._w_pk = w * pc[:, None], w * pc    # W_jk p_j and W_jk p_k
            w_p = w @ pc
            self._one_w_p = 1.0 + w_p
            w_re = w.real
            m = np.empty((n + 1, n + 1))
            np.add(w_re, w_re.T, out=m[:n, :n])
            m[:n, :n] *= -p[:, None]
            m.ravel()[:n * (n + 2):n + 2] += 2.0 + p @ w_re + w_p.real
            m[:n, n] = -p
            m[n, :n] = 1.0
            m[n, n] = -1.0
            if not (np.isfinite(m).all() and np.isfinite(w).all() and np.all(p != 0)):
                return
            try:
                inv = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                return
            # M^-1 without its border column, which meets the 0 of (h, 0), and
            # without its border row, which no refinement needs; -M for the residual
            self._inv_h, self._inv_r, self._neg_m = inv[:, :-1], inv[:-1], -m
            self._q = q = np.multiply.outer(p, p)
            self._phi_q = phi * q
            est = _inverse_norm1_estimate(self.solve, self.solve_adjoint, n * n)
            if np.isfinite(est):
                self.condition = _resolvent_norm1(p, phi) * est

    def solve(self, b: np.ndarray) -> np.ndarray:
        n = self._n
        b = b.reshape(n, n)
        x = b * self._inv_gap                           # Bt, then X in place
        g = b.diagonal() / self._p
        h = np.add.reduce(x, 0)                         # x.sum(axis=0) without its wrapper
        h -= np.add.reduce(x, 1)
        h += g * self._one_w_p
        h -= g @ self._w_pk
        h2 = h.view(float).reshape(n, 2)                # real and imaginary columns
        y = self._inv_h @ h2                            # M^-1 (h, 0)
        res = self._neg_m @ y                           # one refinement step
        res[:-1] += h2
        y = y[:-1]
        y += self._inv_r @ res
        r = y.view(complex).ravel()
        x -= self._w_pj * r
        x -= (g - r)[:, None] * self._w_pk
        x.ravel()[::n + 1] = r - np.add.reduce(x, 0)    # x_jj is still 0 here
        return x.ravel()

    def solve_adjoint(self, b: np.ndarray) -> np.ndarray:
        n = self._n
        b = b.reshape(n, n)
        y = _survive(self._p, self.solve(self._phi_q * b.conj()).reshape(n, n))
        y /= self._q
        np.conjugate(y, out=y)
        y += b
        return y.ravel()


def _exceptional_pairs(sset: SuperoperatorSet):
    """Off-diagonal energy pairs whose averaged phase factor is near 1.

    A pair with charfn(E_j - E_k) -> 1 makes the resolvent singular.  At a
    fixed interval the condition grows like c / |1 - phi|^2 (c measured at
    1-14 on rings up to Nr=21), so the gate DEFAULT_COND_LIMIT fires while
    |1 - phi| is still ~1e-6; pairs within sqrt(EXCEPTIONAL_COND_SCALE /
    DEFAULT_COND_LIMIT) of 1 are named, closest first, as ``(j, k, |phi|)``.
    """
    n = sset.dim
    gap = np.abs(1.0 - sset.phase_avg).reshape(n, n)
    np.fill_diagonal(gap, np.inf)
    j, k = np.nonzero(gap <= np.sqrt(EXCEPTIONAL_COND_SCALE / DEFAULT_COND_LIMIT))
    order = np.argsort(gap[j, k], kind="stable")
    mag = np.abs(sset.phase_avg).reshape(n, n)
    return [(int(a), int(b), float(mag[a, b])) for a, b in zip(j[order], k[order])]


def detection_stats(sset: SuperoperatorSet, dist: IntervalDistribution, *,
                    second_moments: bool = True) -> DetectionStatistics:
    """Total detection probability and conditional attempt/time moments.

    All moments come from repeated solves against the resolvent applied to
    the rank-one source; no Nr^2 x Nr^2 inverse is formed.  Every moment
    is normalized by the detection probability, so the results are
    conditioned on eventual detection.  p_det and the first moments take
    three solves, the second moments two more and a survival product;
    with ``second_moments=False`` (a sweep that prints neither n_sq nor
    t_sq) those are skipped and n_sq, t_sq, n_var and t_var are None.

    Raises IllConditionedError when the estimated condition number exceeds
    DEFAULT_COND_LIMIT = 1e12 (typically near an exceptional fixed probing
    period or at a near-degenerate spectrum).  Raises DegenerateProblemError
    when p_det vanishes, and MomentOverflowError, naming the first moment
    computed that is not finite, when a moment overflows a double although
    the interval law's do not.
    """
    solver = sset._solver
    if solver.condition > DEFAULT_COND_LIMIT:
        j = int(np.argmin(sset.p_detect))
        raise IllConditionedError(solver.condition, _exceptional_pairs(sset),
                                  float(sset.p_detect[j]), j)

    total = np.add.reduce                 # .sum() without its Python wrapper
    src = sset.phase_avg * sset.source_vec
    f1 = solver.solve(src)                # geometric sum of the series
    p_det = float(total(f1).real)
    if p_det < PDET_FLOOR:
        # p_det is the bright weight sum |a_j|^2 / p_j (p_j > 0 past the gate)
        bright_weight = float((sset.source_vec.real[::sset.dim + 1] / sset.p_detect).sum())
        raise DegenerateProblemError(
            f"detection probability vanishes: the initial state has no overlap with the bright "
            f"subspace (bright weight {bright_weight:.6g}), so conditional moments are undefined")
    surv_f1 = sset.survive(f1)
    residual = np.linalg.norm(src - f1 + sset.phase_avg * surv_f1)
    f2 = solver.solve(f1)                 # n-weighted sum
    f2_sum = total(f2)
    n_mean = float(f2_sum.real) / p_det
    with np.errstate(over="ignore", invalid="ignore"):    # checked below
        surv_src = surv_f1 + sset.source_vec
        g = solver.solve(sset.phase_avg_t * surv_src)
        t_mean = float(total(g).real) / p_det
    moments = {"p_det": p_det, "n_mean": n_mean, "n_sq": None, "t_mean": t_mean,
               "t_sq": None, "n_var": None, "t_var": None}
    if second_moments:
        f3 = solver.solve(f2)             # enters the n^2-weighted sum
        n_sq = float((2.0 * total(f3) - f2_sum).real) / p_det
        with np.errstate(over="ignore", invalid="ignore"):
            h = solver.solve(sset.phase_avg_tt * surv_src
                             + 2.0 * sset.phase_avg_t * sset.survive(g))
            t_sq = float(total(h).real) / p_det
        moments.update(n_sq=n_sq, t_sq=t_sq, n_var=n_sq - n_mean * n_mean,
                       t_var=t_sq - t_mean * t_mean)   # float * overflows to inf, ** raises
    for name, value in moments.items():
        if value is not None and not math.isfinite(value):
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


def _orthogonalize(basis: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Remove from w, in place, its components along the orthonormal rows
    of ``basis`` by classical Gram-Schmidt run twice; returns the summed
    coefficients basis^H w."""
    coef = np.zeros(len(basis), dtype=complex)
    for _ in range(2):
        c = (basis @ w.conj()).conj()
        w -= c @ basis
        coef += c
    return coef


def _dominant_eigenvalues(op, m: int) -> tuple[np.ndarray, int]:
    """The ARNOLDI_NEV eigenvalues of largest modulus of the linear map ``op``
    on C^m, largest first, and the number of ``op`` calls taken.

    Thick-restart Arnoldi (Stewart's Krylov-Schur restart, SIAM J. Matrix
    Anal. Appl. 23, 2001) with ARPACK's defaults: ARNOLDI_NCV basis
    vectors from the all-ones start vector, each step orthogonalized
    twice by classical Gram-Schmidt, and convergence once every wanted
    Ritz pair (theta, y) of the projected matrix H has ||r|| |e_m^T y| <=
    eps |theta|.  A restart keeps ARNOLDI_KEEP dominant Ritz vectors: the
    basis is rotated onto a QR basis Q of them in blocks of columns, and H
    becomes Q^H H Q bordered by the residual's row.  A step whose new
    direction is rounding noise (an invariant subspace) continues from a
    fixed random vector.  Raises ConvergenceError after
    ARNOLDI_MAX_RESTARTS restarts.
    """
    eps = np.finfo(float).eps
    ncv, keep = ARNOLDI_NCV, ARNOLDI_KEEP
    v = np.empty((ncv + 1, m), dtype=complex)
    h = np.zeros((ncv + 1, ncv), dtype=complex)
    v[0] = 1.0 / math.sqrt(m)
    start, calls = 0, 0
    for _ in range(ARNOLDI_MAX_RESTARTS + 1):
        for j in range(start, ncv):
            w = op(v[j])
            calls += 1
            basis, norm_w = v[:j + 1], np.linalg.norm(w)
            h[:j + 1, j] = _orthogonalize(basis, w)
            h[j + 1, j] = beta = np.linalg.norm(w)
            if beta <= eps * norm_w:
                w = np.random.default_rng(j).standard_normal(m).astype(complex)
                _orthogonalize(basis, w)
                h[j + 1, j], beta = 0.0, np.linalg.norm(w)
            v[j + 1] = w / beta
        theta, y = np.linalg.eig(h[:ncv])
        order = np.argsort(-np.abs(theta), kind="stable")
        wanted = order[:ARNOLDI_NEV]
        if np.all(abs(h[ncv, ncv - 1]) * np.abs(y[ncv - 1, wanted])
                  <= eps * np.abs(theta[wanted])):
            return theta[wanted], calls
        q = np.linalg.qr(y[:, order[:keep]])[0]
        for col in range(0, m, ARNOLDI_ROTATE_COLS):
            block = slice(col, col + ARNOLDI_ROTATE_COLS)
            v[:keep, block] = q.T @ v[:ncv, block]
        v[keep] = v[ncv]
        h_kept = np.zeros_like(h)
        h_kept[:keep, :keep] = q.conj().T @ h[:ncv] @ q
        h_kept[keep, :keep] = h[ncv, ncv - 1] * q[ncv - 1]
        h, start = h_kept, keep
    raise ConvergenceError(f"Arnoldi took {ARNOLDI_MAX_RESTARTS} restarts ({calls} solves)")


def zero_mode_census(sset: SuperoperatorSet) -> ZeroModeCensus:
    """Count zero modes of the transfer matrix T and find its slowest decay.

    The spectral radius rho of T sets the asymptotic decay rate of the
    averaged detection series.  T is similar, through diag(sqrt p) (x)
    diag(sqrt p), to a completely positive map, so rho is itself an
    eigenvalue (Evans and Hoegh-Krohn, J. London Math. Soc. 17, 1978);
    since |1 - lam| >= 1 - |lam| >= 1 - rho, it is also the eigenvalue
    nearest 1.  ``slowest_decay`` is rho, real, on both branches.

    Up to ``DENSE_CENSUS_MAX_DIM``, or when the structured solve cannot be
    formed, dense ``eigvals`` of T counts the eigenvalues with |lam| <
    DEFAULT_ZERO_TOL = 1e-8 as zero modes.  Above it, thick-restart
    Arnoldi in numpy (``_dominant_eigenvalues``, with ARPACK's defaults) on
    (T - I)^-1 = -J^-1, the O(Nr^2) structured solve, finds its three
    dominant eigenvalues nu, and lam = 1 + 1/nu (shift-invert at 1), so
    every BLAS call runs on numpy's one thread pool; ``n_zero`` is the
    structural 2 Nr - 1: the nullity of T, since rank(S (x) S) = (Nr - 1)^2
    and no interval law gives phi = 0.  Raises ConvergenceError when
    Arnoldi does not converge within ARNOLDI_MAX_RESTARTS restarts or its
    Ritz value nearest 1 is not a real eigenvalue of largest modulus among
    those returned.
    """
    n = sset.dim
    if n <= DENSE_CENSUS_MAX_DIM or not np.isfinite(sset._solver.condition):
        mags = np.abs(np.linalg.eigvals(sset.transfer))
        n_zero = int(np.sum(mags < DEFAULT_ZERO_TOL))
        return ZeroModeCensus(n_zero=n_zero, n_nonzero=mags.size - n_zero,
                              slowest_decay=complex(mags.max()), structural=False, solves=0)

    m, solve = n * n, sset._solver.solve
    try:
        nu, solves = _dominant_eigenvalues(lambda x: -solve(x), m)
    except ConvergenceError as exc:
        raise ConvergenceError(f"shift-invert Arnoldi did not converge at Nr={n}") from exc
    ritz = 1.0 + 1.0 / nu
    rho = ritz[np.argmin(np.abs(ritz - 1.0))]
    # a peripheral eigenvalue rho e^(i theta) may tie |rho| up to roundoff
    if not (abs(rho.imag) <= 1e-8 * abs(rho) and np.abs(ritz).max() <= abs(rho) * (1 + 1e-10)):
        raise ConvergenceError(
            f"shift-invert Arnoldi at Nr={n} gave Ritz values {ritz.tolist()}: the one "
            f"nearest 1 is not a real eigenvalue of largest modulus")
    n_zero = 2 * n - 1
    return ZeroModeCensus(n_zero=n_zero, n_nonzero=m - n_zero,
                          slowest_decay=complex(rho.real), structural=True, solves=solves)


def universal_identity_check(sset: SuperoperatorSet,
                             dist: IntervalDistribution) -> IdentityReport:
    """Residuals of the distribution-free moment identities.

    The mean detection time always equals the mean interval times the mean
    attempt number.  For the return problem the second moments are tied as
    well: t-second-moment = mean^2 * n-second-moment + Nr * Var[tau].
    """
    stats = detection_stats(sset, dist)
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
