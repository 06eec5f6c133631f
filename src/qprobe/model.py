"""Quantum models and their spectral reduction.

A model is a finite Hermitian Hamiltonian together with an initial state
and a detection state.  The detection machinery never needs the full
Hilbert space: energy eigenstates orthogonal to the detection state
("dark" states) can never be detected and only obstruct the linear
algebra downstream.  ``spectral_reduce`` removes them, keeping one
"bright" state per (nearly) degenerate energy cluster, namely the
normalized projection of the detection state onto that eigenspace.

The reduced data is purely spectral: energies, the squared overlaps of
each bright state with the detection and initial states, and the
cross amplitudes that carry the interference between them.  The bright
states themselves are not kept: no computation reads them.

A Hamiltonian stays real (float64) when it is given real, or complex
with an imaginary part that is exactly zero: every ring, the two-level
model and every real dense config.  Its symmetry is then checked, and
it is diagonalized, in real arithmetic.

A ring needs no L x L matrix and no eigensolver.  Its bright states lie
in the sector even under the reflection x_d + k <-> x_d - k about the
detector, the Hilbert space "symmetrized about the target state", of
dimension floor(L/2) + 1, and there its eigenpairs are known in closed
form: level k = 0 .. floor(L/2) has energy -2 gamma cos(2 pi k / L) and
the cosine eigenvector sqrt(m_k / L) cos(2 pi k (x - x_d) / L), where m_k
is the level's multiplicity in the ring (1 at k = 0 and k = L/2, 2
otherwise).  ``ring_spectrum`` reads the weights p_k = m_k / L and the
initial state's overlaps off those vectors in O(L) time and memory, and
clusters the levels weighted by m_k, so its clusters and energies match
``spectral_reduce(build_ring(...))`` up to rounding.  It keeps
``build_ring``'s L <= 8192 guard only so that both reject the same rings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidModelError

HERMITICITY_TOL = 1e-12
NORM_TOL = 1e-12
DEFAULT_DEGENERACY_TOL = 1e-9
DEFAULT_DARK_TOL = 1e-12
PDET_FLOOR = 1e-14          # detection probability treated as zero
DENSE_MAX_BYTES = 1 << 30   # one complex array: a ring with L <= 8192, a pair space Nr <= 90


def _frozen_array(a) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class QuantumModel:
    """Hermitian Hamiltonian plus unit-norm initial and detection states.

    ``hamiltonian`` is float64 when the input is real or its imaginary
    part is exactly zero, complex otherwise; the states are complex.
    """

    hamiltonian: np.ndarray
    psi_in: np.ndarray
    psi_d: np.ndarray
    label: str = ""

    def __post_init__(self):
        h = np.asarray(self.hamiltonian)
        if np.iscomplexobj(h) and not h.imag.any():
            h = h.real
        h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise InvalidModelError(f"hamiltonian must be square, got shape {h.shape}")
        n = h.shape[0]
        vin = np.asarray(self.psi_in, dtype=complex).reshape(-1)
        vd = np.asarray(self.psi_d, dtype=complex).reshape(-1)
        if vin.shape != (n,) or vd.shape != (n,):
            raise InvalidModelError("state vectors must match the Hamiltonian dimension")
        for name, arr in (("hamiltonian", h), ("psi_in", vin), ("psi_d", vd)):
            if not np.isfinite(arr).all():
                raise InvalidModelError(f"{name} has a non-finite entry")
        if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
            raise InvalidModelError("hamiltonian is not Hermitian within 1e-12")
        if abs(np.linalg.norm(vin) - 1.0) > NORM_TOL:
            raise InvalidModelError("psi_in is not normalized within 1e-12")
        if abs(np.linalg.norm(vd) - 1.0) > NORM_TOL:
            raise InvalidModelError("psi_d is not normalized within 1e-12")
        object.__setattr__(self, "hamiltonian", _frozen_array(h))
        object.__setattr__(self, "psi_in", _frozen_array(vin))
        object.__setattr__(self, "psi_d", _frozen_array(vd))

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]


def _check_site(n: int, k: int) -> None:
    if not 0 <= k < n:
        raise InvalidModelError(f"site index must lie in [0, {n}), got {k}")


def basis_state(n: int, k: int) -> np.ndarray:
    """Site basis vector |k> in an n-dimensional space."""
    _check_site(n, k)
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return v


def build_ring(L: int, gamma: float, x_in: int, x_d: int) -> QuantumModel:
    """Nearest-neighbor hopping ring of L sites with periodic boundary.

    H = -gamma * sum_k (|k><k-1| + |k><k+1|), so the spectrum is the set
    {-2*gamma*cos(2*pi*k/L)}.  For L = 2 both neighbor terms connect the
    same pair of sites and the effective hopping doubles.  H is real;
    rings whose complex H, which the Monte Carlo's ``eigh`` makes, would
    take more than DENSE_MAX_BYTES are refused.
    """
    _check_ring(L, gamma, x_in, x_d)
    h = np.zeros((L, L))
    j = np.arange(L)
    h[j, (j + 1) % L] -= gamma      # two statements, so at L = 2 the bonds add
    h[j, (j - 1) % L] -= gamma
    return QuantumModel(h, basis_state(L, x_in), basis_state(L, x_d),
                        label=f"ring L={L} gamma={gamma} {x_in}->{x_d}")


def _check_ring(L: int, gamma: float, x_in: int, x_d: int) -> None:
    """The checks of ``build_ring``, in its order and with its messages."""
    if L < 2:
        raise InvalidModelError(f"ring needs at least 2 sites, got L={L}")
    if 16 * L * L > DENSE_MAX_BYTES:
        raise InvalidModelError(f"a ring of L={L} sites needs a {16 * L * L}-byte Hamiltonian, "
                                f"over the {DENSE_MAX_BYTES}-byte budget "
                                f"(L <= {math.isqrt(DENSE_MAX_BYTES // 16)})")
    if not gamma > 0:
        raise InvalidModelError(f"hopping strength must be positive, got {gamma}")
    _check_site(L, x_in)
    _check_site(L, x_d)


def build_two_level(gamma: float, x_in: int = 0, x_d: int = 0) -> QuantumModel:
    """Symmetric two-level hopping model H = -gamma(|0><1| + |1><0|).

    Note the convention: this single-bond coupling equals a 2-site ring
    with half the hopping strength.
    """
    if not gamma > 0:
        raise InvalidModelError(f"hopping strength must be positive, got {gamma}")
    h = np.array([[0.0, -gamma], [-gamma, 0.0]])
    return QuantumModel(h, basis_state(2, x_in), basis_state(2, x_d),
                        label=f"two-level gamma={gamma} {x_in}->{x_d}")


def build_dense(hamiltonian, psi_in, psi_d, label: str = "dense") -> QuantumModel:
    """Wrap an explicit Hermitian matrix and state vectors in a model."""
    return QuantumModel(np.asarray(hamiltonian),
                        np.asarray(psi_in, dtype=complex),
                        np.asarray(psi_d, dtype=complex), label=label)


@dataclass(frozen=True)
class SpectralData:
    """Spectral description of a model after dark-state elimination.

    Attributes
    ----------
    energies : (Nr,) float
        Energy of each kept cluster, strictly increasing when reduced.
    p_detect : (Nr,) float
        Squared overlap of each bright state with the detection state;
        all positive after reduction, summing to 1.
    p_init : (Nr,) float
        Squared overlap with the initial state.  The sum is the total
        detection probability of the model.
    cross_amp : (Nr,) complex
        <psi_d|b_i><b_i|psi_in> per bright state; equals p_detect entrywise
        for the return problem.
    reduced : bool
        False for the raw full-space variant, where degenerate levels
        repeat and ``p_detect`` may contain zeros (cross-checks only).
    """

    energies: np.ndarray
    p_detect: np.ndarray
    p_init: np.ndarray
    cross_amp: np.ndarray
    degeneracy_tol: float
    reduced: bool = True
    label: str = ""

    def __post_init__(self):
        for name in ("energies", "p_detect", "p_init", "cross_amp"):
            object.__setattr__(self, name, _frozen_array(getattr(self, name)))

    @property
    def reduced_dim(self) -> int:
        return len(self.energies)

    def is_return_problem(self) -> bool:
        return self._is_return

    @cached_property
    def _is_return(self) -> bool:
        # computed once: the arrays are read-only, and every sweep point asks
        return bool(
            np.allclose(self.cross_amp, self.p_detect, atol=1e-12)
            and np.allclose(self.p_init, self.p_detect, atol=1e-12)
        )


def _cluster_starts(w: np.ndarray, tol: float) -> np.ndarray:
    """Start indices of the clusters of sorted eigenvalues ``w``.

    Each cluster is anchored at its lowest eigenvalue and takes every
    later one within ``tol`` of it, so no cluster spans more than ``tol``.
    Neighbours in adjacent clusters may still sit closer than ``tol``.
    """
    starts = [0]
    for i in range(1, len(w)):
        if w[i] - w[starts[-1]] > tol:
            starts.append(i)
    return np.array(starts)


def _eigenbasis(model: QuantumModel):
    """Eigenvalues w of H and the overlaps <E_j|psi_d>, <E_j|psi_in>.

    A real H (every ring, every real dense config) goes through the real
    symmetric solver, which takes a fraction of the time and memory of the
    complex one, and its eigenvectors v are then real.  The overlaps are
    taken from the real and imaginary parts of the states, so no complex
    copy of v is made.
    """
    w, v = np.linalg.eigh(model.hamiltonian)
    states = np.stack([model.psi_d, model.psi_in], axis=1)
    if np.iscomplexobj(v):
        comp = (states.conj().T @ v).conj().T
    else:
        comp = (v.T @ states.view(float)).view(complex)
    return w, comp[:, 0], comp[:, 1]


def _check_degeneracy_tol(degeneracy_tol: float) -> None:
    if not 0 < degeneracy_tol < np.inf:
        raise ValueError(f"degeneracy_tol must be positive and finite, got {degeneracy_tol}")


def _reduce(w, comp_d, comp_in, mult, dim: int, degeneracy_tol: float,
            label: str) -> SpectralData:
    """Cluster the sorted levels ``w``, each standing for ``mult`` levels of
    a dim-dimensional space, and drop the dark clusters; see
    ``spectral_reduce``.  A cluster's energy is its ``mult``-weighted mean."""
    tol = max(degeneracy_tol, 8 * dim * np.finfo(float).eps * float(np.max(np.abs(w))))
    starts = _cluster_starts(w, tol)
    p = np.add.reduceat(np.abs(comp_d) ** 2, starts)
    keep = p > DEFAULT_DARK_TOL
    p = p[keep]
    energies = np.add.reduceat(w * mult, starts) / np.add.reduceat(mult, starts)
    amp = np.add.reduceat(comp_d.conj() * comp_in, starts)[keep]
    return SpectralData(
        energies=energies[keep],
        p_detect=p,
        p_init=np.abs(amp) ** 2 / p,
        cross_amp=amp,
        degeneracy_tol=tol,
        reduced=True,
        label=label,
    )


def spectral_reduce(model: QuantumModel,
                    degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> SpectralData:
    """Diagonalize, cluster degenerate energies, and drop dark clusters.

    A cluster is dark when its detection weight p_j is at most
    DEFAULT_DARK_TOL = 1e-12.  Some cluster is always bright: the weights
    sum to |psi_d|^2 >= 1 - 2e-12 over at most N clusters, so the largest
    is at least 1.2e-4 for any ring the dense budget admits.

    Each cluster keeps a single bright state: the normalized projection
    of the detection state onto the cluster's eigenspace.  Its phase is
    fixed so the overlap with the detection state is real and positive,
    which makes the output independent of the arbitrary eigenvector
    phases and of the basis chosen inside degenerate clusters, and so of
    whether H was diagonalized in real or complex arithmetic.  Each field
    sums the ``spectral_full`` one over a cluster (energies: the mean).
    The bright states are not formed: the fields need only the overlaps.

    Clusters are formed at no finer than 8 N eps max|E|, LAPACK's bound on
    the error of ``eigh``'s eigenvalues: at a large energy scale an absolute
    ``degeneracy_tol`` would split degenerate levels into separate bright
    ones.  The tolerance used is stored in the result.
    """
    _check_degeneracy_tol(degeneracy_tol)
    w, comp_d, comp_in = _eigenbasis(model)
    return _reduce(w, comp_d, comp_in, np.ones(len(w)), len(w), degeneracy_tol, model.label)


def ring_spectrum(L: int, gamma: float, x_in: int, x_d: int,
                  degeneracy_tol: float = DEFAULT_DEGENERACY_TOL) -> SpectralData:
    """``spectral_reduce(build_ring(L, gamma, x_in, x_d))`` from the sector
    even about x_d, of dimension Nr = floor(L/2) + 1, without the L x L H.

    The arguments are checked as ``build_ring`` checks them, with its
    errors and messages; the L <= 8192 guard is kept only for that parity,
    since nothing here is L x L.  Level k = 0 .. Nr - 1 has the energy
    -2 gamma cos(2 pi k / L), p_k = m_k / L and the cross amplitude
    (m_k / L) cos(2 pi k (x_in - x_d) / L), the phase reduced mod L in
    integers; m_k = 1 at k = 0 and L/2, 2 otherwise.  Clusters weight each
    level by m_k and floor the tolerance at 8 L eps max|E|, so every
    ``degeneracy_tol`` gives the clusters of the full space; the fields
    agree with it to rounding.  Time and memory are O(L); no eigensolver
    runs.
    """
    _check_ring(L, gamma, x_in, x_d)
    _check_degeneracy_tol(degeneracy_tol)
    if not math.isfinite(2.0 * gamma if L == 2 else gamma):
        raise InvalidModelError("hamiltonian has a non-finite entry")   # as build_ring's H
    k = np.arange(L // 2 + 1)
    mult = np.where((k == 0) | (2 * k == L), 1.0, 2.0)   # k pairs with L - k
    comp_d = np.sqrt(mult / L)
    comp_in = comp_d * np.cos(2 * np.pi / L * (k * (x_in - x_d) % L))
    return _reduce(-2.0 * gamma * np.cos(2 * np.pi / L * k), comp_d, comp_in.astype(complex),
                   mult, L, degeneracy_tol, f"ring L={L} gamma={gamma} {x_in}->{x_d}")


def spectral_full(model: QuantumModel) -> SpectralData:
    """Raw eigenbasis variant without dark-state elimination.

    Degenerate energies repeat and detection overlaps may vanish, so the
    downstream linear systems are singular; this path exists only for
    cross-checks against the reduced one.
    """
    w, comp_d, comp_in = _eigenbasis(model)
    return SpectralData(
        energies=w,
        p_detect=np.abs(comp_d) ** 2,
        p_init=np.abs(comp_in) ** 2,
        cross_amp=comp_d.conj() * comp_in,
        degeneracy_tol=0.0,
        reduced=False,
        label=model.label,
    )
