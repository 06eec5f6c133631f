"""Exception types shared across the package."""

from __future__ import annotations


class QprobeError(Exception):
    """Base class for all qprobe errors."""


class InvalidModelError(QprobeError):
    """The requested quantum model is malformed (bad size, norm, hermiticity)."""


class DegenerateProblemError(QprobeError):
    """The problem has no conditional statistics: the detection probability
    vanishes, or the initial state has no overlap with the bright subspace."""


class DivergenceError(QprobeError):
    """A closed-form expression diverges for the requested parameters."""


class ConfigError(QprobeError):
    """A configuration file or flag set cannot be interpreted."""


class ConvergenceError(QprobeError):
    """An iterative eigenvalue computation did not converge, or its result
    failed the consistency check that guards it."""


class MomentOverflowError(QprobeError):
    """A first-detection moment is not finite in double precision although
    the interval law's moments are (an interval scale too large for the
    model's time scales)."""


class DenseSizeError(QprobeError):
    """A dense Nr^2 x Nr^2 matrix would exceed the memory budget."""


class IllConditionedError(QprobeError):
    """The geometric-series solve is numerically singular.

    Carries the estimated condition number and the energy pairs (j, k,
    |phi|) whose averaged phase factor phi = charfn(E_j - E_k) is near 1,
    closest first, which is the structure that drives the singularity
    (near-degenerate evolution, a period near an exceptional one, or a
    waiting-time density collapsing to a point).  ``p_min`` and
    ``p_min_index`` give the smallest detection weight p_j, the other
    cause: the moments grow like 1/p_min, so a tiny p_j alone can trip
    the gate with no pair listed.
    """

    def __init__(self, condition: float, pairs: list[tuple[int, int, float]],
                 p_min: float, p_min_index: int):
        self.condition = condition
        self.pairs = pairs
        self.p_min = p_min
        self.p_min_index = p_min_index
        detail = ", ".join(f"({i},{j}) |phi|={m:.12f}" for i, j, m in pairs[:8])
        if len(pairs) > 8:
            detail += f", ... ({len(pairs)} pairs total)"
        super().__init__(f"linear system is ill-conditioned (cond ~ {condition:.3e}); "
                         f"energy pairs with charfn near 1, closest first: [{detail}]; "
                         f"smallest detection weight p[{p_min_index}] = {p_min:.3e}")
