"""Closed-form detection moments for rings and the two-level system.

The ring formulas hold for exponentially distributed intervals and split
into parity cases; they were obtained by fitting rational coefficients of
the 1/mean^2 expansion on small rings and are numerically verified in
this package for 3 <= L <= 16 (the trusted range).  Larger rings evaluate
fine but carry a conjectural warning.

The time-squared branches restore the hopping-strength dependence that a
pure transcription would miss: the leading coefficient scales as
1/(gamma^4 mean^2) and the middle one as 1/gamma^2, mirroring the
mean^2-scaled attempt-number branches.  This restoration is validated
against the superoperator computation at gamma != 1.

The two-level results take the single-bond coupling convention (energies
+-gamma).  A 2-site ring with hopping g has energies +-2g, so it maps
onto these formulas with gamma = 2g.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass

from .errors import DivergenceError
from .intervals import IntervalDistribution

VERIFIED_L_MAX = 16
_DIVERGENCE_EPS = 1e-12


class RingCaseTag(enum.Enum):
    ODD_RETURN = "odd_return"
    ODD_ARRIVAL = "odd_arrival"
    EVEN_RETURN = "even_return"
    EVEN_ARRIVAL = "even_arrival"
    EVEN_ANTIPODE = "even_antipode"


@dataclass(frozen=True)
class RingCase:
    """Normalized ring case: x_d folded into [0, L/2] by reflection."""

    L: int
    x_d: int
    tag: RingCaseTag

    @property
    def conjectural(self) -> bool:
        return self.L > VERIFIED_L_MAX


def classify_ring_case(L: int, x_d: int) -> RingCase:
    """Fold x_d by the ring reflection and pick the parity case."""
    if L < 2:
        raise ValueError(f"ring needs L >= 2, got {L}")
    x_d = x_d % L
    if x_d > L // 2:
        x_d = L - x_d
    if L % 2 == 1:
        tag = RingCaseTag.ODD_RETURN if x_d == 0 else RingCaseTag.ODD_ARRIVAL
    elif x_d == 0:
        tag = RingCaseTag.EVEN_RETURN
    elif x_d == L // 2:
        tag = RingCaseTag.EVEN_ANTIPODE
    else:
        tag = RingCaseTag.EVEN_ARRIVAL
    return RingCase(L=L, x_d=x_d, tag=tag)


def _warn_if_conjectural(case: RingCase) -> None:
    if case.conjectural:
        warnings.warn(
            f"ring closed form for L={case.L} is outside the numerically "
            f"verified range (L <= {VERIFIED_L_MAX}); value is conjectural",
            stacklevel=3,
        )


def ring_nbar_exp(L: int, x_d: int, gamma: float, mean_tau: float) -> float:
    """Conditional mean attempt number, exponential intervals, 0 -> x_d."""
    case = classify_ring_case(L, x_d)
    _warn_if_conjectural(case)
    x, g, mu = case.x_d, gamma, mean_tau
    if case.tag in (RingCaseTag.ODD_RETURN, RingCaseTag.EVEN_RETURN):
        return float(L // 2 + 1)
    if case.tag is RingCaseTag.ODD_ARRIVAL:
        return x * (L - x) / (8 * g**2 * mu**2) + (2 * L + 3) / 4
    if case.tag is RingCaseTag.EVEN_ANTIPODE:
        return L**2 / (32 * g**2 * mu**2) + (L + 2) / 2
    return x * L / (8 * g**2 * mu**2) + (L + 3) / 2


def ring_nsq_exp(L: int, x_d: int, gamma: float, mean_tau: float) -> float:
    """Conditional mean squared attempt number, exponential intervals."""
    case = classify_ring_case(L, x_d)
    _warn_if_conjectural(case)
    return _ring_nsq(case, gamma, mean_tau)


def _ring_nsq(case: RingCase, g: float, mu: float) -> float:
    L, x = case.L, case.x_d
    if case.tag is RingCaseTag.ODD_RETURN:
        return (L * (L + 1) * (L - 1) / (48 * g**2 * mu**2)
                + (2 * L**2 + 3 * L - 1) / 4)
    if case.tag is RingCaseTag.ODD_ARRIVAL:
        return (L * x * (L - x) * (x * (L - x) + 2) / (192 * g**4 * mu**4)
                + (L**3 + 2 * x * (L - x) * (L + 7) - L) / (32 * g**2 * mu**2)
                + (4 * L**2 + 10 * L - 3) / 8)
    if case.tag is RingCaseTag.EVEN_RETURN:
        return L**3 / (32 * g**2 * mu**2) + L * (L + 4) / 2
    if case.tag is RingCaseTag.EVEN_ANTIPODE:
        return (L**3 * (L**2 + 8) / (3072 * g**4 * mu**4)
                + (5 * L**3 + 12 * L**2 - 2 * L) / (96 * g**2 * mu**2)
                + (L**2 + 4 * L) / 2)
    return ((3 * x**2 * L**3 - 4 * x * (x**2 - 1) * L**2) / (384 * g**4 * mu**4)
            + (9 * L**3 + 12 * x * L**2 + 24 * x * (x + 4) * L
               - 16 * x * (2 * x**2 + 1)) / (192 * g**2 * mu**2)
            + (L**2 + 6 * L) / 2)


def ring_tsq_exp(L: int, x_d: int, gamma: float, mean_tau: float) -> float:
    """Conditional mean squared detection time, exponential intervals.

    Return cases have no dedicated branch; they follow from the second
    moment identity with Var[tau] = mean^2.
    """
    case = classify_ring_case(L, x_d)
    _warn_if_conjectural(case)
    x, g, mu = case.x_d, gamma, mean_tau
    if case.tag in (RingCaseTag.ODD_RETURN, RingCaseTag.EVEN_RETURN):
        n_r = L // 2 + 1
        return mu**2 * _ring_nsq(case, g, mu) + n_r * mu**2
    if case.tag is RingCaseTag.ODD_ARRIVAL:
        return (L * x * (L - x) * (x * (L - x) + 2) / (192 * g**4 * mu**2)
                + (L**3 + 2 * x * (L - x) * (L + 1) - L) / (32 * g**2)
                + (4 * L**2 + 14 * L + 3) * mu**2 / 8)
    if case.tag is RingCaseTag.EVEN_ANTIPODE:
        return (L**3 * (L**2 + 8) / (3072 * g**4 * mu**2)
                + (5 * L**3 + 3 * L**2 - 2 * L) / (96 * g**2)
                + (L**2 + 5 * L + 2) * mu**2 / 2)
    return ((3 * x**2 * L**3 - 4 * x * (x**2 - 1) * L**2) / (384 * g**4 * mu**2)
            + (9 * L**3 + 12 * x * L**2 + 24 * x * (x + 1) * L
               - 16 * x * (2 * x**2 + 1)) / (192 * g**2)
            + (L**2 + 7 * L + 3) * mu**2 / 2)


@dataclass(frozen=True)
class TwoLevelStats:
    """Closed-form two-level detection record."""

    p_det: float
    n_mean: float
    n_sq: float
    t_mean: float
    t_sq: float
    nbar_var: float | None    # ensemble variance of per-realization nbar; return only


def _cos_moments(dist: IntervalDistribution, gamma: float):
    """Averages of cos^2, cos^4, sin^4 and tau-weighted cos^2 of gamma*tau.

    Power-reduced to characteristic-function values at 2*gamma and
    4*gamma, so no quadrature is involved.
    """
    phi2 = complex(dist.charfn(2.0 * gamma))
    phi4 = complex(dist.charfn(4.0 * gamma))
    c2 = 0.5 * (1.0 + phi2.real)
    c4 = (3.0 + 4.0 * phi2.real + phi4.real) / 8.0
    s4 = (3.0 - 4.0 * phi2.real + phi4.real) / 8.0
    w2 = complex(dist.weighted_charfn(2.0 * gamma, 1))
    ct = 0.5 * (dist.mean + w2.real)
    return c2, c4, s4, ct


def tls_stats(problem: str, dist: IntervalDistribution, gamma: float) -> TwoLevelStats:
    """Detection moments of the symmetric two-level model.

    ``problem`` is "return" (detect the starting site) or "arrival"
    (start on one site, detect the other).  Diverges when the average of
    cos^2(gamma*tau) reaches 1, i.e. for a fixed interval at an integer
    multiple of pi/gamma, where probing never moves the detection weight.
    """
    if problem not in ("return", "arrival"):
        raise ValueError(f"problem must be 'return' or 'arrival', got {problem!r}")
    c2, c4, s4, ct = _cos_moments(dist, gamma)
    mu = dist.mean
    if 1.0 - c2 <= _DIVERGENCE_EPS or 1.0 - c4 <= _DIVERGENCE_EPS:
        raise DivergenceError(
            "two-level moments diverge: <cos^2(gamma tau)> = 1 "
            "(fixed interval at gamma*tau = k*pi, or the frozen-evolution limit)"
        )
    if problem == "return":
        n_sq = 2.0 + 2.0 / (1.0 - c2)
        t_sq = 2.0 * dist.variance + mu**2 * n_sq
        var_cos2 = c4 - c2**2
        nbar_var = 2.0 * var_cos2 / ((1.0 - c4) * (1.0 - c2))
        return TwoLevelStats(p_det=1.0, n_mean=2.0, n_sq=n_sq,
                             t_mean=2.0 * mu, t_sq=t_sq, nbar_var=nbar_var)
    n_mean = 1.0 / (1.0 - c2)
    n_sq = (1.0 + c2) / (1.0 - c2) ** 2
    t_mean = mu / (1.0 - c2)
    t_sq = dist.second_moment / (1.0 - c2) + 2.0 * mu * ct / (1.0 - c2) ** 2
    return TwoLevelStats(p_det=1.0, n_mean=n_mean, n_sq=n_sq,
                         t_mean=t_mean, t_sq=t_sq, nbar_var=None)
