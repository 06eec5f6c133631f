"""Waiting-time densities for the probing intervals.

Three families are supported: a degenerate (fixed) interval and the
Gamma density with fixed mean and shape ``alpha``, which interpolates
between exponential waiting times (``alpha = 1``, the third family, which
shares the Gamma closed forms and sampler) and periodic probing
(``alpha -> inf``).

Every family exposes its characteristic function ``<exp(i*delta*tau)>``
and the tau-weighted variants ``<tau**p * exp(i*delta*tau)>`` (p = 1, 2)
in closed form; these are the only quantities the exact machinery needs.
All of them accept scalar or array ``delta``.

The closed forms for the Gamma family use the principal branch of
``(1 - i*delta*mean/alpha)**(-alpha)``.  The base always has real part 1,
so its argument stays inside (-pi/2, pi/2) and the principal branch is
the analytic continuation of the integral for every real ``delta``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np


class IntervalDistribution(ABC):
    """Common interface for waiting-time densities rho(tau) on tau > 0."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """First moment <tau>."""

    @property
    @abstractmethod
    def variance(self) -> float:
        """Central second moment Var[tau]."""

    @property
    def second_moment(self) -> float:
        """Raw second moment <tau**2>."""
        return self.variance + self.mean**2

    @abstractmethod
    def charfn(self, delta):
        """Characteristic function <exp(i*delta*tau)> at real frequency delta."""

    @abstractmethod
    def weighted_charfn(self, delta, power: int):
        """Weighted average <tau**power * exp(i*delta*tau)> for power in {1, 2}."""

    def _phase_factors(self, delta):
        """``charfn(delta)`` and ``weighted_charfn(delta, p)`` for p = 1, 2 as
        complex arrays, the three factors ``superop.build_superops`` needs.
        The families override it to take all three from one power."""
        return tuple(np.asarray(f, dtype=complex) for f in (
            self.charfn(delta), self.weighted_charfn(delta, 1), self.weighted_charfn(delta, 2)))

    @abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw interval samples using the caller-owned generator."""

    @abstractmethod
    def config_items(self) -> dict:
        """Flat key-value description of the law, in the config keys
        (``dist`` plus ``tau``, ``mean`` or ``alpha``) that rebuild it."""


def _check_scale(what: str, value: float) -> None:
    """Reject a parameter outside 0 < value < inf (nan included)."""
    if not value > 0:
        raise ValueError(f"{what} must be positive, got {value}")
    if not value < np.inf:
        raise ValueError(f"{what} must be finite, got {value}")


def _second_moment(mean: float, shape: float = np.inf) -> float:
    """<tau**2> = mean**2 (1 + 1/shape) (shape = inf for a fixed interval),
    inf rather than OverflowError when it exceeds a double."""
    with np.errstate(over="ignore"):
        return float(np.float64(mean) ** 2 * (1.0 + 1.0 / np.float64(shape)))


def _check_power(power: int) -> None:
    if power not in (1, 2):
        raise ValueError(f"weighted_charfn supports power 1 or 2, got {power!r}")


@dataclass(frozen=True)
class FixedInterval(IntervalDistribution):
    """Deterministic probing period: rho(tau) = delta(tau - tau0)."""

    tau0: float

    def __post_init__(self):
        _check_scale("fixed interval", self.tau0)
        _check_scale("<tau^2> of the fixed interval", _second_moment(self.tau0))

    @property
    def mean(self) -> float:
        return self.tau0

    @property
    def variance(self) -> float:
        return 0.0

    def charfn(self, delta):
        return np.exp(1j * np.asarray(delta, dtype=float) * self.tau0)

    def weighted_charfn(self, delta, power: int):
        _check_power(power)
        return self.tau0**power * self.charfn(delta)

    def _phase_factors(self, delta):
        phi = self.charfn(delta)
        return phi, self.tau0 * phi, self.tau0**2 * phi

    def sample(self, rng, size=None):
        if size is None:
            return self.tau0
        return np.full(size, self.tau0)

    def config_items(self):
        return {"dist": "fixed", "tau": self.tau0}


@dataclass(frozen=True)
class GammaInterval(IntervalDistribution):
    """Gamma waiting times with shape alpha and fixed mean.

    Parametrized by rate beta = alpha/mean, so the mean stays put while
    alpha tunes the relative width: Var[tau] = mean**2/alpha.
    """

    alpha: float
    mu: float

    def __post_init__(self):
        _check_scale("gamma shape", self.alpha)
        _check_scale("mean interval", self.mu)
        _check_scale("<tau^2> of the gamma interval", _second_moment(self.mu, self.alpha))

    @property
    def mean(self) -> float:
        return self.mu

    @property
    def variance(self) -> float:
        return self.mu**2 / self.alpha

    def _base(self, delta):
        """1 - i delta/beta, whose real part is 1."""
        return 1.0 - 1j * np.asarray(delta, dtype=float) * self.mu / self.alpha

    def _base_power(self, base, extra: int):
        """base**-(alpha + extra).  At a huge |delta|/beta numpy's
        small-integer power overflows on the way and returns inf or nan;
        the polar form exp(p log(base)) is taken instead."""
        p = -self.alpha - extra
        try:
            with np.errstate(over="raise", invalid="raise"):
                return base ** p
        except FloatingPointError:
            return np.exp(p * np.log(base))

    def charfn(self, delta):
        return self._base_power(self._base(delta), 0)

    def weighted_charfn(self, delta, power: int):
        # <tau**p e^{i d tau}> = Gamma(a+p)/(Gamma(a) beta**p) (1 - i d/beta)**-(a+p)
        _check_power(power)
        if power == 1:
            return self.mu * self._base_power(self._base(delta), 1)
        return self.mu**2 * (1.0 + 1.0 / self.alpha) * self._base_power(self._base(delta), 2)

    def _phase_factors(self, delta):
        # one power: each further tau multiplies by (alpha + p)/beta and divides by the base
        base = self._base(delta)
        phi = self._base_power(base, 0)
        phi_t = self.mu * phi
        phi_t /= base
        phi_tt = self.mu * (1.0 + 1.0 / self.alpha) * phi_t
        phi_tt /= base
        return phi, phi_t, phi_tt

    def sample(self, rng, size=None):
        return rng.gamma(self.alpha, self.mu / self.alpha, size)

    def config_items(self):
        return {"dist": "gamma", "alpha": self.alpha, "mean": self.mu}


@dataclass(frozen=True, init=False)
class ExponentialInterval(GammaInterval):
    """Exponential waiting times rho(tau) = exp(-tau/mean)/mean: Gamma at alpha = 1."""

    def __init__(self, mu: float):
        GammaInterval.__init__(self, 1.0, mu)

    def config_items(self):
        return {"dist": "exp", "mean": self.mu}
