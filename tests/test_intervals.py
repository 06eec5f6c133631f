"""Waiting-time density tests against a numerical quadrature oracle.

The oracle integrates rho(tau) * tau^p * exp(i*delta*tau) by adaptive
quadrature, independently of the closed forms under test.
"""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import gamma as gamma_fn

from qprobe.config import distribution_from_config
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval

DELTAS = [-7.3, -2.0, -0.4, 0.0, 0.4, 2.0, 7.3]


def quad_weighted_charfn(pdf, delta, power=0):
    """Adaptive-quadrature oracle for <tau**power * exp(i*delta*tau)>.

    Splits at tau = 1 so densities with an integrable singularity at the
    origin are handled on a finite panel.
    """
    def part(trig):
        a = quad(lambda t: pdf(t) * t**power * trig(delta * t), 0, 1,
                 limit=800, epsabs=1e-13, epsrel=1e-13)[0]
        b = quad(lambda t: pdf(t) * t**power * trig(delta * t), 1, np.inf,
                 limit=800, epsabs=1e-13, epsrel=1e-13)[0]
        return a + b

    return part(np.cos) + 1j * part(np.sin)


def exp_pdf(mu):
    return lambda t: np.exp(-t / mu) / mu


def gamma_pdf(alpha, mu):
    beta = alpha / mu
    return lambda t: beta**alpha * t ** (alpha - 1) * np.exp(-beta * t) / gamma_fn(alpha)


def test_exponential_charfn_frozen_value():
    # 1/(1 - 1.2i) = (1 + 1.2i)/2.44
    z = complex(ExponentialInterval(0.6).charfn(2.0))
    assert z == pytest.approx(1.0 / 2.44 + 1.2j / 2.44, abs=1e-14)
    assert z == pytest.approx(0.4098360655737705 + 0.4918032786885246j, abs=1e-12)
    oracle = quad_weighted_charfn(exp_pdf(0.6), 2.0)
    assert abs(z - oracle) < 1e-10


@pytest.mark.parametrize("delta", DELTAS)
def test_exponential_charfn_quadrature(delta):
    d = ExponentialInterval(0.6)
    assert abs(complex(d.charfn(delta)) - quad_weighted_charfn(exp_pdf(0.6), delta)) < 1e-10


@pytest.mark.parametrize("alpha", [0.7, 1.0, 2.5, 25.0])
@pytest.mark.parametrize("delta", DELTAS)
def test_gamma_charfn_quadrature(alpha, delta):
    d = GammaInterval(alpha, 0.6)
    oracle = quad_weighted_charfn(gamma_pdf(alpha, 0.6), delta)
    assert abs(complex(d.charfn(delta)) - oracle) < 1e-10


@pytest.mark.parametrize("power", [1, 2])
@pytest.mark.parametrize("delta", [-2.0, 0.0, 1.3])
def test_weighted_charfn_quadrature(power, delta):
    for d, pdf in (
        (ExponentialInterval(0.8), exp_pdf(0.8)),
        (GammaInterval(3.5, 0.6), gamma_pdf(3.5, 0.6)),
    ):
        val = complex(d.weighted_charfn(delta, power))
        oracle = quad_weighted_charfn(pdf, delta, power)
        assert abs(val - oracle) < 1e-10


def test_exponential_weighted_closed_forms():
    # mu/(1 - i d mu)^2 and 2 mu^2/(1 - i d mu)^3
    mu, delta = 0.6, 2.0
    d = ExponentialInterval(mu)
    base = 1 - 1j * delta * mu
    assert complex(d.weighted_charfn(delta, 1)) == pytest.approx(mu / base**2, abs=1e-14)
    assert complex(d.weighted_charfn(delta, 2)) == pytest.approx(2 * mu**2 / base**3, abs=1e-14)


def test_gamma_weighted_second_moment_form():
    # mu^2 (1 + 1/alpha) (1 - i d mu / alpha)^-(alpha+2)
    alpha, mu, delta = 3.0, 0.5, 1.7
    d = GammaInterval(alpha, mu)
    expect = mu**2 * (1 + 1 / alpha) * (1 - 1j * delta * mu / alpha) ** (-alpha - 2)
    assert complex(d.weighted_charfn(delta, 2)) == pytest.approx(expect, abs=1e-14)


def test_fixed_charfn_and_weights():
    d = FixedInterval(0.9)
    for delta in DELTAS:
        z = complex(d.charfn(delta))
        assert z == pytest.approx(np.exp(1j * delta * 0.9), abs=1e-15)
        assert abs(z) == pytest.approx(1.0, abs=1e-15)
        for p in (1, 2):
            assert complex(d.weighted_charfn(delta, p)) == pytest.approx(
                0.9**p * np.exp(1j * delta * 0.9), abs=1e-15
            )


def test_charfn_at_zero_is_one_exactly():
    for d in (FixedInterval(0.3), ExponentialInterval(1.1), GammaInterval(4.2, 0.7)):
        assert complex(d.charfn(0.0)) == 1.0 + 0.0j


def test_conjugate_symmetry():
    for d in (FixedInterval(0.3), ExponentialInterval(1.1), GammaInterval(4.2, 0.7)):
        for delta in DELTAS:
            assert complex(d.charfn(delta)).conjugate() == pytest.approx(
                complex(d.charfn(-delta)), abs=1e-14
            )


def test_modulus_strictly_below_one_for_continuous():
    for d in (ExponentialInterval(0.6), GammaInterval(7.0, 0.6)):
        for delta in [x for x in DELTAS if x != 0.0]:
            assert abs(complex(d.charfn(delta))) < 1.0


def test_weighted_at_zero_matches_moments():
    for d in (FixedInterval(0.4), ExponentialInterval(0.6), GammaInterval(2.5, 0.8)):
        assert complex(d.weighted_charfn(0.0, 1)).real == pytest.approx(d.mean, abs=1e-12)
        assert complex(d.weighted_charfn(0.0, 2)).real == pytest.approx(
            d.variance + d.mean**2, abs=1e-12
        )
        assert abs(complex(d.weighted_charfn(0.0, 1)).imag) < 1e-15


def test_exponential_equals_gamma_shape_one():
    e, g = ExponentialInterval(0.6), GammaInterval(1.0, 0.6)
    assert e.mean == g.mean and e.variance == pytest.approx(g.variance, abs=1e-15)
    for delta in DELTAS:
        assert complex(e.charfn(delta)) == pytest.approx(complex(g.charfn(delta)), abs=1e-12)
        for p in (1, 2):
            assert complex(e.weighted_charfn(delta, p)) == pytest.approx(
                complex(g.weighted_charfn(delta, p)), abs=1e-12
            )


def test_gamma_approaches_fixed_interval():
    # deviation from the point-mass characteristic function shrinks ~ 1/alpha
    delta, mu = 2.0, 0.6
    target = np.exp(1j * delta * mu)
    alphas = np.array([5.0, 25.0, 125.0])
    errs = np.array([abs(complex(GammaInterval(a, mu).charfn(delta)) - target)
                     for a in alphas])
    slope = np.polyfit(np.log(alphas), np.log(errs), 1)[0]
    assert slope <= -0.9


def test_principal_branch_argument_stays_safe():
    # the power-law base always has real part 1, so |arg| < pi/2 everywhere
    alpha, mu = 2.3, 0.7
    deltas = np.linspace(-500, 500, 2001)
    base = 1 - 1j * deltas * mu / alpha
    assert np.all(np.abs(np.angle(base)) < np.pi / 2)
    # and the closed form therefore agrees with exp(-alpha*Log(base))
    d = GammaInterval(alpha, mu)
    expect = np.exp(-alpha * np.log(base))
    assert np.allclose(np.asarray(d.charfn(deltas)), expect, atol=1e-13)


def test_sampling_mean_within_five_standard_errors():
    n = 10**6
    rng = np.random.Generator(np.random.Philox(12345))
    for d in (ExponentialInterval(0.6), GammaInterval(25.0, 0.6)):
        x = d.sample(rng, n)
        se = np.sqrt(d.variance / n)
        assert abs(x.mean() - d.mean) < 5 * se
        assert np.all(x > 0)


def test_gamma_sampling_variance():
    # Var = mean^2/alpha = 0.0144 for alpha=25, mean=0.6
    n = 10**6
    rng = np.random.Generator(np.random.Philox(999))
    x = GammaInterval(25.0, 0.6).sample(rng, n)
    target = 0.6**2 / 25.0
    assert target == pytest.approx(0.0144, abs=1e-15)
    # standard error of the sample variance from the 4th moment
    dev = x - x.mean()
    se = np.sqrt((np.mean(dev**4) - np.var(x) ** 2) / n)
    assert abs(np.var(x, ddof=1) - target) < 5 * se


def test_fixed_sampling_is_constant():
    d = FixedInterval(0.6)
    rng = np.random.default_rng(0)
    assert d.sample(rng) == 0.6
    assert np.all(d.sample(rng, 17) == 0.6)


@pytest.mark.parametrize("law", [FixedInterval(0.7), ExponentialInterval(0.6),
                                 GammaInterval(2.5, 0.6), GammaInterval(1.0, 1e-3 / 3)])
def test_config_items_rebuild_the_law(law):
    items = law.config_items()
    assert distribution_from_config({k: str(v) for k, v in items.items()}) == law


def test_invalid_parameters_rejected():
    with pytest.raises(ValueError):
        FixedInterval(0.0)
    with pytest.raises(ValueError):
        ExponentialInterval(-1.0)
    with pytest.raises(ValueError):
        GammaInterval(0.0, 0.6)
    with pytest.raises(ValueError):
        GammaInterval(1.0, -0.6)
    with pytest.raises(ValueError):
        ExponentialInterval(0.6).weighted_charfn(1.0, 3)


@pytest.mark.parametrize("make", [
    lambda x: FixedInterval(x),
    lambda x: ExponentialInterval(x),
    lambda x: GammaInterval(x, 0.6),
    lambda x: GammaInterval(2.0, x),
])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_non_finite_parameters_rejected(make, value):
    with pytest.raises(ValueError):
        make(value)


@pytest.mark.parametrize("make", [
    lambda: FixedInterval(1e300),
    lambda: ExponentialInterval(1e160),
    lambda: GammaInterval(2.0, 1e160),
    lambda: GammaInterval(1e-10, 1e150),       # mu^2 finite, mu^2 / alpha not
    lambda: GammaInterval(5e-324, 1.0),
])
def test_overflowing_second_moment_rejected(make):
    # the non-finite cases above, reached through finite parameters whose
    # <tau^2> overflows a double; the check itself must not raise
    # OverflowError, which plain float powers would
    with pytest.raises(ValueError, match=r"<tau\^2> of the .* must be finite"):
        make()


def test_second_moment_just_below_overflow_accepted():
    assert FixedInterval(1e154).second_moment == pytest.approx(1e308)
    assert GammaInterval(1.0, 9e153).second_moment == pytest.approx(1.62e308)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [1.0, 2.0, 3.0, 3.5])
def test_gamma_charfn_at_huge_argument_is_finite(alpha):
    # numpy's small-integer complex power overflows to inf or nan here
    # (alpha = 2 gave nan for the tau^2-weighted form); the polar form holds
    d = GammaInterval(alpha, 1e80)
    delta = np.array([0.0, 1.0, -2.5])
    base = 1.0 - 1j * delta * d.mu / alpha
    for value, extra, scale in [(d.charfn(delta), 0, 1.0),
                                (d.weighted_charfn(delta, 1), 1, d.mu),
                                (d.weighted_charfn(delta, 2), 2, d.second_moment)]:
        assert np.all(np.isfinite(value))
        expect = scale * np.exp((-alpha - extra) * np.log(base))
        assert np.allclose(value, expect, rtol=1e-12, atol=0)
    assert d.charfn(1.0) == pytest.approx(np.exp(-alpha * np.log(1.0 - 1j * 1e80 / alpha)),
                                          rel=1e-12)
