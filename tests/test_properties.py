"""Property tests: the structured moments against the dense oracle.

Random dense models of dimension 3-6 with one planted degenerate pair,
random complex initial and detection states, and fixed, exponential and
Gamma interval laws with means in [0.3, 0.9].  ``detection_stats`` must
match ``verify.dense_reference_stats`` and obey p_det = sum(q) and
t_mean = <tau> n_mean, within a relative tolerance that grows with the
dense cond_1(J).  The runs are derandomized, so Tier-1 stays deterministic.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qprobe.errors import IllConditionedError
from qprobe.intervals import ExponentialInterval, FixedInterval, GammaInterval
from qprobe.model import build_dense, spectral_reduce
from qprobe.superop import DEFAULT_COND_LIMIT, build_superops, detection_stats
from qprobe.verify import dense_reference_stats

MOMENTS = ("p_det", "n_mean", "n_sq", "t_mean", "t_sq")


def _rtol(cond: float) -> float:
    return max(1e-10, 1e-14 * cond)


@st.composite
def models(draw):
    """A dense model whose two lowest energies coincide exactly; the other
    gaps lie in [0.05, 3], so fixed intervals can come near resonance."""
    n = draw(st.integers(3, 6))
    gaps = draw(st.lists(st.floats(0.05, 3.0), min_size=n - 2, max_size=n - 2))
    e0 = draw(st.floats(-2.0, 2.0))
    energies = e0 + np.concatenate([[0.0, 0.0], np.cumsum(gaps)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    u, _ = np.linalg.qr(z)
    h = (u * energies) @ u.conj().T
    h = 0.5 * (h + h.conj().T)
    psi_in, psi_d = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    return build_dense(h, psi_in / np.linalg.norm(psi_in), psi_d / np.linalg.norm(psi_d))


laws = st.one_of(
    st.builds(FixedInterval, st.floats(0.3, 0.9)),
    st.builds(ExponentialInterval, st.floats(0.3, 0.9)),
    st.builds(GammaInterval, st.floats(2.0, 20.0), st.floats(0.3, 0.9)),
)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(model=models(), dist=laws)
def test_structured_stats_match_dense_oracle(model, dist):
    sd = spectral_reduce(model)
    assert sd.reduced_dim == model.dim - 1          # the planted pair is one cluster
    sset = build_superops(sd, dist)
    ref = dense_reference_stats(sset)
    try:
        stats = detection_stats(sset, dist)
    except IllConditionedError:
        assert ref["condition"] > DEFAULT_COND_LIMIT / 10
        return
    rtol = _rtol(max(ref["condition"], stats.condition))
    for name in MOMENTS:
        assert abs(getattr(stats, name) - ref[name]) <= rtol * abs(ref[name]), name
    assert abs(stats.p_det - sd.p_init.sum()) <= rtol * sd.p_init.sum()
    assert abs(stats.t_mean - dist.mean * stats.n_mean) <= rtol * stats.t_mean
