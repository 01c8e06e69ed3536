"""The vectorised quantiser agrees with a scalar one on arbitrary floats."""

import bisect

import numpy as np
import pytest

from freqscope.profiles import _midpoints, builtin_profiles, quantize_indices

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROFILES = sorted(builtin_profiles().values(), key=lambda p: p.name)


def quantize_to_pstate(pstates, freq_khz):
    """Oracle: nearest member of the table; exact midpoints round to the
    higher state."""
    if freq_khz <= pstates[0]:
        return pstates[0]
    if freq_khz >= pstates[-1]:
        return pstates[-1]
    # bisect_right sends a value equal to a midpoint to the upper neighbor
    return pstates[bisect.bisect_right(_midpoints(pstates), freq_khz)]


def landmarks(pstates):
    """Both endpoints, every pstate and exact midpoint, their float
    neighbours, and values outside the table."""
    points = [*pstates, *_midpoints(pstates), -1e300, -1.0, 0.0, 1e300]
    points += [np.nextafter(p, d) for p in list(points) for d in (-np.inf, np.inf)]
    return points


def assert_agrees(pstates, freqs):
    idx = quantize_indices(pstates, np.array(freqs, dtype=np.float64))
    assert [pstates[i] for i in idx] == [quantize_to_pstate(pstates, f) for f in freqs]


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_quantize_landmarks(profile):
    assert_agrees(profile.pstates, landmarks(profile.pstates))


@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(data=st.data())
def test_quantize_arbitrary_floats(profile, data):
    span = st.floats(min_value=profile.min_freq_khz - 1e6, max_value=profile.max_freq_khz + 1e6)
    pick = st.sampled_from(landmarks(profile.pstates))
    freqs = data.draw(st.lists(st.one_of(st.floats(allow_nan=True), span, pick), min_size=1))
    assert_agrees(profile.pstates, freqs)
