"""Property checks of the 1-D closed form and the heat-route torus tables
over their documented domain.

The closed form's orders run from 1e-300, below which the kernel at
|m| = 1e6 leaves the normal floating-point range, to the largest double
below 1; offsets and tail starts run up to 1e6.  The torus tables take
every normal order in (0, 1).  Every call runs with warnings turned into
errors.
"""

import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fraclat.kernel import _kernel_1d_raw, _tail_1d_raw, _torus_table_cached, torus_kernel_table
from test_kernel import _exact_torus_kernel

EPS = np.finfo(float).eps
ORDERS = st.floats(min_value=1e-300, max_value=1.0, exclude_max=True)
MESHES = st.floats(min_value=1e-3, max_value=1e3)
OFFSETS = st.integers(min_value=-10 ** 6, max_value=10 ** 6)
STARTS = st.integers(min_value=1, max_value=10 ** 6)


def _strict(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@settings(max_examples=200, deadline=None)
@given(s=ORDERS, h=MESHES, ms=st.lists(OFFSETS, min_size=1, max_size=12),
       starts=st.lists(STARTS, min_size=1, max_size=12))
def test_array_closed_form_is_its_batch_of_one(s, h, ms, starts):
    batch = _strict(_kernel_1d_raw, s, h, np.array(ms))
    assert batch.tolist() == [_strict(_kernel_1d_raw, s, h, m) for m in ms]
    tails = _strict(_tail_1d_raw, s, h, np.array(starts))
    assert tails.tolist() == [_strict(_tail_1d_raw, s, h, m) for m in starts]


@settings(max_examples=300, deadline=None)
@given(s=ORDERS, m=st.integers(min_value=0, max_value=10 ** 6))
def test_values_positive_even_and_decreasing(s, m):
    k = _strict(_kernel_1d_raw, s, 1.0, np.array([-m - 1, -m, m, m + 1]))
    assert np.isfinite(k).all()
    assert k[0] == k[3] > 0.0 and k[1] == k[2]
    assert k[2] > k[3] if m > 0 else k[2] == 0.0


@settings(max_examples=300, deadline=None)
@given(s=ORDERS, big_m=STARTS)
def test_tail_telescopes(s, big_m):
    # tail(M) - tail(M+1) = K(M); each closed form carries a few eps of
    # Gamma-ratio error relative to its own size
    t = _strict(_tail_1d_raw, s, 1.0, np.array([big_m, big_m + 1]))
    k = _strict(_kernel_1d_raw, s, 1.0, big_m)
    assert np.isfinite(t).all() and t[0] >= t[1] > 0.0
    assert abs((t[0] - t[1]) - k) <= 64.0 * EPS * t[0]


@settings(max_examples=25, deadline=None)
@given(s=st.floats(min_value=np.finfo(float).tiny, max_value=1.0, exclude_max=True),
       dn=st.one_of(st.tuples(st.just(1), st.integers(2, 16)),
                    st.tuples(st.just(2), st.integers(2, 6))))
def test_heat_table_within_its_certificate_of_the_fourier_sum(s, dn):
    # entries of the tables with and without the diagonal, and .diag, each
    # within its certificate of the exact Fourier sum (and of the mass's error)
    d, N = dn
    exact, diag, diag_err = _exact_torus_kernel(s, N, d)
    off = np.ones(exact.shape, dtype=bool)
    off[(0,) * d] = False
    _torus_table_cached.cache_clear()  # build inside the filter
    for need_diag in (False, True):
        t = _strict(torus_kernel_table, s, N, d, 1e-12, need_diag, "heat")
        assert np.abs(t.full - exact)[off].max() <= t.err, need_diag
    assert abs(t.diag - diag) <= t.err + diag_err
