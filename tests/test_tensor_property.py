"""Property-based tests of the autodiff engine (hypothesis)."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.tensor import Tensor, functional as F

_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))


def _arr(shape, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal(shape) * scale).astype(np.float32)


@given(shape=_shapes, seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_add_commutes(shape, seed):
    a, b = _arr(shape, seed), _arr(shape, seed + 1)
    assert np.array_equal(F.add(Tensor(a), Tensor(b)).data, F.add(Tensor(b), Tensor(a)).data)


@given(shape=_shapes, seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_mul_grad_matches_other_operand(shape, seed):
    a, b = _arr(shape, seed), _arr(shape, seed + 1)
    ta = Tensor(a, requires_grad=True)
    F.sum(F.mul(ta, Tensor(b))).backward()
    assert np.allclose(ta.grad, b, atol=1e-6)


@given(shape=_shapes, seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_tanh_grad_bounded(shape, seed):
    """d tanh ∈ (0, 1]: gradients through tanh never exceed the seed grad."""
    a = _arr(shape, seed)
    t = Tensor(a, requires_grad=True)
    F.sum(F.tanh(t)).backward()
    assert np.all(t.grad > 0)
    assert np.all(t.grad <= 1.0 + 1e-6)


@given(shape=_shapes, seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_are_distributions(shape, seed):
    a = _arr(shape, seed, scale=5.0)
    s = F.softmax(Tensor(a), axis=1).data
    assert np.all(s >= 0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-5)


@given(shape=_shapes, seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_sum_grad_is_ones(shape, seed):
    t = Tensor(_arr(shape, seed), requires_grad=True)
    F.sum(t).backward()
    assert np.allclose(t.grad, 1.0)


@given(
    n=st.integers(2, 8),
    f=st.integers(1, 4),
    e=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=40, deadline=None)
def test_gather_scatter_adjoint_identity(n, f, e, seed):
    """⟨scatter(g), x⟩ == ⟨g, gather(x)⟩ — the defining adjoint property."""
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, n, e)
    x = rng.standard_normal((n, f)).astype(np.float32)
    g = rng.standard_normal((e, f)).astype(np.float32)
    gathered = F.index_select(Tensor(x), idx).data
    scattered = F.scatter_add(Tensor(g), idx, n).data
    assert np.allclose((scattered * x).sum(), (g * gathered).sum(), atol=1e-3)


@given(shape=_shapes, seed=st.integers(0, 10_000), lo=st.floats(-1, 0), hi=st.floats(0.1, 1))
@settings(max_examples=30, deadline=None)
def test_clip_idempotent(shape, seed, lo, hi):
    a = _arr(shape, seed, scale=3.0)
    once = F.clip(Tensor(a), lo, hi).data
    twice = F.clip(Tensor(once), lo, hi).data
    assert np.array_equal(once, twice)


@given(seed=st.integers(0, 10_000), k=st.integers(1, 6))
@settings(max_examples=25, deadline=None)
def test_chain_rule_power(seed, k):
    """y = x^k via repeated mul: grad == k·x^(k-1)."""
    x_val = float(np.random.default_rng(seed).uniform(0.5, 2.0))
    x = Tensor(np.array([x_val], dtype=np.float32), requires_grad=True)
    y = x
    for _ in range(k - 1):
        y = F.mul(y, x)
    F.sum(y).backward()
    assert np.allclose(x.grad, k * x_val ** (k - 1), rtol=1e-3)


_ROW_SUM_SPECIALS = (0.0, -0.0, np.inf, -np.inf, np.nan)


def _with_specials(x: np.ndarray, share: float, rng: np.random.Generator) -> np.ndarray:
    """``x`` with a ``share`` of its entries replaced by ±0, ±inf, NaN,
    ±subnormals, the smallest normal and the largest finite value."""
    info = np.finfo(x.dtype)
    specials = np.array(
        [*_ROW_SUM_SPECIALS, info.smallest_subnormal, -info.smallest_subnormal, info.tiny, info.max],
        dtype=x.dtype,
    )
    mask = rng.random(x.shape) < share
    x[mask] = rng.choice(specials, int(mask.sum()))
    return x


@given(
    rows=st.integers(1, 3000),
    cols=st.integers(1, 48),
    dtype=st.sampled_from([np.float32, np.float64]),
    scale=st.sampled_from([1e-30, 1e-3, 1.0, 1e20]),
    share=st.sampled_from([0.0, 0.01, 0.3]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_bias_gradient_row_sum_is_bit_equal_to_sum(rows, cols, dtype, scale, share, seed):
    """The einsum row sum ``_unbroadcast`` uses for bias gradients gives the
    bytes of ``sum(axis=0)``; a NumPy that changes either order fails here
    before any loss drifts."""
    from repro.tensor.ops import _sum_rows, _unbroadcast

    rng = np.random.default_rng(seed)
    x = _with_specials((rng.standard_normal((rows, cols)) * scale).astype(dtype), share, rng)
    fortran = np.asfortranarray(x)  # sums in another order: kept on ``sum``
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [(_sum_rows(x), x.sum(axis=0)), (_unbroadcast(x, (cols,)), x.sum(axis=0)),
                 (_sum_rows(fortran), fortran.sum(axis=0))]
    for got, want in pairs:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_bias_gradient_row_sum_on_whole_special_columns():
    """Columns that are all -0, all subnormal, or mix inf with -inf, at the
    ``dtdg-update-bound`` bias shape."""
    from repro.tensor.ops import _sum_rows

    for dtype in (np.float32, np.float64):
        x = np.random.default_rng(0).standard_normal((24_000, 16)).astype(dtype)
        x[:, 0] = -0.0
        x[:, 1] = np.finfo(dtype).smallest_subnormal
        x[:, 2] = np.where(np.arange(24_000) % 2, np.inf, -np.inf)
        x[:, 3] = np.nan
        with np.errstate(invalid="ignore"):
            assert _sum_rows(x).tobytes() == x.sum(axis=0).tobytes()
