from functools import reduce
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from eitkit import (
    DimensionError,
    DomainError,
    FormatError,
    MeasurementEnsemble,
    MomentAccumulator,
    NumericalError,
    SampleSizeError,
    correlation,
    load_ensemble,
    save_ensemble,
    third_cumulants,
)
from eitkit.statistics import _BLOCK_BYTES, _fill_symmetric, _sorted_flat_index, _third_moment_sum


def brute_third_cumulants(samples: np.ndarray) -> np.ndarray:
    """Independent oracle: plain triple loop over centered samples."""
    z = samples - samples.mean(axis=0)
    t, m = z.shape
    out = np.zeros((m, m, m))
    for i in range(m):
        for j in range(m):
            for k in range(m):
                acc = 0.0
                for s in range(t):
                    acc += z[s, j] * z[s, k] * z[s, i]
                out[i, j, k] = acc / t
    return out


def test_ensemble_validation():
    with pytest.raises(SampleSizeError):
        MeasurementEnsemble(np.zeros((1, 3)))
    with pytest.raises(DomainError):
        MeasurementEnsemble(np.array([[0.0, np.nan], [1.0, 2.0]]))
    with pytest.raises(DimensionError):
        MeasurementEnsemble(np.zeros(5))


def test_correlation_identical_vectors():
    e1 = np.zeros((10, 3))
    e1[:, 0] = 1.0
    ens = MeasurementEnsemble(e1)
    uncentered = correlation(ens, center=False)
    expect = np.zeros((3, 3))
    expect[0, 0] = 1.0
    assert_array_equal(uncentered.matrix, expect)
    centered = correlation(ens, center=True)
    assert_array_equal(centered.matrix, np.zeros((3, 3)))


def test_correlation_rank_bounded_by_source_count():
    rng = np.random.default_rng(3)
    d, m, t = 2, 5, 40
    A = rng.standard_normal((m, d))
    x = rng.standard_normal((t, d))
    Y = correlation(MeasurementEnsemble(x @ A.T), center=False).matrix
    w = np.linalg.eigvalsh(Y)[::-1]
    assert w[d] <= 1e-10 * np.trace(Y)
    assert w.min() >= -1e-10 * np.trace(Y)  # positive semidefinite


def test_correlation_symmetric_exactly():
    rng = np.random.default_rng(4)
    Y = correlation(MeasurementEnsemble(rng.standard_normal((100, 6)))).matrix
    assert_array_equal(Y, Y.T)


@settings(max_examples=40, deadline=None)
@example(t=2, m=1, blocks=0, seed=1)
@example(t=3, m=32, blocks=2, seed=2)  # two whole blocks and a ragged tail
@given(
    t=st.integers(2, 300),
    m=st.integers(1, 40),
    blocks=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_centered_correlation_matches_the_whole_copy_formula(t, m, blocks, seed):
    rng = np.random.default_rng(seed)
    t += blocks * max(1, _BLOCK_BYTES // (8 * m))  # below one block, or past one or two
    samples = rng.standard_normal((t, m)) * rng.uniform(0.1, 10.0, m) + rng.uniform(-1e3, 1e3, m)
    z = samples - samples.mean(axis=0)
    expect = (z.T @ z) / t
    matrix = correlation(MeasurementEnsemble(samples), center=True).matrix
    assert_allclose(matrix, expect, rtol=0, atol=1e-12 * np.abs(expect).max())
    assert_array_equal(matrix, matrix.T)


def test_centered_correlation_needs_no_copy_of_the_samples():
    import tracemalloc

    ensemble = MeasurementEnsemble(np.random.default_rng(16).exponential(size=(100_000, 32)))
    tracemalloc.start()
    try:
        correlation(ensemble, center=True)
        extra = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block of rows (1 MiB); a whole centered copy was 24.4 MiB
    assert extra <= 2 * 2**20, extra / 2**20


def test_third_cumulants_match_brute_force_oracle():
    rng = np.random.default_rng(5)
    samples = rng.standard_normal((60, 4)) ** 3
    tensor = third_cumulants(MeasurementEnsemble(samples)).tensor
    assert_allclose(tensor, brute_third_cumulants(samples), rtol=0, atol=1e-13)


def test_third_cumulants_trilinear_symmetry_exact():
    rng = np.random.default_rng(6)
    samples = rng.standard_normal((50, 5))
    merged = MomentAccumulator(5)
    for chunk in np.array_split(samples, 3):
        merged = merged.merge(MomentAccumulator(5).update(chunk))
    for tensor in (third_cumulants(MeasurementEnsemble(samples)).tensor, merged.third_cumulants().tensor):
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert_array_equal(tensor, tensor.transpose(perm))


def einsum_third_moments(z: np.ndarray) -> np.ndarray:
    """Oracle for the triangle kernel: every (i, j, k) entry summed by einsum."""
    return np.einsum("ti,tj,tk->ijk", z, z, z)


def layouts(x: np.ndarray) -> dict:
    """The same kind of T x M samples as C-ordered, Fortran-ordered and
    strided arrays; ``x`` has 2T rows so that ``x[::2]`` holds T."""
    t = x.shape[0] // 2
    return {
        "C": np.ascontiguousarray(x[:t]),
        "F": np.asfortranarray(x[:t]),
        "rows[::2]": x[::2],
        "cols[::-1]": x[:t, ::-1],
    }


def assert_exactly_symmetric(tensor: np.ndarray) -> None:
    for perm in permutations(range(3)):
        assert_array_equal(tensor, tensor.transpose(perm))


@pytest.mark.parametrize("m", range(1, 13))
def test_third_moment_kernel_matches_einsum_for_any_layout(m):
    rng = np.random.default_rng(100 + m)
    for t in (3, 17, 200):
        x = rng.standard_normal((2 * t, m)) ** 3 + 0.7
        for name, samples in layouts(x).items():
            z = samples - samples.mean(axis=0)
            expect = einsum_third_moments(z) / t
            scale = np.abs(expect).max()
            tensor = third_cumulants(MeasurementEnsemble(samples)).tensor
            assert_allclose(tensor, expect, rtol=0, atol=1e-12 * scale, err_msg=name)
            assert_exactly_symmetric(tensor)

            acc = MomentAccumulator(m).update(samples[:0])  # an empty chunk adds nothing
            assert_array_equal(acc.s3, np.zeros((m, m, m)))
            acc.update(samples)
            raw = einsum_third_moments(samples)
            assert_allclose(acc.s3, raw, rtol=0, atol=1e-12 * np.abs(raw).max(), err_msg=name)
            assert_exactly_symmetric(acc.s3)
            merged = acc.third_cumulants().tensor
            assert_allclose(merged, expect, rtol=0, atol=1e-12 * scale, err_msg=name)
            assert_exactly_symmetric(merged)


def kernel_rows(m: int) -> int:
    """Rows in one block of the third-moment kernel at ``m`` channels: the
    block and its ``(rows, ceil(m / 2))`` product buffer fill one
    ``_BLOCK_BYTES``."""
    return max(1, _BLOCK_BYTES // (8 * (m + (m + 1) // 2)))


@pytest.mark.parametrize(
    "m, t", [(32, 2 * kernel_rows(32) + 17), (1, 2 * kernel_rows(1) + 17), (32, 1), (1, 1)]
)
def test_third_moment_kernel_across_row_blocks(m, t):
    rng = np.random.default_rng(300 + m + t)
    x = rng.standard_normal((2 * t, m)) ** 3 + 0.7
    rows = kernel_rows(m)
    for name, samples in layouts(x).items():
        raw = einsum_third_moments(samples)
        raw_scale = np.abs(raw).max()
        s3 = _third_moment_sum(samples)
        assert_allclose(s3, raw, rtol=0, atol=1e-12 * raw_scale, err_msg=name)
        assert_exactly_symmetric(s3)

        # the middle chunk straddles the first block boundary, the last
        # holds more than one block of its own
        chunks = np.split(samples, [c for c in (rows - 5, rows + 9) if 0 < c < t])
        merged = reduce(MomentAccumulator.merge, [MomentAccumulator(m).update(c) for c in chunks])
        assert merged.n == t
        assert_allclose(merged.s3, s3, rtol=0, atol=1e-12 * raw_scale, err_msg=name)
        assert_exactly_symmetric(merged.s3)
        if t < 3:
            continue
        z = samples - samples.mean(axis=0)
        expect = einsum_third_moments(z) / t
        scale = np.abs(expect).max()
        tensor = third_cumulants(MeasurementEnsemble(samples)).tensor
        assert_allclose(tensor, expect, rtol=0, atol=1e-12 * scale, err_msg=name)
        assert_exactly_symmetric(tensor)
        finalized = merged.third_cumulants().tensor
        assert_allclose(finalized, tensor, rtol=0, atol=1e-12 * scale, err_msg=name)
        assert_exactly_symmetric(finalized)


def per_slice_third_moment_sum(z: np.ndarray) -> np.ndarray:
    """The per-slice kernel that the middle-index, row-blocked
    ``_third_moment_sum`` replaced, kept verbatim as its reference.

    Only the sorted-index triangle ``i <= j <= k`` that
    :func:`_fill_symmetric` reads is computed: one GEMM
    ``(z[:, i:] * z_i)^T z[:, i:]`` fills the block ``[i, i:, i:]`` of
    slice i, about ``2 T (M - i)^2`` flops, a third of the full tensor's
    ``2 T M^3`` in all. A Fortran-ordered ``z`` keeps every ``z[:, i:]``
    contiguous, so no GEMM operand is copied."""
    z = np.asfortranarray(z)
    m = z.shape[1]
    out = np.empty((m, m, m))
    for i in range(m):
        tail = z[:, i:]
        out[i, i:, i:] = (tail * z[:, i : i + 1]).T @ tail
    return _fill_symmetric(out)


@settings(max_examples=40, deadline=None)
@example(t=9000, m=40, skewed=True, seed=1)  # two block boundaries at M = 40
@example(t=9000, m=40, skewed=False, seed=2)
@given(
    t=st.integers(3, 9000),
    m=st.integers(1, 40),
    skewed=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_blocked_kernel_matches_the_per_slice_kernel_on_noisy_data(t, m, skewed, seed):
    rng = np.random.default_rng(seed)
    draw = rng.exponential(size=(t, m)) - 1.0 if skewed else rng.standard_normal((t, m))
    samples = draw + rng.uniform(-5.0, 5.0, size=m)
    z = samples - samples.mean(axis=0)
    # both kernels sum the same T products per entry, in different orders
    # and blocks, so they differ by rounding only; the stated bound is
    # 1e-12 of the largest entry
    for data in (samples, z):
        old = per_slice_third_moment_sum(data)
        new = _third_moment_sum(data)
        assert_allclose(new, old, rtol=0, atol=1e-12 * np.abs(old).max())
        assert_exactly_symmetric(new)
    old = per_slice_third_moment_sum(z) / t
    new = third_cumulants(MeasurementEnsemble(samples)).tensor
    assert_allclose(new, old, rtol=0, atol=1e-12 * np.abs(old).max())


def whole_copy_third_moment_sum(z: np.ndarray) -> np.ndarray:
    """``_third_moment_sum`` without its per-block copies and product
    buffer: one Fortran-ordered copy of all of z, then the same GEMMs per
    middle index over row-block views of that copy, each scaling the
    narrower operand into an array of its own."""
    z = np.asfortranarray(z)
    t, m = z.shape
    rows = kernel_rows(m)
    out = np.zeros((m, m, m))
    for start in range(0, t, rows):
        block = z[start : start + rows]
        for j in range(m):
            if j + 1 <= m - j:
                out[: j + 1, j, j:] += (block[:, : j + 1] * block[:, j : j + 1]).T @ block[:, j:]
            else:
                out[: j + 1, j, j:] += block[:, : j + 1].T @ (block[:, j:] * block[:, j : j + 1])
    return _fill_symmetric(out)


@settings(max_examples=30, deadline=None)
@given(
    m=st.integers(1, 40),
    length=st.sampled_from(["below one block", "whole blocks", "ragged tail"]),
    blocks=st.integers(1, 2),
    layout=st.sampled_from(["C", "F", "rows[::2]", "cols[::-1]"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_blocks_centered_one_at_a_time_match_the_whole_copy_bitwise(m, length, blocks, layout, seed):
    rng = np.random.default_rng(seed)
    rows = kernel_rows(m)
    part = int(rng.integers(3, rows))
    t = {"below one block": part, "whole blocks": blocks * rows, "ragged tail": blocks * rows + part}[length]
    samples = layouts(rng.exponential(size=(2 * t, m)) + rng.uniform(-5.0, 5.0, size=m))[layout]
    mean = samples.mean(axis=0)
    # the same products in the same order: equal bits, not a tolerance
    expect = whole_copy_third_moment_sum(np.subtract(samples, mean, order="F")) / t
    assert_array_equal(third_cumulants(MeasurementEnsemble(samples)).tensor, expect)
    raw = whole_copy_third_moment_sum(samples)
    assert_array_equal(_third_moment_sum(samples), raw)
    assert_array_equal(MomentAccumulator(m).update(samples).s3, raw)


@settings(max_examples=25, deadline=None)
@example(m=1, length="ragged tail", blocks=1, seed=1)
@example(m=2, length="whole blocks", blocks=2, seed=2)
@example(m=39, length="ragged tail", blocks=2, seed=3)
@example(m=40, length="below one block", blocks=1, seed=4)
@given(
    m=st.integers(1, 40),
    length=st.sampled_from(["below one block", "whole blocks", "ragged tail"]),
    blocks=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_scaled_operands_match_einsum(m, length, blocks, seed):
    rng = np.random.default_rng(seed)
    rows = kernel_rows(m)
    part = int(rng.integers(3, rows))
    t = {"below one block": part, "whole blocks": blocks * rows, "ragged tail": blocks * rows + part}[length]
    samples = rng.exponential(size=(t, m)) + rng.uniform(-5.0, 5.0, size=m)
    raw = einsum_third_moments(samples)
    s3 = _third_moment_sum(samples)
    atol = 1e-12 * np.abs(raw).max()
    for j in range(m):
        # middle index j scales z[:, :j+1] while it is the narrower operand, z[:, j:] after
        branch = "z[:, :j+1] scaled" if j + 1 <= m - j else "z[:, j:] scaled"
        assert_allclose(s3[: j + 1, j, j:], raw[: j + 1, j, j:], rtol=0, atol=atol, err_msg=f"j={j}, {branch}")
    assert_exactly_symmetric(s3)


def test_third_moments_need_no_copy_of_the_samples():
    import tracemalloc

    rng = np.random.default_rng(8)
    ensemble = MeasurementEnsemble(rng.exponential(size=(100_000, 32)))
    for name, call in {
        "third_cumulants": lambda: third_cumulants(ensemble),
        "update": lambda: MomentAccumulator(32).update(ensemble.samples),
    }.items():
        tracemalloc.start()
        try:
            call()
            extra = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of rows with its products, the tensor and, on the first
        # call, its sorted index (2.5 MiB), or the finiteness check's T x M
        # booleans (3.1 MiB); a whole centered copy was 24.4 MiB
        assert extra <= 4 * 2**20, (name, extra / 2**20)


@pytest.mark.parametrize("ndim", [2, 3])
@pytest.mark.parametrize("m", [1, 2, 5, 32])
def test_fill_symmetric_reads_only_the_sorted_index(ndim, m):
    shape = (m,) * ndim
    index = np.indices(shape)
    a = np.random.default_rng(14).standard_normal(shape)
    # the general sorted-index gather the closed form replaces
    expect = a[tuple(np.sort(index, axis=0))]
    assert_array_equal(_fill_symmetric(a), expect)
    unsorted = np.any(np.diff(index, axis=0) < 0, axis=0)
    a[unsorted] = np.nan
    out = _fill_symmetric(a)
    assert not np.isnan(out).any()
    assert_array_equal(out, expect)


def fancy_index_fill_symmetric(a: np.ndarray) -> np.ndarray:
    """``_fill_symmetric`` as it was before its index was cached per shape:
    the sorted index in closed form, gathered by a 2- or 3-index fancy
    index on every call."""
    idx = np.indices(a.shape, sparse=True)
    lo = reduce(np.minimum, idx)
    hi = reduce(np.maximum, idx)
    if a.ndim == 2:
        return a[lo, hi]
    return a[lo, sum(idx) - lo - hi, hi]


@pytest.mark.parametrize("ndim", [2, 3])
def test_fill_symmetric_through_the_cached_index_matches_the_fancy_index_bitwise(ndim):
    rng = np.random.default_rng(15 + ndim)
    for m in range(1, 41):
        a = rng.standard_normal((m,) * ndim)
        for _ in range(2):  # the index is made on the first call and reused on the second
            assert_array_equal(_fill_symmetric(a), fancy_index_fill_symmetric(a), err_msg=str(m))


def test_sorted_index_cache_keeps_a_few_shapes_within_its_stated_bytes():
    import tracemalloc

    _sorted_flat_index.cache_clear()
    tracemalloc.start()
    try:
        for m in range(1, 41):
            for ndim in (2, 3):
                _fill_symmetric(np.zeros((m,) * ndim))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert _sorted_flat_index.cache_info().currsize == 4
    assert _sorted_flat_index((40, 40, 40)) is _sorted_flat_index((40, 40, 40))
    assert not _sorted_flat_index((40, 40, 40)).flags.writeable
    # the docstring's bound, 4 * 8 * M**3 bytes at the largest cube filled;
    # the last four shapes (39 and 40, 2-D and 3-D) hold 1.0 MB of it
    assert held <= 4 * 8 * 40**3, held


def test_pooled_cumulants_weighted():
    rng = np.random.default_rng(12)
    cset = third_cumulants(MeasurementEnsemble(rng.standard_normal((40, 3)) ** 3))
    assert_allclose(cset.pooled(), sum(cset.matrix(i) for i in range(3)), atol=1e-15)
    w = np.array([0.5, -1.0, 2.0])
    assert_allclose(
        cset.pooled(w), sum(w[i] * cset.matrix(i) for i in range(3)), atol=1e-14
    )
    with pytest.raises(DimensionError):
        cset.pooled(np.ones(4))


def test_cumulant_matrix_index_outside_channels_is_domain_error():
    cset = third_cumulants(MeasurementEnsemble(np.random.default_rng(13).standard_normal((40, 3))))
    assert_array_equal(cset.matrix(2), cset.tensor[2])
    for i in (3, 99, -1, -3):
        with pytest.raises(DomainError, match=f"cumulant index {i} outside 0..2"):
            cset.matrix(i)


def test_third_cumulants_rank_one_closed_form():
    # y(t) = s(t) a with deterministic scalar s of known third moment
    s = np.array([2.0, -1.0, -1.0, 0.5, -0.5, 0.0] * 5)
    a = np.array([1.0, -2.0, 0.5])
    mu3 = float(np.mean((s - s.mean()) ** 3))
    assert abs(mu3) > 0.1
    cset = third_cumulants(MeasurementEnsemble(np.outer(s, a)))
    for i in range(3):
        assert_allclose(cset.matrix(i), mu3 * a[i] * np.outer(a, a), rtol=0, atol=1e-13)
    assert_allclose(cset.pooled(), mu3 * a.sum() * np.outer(a, a), atol=1e-12)


def test_symmetric_sources_have_vanishing_cumulants():
    rng = np.random.default_rng(7)
    t = 20000
    samples = (rng.integers(0, 2, size=(t, 3)) * 2 - 1).astype(float)
    tensor = third_cumulants(MeasurementEnsemble(samples)).tensor
    m6 = float(np.max(np.mean(samples**6, axis=0)))
    assert np.max(np.abs(tensor)) <= 5.0 * np.sqrt(m6 / t)


def test_gaussian_cumulants_vanish_statistically():
    rng = np.random.default_rng(8)
    t = 20000
    samples = rng.normal(0.0, 1.3, size=(t, 3))
    tensor = third_cumulants(MeasurementEnsemble(samples)).tensor
    m6 = float(np.max(np.mean((samples - samples.mean(0)) ** 6, axis=0)))
    assert np.max(np.abs(tensor)) <= 5.0 * np.sqrt(m6 / t)


def test_sample_size_guards():
    two = MeasurementEnsemble(np.array([[1.0, 2.0], [3.0, 4.0]]))
    correlation(two)  # fine
    with pytest.raises(SampleSizeError):
        third_cumulants(two)
    acc = MomentAccumulator(2).update(two.samples)
    with pytest.raises(SampleSizeError):
        acc.third_cumulants()


def test_statistics_invariant_under_reordering():
    rng = np.random.default_rng(9)
    samples = rng.standard_normal((200, 4))
    shuffled = samples[rng.permutation(200)]
    a, b = MeasurementEnsemble(samples), MeasurementEnsemble(shuffled)
    assert_allclose(correlation(a).matrix, correlation(b).matrix, atol=1e-12)
    assert_allclose(third_cumulants(a).tensor, third_cumulants(b).tensor, atol=1e-12)


@pytest.mark.parametrize("splits", [2, 3, 5, 300])  # 300 > T leaves empty chunks
def test_accumulator_merge_equals_concatenated(splits):
    rng = np.random.default_rng(10)
    samples = rng.standard_normal((240, 3)) + 0.7
    chunks = np.array_split(samples, splits)
    acc = MomentAccumulator(3)
    for chunk in chunks:
        acc = acc.merge(MomentAccumulator(3).update(chunk))
    whole = MeasurementEnsemble(samples)
    assert_allclose(acc.correlation(center=False).matrix, correlation(whole).matrix, atol=1e-12)
    assert_allclose(
        acc.correlation(center=True).matrix, correlation(whole, center=True).matrix, atol=1e-12
    )
    assert_allclose(acc.third_cumulants().tensor, third_cumulants(whole).tensor, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_accumulator_any_chunking_and_merge_tree_matches_one_shot(data):
    t = data.draw(st.integers(3, 40), label="T")
    m = data.draw(st.integers(1, 9), label="M")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    samples = np.random.default_rng(seed).standard_normal((t, m)) + 0.7
    # repeated cut points leave empty chunks
    cuts = sorted(data.draw(st.lists(st.integers(0, t), max_size=8), label="cuts"))
    pending = [MomentAccumulator(m).update(chunk) for chunk in np.split(samples, cuts)]
    while len(pending) > 1:  # merge any two pending nodes: an arbitrary, uneven tree
        i = data.draw(st.integers(0, len(pending) - 1), label="left")
        left = pending.pop(i)
        j = data.draw(st.integers(0, len(pending) - 1), label="right")
        pending.append(left.merge(pending.pop(j)))
    acc = pending[0]
    whole = MeasurementEnsemble(samples)
    assert acc.n == t
    for center in (False, True):
        assert_allclose(
            acc.correlation(center=center).matrix,
            correlation(whole, center=center).matrix,
            rtol=0,
            atol=1e-12,
        )
    assert_allclose(acc.third_cumulants().tensor, third_cumulants(whole).tensor, rtol=0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_centered_accumulator_correlation_equals_its_transpose_exactly(data):
    t = data.draw(st.integers(2, 40), label="T")
    m = data.draw(st.integers(1, 9), label="M")
    offset = data.draw(st.floats(-1e3, 1e3), label="offset")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    samples = rng.standard_normal((t, m)) * rng.uniform(0.1, 10.0, m) + offset
    cuts = sorted(data.draw(st.lists(st.integers(0, t), max_size=6), label="cuts"))
    chunks = np.split(samples, cuts)
    acc = MomentAccumulator(m).update(chunks[0])  # one accumulator updated in turn, merged with the rest
    for chunk in chunks[1:]:
        acc = acc.update(chunk) if data.draw(st.booleans()) else acc.merge(MomentAccumulator(m).update(chunk))
    matrix = acc.correlation(center=True).matrix
    assert_array_equal(matrix, matrix.T)


def test_accumulator_merge_shape_guard():
    with pytest.raises(DimensionError):
        MomentAccumulator(3).merge(MomentAccumulator(4))
    with pytest.raises(DimensionError, match="MomentAccumulator, got int"):
        MomentAccumulator(3).merge(5)
    with pytest.raises(DimensionError):
        MomentAccumulator(3).update(np.zeros((5, 2)))


def alternating(value: float) -> np.ndarray:
    """Finite samples of magnitude ``value`` whose rows alternate in sign:
    their mean is 0, so centered sums overflow as the raw ones do."""
    return value * np.array([[1.0, 2.0], [-1.0, -2.0], [1.0, 2.0], [-1.0, -2.0]])


OVERFLOWING = {
    "correlation": lambda x: correlation(MeasurementEnsemble(x)),
    "centered correlation": lambda x: correlation(MeasurementEnsemble(x), center=True),
    "third cumulants": lambda x: third_cumulants(MeasurementEnsemble(x)),
    "accumulator update": lambda x: MomentAccumulator(x.shape[1]).update(x),
}


# RuntimeWarning fails the suite, so these also show that no overflow warning is issued
@pytest.mark.parametrize("value", [1e200, -1e200])
@pytest.mark.parametrize("statistic", OVERFLOWING)
def test_finite_samples_whose_moment_sums_overflow_raise_numerical_error(statistic, value):
    with pytest.raises(NumericalError, match="moment sums overflow"):
        OVERFLOWING[statistic](alternating(value))


def test_cubes_that_overflow_raise_where_the_squares_do_not():
    samples = alternating(1e103)  # squares near 1e206, cubes past float64
    assert np.isfinite(correlation(MeasurementEnsemble(samples), center=True).matrix).all()
    with pytest.raises(NumericalError, match="third-moment sums overflow"):
        third_cumulants(MeasurementEnsemble(samples))
    with pytest.raises(NumericalError, match="third-moment sums overflow"):
        MomentAccumulator(2).update(samples)


def test_a_raw_sum_of_constant_samples_overflows_and_the_centered_one_does_not():
    ensemble = MeasurementEnsemble(np.full((4, 2), 1e200))
    assert_array_equal(correlation(ensemble, center=True).matrix, np.zeros((2, 2)))
    assert_array_equal(third_cumulants(ensemble).tensor, np.zeros((2, 2, 2)))
    with pytest.raises(NumericalError):
        correlation(ensemble)


def test_an_accumulator_whose_sums_overflow_is_left_as_it_was():
    acc = MomentAccumulator(1).update(np.array([[5e102]]))  # its cube is finite, two are not
    with pytest.raises(NumericalError, match="third-moment sums overflow"):
        acc.update(np.array([[5e102]]))
    assert acc.n == 1 and acc.s1[0] == 5e102 and acc.s3[0, 0, 0] == 5e102**3
    with pytest.raises(NumericalError, match="third-moment sums overflow"):
        acc.merge(acc)


def test_ensemble_csv_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    ens = MeasurementEnsemble(rng.standard_normal((20, 4)))
    path = tmp_path / "ens.csv"
    save_ensemble(ens, path, header_lines=("demo",))
    again = load_ensemble(path)
    assert_array_equal(again.samples, ens.samples)
    assert path.read_text().splitlines()[1] == "y0,y1,y2,y3"


def test_ensemble_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(FormatError):
        load_ensemble(path)
    path.write_text("y0,y1\n1,2\n3\n")
    with pytest.raises(FormatError) as err:
        load_ensemble(path)
    assert err.value.line_no == 3
    path.write_text("y0,y1\n1,2\n")
    with pytest.raises(SampleSizeError):
        load_ensemble(path)


# ------------------------------------------------- input rejections ----


def ensemble_file(text):
    """A call that writes ``text`` as an ensemble file and loads it."""
    def call(tmp):
        path = tmp / "ensemble.csv"
        path.write_text(text)
        return load_ensemble(path)
    return call


# case -> (call, error class, message, line)
REJECTIONS = {
    "no-channels": (lambda tmp: MeasurementEnsemble(np.zeros((3, 0))), DimensionError,
                    "ensemble needs at least one channel", None),
    "accumulator-channels": (lambda tmp: MomentAccumulator(0), DimensionError, "need at least one channel", None),
    "accumulator-channels-float": (lambda tmp: MomentAccumulator(2.5), DimensionError,
                                   "channel count must be an integer, got 2.5", None),
    "accumulator-channels-bool": (lambda tmp: MomentAccumulator(True), DimensionError,
                                  "channel count must be an integer, got True", None),
    "cumulant-index-bool": (lambda tmp: third_cumulants(MeasurementEnsemble(np.eye(3, 2))).matrix(True),
                            DomainError, "cumulant index True outside 0..1", None),
    "cumulant-index-float": (lambda tmp: third_cumulants(MeasurementEnsemble(np.eye(3, 2))).matrix(1.5),
                             DomainError, "cumulant index 1.5 outside 0..1", None),
    "accumulator-non-finite": (lambda tmp: MomentAccumulator(2).update([[1.0, np.nan]]), DomainError,
                               "samples contain non-finite entries", None),
    "accumulator-one-sample": (lambda tmp: MomentAccumulator(2).update([[1.0, 2.0]]).correlation(), SampleSizeError,
                               "correlation needs at least 2 samples", None),
    "row-width": (ensemble_file("# made by hand\ny0,y1\n1,2,3\n4,5,6\n"), FormatError,
                  "expected 2 columns, got 3 (line 3)", 3),
}


def test_channel_count_and_cumulant_index_may_be_numpy_integers():
    samples = np.random.default_rng(3).standard_normal((40, 3))
    acc = MomentAccumulator(np.int64(3)).update(samples)
    assert_array_equal(acc.correlation().matrix, MomentAccumulator(3).update(samples).correlation().matrix)
    cumulants = third_cumulants(MeasurementEnsemble(samples))
    assert_array_equal(cumulants.matrix(np.int64(2)), cumulants.matrix(2))


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_statistics_input_is_rejected_with_its_message(tmp_path, case):
    call, kind, message, line_no = REJECTIONS[case]
    with pytest.raises(kind) as err:
        call(tmp_path)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "line_no", None) == line_no


@pytest.mark.parametrize("value", ["nan", "1e999"])
def test_non_finite_ensemble_value_is_a_format_error_at_its_line(tmp_path, value):
    path = tmp_path / "ensemble.csv"
    path.write_text(f"# made by hand\ny0,y1\n1,2\n3,4\n{value},5\n6,7\n")
    with pytest.raises(FormatError) as err:
        load_ensemble(path)
    assert err.value.line_no == 5
    assert str(err.value) == f"non-finite value {float(value)!r} (line 5)"
