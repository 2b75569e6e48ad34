import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_array_equal

from eitkit import (
    AssumptionViolationError,
    DomainError,
    FormatError,
    Inclusion,
    NoiseSpec,
    SampleSizeError,
    SourceSpec,
    correlation,
    generate_ensemble,
    generate_noise_ensemble,
    load_phantom_spec,
    make_demo_fixture,
    make_phantom,
    save_phantom_spec,
    third_cumulants,
)
from eitkit.phantom import NOISE_STREAM, _draw_noise, _stream

WHITE = NoiseSpec("white", 0.0)


def test_source_count_and_repeats_follow_the_integer_rule():
    with pytest.raises(DomainError, match="source count"):
        SourceSpec(True, "skewed")
    assert SourceSpec(np.int64(2), "skewed") == SourceSpec(2, "skewed")
    _, generator = make_demo_fixture()
    with pytest.raises(DomainError, match="repeats"):
        generator(True)
    assert_array_equal(generator(np.int64(2)).samples, generator(2).samples)


def test_demo_fixture_dimensions_and_exact_statistic():
    A, generator = make_demo_fixture()
    assert A.shape == (4, 3)
    ens = generator()
    assert ens.samples.shape == (4, 4)
    # raw correlation is exactly diagonal with distinct signal powers
    assert_array_equal(correlation(ens).matrix, np.diag([9.0, 4.0, 1.0, 0.0]))
    assert_array_equal(correlation(generator(repeats=6)).matrix, np.diag([9.0, 4.0, 1.0, 0.0]))


def test_demo_fixture_samples_lie_in_mixing_span():
    A, generator = make_demo_fixture()
    samples = generator(repeats=2).samples
    residual = samples.T - A @ np.linalg.lstsq(A, samples.T, rcond=None)[0]
    assert np.max(np.abs(residual)) <= 1e-12


def test_generate_ensemble_deterministic_per_seed():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((4, 2))
    spec = SourceSpec(2, "skewed")
    noise = NoiseSpec("white", 0.1)
    a = generate_ensemble(A, spec, noise, T=200, seed=42)
    b = generate_ensemble(A, spec, noise, T=200, seed=42)
    c = generate_ensemble(A, spec, noise, T=200, seed=43)
    assert_array_equal(a.samples, b.samples)
    assert np.max(np.abs(a.samples - c.samples)) > 1e-3


def test_generate_ensemble_noiseless_stays_in_span():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 3))
    ens = generate_ensemble(A, SourceSpec(3, "symmetric-binary"), WHITE, T=64, seed=7)
    proj = A @ np.linalg.pinv(A)
    assert np.max(np.abs(ens.samples.T - proj @ ens.samples.T)) <= 1e-12


def test_generate_ensemble_rejects_dependent_columns():
    A = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(AssumptionViolationError, match="independent"):
        generate_ensemble(A, SourceSpec(2, "skewed"), WHITE, T=16, seed=0)


@pytest.mark.parametrize("T", [1, 0, 2.0])
def test_generate_ensemble_needs_two_samples_up_front(T):
    A = np.array([[1.0], [2.0]])
    with pytest.raises(SampleSizeError, match=rf"^sample count T must be >= 2, got {T!r}$"):
        generate_ensemble(A, SourceSpec(1, "skewed"), WHITE, T, seed=0)


def test_symmetric_binary_sources_hit_exact_levels():
    A = np.eye(2)
    ens = generate_ensemble(A, SourceSpec(2, "symmetric-binary", variance=4.0), WHITE, T=500, seed=3)
    assert set(np.unique(ens.samples)) == {-2.0, 2.0}


def test_skewed_sources_match_requested_moments():
    t = 200_000
    spec = SourceSpec(1, "skewed", variance=1.0, third_moment=2.0)
    ens = generate_ensemble(np.array([[1.0]]), spec, WHITE, T=t, seed=5)
    x = ens.samples[:, 0]
    centered = x - x.mean()
    assert np.var(x) == pytest.approx(1.0, abs=0.05)
    assert np.mean(centered**3) == pytest.approx(2.0, abs=0.15)
    flipped = SourceSpec(1, "skewed", variance=1.0, third_moment=-2.0)
    y = generate_ensemble(np.array([[1.0]]), flipped, WHITE, T=t, seed=5).samples[:, 0]
    assert np.mean((y - y.mean()) ** 3) == pytest.approx(-2.0, abs=0.15)


def test_white_noise_correlation_near_identity():
    t = 100_000
    std = 0.7
    ens = generate_noise_ensemble(3, NoiseSpec("white", std), T=t, seed=11)
    cov = correlation(ens, center=True).matrix
    stderr = std**2 / np.sqrt(t)
    assert np.max(np.abs(cov - std**2 * np.eye(3))) <= 5 * np.sqrt(2) * stderr


def test_colored_noise_is_stationary_ar1():
    t = 200_000
    a, std = 0.6, 1.2
    ens = generate_noise_ensemble(1, NoiseSpec("colored", std, (a,)), T=t, seed=13)
    x = ens.samples[:, 0]
    assert np.std(x) == pytest.approx(std, rel=0.02)
    lag1 = np.mean(x[1:] * x[:-1]) / np.mean(x * x)
    assert lag1 == pytest.approx(a, abs=0.02)


def lfilter_noise(noise, T, channels, seed):
    """The colored draw as ``scipy.signal.lfilter`` filters it, one channel
    at a time, from the same noise stream."""
    from scipy.signal import lfilter  # the oracle only: eitkit does not load scipy.signal

    a = noise.coefficients[0]
    rng = _stream(seed, NOISE_STREAM)
    w = rng.normal(0.0, noise.std * np.sqrt(1.0 - a * a), size=(T, channels))
    n0 = rng.normal(0.0, noise.std, size=channels)
    columns = [lfilter([1.0], [1.0, -a], w[:, ch], zi=[a * n0[ch]])[0] for ch in range(channels)]
    return np.column_stack(columns)


@settings(max_examples=60, deadline=None)
@given(
    a=st.floats(-0.99, 0.99, exclude_min=True, exclude_max=True),
    std=st.floats(0.0, 10.0),
    T=st.integers(1, 3000),
    channels=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_colored_noise_equals_lfilter_bitwise(a, std, T, channels, seed):
    noise = NoiseSpec("colored", std, (a,))
    expected = lfilter_noise(noise, T, channels, seed)
    assert_array_equal(_draw_noise(noise, T, channels, _stream(seed, NOISE_STREAM)), expected)
    if T == 1:  # an ensemble needs two samples
        return
    assert_array_equal(generate_noise_ensemble(channels, noise, T, seed).samples, expected)
    A = 0.5 * np.arange(1.0, channels + 1.0)[:, None]
    source = SourceSpec(1, "skewed")
    signal = generate_ensemble(A, source, WHITE, T, seed).samples
    assert_array_equal(generate_ensemble(A, source, noise, T, seed).samples, signal + expected)


def test_noise_spec_validation():
    with pytest.raises(DomainError):
        NoiseSpec("colored", 1.0, (1.0,))  # unstable
    with pytest.raises(DomainError):
        NoiseSpec("colored", 1.0, ())  # missing coefficient
    with pytest.raises(DomainError):
        NoiseSpec("white", 1.0, (0.5,))  # stray coefficient
    with pytest.raises(DomainError):
        NoiseSpec("white", -1.0)
    with pytest.raises(DomainError):
        NoiseSpec("pink", 1.0)


def test_source_spec_validation():
    with pytest.raises(DomainError):
        SourceSpec(0, "skewed")
    with pytest.raises(DomainError):
        SourceSpec(1, "uniform")
    with pytest.raises(DomainError):
        SourceSpec(1, "skewed", third_moment=0.0)
    with pytest.raises(DomainError):
        SourceSpec(1, "skewed", variance=0.0)


def test_sources_and_noise_independent_streams():
    t = 100_000
    A = np.array([[1.0], [0.0]])
    ens = generate_ensemble(
        A, SourceSpec(1, "symmetric-binary"), NoiseSpec("white", 1.0), T=t, seed=17
    )
    # channel 1 carries pure noise; its correlation with the source-dominated
    # channel 0 is the cross term
    x, n = ens.samples[:, 0], ens.samples[:, 1]
    cross = np.mean((x - x.mean()) * (n - n.mean()))
    assert abs(cross) <= 5 * np.sqrt(np.var(x) * np.var(n) / t)


def test_colored_noise_cumulants_vanish():
    t = 100_000
    ens = generate_noise_ensemble(3, NoiseSpec("colored", 0.8, (0.5,)), T=t, seed=19)
    tensor = third_cumulants(ens).tensor
    centered = ens.samples - ens.samples.mean(axis=0)
    m6 = float(np.max(np.mean(centered**6, axis=0)))
    inflation = (1 + 0.5) / (1 - 0.5)  # correlated samples shrink the effective T
    assert np.max(np.abs(tensor)) <= 5 * np.sqrt(inflation * m6 / t)


def test_make_phantom_uniform_and_single_element(disk_r1):
    uniform = make_phantom(disk_r1, 2.5)
    assert_array_equal(uniform.sigma, np.full(disk_r1.n_elements, 2.5))
    assert uniform.warnings == ()

    centroids = disk_r1.coords[disk_r1.triangles].mean(axis=1)
    spacing = np.min(
        [np.min(np.delete(np.hypot(*(centroids - c).T), k)) for k, c in enumerate(centroids)]
    )
    target = 5
    inc = Inclusion(tuple(centroids[target]), 0.4 * spacing, 10.0)
    phantom = make_phantom(disk_r1, 1.0, [inc])
    covered = np.flatnonzero(phantom.sigma != 1.0)
    assert_array_equal(covered, [target])
    assert phantom.sigma[target] == 10.0
    assert phantom.warnings == ()


def test_make_phantom_outside_inclusion_warns(disk_r1):
    phantom = make_phantom(disk_r1, 1.0, [Inclusion((5.0, 5.0), 0.1, 10.0)])
    assert_array_equal(phantom.sigma, np.ones(disk_r1.n_elements))
    assert len(phantom.warnings) == 1
    assert "covers no elements" in phantom.warnings[0]


def test_make_phantom_validation(disk_r1):
    with pytest.raises(DomainError):
        make_phantom(disk_r1, 0.0)
    with pytest.raises(DomainError):
        Inclusion((0.0, 0.0), -1.0, 2.0)
    with pytest.raises(DomainError):
        Inclusion((0.0, 0.0), 0.1, 0.0)


@pytest.mark.parametrize("center", [(np.nan, 0.0), (0.0, np.inf), (0, 0, 0), ("a", "b"), (1.0,), 1.0])
def test_inclusion_center_must_be_two_finite_numbers(center):
    with pytest.raises(DomainError, match="inclusion center must be two finite numbers"):
        Inclusion(center, 0.5, 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_make_phantom_far_center_covers_nothing_without_overflow(disk_r1):
    phantom = make_phantom(disk_r1, 1.0, [Inclusion((1.5e308, 1.5e308), 0.5, 2.0)])
    assert_array_equal(phantom.sigma, np.ones(disk_r1.n_elements))
    assert len(phantom.warnings) == 1 and "covers no elements" in phantom.warnings[0]


def test_phantom_spec_round_trip(tmp_path, disk_r1):
    phantom = make_phantom(
        disk_r1, 1.5, [Inclusion((0.3, 0.1), 0.2, 4.0), Inclusion((-0.4, -0.2), 0.15, 0.5)]
    )
    path = tmp_path / "phantom.txt"
    save_phantom_spec(phantom, path, header_lines=("case",))
    again = load_phantom_spec(path, disk_r1)
    assert_array_equal(again.sigma, phantom.sigma)
    assert again.inclusions == phantom.inclusions
    assert again.background == phantom.background


@pytest.mark.parametrize(
    "line, message",
    [
        ("background = -1", "background conductivity must be positive, got -1.0"),
        ("background = nan", "background conductivity must be positive, got nan"),
        ("inclusion = 0 0 -0.5 2", "inclusion radius must be positive, got -0.5"),
        ("inclusion = 0 0 0.5 0", "inclusion contrast must be positive, got 0.0"),
        ("inclusion = nan 0 0.5 2", "inclusion center must be two finite numbers, got (nan, 0.0)"),
    ],
    ids=["negative-background", "nan-background", "negative-radius", "zero-contrast", "nan-center"],
)
def test_phantom_spec_value_errors_are_format_errors_at_their_line(tmp_path, disk_r1, line, message):
    path = tmp_path / "phantom.txt"
    tail = "" if line.startswith("background") else "background = 1\n"
    path.write_text("# case\n[phantom]\ninclusion = 0 0 0.2 2\n" + line + "\n" + tail)
    with pytest.raises(FormatError) as err:
        load_phantom_spec(path, disk_r1)
    assert err.value.line_no == 4
    assert type(err.value.__cause__) is DomainError
    assert str(err.value.__cause__) == message
    assert str(err.value) == f"{message} (line 4)"
