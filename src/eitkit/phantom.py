"""Synthetic ground truths: conductivity phantoms, stochastic measurement
ensembles (Gaussian noise, non-Gaussian sources), and the canonical
4-channel demonstration fixture.

All generators are pure functions of (parameters, seed). Independent
streams are derived deterministically from the parent seed: child stream k
uses ``SeedSequence(seed, spawn_key=(k,))``, so sources and noise never
share randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .errors import (
    AssumptionViolationError,
    DimensionError,
    DomainError,
    FormatError,
    SampleSizeError,
    _check_finite,
    _frozen,
    _read_only,
)
from .mesh import Mesh, _is_int
from .statistics import MeasurementEnsemble, _block_rows
from .textio import _at_line, convert, key_value, put_once, read_lines, sections, write_lines

SOURCE_STREAM = 0
NOISE_STREAM = 1


@dataclass(frozen=True)
class SourceSpec:
    """Source-vector model: d independent unit streams.

    distribution
        ``symmetric-binary``: equiprobable +-sqrt(variance); all odd moments
        vanish, so cumulant matrices of such sources are zero.
        ``skewed``: centered gamma with the requested variance and third
        central moment (default: shifted exponential, third moment 2), the
        simplest law whose third cumulant is nonzero and known in closed
        form.
    """

    d: int
    distribution: str
    variance: float = 1.0
    third_moment: float = 2.0

    def __post_init__(self):
        if not (_is_int(self.d) and self.d >= 1):
            raise DomainError(f"source count d must be a positive integer, got {self.d!r}")
        if self.distribution not in ("symmetric-binary", "skewed"):
            raise DomainError(f"unknown source distribution {self.distribution!r}")
        if not (np.isfinite(self.variance) and self.variance > 0):
            raise DomainError(f"source variance must be positive, got {self.variance!r}")
        if not np.isfinite(self.third_moment):
            raise DomainError(f"source third_moment must be finite, got {self.third_moment!r}")
        if self.distribution == "skewed" and self.third_moment == 0.0:
            raise DomainError("a skewed source needs a nonzero third moment")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian measurement noise.

    ``white`` is i.i.d. N(0, std^2). ``colored`` is the first-order
    recursion ``n_t = a n_{t-1} + w_t`` with ``coefficients = (a,)``,
    |a| < 1, white Gaussian drive ``w_t`` and a stationary start ``n_0``,
    scaled so every ``n_t`` has std ``std``; the output stays Gaussian, so
    its third cumulants vanish just like the white case.
    """

    kind: str
    std: float
    coefficients: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if self.kind not in ("white", "colored"):
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if not (np.isfinite(self.std) and self.std >= 0):
            raise DomainError(f"noise std must be >= 0, got {self.std!r}")
        if self.kind == "white":
            if self.coefficients:
                raise DomainError("white noise takes no filter coefficients")
        else:
            if len(self.coefficients) != 1:
                raise DomainError("colored noise uses a single first-order coefficient")
            if sum(abs(c) for c in self.coefficients) >= 1.0:
                raise DomainError("coloring filter is unstable: |a| must be < 1")


@dataclass(frozen=True)
class Inclusion:
    """Disk-shaped conductivity anomaly: contrast multiplier applied to
    elements whose centroid falls inside the circle."""

    center: tuple[float, float]
    radius: float
    contrast: float

    def __post_init__(self):
        try:
            x, y = self.center
        except (TypeError, ValueError):
            x = y = None
        if not all(isinstance(c, Real) and np.isfinite(c) for c in (x, y)):
            raise DomainError(f"inclusion center must be two finite numbers, got {self.center!r}")
        object.__setattr__(self, "center", (float(x), float(y)))
        if not (np.isfinite(self.radius) and self.radius > 0):
            raise DomainError(f"inclusion radius must be positive, got {self.radius!r}")
        if not (np.isfinite(self.contrast) and self.contrast > 0):
            raise DomainError(f"inclusion contrast must be positive, got {self.contrast!r}")


@dataclass(frozen=True, eq=False)
class Phantom:
    """Ground-truth conductivity field with its generating descriptors;
    ``sigma`` is held read-only, and a caller's array given is copied, never frozen."""

    mesh: Mesh
    sigma: np.ndarray
    background: float
    inclusions: tuple[Inclusion, ...]
    warnings: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "sigma", _read_only(self.sigma))


def _stream(seed, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))


def _draw_sources(spec: SourceSpec, T: int, rng: np.random.Generator) -> np.ndarray:
    if spec.distribution == "symmetric-binary":
        signs = rng.integers(0, 2, size=(T, spec.d))
        signs *= 2
        signs -= 1
        return np.multiply(signs, np.sqrt(spec.variance), dtype=float)
    # centered gamma: var = k theta^2, third central moment = 2 k theta^3
    theta = abs(spec.third_moment) / (2.0 * spec.variance)
    k = spec.variance / theta**2
    x = rng.gamma(shape=k, scale=theta, size=(T, spec.d))
    x -= k * theta
    if spec.third_moment < 0:
        np.negative(x, out=x)
    return x


def _draw_noise(spec: NoiseSpec, T: int, channels: int, rng: np.random.Generator) -> np.ndarray:
    """(T, channels) samples in one new array, the only (T, channels) array
    made; colored noise runs ``n_t = a n_{t-1} + w_t`` over time from the
    stationary draw ``n_0``, all channels at once, in place over the rows of
    the drive ``w``."""
    if spec.std == 0.0:
        return np.zeros((T, channels))
    if spec.kind == "white":
        return rng.normal(0.0, spec.std, size=(T, channels))
    a = spec.coefficients[0]
    out = rng.normal(0.0, spec.std * np.sqrt(1.0 - a * a), size=(T, channels))
    n0 = rng.normal(0.0, spec.std, size=channels)
    prev = out[0]
    prev += a * n0
    for row in out[1:]:
        row += a * prev
        prev = row
    return out


def generate_ensemble(
    A: np.ndarray, source: SourceSpec, noise: NoiseSpec, T: int, seed: int
) -> MeasurementEnsemble:
    """Draw ``y(t) = A x(t) + n(t)`` for T samples, deterministically per seed.

    The mixing matrix must have linearly independent columns; passing a
    rank-deficient A raises :class:`AssumptionViolationError`. With
    ``noise.std == 0`` every sample lies exactly in the column span of A.

    The noise is drawn into the one T x M buffer that the ensemble keeps
    uncopied, and ``x @ A.T`` is added into it a block of at most
    ``_BLOCK_BYTES`` of rows at a time. Beyond the ``8 T M`` bytes returned,
    the peak is the ``8 T d`` bytes of sources (``16 T d`` while binary
    signs are drawn, before the buffer exists), one block, and the ``T M``
    booleans of the ensemble's finiteness check.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2:
        raise DimensionError(f"mixing matrix must be 2-d, got shape {A.shape}")
    _check_finite("mixing matrix", A)
    m, d = A.shape
    if d != source.d:
        raise DimensionError(f"mixing matrix has {d} columns but source spec has d={source.d}")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv.size and sv[-1] < 1e-10 * max(sv[0], 1e-300):
        raise AssumptionViolationError(
            "mixing-matrix columns must be linearly independent; "
            f"singular-value ratio {sv[-1] / sv[0]:.3g}"
        )
    if not (_is_int(T) and T >= 2):
        raise SampleSizeError(f"sample count T must be >= 2, got {T!r}")

    x = _draw_sources(source, T, _stream(seed, SOURCE_STREAM))
    y = _draw_noise(noise, T, m, _stream(seed, NOISE_STREAM))
    rows = _block_rows(m)
    for start in range(0, T, rows):
        y[start : start + rows] += x[start : start + rows] @ A.T
    return MeasurementEnsemble(_frozen(y))


def generate_noise_ensemble(channels: int, noise: NoiseSpec, T: int, seed: int) -> MeasurementEnsemble:
    """Pure-noise ensemble (no sources): y(t) = n(t)."""
    if not _is_int(channels):
        raise DimensionError(f"channel count must be an integer, got {channels!r}")
    if channels < 1:
        raise DimensionError("need at least one channel")
    if not (_is_int(T) and T >= 2):
        raise SampleSizeError(f"sample count T must be >= 2, got {T!r}")
    return MeasurementEnsemble(_frozen(_draw_noise(noise, T, channels, _stream(seed, NOISE_STREAM))))


def make_demo_fixture():
    """Canonical noise-free demonstration: 4 channels, 3 sources.

    Returns the 4 x 3 mixing matrix plus a deterministic ensemble
    generator. The source sequences are mutually orthogonal +-1 designs and
    the mixing columns are scaled coordinate axes, so the raw sample
    correlation is exactly diag(9, 4, 1, 0) at any repeat count: a
    3-dimensional signal subspace aligned with the coordinate axes. Feeding
    it through the subspace pipeline yields nine 4 x 3 candidates, each a
    single entry of magnitude 1.0, all fitting the data exactly.

    Returns
    -------
    (A, generator)
        ``A`` is the mixing matrix; ``generator(repeats=1)`` returns an
        ensemble of ``4 * repeats`` samples.
    """
    A = np.array(
        [
            [3.0, 0.0, 0.0],
            [0.0, 2.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.0, 0.0, 0.0],
        ]
    )
    design = np.array(
        [
            [1.0, 1.0, -1.0, -1.0],
            [1.0, -1.0, 1.0, -1.0],
            [1.0, -1.0, -1.0, 1.0],
        ]
    )
    samples = (A @ design).T

    def generator(repeats: int = 1) -> MeasurementEnsemble:
        if not (_is_int(repeats) and repeats >= 1):
            raise DomainError(f"repeats must be a positive integer, got {repeats!r}")
        return MeasurementEnsemble(_frozen(np.tile(samples, (repeats, 1))))

    return A, generator


def _check_background(background: float) -> float:
    """``background``, if it is a positive, finite conductivity."""
    if not (np.isfinite(background) and background > 0):
        raise DomainError(f"background conductivity must be positive, got {background!r}")
    return background


def make_phantom(mesh: Mesh, background: float, inclusions=()) -> Phantom:
    """Uniform background conductivity with disk inclusions.

    An inclusion whose circle captures no element centroid (too small, or
    outside the mesh) contributes nothing to the field and is reported in
    ``Phantom.warnings`` rather than raised.
    """
    inclusions = tuple(inclusions)
    sigma = np.full(mesh.n_elements, float(_check_background(background)))
    centroids = mesh.coords[mesh.triangles].mean(axis=1)
    warnings: list[str] = []
    for k, inc in enumerate(inclusions):
        center = np.asarray(inc.center, dtype=float)
        with np.errstate(over="ignore"):  # a distance past the float range covers nothing
            covered = np.hypot(*(centroids - center).T) <= inc.radius
        if not covered.any():
            if inc.contrast != 1.0:
                warnings.append(
                    f"inclusion {k} at ({center[0]:g}, {center[1]:g}) "
                    f"radius {inc.radius:g} covers no elements"
                )
            continue
        sigma[covered] *= inc.contrast
    return Phantom(
        mesh=mesh,
        sigma=sigma,
        background=float(background),
        inclusions=inclusions,
        warnings=tuple(warnings),
    )


def save_phantom_spec(phantom: Phantom, path, header_lines: tuple[str, ...] = ()) -> None:
    """Write the phantom descriptors (not the per-element field) as a
    key-value file that :func:`load_phantom_spec` re-applies to a mesh."""
    lines = ["[phantom]", f"background = {phantom.background:.17g}"]
    lines += [
        f"inclusion = {inc.center[0]:.17g} {inc.center[1]:.17g} {inc.radius:.17g} {inc.contrast:.17g}"
        for inc in phantom.inclusions
    ]
    write_lines(path, lines, header_lines)


def load_phantom_spec(path, mesh: Mesh) -> Phantom:
    """Read a phantom spec file and instantiate it on a mesh. A background
    or inclusion that :func:`make_phantom` or :class:`Inclusion` would
    reject is a :class:`FormatError` at its line, chained to that error."""
    spec: dict[str, float] = {}
    inclusions: list[Inclusion] = []
    for line_no, text in sections(read_lines(path), ("phantom",)).get("phantom", ()):
        key, value = key_value(line_no, text)
        if key == "background":
            background = convert(value, float, line_no, key)
            put_once(spec, key, _at_line(line_no, _check_background, background), line_no)
        elif key == "inclusion":
            try:
                x, y, radius, contrast = (float(v) for v in value.split())
            except ValueError:
                raise FormatError(f"expected 'x y radius contrast', got {value!r}", line_no=line_no) from None
            inclusions.append(_at_line(line_no, Inclusion, (x, y), radius, contrast))
        else:
            raise FormatError(f"unknown key {key!r}", line_no=line_no)
    if "background" not in spec:
        raise FormatError("phantom spec is missing 'background'")
    return make_phantom(mesh, spec["background"], inclusions)
