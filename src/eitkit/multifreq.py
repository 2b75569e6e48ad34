"""Multi-injection stacking and direct recovery of the stiffness matrix
and the per-element conductivity.

The route to a unique reconstruction: stack the nodal potentials and load
vectors of N injections into ``S [phi_1 .. phi_N] = [F_1 .. F_N]`` and,
when the potential stack has full row rank, solve for the symmetric S in
least squares and invert the (linear) assembly map for the conductivity.
A single injection can never make the stack full rank, which is exactly
the non-uniqueness failure the subspace route exhibits; diversity must
come from extra drive patterns and/or frequency-dependent tissue response.

Two practical points about rank:

* Injected currents always cancel, so the load columns span at most an
  (n-1)-dimensional space, and potentials solved against one fixed
  reference node all lie in one hyperplane. Full row rank therefore
  requires the reference node to vary across injections
  (``SweepConfig.ground = "rotate"``); the drive patterns address mesh
  nodes directly.
* The simulator evaluates the tissue dispersion law per frequency, so the
  reconstruction-side assumption of one frequency-independent matrix is
  deliberately violated in proportion to the dispersion strength. With
  strength zero the assumption holds exactly; with nonzero strength the
  recovered field is an effective compromise, and the per-element spread
  of sigma(omega) across the sweep quantifies how hard the assumption was
  broken.

Sweep config file format (the shared text rules are in :mod:`eitkit.textio`)::

    [frequencies]
    <hertz, one per line>
    [patterns]
    <id>: <amps>, <id>: <amps>, ...        electrode-addressed pattern
    node <id>: <amps>, node <id>: <amps>   node-addressed pattern
    [model]
    sigma0 = <S/m>         uniform dispersion parameters
    sigma_inf = <S/m>
    tau = <seconds>
    element <id>: <sigma0> <sigma_inf> <tau>   override for one element id
    [sweep]
    pairing = cross | zip
    ground = rotate | <node id>

A ``[model]`` or ``[sweep]`` key, or an element override, given twice is an error.
"""

from __future__ import annotations

from numbers import Real

import numpy as np

from .errors import (
    CompatibilityError,
    DimensionError,
    DomainError,
    EitError,
    FormatError,
    IdentifiabilityError,
    RankDeficiencyError,
    UnknownElectrodeError,
    _block_rows,
    _check_finite,
    _frozen,
    _value,
)
from .forward import (
    ZERO_SUM_TOL,
    CurrentPattern,
    ForwardFactorization,
    StiffnessSystem,
    _current_fault,
    _element_design,
    _nodal_load,
    assemble,
    ground_system,
)
from .mesh import Mesh, _is_int
from .textio import (
    _at_line,
    convert,
    data_lines,
    float_rows,
    format_row,
    key_value,
    put_once,
    read_lines,
    sections,
    write_lines,
)

RANK_TOL = 1e-10
# _sparse_lstsq rejects a design whose Gram matrix has
# lambda_min <= GRAM_TOL * lambda_max, that is cond(design) >= 1e6
GRAM_TOL = 1e-12
# _sparse_lstsq takes its Gram eigenvalues from one dense eigvalsh at or
# below this many design columns, and from ARPACK above it
DENSE_EIG_COLUMNS = 256


def _check_parameter(name: str, values):
    """``values``, if every one suits the :class:`TissueModel` parameter
    ``name``: positive and finite for ``sigma0`` and ``sigma_inf``,
    non-negative and finite for ``tau``."""
    tau = name == "tau"
    if not np.all(np.isfinite(values)) or not np.all(values >= 0 if tau else values > 0):
        raise DomainError(f"{name} must be {'non-negative' if tau else 'positive'} and finite everywhere")
    return values


@_value("sigma0", "sigma_inf", "tau")
class TissueModel:
    """Per-element single-dispersion conductivity magnitude response:

        sigma_e(f) = sigma_inf_e + (sigma0_e - sigma_inf_e) / (1 + (2 pi f tau_e)^2)

    ``sigma0`` is the low-frequency limit, ``sigma_inf`` the high-frequency
    limit, ``tau`` the relaxation time. Setting ``sigma0 == sigma_inf``
    gives a frequency-independent medium exactly.
    """

    sigma0: np.ndarray
    sigma_inf: np.ndarray
    tau: np.ndarray

    def __post_init__(self):
        s0, si, tau = self.sigma0, self.sigma_inf, self.tau
        if not (s0.shape == si.shape == tau.shape) or s0.ndim != 1:
            raise DimensionError("sigma0, sigma_inf and tau must be equal-length 1-d arrays")
        for name, arr in (("sigma0", s0), ("sigma_inf", si), ("tau", tau)):
            _check_parameter(name, arr)

    @property
    def n_elements(self) -> int:
        return self.sigma0.size

    def sigma_at(self, frequency: float) -> np.ndarray:
        omega_tau = 2.0 * np.pi * frequency * self.tau
        return self.sigma_inf + (self.sigma0 - self.sigma_inf) / (1.0 + omega_tau**2)

    def spread(self, frequencies) -> np.ndarray:
        """Per-element relative spread of sigma(f) across the given
        frequencies: (max - min) / mean. Zero iff the constant-matrix
        assumption holds exactly over the sweep. An empty sequence, or a
        frequency that is not positive and finite, is a :class:`DomainError`."""
        if len(frequencies) == 0:
            raise DomainError("spread needs at least one frequency")
        table = np.stack([self.sigma_at(_check_frequency(f, ())) for f in frequencies])
        return (table.max(axis=0) - table.min(axis=0)) / table.mean(axis=0)

    @classmethod
    def uniform(cls, n_elements: int, sigma0: float, sigma_inf: float, tau: float) -> "TissueModel":
        return cls(
            np.full(n_elements, float(sigma0)),
            np.full(n_elements, float(sigma_inf)),
            np.full(n_elements, float(tau)),
        )

    @classmethod
    def dispersionless(cls, sigma) -> "TissueModel":
        """Frequency-independent medium with the given per-element field."""
        return cls(sigma, sigma, np.zeros(np.shape(sigma)))


def _check_frequency(frequency: float, earlier) -> float:
    """``frequency``, if it is positive, finite and not among ``earlier``."""
    if not (np.isfinite(frequency) and frequency > 0):
        raise DomainError("frequencies must be positive and finite")
    if frequency in earlier:
        raise DomainError("frequencies must be distinct")
    return frequency


def _check_pairing(pairing: str) -> str:
    """``pairing``, if it is ``cross`` or ``zip``."""
    if pairing not in ("cross", "zip"):
        raise DomainError(f"pairing must be 'cross' or 'zip', got {pairing!r}")
    return pairing


@_value(tuples=("patterns",))
class SweepConfig:
    """Injection plan: which frequencies, which drive patterns, how they
    pair up, and which node is the per-injection potential reference.

    patterns
        Each entry is a :class:`~eitkit.forward.CurrentPattern`
        (electrode-addressed) or a length-n nodal current vector summing to
        zero, held as a read-only float array. Nodal patterns exist because
        electrode-addressed injections alone can never span enough
        directions for a full-rank stack.
    pairing
        ``cross`` runs every frequency against every pattern (frequency
        major); ``zip`` pairs them one-to-one and requires equal lengths.
    ground
        ``rotate`` uses node ``k mod n`` for injection k; an integer pins
        one reference node for every injection.
    """

    frequencies: tuple[float, ...]
    patterns: tuple
    pairing: str = "cross"
    ground: int | str = 0

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        if not freqs:
            raise DomainError("sweep needs at least one frequency")
        if not self.patterns:
            raise DomainError("sweep needs at least one drive pattern")
        seen: set[float] = set()
        for f in freqs:
            seen.add(_check_frequency(f, seen))
        _check_pairing(self.pairing)
        if self.pairing == "zip" and len(freqs) != len(self.patterns):
            raise DomainError(
                f"zip pairing needs equal counts, got {len(freqs)} frequencies "
                f"and {len(self.patterns)} patterns"
            )
        if not (_is_int(self.ground) or isinstance(self.ground, str) and self.ground == "rotate"):
            raise DomainError(f"ground must be 'rotate' or a node id, got {self.ground!r}")

    def injections(self):
        """(frequency, pattern_index) pairs in fixed stacking order."""
        if self.pairing == "zip":
            return [(f, k) for k, f in enumerate(self.frequencies)]
        return [(f, k) for f in self.frequencies for k in range(len(self.patterns))]


def _check_label(label):
    """``label``, if it is a (frequency, pattern index, ground node) triple
    (else :class:`DimensionError`) of a finite real number and two integers
    (else :class:`DomainError`)."""
    if not (isinstance(label, tuple) and len(label) == 3):
        raise DimensionError(f"label {label!r} is not a (frequency, pattern, ground) triple")
    freq, p_idx, ground = label
    if not (isinstance(freq, Real) and np.isfinite(freq) and _is_int(p_idx) and _is_int(ground)):
        raise DomainError(f"label {label!r} needs a finite real frequency, integer pattern and ground")
    return label


def _check_spread(spread):
    """``spread``, if it is a finite real number, at least 0."""
    if not (isinstance(spread, Real) and np.isfinite(spread) and spread >= 0):
        raise DomainError(f"sigma_spread must be a finite real number, at least 0, got {spread!r}")
    return spread


@_value("Phi", "F")
class StackedSystem:
    """Stacked nodal potentials and pre-gauge load vectors.

    ``Phi`` and ``F`` are finite n x N float arrays with n, N >= 1 (else
    :class:`DimensionError`); each load column sums to zero. Both are
    stored read-only before the checks, so no later write can undo them;
    :func:`simulate_sweep` hands its own over uncopied.
    ``labels`` is empty or a (frequency, pattern index, ground node) tuple
    per column in stacking order (else :class:`DimensionError`), each one
    :func:`_check_label` accepts. ``sigma_spread`` is the worst per-element
    relative spread of the simulated conductivity across the sweep
    frequencies (0 when the constant-matrix assumption held exactly), a
    finite real number, at least 0 (else :class:`DomainError`).
    """

    Phi: np.ndarray
    F: np.ndarray
    labels: tuple[tuple[float, int, int], ...]
    sigma_spread: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(self.labels))  # a later append cannot undo the checks
        if self.Phi.ndim != 2 or 0 in self.Phi.shape:
            raise DimensionError(f"Phi must be an n x N matrix with n, N >= 1, got shape {self.Phi.shape}")
        if self.Phi.shape != self.F.shape:
            raise DimensionError(
                f"Phi {self.Phi.shape} and F {self.F.shape} must have equal shapes"
            )
        if len(self.labels) not in (0, self.n_injections):
            raise DimensionError(f"{len(self.labels)} labels for {self.n_injections} injections")
        for label in self.labels:
            _check_label(label)
        _check_spread(self.sigma_spread)
        _check_finite("Phi", self.Phi)
        _check_finite("F", self.F)  # a NaN column sum would pass the check below
        with np.errstate(over="ignore"):  # a sum past the float range is inf, and fails
            colsums = np.abs(self.F.sum(axis=0))
        if colsums.size and float(colsums.max()) > ZERO_SUM_TOL:
            raise CompatibilityError(
                f"a load column sums to {float(colsums.max()):g}; columns must cancel"
            )

    @property
    def n(self) -> int:
        return self.Phi.shape[0]

    @property
    def n_injections(self) -> int:
        return self.Phi.shape[1]


@_value("S_hat", "phi_singular_values")
class StackSolveResult:
    """Symmetric least-squares estimate of the stiffness matrix."""

    S_hat: np.ndarray
    residual: float
    phi_singular_values: np.ndarray


@_value("sigma")
class RecoveredField:
    """Per-element conductivity estimate with the diagnostics of its fit
    (the stack solve's residual stays in its :class:`StackSolveResult`).

    Negative estimates are flagged in ``negative_elements``, never clipped.
    ``sensitivity`` bounds the propagation of matrix error into the field:
    ``|delta sigma|_2 <= sensitivity * |delta S|_F``.
    """

    sigma: np.ndarray
    negative_elements: tuple[int, ...]
    fit_residual: float
    sensitivity: float
    operator_condition: float


def _annotated(exc: EitError, where: str) -> EitError:
    """A new error of ``exc``'s class and attributes whose message is
    prefixed with ``where``; ``exc`` itself is left as it was."""
    new = type(exc).__new__(type(exc), f"{where}: {exc}")
    new.__dict__.update(vars(exc))
    return new


def simulate_sweep(mesh: Mesh, tissue: TissueModel, config: SweepConfig) -> StackedSystem:
    """Run every injection of the sweep and stack potentials and loads.

    One call of the resolver turns the patterns into an (n, P) load table,
    which gives every injection its load. For each frequency the tissue law
    gives the per-element conductivity, and the system is assembled,
    grounded at the reference node of the frequency's first injection and
    factored once. The loads of every injection at that frequency are
    solved with this one factorization, in blocks of ``_block_rows(n)``
    columns, giving ``phi``; each column's potential against
    its own reference node ``g`` is ``phi - phi[g]``. That shift is exact,
    not an approximation: ``S`` has zero row sums, so
    ``S (phi - phi[g]) = S phi``, every load sums to zero, so the grounded
    row's equation holds as well, and ``phi - phi[g]`` is therefore the
    unique solution that vanishes at ``g``. Every column is solved on its
    own, so the block size does not change a bit of the result. The
    grounded potential and the pre-gauge load are stacked in config order.
    An :class:`EitError` is raised again as a new error of the same class,
    its message prefixed with the (frequency, pattern) index and chained to
    the original: injection p, the first of pattern p, for an error in
    pattern p, which comes before any assembly error; the frequency's first
    injection for an assembly, factorization or solve error. Any other
    exception passes through untouched.
    """
    if tissue.n_elements != mesh.n_elements:
        raise DimensionError(
            f"tissue model covers {tissue.n_elements} elements, mesh has {mesh.n_elements}"
        )
    n = mesh.n_nodes
    if config.ground != "rotate" and config.ground not in mesh.node_index:
        raise DomainError(f"ground node {config.ground} is not a mesh node")

    injections = config.injections()
    cols = np.arange(len(injections))
    if config.ground == "rotate":
        grounds = cols % n
    else:
        grounds = np.full(cols.size, mesh.node_index[config.ground])

    def where(col):
        freq, p_idx = injections[col]
        return f"injection {col} (frequency {freq:g} Hz, pattern {p_idx})"

    table = _nodal_load(mesh, config.patterns, blame=lambda p, exc: _annotated(exc, where(p)))
    loads_t = table.T[[p_idx for _, p_idx in injections]]  # owned: its frozen transpose is F, uncopied
    del table  # loads_t holds every load; the table would only raise the peak
    Phi = np.zeros((n, cols.size))
    width = _block_rows(n)

    for freq in config.frequencies:
        block = [col for col, (f, _) in enumerate(injections) if f == freq]
        first = grounds[block[0]]
        try:
            Sg, zero = ground_system(assemble(mesh, tissue.sigma_at(freq)).S, np.zeros(n), first)
            factor = ForwardFactorization(StiffnessSystem(S=Sg, F=zero, ground_node=int(mesh.node_ids[first])))
            for start in range(0, len(block), width):
                part = block[start:start + width]
                loads = loads_t[part].T
                loads[first] = 0.0  # the gauge row, as ground_system zeroes it
                phi = factor.solve(loads).phi
                Phi[:, part] = phi - phi[grounds[part], np.arange(len(part))]
        except EitError as exc:
            raise _annotated(exc, where(block[0])) from exc

    Phi, loads_t = _frozen(Phi, loads_t)  # handed over, not copied: the stack would double the peak
    spread = tissue.spread(config.frequencies)
    return StackedSystem(
        Phi=Phi,
        F=loads_t.T,
        labels=tuple((f, p_idx, g) for (f, p_idx), g in zip(injections, mesh.node_ids[grounds].tolist())),
        sigma_spread=float(spread.max()) if spread.size else 0.0,
    )


def stack_solve(stacked: StackedSystem) -> StackSolveResult:
    """Least-squares stiffness estimate ``argmin_S |S Phi - F|_F`` over
    symmetric matrices, from one thin SVD ``Phi = U diag(s) V^T``.

    The stack must have full row rank: if the smallest of the n singular
    values falls below ``1e-10`` times the largest, :class:`RankDeficiencyError`
    reports the numerical rank -- the signature failure of a single-injection
    stack. The normal equations ``S G + G S = F Phi^T + Phi F^T``, a Lyapunov
    equation in ``G = Phi Phi^T = U diag(s^2) U^T``, are diagonal in U:
    ``S = U S~ U^T`` with ``S~_ij = (C_ij + C_ji) / (s_i^2 + s_j^2)``, where
    ``C = U^T F V diag(s)``. Neither G (which squares cond(Phi)) nor an
    n^2 x n^2 design is formed: O(n^2 N + n^3) time, O(n N + n^2) memory, n = 289 runs.
    """
    Phi, F, n = stacked.Phi, stacked.F, stacked.n
    U, s, Vt = _frozen(*np.linalg.svd(Phi, full_matrices=False))
    rank = int(np.count_nonzero(s >= RANK_TOL * s[0])) if s[0] > 0 else 0
    if rank < n:
        raise RankDeficiencyError(
            "potential stack does not have full row rank; add independent injections",
            numerical_rank=rank,
            required_rank=n,
        )

    C = (U.T @ F @ Vt.T) * s
    S_hat = U @ ((C + C.T) / np.add.outer(s**2, s**2)) @ U.T
    S_hat = _frozen(0.5 * (S_hat + S_hat.T))
    residual = float(np.linalg.norm(S_hat @ Phi - F))
    return StackSolveResult(S_hat=S_hat, residual=residual, phi_singular_values=s)


def _largest_eigenvalue(operator, v0: np.ndarray) -> float:
    """Largest-magnitude eigenvalue of a symmetric operator of at least two
    rows, by ARPACK from the start vector ``v0``."""
    from scipy.sparse.linalg import eigsh

    return float(eigsh(operator, k=1, which="LM", v0=v0, return_eigenvectors=False)[0])


def _sparse_lstsq(design, target: np.ndarray):
    """``(x, lam_min, lam_max)``: ``argmin_x |design @ x - target|_2`` for a
    sparse design of full column rank, and the extreme eigenvalues of its
    Gram matrix ``A^T A``.

    The fit is by the corrected semi-normal equations (Björck, *Numerical
    Methods for Least Squares Problems*, 1996, section 6.6): ``A^T A`` is
    factored once by ``splu``, the normal equations are solved, and two
    correction steps ``x += solve(A^T (b - A x))`` remove the cond(A)^2
    loss of plain normal equations.

    The eigenvalues follow a size rule. At or below ``DENSE_EIG_COLUMNS``
    columns, one dense ``eigvalsh`` of ``A^T A`` gives every eigenvalue;
    above it, ARPACK (``eigsh``, from a fixed start vector, so the figures
    repeat exactly) gives ``lam_max`` and, through the factor,
    ``1 / lam_min``. On element designs (2 cores, 1 BLAS thread) the dense
    call takes 0.64 / 1.6 / 3.0 / 4.8 ms at 128 / 192 / 256 / 320 columns
    against ARPACK's 1.8 / 2.4 / 3.1 / 3.2 ms, and 16 ms against 4.5 ms at
    512: the two cross at about 256 columns, on random sparse designs too.
    ARPACK stays above the limit because the dense call grows as n^3 and
    its Gram as 8 n^2 bytes: at 2048 columns (the disk at refine 4) it
    takes 0.86 s against ARPACK's 19 ms, and at 8192 the Gram alone is
    512 MiB. These timings are in-process only: the benchmark's one fit
    has 128 columns, so no workload checks the ARPACK side or where the
    limit lies (on the disk, any limit from 128 to 511 acts alike).

    An exactly singular factor and ``lam_min <= GRAM_TOL * lam_max``
    (``cond(A) >= 1e6``) raise :class:`IdentifiabilityError`. Its gap is
    the number of columns less the count of Gram eigenvalues above
    ``GRAM_TOL`` times the largest (the squared singular values of A), at
    least 1: those of the dense call, or above the size limit those of one
    ``eigvalsh`` of the smaller Gram matrix (``A^T A``, or ``A A^T`` for a
    wide design).
    """
    from scipy.sparse.linalg import LinearOperator, splu

    gram = (design.T @ design).tocsc()
    try:
        lu = splu(gram)
    except RuntimeError:  # the factor is exactly singular
        lu = None
    w = np.linalg.eigvalsh(gram.toarray()) if design.shape[1] <= DENSE_EIG_COLUMNS else None
    if w is not None:
        lam_min, lam_max = float(w[0]), float(w[-1])
    elif lu is not None:
        v0 = np.random.default_rng(0).standard_normal(design.shape[1])
        lam_max = _largest_eigenvalue(gram, v0)
        lam_min = 1.0 / _largest_eigenvalue(LinearOperator(gram.shape, matvec=lu.solve, dtype=float), v0)
    if lu is None or not lam_min > GRAM_TOL * lam_max:
        if w is None:
            small = gram if design.shape[0] >= design.shape[1] else design @ design.T
            w = np.linalg.eigvalsh(small.toarray())
        rank = int(np.count_nonzero(w > GRAM_TOL * w[-1]))
        raise IdentifiabilityError(
            "assembly operator is rank deficient; conductivity is not identifiable",
            rank_gap=max(design.shape[1] - rank, 1),
        )
    x = lu.solve(design.T @ target)
    for _ in range(2):
        x += lu.solve(design.T @ (target - design @ x))
    return x, lam_min, lam_max


def recover_conductivity(S_hat: np.ndarray, mesh: Mesh) -> RecoveredField:
    """Invert the assembly map: ``argmin_sigma |assemble(mesh, sigma) - sym(S_hat)|_F``.

    The map is linear in sigma and writes only the nonzeros of S (the
    diagonal and both directions of each mesh edge). An entry of
    ``sym(S_hat)`` off that pattern adds a constant to the objective, so it
    does not move sigma. The fit is one call of the sparse least-squares
    core :func:`_sparse_lstsq` on the design ``A`` of
    :func:`~eitkit.forward._element_design` (nine nonzeros per column), with
    ``sensitivity = 1/sqrt(lambda_min)`` and ``operator_condition =
    sqrt(lambda_max / lambda_min)`` from the core's Gram eigenvalues: one
    dense ``eigvalsh`` for at most ``DENSE_EIG_COLUMNS`` elements (the
    disk up to refine 2), ARPACK above.

    ``S_hat`` and its transpose are read once, side by side, in blocks of
    ``_block_rows(n)`` columns, so no n x n temporary is made. Each
    block adds its share of the asymmetry, writes ``0.5 * (S_hat[r, c] +
    S_hat[c, r])`` at its pattern entries into the target, then zeroes
    those entries and adds the squares of ``sym(S_hat)`` off the pattern:
    ``fit_residual`` counts every entry, the misfit on the pattern plus
    ``sym(S_hat)`` off it.

    A non-finite ``S_hat`` raises :class:`DomainError` before the pass.
    After it, an ``S_hat`` asymmetric beyond 1e-6 relative raises
    :class:`DomainError`, and more elements than the n(n+1)/2 independent
    entries raise :class:`IdentifiabilityError` with the excess as the gap;
    the core raises its own for a rank-deficient or ill-conditioned design.
    The residual of the solve that gave ``S_hat`` stays with the caller.
    """
    S_hat = np.asarray(S_hat, dtype=float)
    n = mesh.n_nodes
    if S_hat.shape != (n, n):
        raise DimensionError(f"S_hat has shape {S_hat.shape}, mesh implies ({n}, {n})")
    _check_finite("S_hat", S_hat)
    scale = float(np.linalg.norm(S_hat)) or 1.0
    _, _, rows, indptr, _ = mesh._placement
    cols = np.repeat(np.arange(n), np.diff(indptr))
    target = np.empty(rows.size)  # sym(S_hat) on the pattern
    asymmetry = off_pattern = 0.0  # the squares of S_hat - S_hat^T, and of sym(S_hat) off the pattern
    width = _block_rows(n)
    for start in range(0, n, width):
        a, b = S_hat[:, start:start + width], S_hat[start:start + width, :].T
        d = a - b
        asymmetry += float(np.vdot(d, d))
        sym = 0.5 * (a + b)
        on = slice(indptr[start], indptr[start + sym.shape[1]])  # the pattern entries of these columns
        local = rows[on], cols[on] - start
        target[on] = sym[local]
        sym[local] = 0.0
        off_pattern += float(np.vdot(sym, sym))
    if np.sqrt(asymmetry) > 1e-6 * scale:
        raise DomainError("S_hat must be symmetric within 1e-6 relative")

    independent_entries = n * (n + 1) // 2
    if mesh.n_elements > independent_entries:
        raise IdentifiabilityError(
            f"{mesh.n_elements} elements exceed the {independent_entries} independent matrix entries",
            rank_gap=mesh.n_elements - independent_entries,
        )

    design = _element_design(mesh)
    sigma, lam_min, lam_max = _sparse_lstsq(design, target)
    misfit = target - design @ sigma
    negative = tuple(int(e) for e in np.flatnonzero(~(sigma > 0.0)))
    return RecoveredField(
        sigma=_frozen(sigma),
        negative_elements=negative,
        fit_residual=float(np.sqrt(off_pattern + misfit @ misfit)),
        sensitivity=float(1.0 / np.sqrt(lam_min)),
        operator_condition=float(np.sqrt(lam_max / lam_min)),
    )


def save_stacked_system(stacked: StackedSystem, phi_path, f_path) -> None:
    """Serialize the stack as a pair of CSV matrices (potentials, loads),
    one node per row, one injection per column. Injection labels and the
    dispersion spread ride along as comment lines on the potentials file."""
    comments = [f"sigma_spread,{stacked.sigma_spread:.17g}"]
    comments += [
        f"label,{freq:.17g},{p_idx},{ground}" for freq, p_idx, ground in stacked.labels
    ]
    write_lines(phi_path, map(format_row, stacked.Phi), comments)
    write_lines(f_path, map(format_row, stacked.F))


def load_stacked_system(phi_path, f_path) -> StackedSystem:
    """Read a stack written by :func:`save_stacked_system`. A comment that
    does not parse, a repeated ``sigma_spread``, and a label or spread that
    :class:`StackedSystem` would reject are a :class:`FormatError` at the
    comment's line."""
    lines = read_lines(phi_path)
    Phi = float_rows(data_lines(lines))
    F = float_rows(data_lines(read_lines(f_path)))
    if Phi.size == 0 or Phi.shape != F.shape:
        raise FormatError(f"potential {Phi.shape} and load {F.shape} matrices are empty or disagree")
    spread: dict[str, float] = {}
    labels = []
    for line_no, text in lines:
        if not text.startswith("#"):
            continue
        comment = text[1:].strip()
        try:
            if comment.startswith("sigma_spread,"):
                value = float(comment[len("sigma_spread,"):])
                put_once(spread, "sigma_spread", _at_line(line_no, _check_spread, value), line_no)
            elif comment.startswith("label,"):
                _, freq, p_idx, ground = comment.split(",")
                labels.append(_at_line(line_no, _check_label, (float(freq), int(p_idx), int(ground))))
        except ValueError:
            raise FormatError(f"bad comment {comment!r}", line_no=line_no) from None
    if labels and len(labels) != Phi.shape[1]:
        raise FormatError(f"{len(labels)} labels for {Phi.shape[1]} injections")
    return StackedSystem(Phi=Phi, F=F, labels=tuple(labels), sigma_spread=spread.get("sigma_spread", 0.0))


def save_sweep_config(
    config: SweepConfig,
    tissue: TissueModel,
    path,
    header_lines: tuple[str, ...] = (),
    *,
    mesh: Mesh | None = None,
) -> None:
    """Write a sweep config file (see module docstring for the format).

    A nodal pattern's entry for row k names node ``mesh.node_ids[k]``, and
    the override for tissue row e names element ``mesh.element_ids[e]``;
    without a mesh they name k and e, which is right for meshes whose node
    and element ids are 0..n-1 and 0..n_e-1.
    """
    if mesh is not None and tissue.n_elements != mesh.n_elements:
        raise DimensionError(
            f"tissue model covers {tissue.n_elements} elements, mesh has {mesh.n_elements}"
        )
    element_ids = range(tissue.n_elements) if mesh is None else mesh.element_ids.tolist()
    lines = ["[frequencies]"]
    lines += [f"{f:.17g}" for f in config.frequencies]
    lines.append("[patterns]")
    for pattern in config.patterns:
        if isinstance(pattern, CurrentPattern):
            lines.append(
                ", ".join(f"{eid}: {amp:.17g}" for eid, amp in sorted(pattern.currents.items()))
            )
        else:
            vector = np.asarray(pattern)
            rows = np.flatnonzero(vector)  # NaN is nonzero, -0.0 is not
            ids = (rows if mesh is None else mesh.node_ids[rows]).tolist()
            values = vector[rows].astype(float).tolist()
            lines.append(", ".join(f"node {k}: {v:.17g}" for k, v in zip(ids, values)))
    lines.append("[model]")
    params = {"sigma0": tissue.sigma0, "sigma_inf": tissue.sigma_inf, "tau": tissue.tau}
    uniform = all(np.all(v == v[0]) for v in params.values())
    lines += [f"{k} = {v[0] if uniform else float(np.median(v)):.17g}" for k, v in params.items()]
    if not uniform:
        lines += [
            f"element {eid}: {tissue.sigma0[e]:.17g} {tissue.sigma_inf[e]:.17g} {tissue.tau[e]:.17g}"
            for e, eid in enumerate(element_ids)
        ]
    lines.append("[sweep]")
    lines.append(f"pairing = {config.pairing}")
    lines.append(f"ground = {config.ground}")
    write_lines(path, lines, header_lines)


def load_sweep_config(path, mesh: Mesh) -> tuple[SweepConfig, TissueModel]:
    """Parse a sweep config file against a mesh (the mesh fixes the element
    count for the model and the node count for nodal patterns).

    ``element <id>`` overrides, ``node <id>`` entries and ``ground`` name
    mesh element and node ids; an id that is not on the mesh is a
    line-numbered :class:`FormatError`. So is, chained to the error it
    raises, a frequency or ``pairing`` that :class:`SweepConfig` would
    reject (``zip`` with unequal frequency and pattern counts is blamed on
    the ``pairing`` line), a ``[model]`` value or override that
    :class:`TissueModel` would reject and a pattern line that
    :func:`simulate_sweep` would reject. A missing ``[model]`` key and a
    missing or empty ``[frequencies]`` or ``[patterns]`` section are a
    :class:`FormatError` at the section's header, without a line when the
    section is missing.
    Each section is read line by line in one pass; the nodal pattern lines
    are checked together in one table (:func:`_parse_patterns`).
    """
    groups = sections(read_lines(path), ("frequencies", "patterns", "model", "sweep"))
    frequencies: dict[float, None] = {}  # in line order
    for line_no, text in groups.get("frequencies", ()):
        f = convert(text, float, line_no, "frequency")
        frequencies[_at_line(line_no, _check_frequency, f, frequencies)] = None
    patterns = _parse_patterns(groups.get("patterns", []), mesh)
    model_uniform, model_overrides = _parse_model(groups.get("model", []))

    sweep: dict[str, str | int] = {}
    pairing_line = None
    for line_no, text in groups.get("sweep", ()):
        key, value = key_value(line_no, text)
        if key == "pairing":
            value, pairing_line = _at_line(line_no, _check_pairing, value), line_no
        elif key != "ground":
            raise FormatError(f"unknown sweep key {key!r}", line_no=line_no)
        elif value != "rotate":
            value = convert(value, int, line_no, "ground")
            if value not in mesh.node_index:
                raise FormatError(f"ground node {value} is not a mesh node", line_no=line_no)
        put_once(sweep, key, value, line_no, "sweep key")

    for key in ("sigma0", "sigma_inf", "tau"):
        if key not in model_uniform:
            header = groups["model"].line_no if "model" in groups else None
            raise FormatError(f"[model] section is missing {key!r}", line_no=header)
    for name in ("frequencies", "patterns"):
        if not groups.get(name):
            header = groups[name].line_no if name in groups else None
            raise FormatError(f"[{name}] section is missing or empty", line_no=header)
    n_e = mesh.n_elements
    params = np.array([np.full(n_e, model_uniform[key]) for key in ("sigma0", "sigma_inf", "tau")])
    row = dict(zip(mesh.element_ids.tolist(), range(n_e)))
    rows = [row.get(eid, -1) for eid in model_overrides]
    if -1 in rows:
        eid = list(model_overrides)[rows.index(-1)]
        raise FormatError(f"element override {eid} is not a mesh element", line_no=model_overrides[eid][0])
    if rows:
        params[:, rows] = np.array([values for _, values in model_overrides.values()]).T
    tissue = TissueModel(*params)

    # every value was checked at its line: all SweepConfig can still reject
    # is a zip pairing of unequal counts
    config = _at_line(
        pairing_line, SweepConfig, tuple(frequencies), tuple(patterns),
        sweep.get("pairing", "cross"), sweep.get("ground", 0),
    )
    return config, tissue


def _parse_model(lines) -> tuple[dict, dict]:
    """The ``[model]`` lines as ``({key: value}, {element id: (line_no,
    (sigma0, sigma_inf, tau))})``, the overrides in line order, read one
    line at a time; the first bad line raises its error. The values are
    then checked by :func:`_check_parameter`, one array per parameter, and
    walked in line order only when that fails, to name the first line that
    holds a bad one."""
    uniform: dict[str, float] = {}
    overrides: dict[int, tuple[int, tuple[float, float, float]]] = {}
    read = []  # (line_no, key, value) of each value, in line order
    for line_no, text in lines:
        if text.lower().startswith("element"):
            eid, _, triple = text[len("element"):].partition(":")
            try:
                s0, si, t = map(float, triple.split())
                eid = int(eid)
            except ValueError:
                raise FormatError(f"bad element override {text!r}", line_no=line_no) from None
            put_once(overrides, eid, (line_no, (s0, si, t)), line_no, "element override")
            read += [(line_no, "sigma0", s0), (line_no, "sigma_inf", si), (line_no, "tau", t)]
        else:
            key, value = key_value(line_no, text)
            if key not in ("sigma0", "sigma_inf", "tau"):
                raise FormatError(f"unknown model key {key!r}", line_no=line_no)
            put_once(uniform, key, convert(value, float, line_no, key), line_no, "model key")
            read.append((line_no, key, uniform[key]))
    try:
        for key in ("sigma0", "sigma_inf", "tau"):
            _check_parameter(key, np.array([value for _, k, value in read if k == key]))
    except DomainError:
        for line_no, key, value in read:
            _at_line(line_no, _check_parameter, key, value)
    return uniform, overrides


def _pattern_entry(chunk: str, line_no: int) -> tuple[bool, int, float]:
    """One ``<id>: <amps>`` entry as (addresses a node, id, amps); a
    ``node`` prefix on the id addresses a mesh node, a bare id an electrode."""
    target, sep, amps = chunk.partition(":")
    if not sep:
        raise FormatError(f"expected '<id>: <amps>', got {chunk!r}", line_no=line_no)
    target = target.strip()
    nodal = target.lower().startswith("node")
    if nodal:
        target = target[4:]
    return nodal, convert(target, int, line_no, "id"), convert(amps, float, line_no, "amps")


def _parse_patterns(lines, mesh: Mesh) -> list:
    """One pattern per ``[patterns]`` line: comma-separated ``<id>: <amps>``
    entries. A line with a node entry is a nodal vector: node entries in
    line order, then each electrode's total at its node. Any other line is
    a :class:`CurrentPattern` of the electrode totals.

    The lines are read in order up to the first one that does not read: an
    entry that does not parse, a node not on the mesh, totals that make no
    :class:`CurrentPattern`, then an electrode not on the mesh. The P nodal
    lines before it fill one (n, P) table, whose columns are returned, by
    one ``np.add.at`` in line order; one :func:`~eitkit.forward._current_fault`
    call checks them all. The first failing line raises its error, then
    the stopping line its own: a :class:`FormatError` at the line, chained
    to the failed check's error where there is one.
    """
    index, emap = mesh.node_index, mesh.electrode_map
    read, nodal, at, failure = [], [], [], None  # per line: CurrentPattern or table column; nodal line numbers
    for line_no, text in lines:
        try:
            entries = [_pattern_entry(chunk, line_no) for chunk in text.split(",") if chunk.strip()]
            column, electrodes, nodes = len(nodal), {}, []  # nodes: (row, column, amps)
            for is_node, target, amp in entries:
                if not is_node:
                    electrodes[target] = electrodes.get(target, 0.0) + amp
                elif target in index:
                    nodes.append((index[target], column, amp))
                else:
                    raise FormatError(f"unknown node {target}", line_no=line_no)
            pattern = None if nodes else _at_line(line_no, CurrentPattern, electrodes)
            unknown = [eid for eid in electrodes if eid not in emap]
            if unknown:
                error = UnknownElectrodeError(f"electrode {unknown[0]} is not on the mesh")
                raise FormatError(str(error), line_no=line_no) from error
        except FormatError as exc:
            failure = exc
            break
        read.append(column if pattern is None else pattern)
        if pattern is None:
            nodal.append(line_no)
            at += nodes + [(index[emap[eid]], column, amp) for eid, amp in electrodes.items()]
    table = np.zeros((mesh.n_nodes, len(nodal)), order="F")
    rows, cols, amps = zip(*at) if at else ((), (), ())
    np.add.at(table, (np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)), amps)  # in line order
    fault = _current_fault(table)
    if fault is not None:
        column, error = fault
        raise FormatError(str(error), line_no=nodal[column]) from error
    if failure is not None:
        raise failure
    table = _frozen(table)  # each nodal pattern is a view of it, which SweepConfig keeps uncopied
    return [table[:, p] if isinstance(p, int) else p for p in read]
