import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.linalg import subspace_angles
from scipy.optimize import minimize

from eitkit import (
    DimensionError,
    DomainError,
    FormatError,
    MeasurementEnsemble,
    ProjectorQ,
    build_projector,
    extract_candidates,
    fitting_residual,
    load_candidates,
    make_demo_fixture,
    save_candidates,
    truncated_svd,
)
from conftest import random_orthonormal


def normal_equations_projector(R: np.ndarray, d: int):
    """Independent oracle: ``Q = I - B (B^T B)^{-1} B^T`` from a solve of
    the normal equations, and the full eigendecomposition of the Md x Md
    matrix Q (ascending eigenvalues, eigenvectors as columns)."""
    B = np.kron(np.eye(d), R)
    Q = np.eye(B.shape[0]) - B @ np.linalg.solve(B.T @ B, B.T)
    Q = 0.5 * (Q + Q.T)
    w, V = np.linalg.eigh(Q)
    return Q, w, V


def column_loop_candidates(R: np.ndarray, d: int):
    """Reference: the candidates as the normalized, sign-fixed columns of
    the dense ``B = I_d (x) R``, one column at a time, and the eigenvalues
    in closed form: the d smallest of ``I_M - R R^T`` are ``1 - eig(R^T R)``
    (the other M - d are 1); the dense spectrum is checked against it in
    :func:`test_closed_form_matches_normal_equations_oracle` and
    :func:`test_candidate_spectrum_of_a_perturbed_basis_matches_the_block`."""
    m = R.shape[0]
    w = 1.0 - np.linalg.eigvalsh(R.T @ R)[::-1]
    mats = []
    for vec in np.kron(np.eye(d), R).T:
        vec = vec / np.linalg.norm(vec)
        peak = int(np.argmax(np.abs(vec)))
        if vec[peak] < 0:
            vec = -vec
        mats.append(vec.reshape((m, d), order="F"))
    return mats, np.repeat(w, d), d * int(np.count_nonzero(w < 1e-8))


def dense_stack_candidates(R: np.ndarray, d: int) -> np.ndarray:
    """Reference: the candidates as one dense (d**2, M, d) stack, the way
    ``extract_candidates`` built them before they were windows of one
    (d, M, 2d - 1) array."""
    columns = R / np.linalg.norm(R, axis=0)
    flip = columns[np.argmax(np.abs(columns), axis=0), np.arange(d)] < 0
    columns = np.where(flip, -columns, columns)
    return (np.eye(d)[:, None, None, :] * columns.T[None, :, :, None]).reshape(d * d, R.shape[0], d)


def test_truncated_svd_diagonal_input():
    dec = truncated_svd(np.diag([3.0, 2.0, 1.0, 0.0]), 3)
    assert_allclose(dec.sigma, [3.0, 2.0, 1.0])
    assert_allclose(np.abs(dec.R), np.eye(4)[:, :3], atol=1e-12)
    assert_allclose(np.abs(dec.G).ravel(), [0, 0, 0, 1], atol=1e-12)
    assert not dec.ill_conditioned


def test_truncated_svd_exact_rank_reconstruction():
    rng = np.random.default_rng(0)
    basis = random_orthonormal(6, 3, rng)
    Y = basis @ np.diag([5.0, 2.0, 0.5]) @ basis.T
    Y = 0.5 * (Y + Y.T)
    dec = truncated_svd(Y, 3)
    recon = dec.U @ np.diag(dec.sigma) @ dec.R.T
    assert np.linalg.norm(recon - Y) <= 1e-10 * np.linalg.norm(Y)


def test_truncated_svd_orthogonality_invariants():
    rng = np.random.default_rng(1)
    Y = rng.standard_normal((6, 6))
    Y = 0.5 * (Y + Y.T)
    dec = truncated_svd(Y, 2)
    assert_allclose(dec.U.T @ dec.U, np.eye(2), atol=1e-10)
    assert_allclose(dec.R.T @ dec.R, np.eye(2), atol=1e-10)
    assert_allclose(dec.G.T @ dec.G, np.eye(4), atol=1e-10)
    assert np.max(np.abs(dec.R.T @ dec.G)) <= 1e-10
    assert np.all(np.diff(dec.sigma) <= 0)


def test_truncated_svd_dimension_errors():
    Y = np.eye(4)
    with pytest.raises(DimensionError):
        truncated_svd(Y, 4)
    with pytest.raises(DimensionError):
        truncated_svd(Y, 0)
    with pytest.raises(DimensionError):
        truncated_svd(np.zeros((3, 4)), 2)
    with pytest.raises(DomainError):
        truncated_svd(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)  # not symmetric


def test_truncated_svd_rank_follows_the_integer_rule():
    Y = np.diag([3.0, 2.0, 1.0, 0.0])
    with pytest.raises(DimensionError, match="positive integer"):
        truncated_svd(Y, True)
    dec = truncated_svd(Y, np.int64(2))
    assert_array_equal(dec.R, truncated_svd(Y, 2).R)


def test_truncated_svd_flags_ambiguous_truncation():
    assert truncated_svd(np.diag([2.0, 1.0, 1.0, 0.0]), 2).ill_conditioned
    assert not truncated_svd(np.diag([2.0, 1.0, 1.0, 0.0]), 3).ill_conditioned


def symmetric_with_spectrum(kind: str, m: int, rng: np.random.Generator) -> np.ndarray:
    """A symmetric M x M matrix with a random eigenbasis and a spectrum of
    the given kind: PSD (a correlation), indefinite, or +-lambda pairs (a
    cumulant slice), scaled by a random power of ten."""
    if kind == "psd":
        lam = rng.uniform(0.0, 1.0, m)
    elif kind == "indefinite":
        lam = rng.uniform(-1.0, 1.0, m)
    else:
        half = rng.uniform(0.0, 1.0, m // 2)
        lam = np.concatenate((half, -half, np.zeros(m % 2)))
    basis = random_orthonormal(m, m, rng)
    Y = (basis * (lam * 10.0 ** rng.integers(-3, 4))) @ basis.T
    return 0.5 * (Y + Y.T)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_truncated_svd_matches_the_general_svd(data):
    m = data.draw(st.integers(2, 40), label="M")
    d = data.draw(st.integers(1, m - 1), label="d")
    kind = data.draw(st.sampled_from(["psd", "indefinite", "pairs"]), label="kind")
    Y = symmetric_with_spectrum(kind, m, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    dec = truncated_svd(Y, d)
    U_ref, s_ref, Vt_ref = np.linalg.svd(Y)
    scale = s_ref[0]

    assert np.all(dec.sigma >= 0) and np.all(np.diff(dec.sigma) <= 0)
    assert np.max(np.abs(dec.sigma - s_ref[:d])) <= 1e-12 * scale
    for basis in (dec.U, dec.R, dec.G):
        assert np.max(np.abs(basis.T @ basis - np.eye(basis.shape[1]))) <= 1e-12
    assert np.max(np.abs(dec.R.T @ dec.G)) <= 1e-12
    # U diag(sigma) R^T is a best rank-d approximation (Eckart-Young), with Y R = U diag(sigma)
    truncation = (dec.U * dec.sigma) @ dec.R.T
    assert abs(np.linalg.norm(Y - truncation) - np.linalg.norm(s_ref[d:])) <= 1e-12 * scale
    assert abs(np.linalg.norm(Y - truncation, 2) - s_ref[d]) <= 1e-12 * scale
    assert np.max(np.abs(Y @ dec.R - dec.U * dec.sigma)) <= 1e-12 * scale
    if s_ref[d - 1] - s_ref[d] > 1e-6 * scale:  # the split is unique: the SVD's subspace
        R_ref = Vt_ref[:d].T
        assert np.linalg.norm(dec.R @ dec.R.T - R_ref @ R_ref.T, 2) <= 1e-8
        assert np.max(np.abs(truncation - (U_ref[:, :d] * s_ref[:d]) @ Vt_ref[:d])) <= 1e-8 * scale


def test_build_projector_canonical_shapes():
    R = np.eye(4)[:, :3]
    proj = build_projector(R, 3)
    assert np.kron(np.eye(3), proj.R).shape == (12, 9)
    assert proj.Q.shape == (12, 12)
    w = np.sort(np.linalg.eigvalsh(proj.Q))
    assert np.all(np.abs(w[:9]) <= 1e-10)
    assert np.all(np.abs(w[9:] - 1.0) <= 1e-10)


def test_build_projector_rank_one_case():
    u = np.array([[0.6], [0.8]])
    proj = build_projector(u, 1)
    assert_allclose(proj.Q, np.eye(2) - u @ u.T, atol=1e-12)


def test_projector_annihilates_its_basis():
    rng = np.random.default_rng(2)
    R = random_orthonormal(5, 2, rng)
    proj = build_projector(R, 2)
    assert np.max(np.abs(proj.Q @ np.kron(np.eye(2), proj.R))) <= 1e-10


def test_build_projector_requires_orthonormal_columns():
    with pytest.raises(DomainError):
        build_projector(np.array([[1.0, 1.0], [0.0, 0.0], [0.0, 0.1]]), 2)
    with pytest.raises(DimensionError):
        build_projector(np.eye(4)[:, :2], 3)


@pytest.mark.parametrize("m", [4, 6, 8])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_projector_spectrum_and_idempotency(m, d):
    rng = np.random.default_rng(m * 10 + d)
    proj = build_projector(random_orthonormal(m, d, rng), d)
    w = np.sort(np.linalg.eigvalsh(proj.Q))
    assert np.all(np.abs(w[: d * d]) <= 1e-9)
    assert np.all(np.abs(w[d * d :] - 1.0) <= 1e-9)
    assert np.linalg.norm(proj.Q @ proj.Q - proj.Q) <= 1e-9
    assert_array_equal(proj.Q, proj.Q.T)
    assert w[0] >= -1e-10 and w[-1] <= 1.0 + 1e-10


def test_extract_candidates_demo_single_entry_solutions():
    _, generator = make_demo_fixture()
    from eitkit import correlation

    dec = truncated_svd(correlation(generator()).matrix, 3)
    cset = extract_candidates(build_projector(dec.R, 3), 4, 3)
    assert len(cset.candidates) == 9
    assert cset.null_count == 9
    positions = set()
    for mat in cset.candidates:
        assert mat.shape == (4, 3)
        flat = np.abs(mat).ravel()
        peak = int(np.argmax(flat))
        assert abs(flat[peak] - 1.0) <= 1e-10
        assert np.max(np.delete(flat, peak)) <= 1e-10
        idx = np.unravel_index(peak, (4, 3))
        positions.add(idx)
        assert idx[0] != 3  # the silent channel never hosts the unit entry
    assert len(positions) == 9


def test_extract_candidates_rank_one():
    proj = build_projector(np.array([[0.0], [1.0], [0.0]]), 1)
    cset = extract_candidates(proj, 3, 1)
    assert len(cset.candidates) == 1
    assert_allclose(cset.candidates[0].ravel(), [0.0, 1.0, 0.0], atol=1e-12)


def test_extract_candidates_shape_guard():
    proj = build_projector(np.eye(4)[:, :2], 2)
    with pytest.raises(DimensionError):
        extract_candidates(proj, 4, 3)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closed_form_matches_normal_equations_oracle(data):
    m = data.draw(st.integers(2, 10), label="M")
    d = data.draw(st.integers(1, m), label="d")
    R = random_orthonormal(m, d, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    Q_ref, w_ref, V_ref = normal_equations_projector(R, d)
    proj = build_projector(R, d)
    assert np.max(np.abs(proj.Q - Q_ref)) <= 1e-12
    cset = extract_candidates(proj, m, d)
    vecs = np.column_stack([mat.ravel(order="F") for mat in cset.candidates])
    assert np.max(subspace_angles(vecs, V_ref[:, : d * d])) <= 1e-10
    assert np.max(np.abs(cset.eigenvalues - w_ref[: d * d])) <= 1e-12
    assert cset.null_count == int(np.count_nonzero(w_ref < 1e-8))
    assert np.max(np.abs(vecs.T @ vecs - np.eye(d * d))) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_candidates_from_R_match_column_loop(data):
    m = data.draw(st.integers(1, 40), label="M")
    d = data.draw(st.integers(1, m), label="d")
    R = random_orthonormal(m, d, np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))))
    mats, eigenvalues, null_count = column_loop_candidates(R, d)
    proj = build_projector(R, d)
    cset = extract_candidates(proj, m, d)
    assert len(cset.candidates) == d * d
    for got, want, dense in zip(cset.candidates, mats, dense_stack_candidates(R, d)):
        assert got.shape == (m, d) and not got.flags.writeable
        assert np.max(np.abs(got - want)) <= 1e-15
        assert_array_equal(np.signbit(got), np.signbit(want))
        assert_array_equal(got, dense)  # the same products: equal bits, zeros' signs included
        assert_array_equal(np.signbit(got), np.signbit(dense))
    assert_array_equal(cset.eigenvalues, eigenvalues)
    assert cset.null_count == null_count
    block = np.eye(m) - R @ R.T
    assert_array_equal(proj.Q, np.kron(np.eye(d), 0.5 * (block + block.T)))
    assert_array_equal(proj.R, R)  # so B = np.kron(np.eye(d), proj.R) is the one the column loop read


def test_candidate_set_holds_one_window_array_not_a_dense_stack():
    import tracemalloc

    m, d = 128, 16
    proj = build_projector(random_orthonormal(m, d, np.random.default_rng(9)), d)
    tracemalloc.start()
    try:
        cset = extract_candidates(proj, m, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    windows = 8 * m * d * (2 * d - 1)  # 508 KB; the dense stack was 8 m d**3, 4 MiB
    assert {mat.base.nbytes for mat in cset.candidates} == {windows}
    assert peak <= 1.5 * windows, peak / windows


def block_spectrum(R: np.ndarray) -> np.ndarray:
    """Oracle: the ascending spectrum of the dense M x M ``sym(I_M - R R^T)``."""
    block = np.eye(R.shape[0]) - R @ R.T
    return np.linalg.eigvalsh(0.5 * (block + block.T))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_candidate_spectrum_of_a_perturbed_basis_matches_the_block(data):
    # R off orthonormal by up to 1e-9 an entry, inside build_projector's 1e-8 check
    m = data.draw(st.integers(1, 40), label="M")
    d = data.draw(st.integers(1, m), label="d")
    size = data.draw(st.floats(0.0, 1e-9), label="perturbation")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    R = random_orthonormal(m, d, rng) + rng.uniform(-size, size, (m, d))
    assume(np.max(np.abs(R.T @ R - np.eye(d))) <= 1e-8)
    cset = extract_candidates(build_projector(R, d), m, d)
    w = block_spectrum(R)
    assert np.max(np.abs(cset.eigenvalues - np.repeat(w[:d], d))) <= 1e-12
    assert cset.null_count == d * int(np.count_nonzero(w < 1e-8))


@pytest.mark.parametrize("m, d", [(2, 2), (6, 3), (40, 5)])
def test_null_count_of_a_shrunk_basis_matches_the_block(m, d):
    # R (I - eps J / 2) has Gram entries near -eps, inside build_projector's 1e-8
    # check, and one projector eigenvalue near d eps, above the 1e-8 null threshold
    eps = 0.9e-8
    R = random_orthonormal(m, d, np.random.default_rng(m)) @ (np.eye(d) - 0.5 * eps * np.ones((d, d)))
    cset = extract_candidates(build_projector(R, d), m, d)
    w = block_spectrum(R)
    assert cset.null_count == d * int(np.count_nonzero(w < 1e-8)) == d * (d - 1)
    assert np.max(np.abs(cset.eigenvalues - np.repeat(w[:d], d))) <= 1e-12


def test_projector_builds_dense_forms_only_on_access():
    R = random_orthonormal(6, 2, np.random.default_rng(10))
    proj = build_projector(R, 2)
    extract_candidates(proj, 6, 2)
    assert "Q" not in vars(proj)
    assert proj.Q is proj.Q
    assert "Q" in vars(proj)
    assert (proj.channel_count, proj.rank) == (6, 2)
    R[0, 0] = 5.0  # the projector keeps its own read-only copy
    assert proj.R[0, 0] != 5.0 and not proj.R.flags.writeable


def test_candidate_set_invariants():
    rng = np.random.default_rng(3)
    m, d = 5, 2
    R = random_orthonormal(m, d, rng)
    cset = extract_candidates(build_projector(R, d), m, d)
    vecs = np.column_stack([mat.ravel(order="F") for mat in cset.candidates])
    for k, mat in enumerate(cset.candidates):
        assert np.linalg.norm(mat) == pytest.approx(1.0, abs=1e-10)
    gram = vecs.T @ vecs
    assert np.max(np.abs(gram - np.eye(d * d))) <= 1e-8
    # span of vectorized candidates equals range(B): principal angles vanish
    B = np.kron(np.eye(d), R)
    angles = subspace_angles(vecs, B)
    assert np.max(angles) <= 1e-8


def test_candidates_invariant_under_positive_scaling():
    # the candidate family depends on Y only through its singular vectors
    rng = np.random.default_rng(4)
    Y = rng.standard_normal((5, 5))
    Y = 0.5 * (Y + Y.T)
    d = 2

    def candidates_of(mat):
        dec = truncated_svd(mat, d)
        return extract_candidates(build_projector(dec.R, d), 5, d), dec

    base, base_dec = candidates_of(Y)
    for c in (0.5, 2.0, 1024.0):
        scaled, _ = candidates_of(c * Y)
        for a, b in zip(base.candidates, scaled.candidates):
            assert_array_equal(a, b)

    scaled, _ = candidates_of(3.7 * Y)
    for a, b in zip(base.candidates, scaled.candidates):
        assert np.max(np.abs(a - b)) <= 1e-12
    for mat in scaled.candidates:
        assert fitting_residual(mat, base_dec) <= 1e-8


def test_fitting_residual_zero_on_basis_and_full_on_complement():
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((6, 6))
    Y = 0.5 * (Y + Y.T)
    dec = truncated_svd(Y, 2)
    assert fitting_residual(dec.R, dec) <= 1e-12
    in_complement = dec.G[:, :2]
    assert fitting_residual(in_complement, dec) == pytest.approx(
        np.linalg.norm(in_complement), rel=1e-12
    )


def test_fitting_residual_matches_numeric_minimization():
    rng = np.random.default_rng(6)
    m, d = 5, 2
    R = random_orthonormal(m, d, rng)
    A = rng.standard_normal((m, d))
    claimed = fitting_residual(A, R)

    def objective(c_flat):
        C = c_flat.reshape(d, d)
        return np.linalg.norm(A - R @ C)

    best = min(
        minimize(objective, rng.standard_normal(d * d), method="Nelder-Mead",
                 options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000}).fun
        for _ in range(3)
    )
    assert claimed == pytest.approx(best, abs=1e-7)
    assert claimed <= best + 1e-12  # closed form is never beaten


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fitting_residual_of_a_decomposition_equals_that_of_its_basis(data):
    m = data.draw(st.integers(2, 40), label="M")
    d = data.draw(st.integers(1, m - 1), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    Y = rng.standard_normal((m, m))
    dec = truncated_svd(Y + Y.T, d)
    A = rng.standard_normal((m, d))
    assert fitting_residual(A, dec) == fitting_residual(A, dec.R)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fitting_residual_of_a_direct_basis_of_any_width(data):
    m = data.draw(st.integers(1, 40), label="M")
    k = data.draw(st.integers(0, m), label="k")
    d = data.draw(st.integers(1, 8), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    basis, _ = np.linalg.qr(rng.standard_normal((m, m)))
    R, complement = basis[:, :k], basis[:, k:]
    A = rng.standard_normal((m, d))
    # |A - R R^T A|_F is the norm of A's part in the complement: |A|_F for
    # k = 0, and 0 for k = M, where a square orthonormal R is a basis, not a statistic
    oracle = np.linalg.norm(complement.T @ A)
    assert abs(fitting_residual(A, R) - oracle) <= 1e-12 * np.linalg.norm(A)


def test_fitting_residual_of_a_finite_A_whose_squared_norm_overflows():
    import warnings

    A = np.full((4, 2), 1e200)
    R = np.eye(4)[:, :1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = fitting_residual(A, R)
    # the three rows outside span(R) hold six entries of 1e200
    assert residual == pytest.approx(np.sqrt(6.0) * 1e200, rel=1e-12)


def test_noise_free_statistic_annihilated_by_complement():
    rng = np.random.default_rng(8)
    m, d = 6, 3
    A = rng.standard_normal((m, d))
    x = rng.standard_normal((80, d))
    from eitkit import correlation

    Y = correlation(MeasurementEnsemble(x @ A.T)).matrix
    dec = truncated_svd(Y, d)
    assert np.linalg.norm(Y @ dec.G) <= 1e-8 * np.linalg.norm(Y)


def test_candidate_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    R = random_orthonormal(4, 2, rng)
    cset = extract_candidates(build_projector(R, 2), 4, 2)
    path = tmp_path / "cands.csv"
    save_candidates(cset, path, header_lines=("note",))
    again = load_candidates(path)
    assert again.channel_count == 4 and again.rank == 2
    assert_array_equal(again.eigenvalues, cset.eigenvalues)
    for a, b in zip(again.candidates, cset.candidates):
        assert_array_equal(a, b)


@pytest.mark.parametrize(
    "header, line_no",
    [
        ("# M,abc\n# d,1\n# eigenvalues,0\n", 1),
        ("# M,2\n# d,0\n# eigenvalues,\n", 3),
        ("# M,2\n# d,1\n# eigenvalues,zz\n", 3),
        ("# M,2\n# d,1\n# eigenvalues,0,0\n", 3),
        ("# M,9\n# M,2\n# d,1\n# eigenvalues,0\n", 2),
        ("# M,2\n# d,1\n# eigenvalues,0\n# d,1\n", 4),
        ("# M,2\n# eigenvalues,1\n# d,1\n# eigenvalues,0\n", 4),
    ],
    ids=["bad-M", "empty-eigenvalues", "bad-eigenvalue", "eigenvalue-count", "repeated-M",
         "repeated-d", "repeated-eigenvalues"],
)
def test_load_candidates_rejects_bad_header(tmp_path, header, line_no):
    path = tmp_path / "cands.csv"
    path.write_text(header + "1\n0\n")
    with pytest.raises(FormatError) as err:
        load_candidates(path)
    assert err.value.line_no == line_no


def test_load_candidates_rejects_ragged_block(tmp_path):
    path = tmp_path / "cands.csv"
    path.write_text("# M,2\n# d,1\n# eigenvalues,0\n1\n0,0\n")
    with pytest.raises(FormatError) as err:
        load_candidates(path)
    assert err.value.line_no == 5


# ------------------------------------------------- input rejections ----

CANDIDATE_HEADER = "# M,3\n# d,2\n# eigenvalues,0,0,0,0\n"
BLOCK = "1,0\n0,1\n0,0\n"


def nan_basis(value=np.nan):
    """An orthonormal (4, 2) basis with a NaN at [0, 0], which the
    orthonormality check does not see: a NaN compares False. An infinity
    there makes ``inf * 0``, a NaN in ``R^T R``, so it is not seen either."""
    R = np.eye(4)[:, :2].copy()
    R[0, 0] = value
    return R


def candidate_file(text):
    """A call that writes ``text`` as a candidate file and loads it."""
    def call(tmp):
        path = tmp / "candidates.csv"
        path.write_text(text)
        return load_candidates(path)
    return call


# case -> (call, error class, message, line)
REJECTIONS = {
    "projector-1d": (lambda tmp: build_projector(np.ones(3), 1), DimensionError,
                     "R must be an M x d matrix, got shape (3,)", None),
    "projector-rank": (lambda tmp: build_projector(np.ones((2, 3)), 3), DimensionError,
                       "need 1 <= d <= M, got d=3, M=2", None),
    "projector-direct-1d": (lambda tmp: extract_candidates(ProjectorQ(R=np.ones(3)), 3, 1), DimensionError,
                            "R must be an M x d matrix, got shape (3,)", None),
    "residual-1d": (lambda tmp: fitting_residual(np.ones(3), np.eye(3)), DimensionError,
                    "A must be an M x d matrix, got shape (3,)", None),
    "residual-basis-1d": (lambda tmp: fitting_residual(np.ones((4, 2)), np.ones(4)), DimensionError,
                          "basis R must be an M x k matrix, got shape (4,)", None),
    "residual-basis-not-orthonormal": (lambda tmp: fitting_residual(np.ones((4, 2)), np.ones((4, 2))), DomainError,
                                       "direct basis R must have orthonormal columns", None),
    "residual-basis-rows": (lambda tmp: fitting_residual(np.ones((4, 2)), np.eye(3)), DimensionError,
                            "basis has 3 rows, A has 4", None),
    "residual-basis-nan": (lambda tmp: fitting_residual(np.ones((4, 2)), nan_basis()), DomainError,
                           "direct basis R contains non-finite entries", None),
    "residual-basis-inf": (lambda tmp: fitting_residual(np.ones((4, 2)), nan_basis(np.inf)), DomainError,
                           "direct basis R contains non-finite entries", None),
    "residual-A-nan": (lambda tmp: fitting_residual(np.full((4, 2), np.nan), np.eye(4)[:, :2]), DomainError,
                       "A contains non-finite entries", None),
    "residual-A-nan-on-a-decomposition": (
        lambda tmp: fitting_residual(np.full((4, 2), np.nan), truncated_svd(np.diag([4.0, 3.0, 2.0, 1.0]), 2)),
        DomainError, "A contains non-finite entries", None),
    # inf * 0 in the projection: the DomainError comes with no RuntimeWarning
    "residual-A-inf-on-a-decomposition": (
        lambda tmp: fitting_residual(np.full((4, 2), np.inf), truncated_svd(np.diag([4.0, 3.0, 2.0, 1.0]), 2)),
        DomainError, "A contains non-finite entries", None),
    "block-count": (candidate_file(CANDIDATE_HEADER + "\n".join([BLOCK] * 3)), FormatError,
                    "expected 4 candidate blocks, found 3", None),
    "block-shape": (candidate_file(CANDIDATE_HEADER + "\n".join([BLOCK] * 3 + ["1,0\n0,1\n"])), FormatError,
                    "candidate block has shape (2, 2), expected (3, 2)", None),
}


@pytest.mark.parametrize("case", REJECTIONS)
def test_bad_subspace_input_is_rejected_with_its_message(tmp_path, case):
    call, kind, message, line_no = REJECTIONS[case]
    with pytest.raises(kind) as err:
        call(tmp_path)
    assert type(err.value) is kind
    assert str(err.value) == message
    assert getattr(err.value, "line_no", None) == line_no


@pytest.mark.parametrize("value", ["nan", "1e999"])
def test_non_finite_candidate_value_is_a_format_error_at_its_line(tmp_path, value):
    path = tmp_path / "candidates.csv"
    path.write_text(CANDIDATE_HEADER + BLOCK + f"\n1,0\n{value},1\n0,0\n" + "\n".join(["", BLOCK, BLOCK]))
    with pytest.raises(FormatError) as err:
        load_candidates(path)
    assert err.value.line_no == 9
    assert str(err.value) == f"non-finite value {float(value)!r} (line 9)"
