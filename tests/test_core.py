import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ihtlab.core import (
    RANK_DEFICIENCY_CONDITION,
    ProblemInstance,
    ProblemStack,
    RngSpec,
    SupportSet,
    hard_threshold,
    least_squares_split,
    restrict,
    sample_gaussian_matrix,
    sample_noise,
    sample_sparse_signal,
    top_mask,
    _check_rank,
)
from ihtlab.errors import InvalidArgumentError, ShapeMismatchError, SingularMatrixError


class TestHardThreshold:
    def test_top_two_magnitudes(self):
        np.testing.assert_array_equal(hard_threshold(np.array([3.0, -5.0, 1.0, 0.0]), 2),
                                      np.array([3.0, -5.0, 0.0, 0.0]))

    def test_identity_on_feasible(self):
        x = np.array([0.0, 2.0, 0.0, -1.0, 0.0])
        np.testing.assert_array_equal(hard_threshold(x, 2), x)
        np.testing.assert_array_equal(hard_threshold(x, 4), x)

    def test_tie_breaks_to_lowest_index(self):
        np.testing.assert_array_equal(hard_threshold(np.array([2.0, -2.0, 1.0]), 1),
                                      np.array([2.0, 0.0, 0.0]))

    def test_k_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            hard_threshold(np.array([1.0, 2.0]), 0)
        with pytest.raises(InvalidArgumentError):
            hard_threshold(np.array([1.0, 2.0]), 3)

    @pytest.mark.parametrize("k", [2.5, True, np.float64(2.0), np.array([1.0, 2.0])])
    def test_non_integer_k_refused(self, k):
        # Bool is no integer here, as in the config's scalar rule.
        x = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0]]) if np.ndim(k) else np.array([1.0, 2.0, 3.0])
        for select in (hard_threshold, top_mask):
            with pytest.raises(InvalidArgumentError, match="k must be integer"):
                select(x, k)

    def test_leading_axes_run_row_by_row(self):
        # A (2, 3, 4) array with a (2, 3) k selects as the (6, 4) stack of its rows.
        gen = RngSpec(12).generator()
        x = gen.standard_normal((2, 3, 4))
        x[0, 1] = [1.0, -1.0, 1.0, 0.5]  # a tie at the k-th magnitude
        k = gen.integers(1, 5, size=(2, 3))
        rows = top_mask(x.reshape(6, 4), k.reshape(6))
        np.testing.assert_array_equal(top_mask(x, k), rows.reshape(2, 3, 4), strict=True)
        np.testing.assert_array_equal(hard_threshold(x, k), np.where(rows, x.reshape(6, 4), 0.0).reshape(2, 3, 4))
        for i, j in np.ndindex(2, 3):
            np.testing.assert_array_equal(hard_threshold(x, k)[i, j], hard_threshold(x[i, j], int(k[i, j])))

    def test_zero_d_input_refused(self):
        for select in (hard_threshold, top_mask):
            with pytest.raises(ShapeMismatchError, match="0-d"):
                select(np.float64(3.0), 1)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=30), st.data())
    def test_idempotent(self, values, data):
        x = np.array(values)
        k = data.draw(st.integers(1, len(values)))
        once = hard_threshold(x, k)
        np.testing.assert_array_equal(hard_threshold(once, k), once)

    def test_projection_optimality(self):
        # H_k(x) is at least as close to x as 10^3 random k-sparse points.
        gen = RngSpec(11).generator()
        x = gen.standard_normal(20)
        k = 4
        best = np.linalg.norm(hard_threshold(x, k) - x)
        for _ in range(1000):
            z = np.zeros(20)
            idx = gen.choice(20, size=k, replace=False)
            z[idx] = gen.standard_normal(k)
            assert best <= np.linalg.norm(z - x) + 1e-12


class TestSupportSet:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            SupportSet((3, 1))
        with pytest.raises(InvalidArgumentError):
            SupportSet((1, 1))
        with pytest.raises(InvalidArgumentError):
            SupportSet((-1, 2))

    def test_set_operations(self):
        a = SupportSet((0, 2, 5))
        b = SupportSet((2, 3))
        assert a.difference(b) == SupportSet((0, 5))
        assert SupportSet((0, 2)).issubset(a)

    def test_support_of(self):
        assert SupportSet.support_of(np.array([0.0, 1.0, 0.0, -2.0])) == SupportSet((1, 3))


class TestRestrict:
    def test_identity_columns(self):
        eye = np.eye(3)
        np.testing.assert_array_equal(restrict(eye, SupportSet((0, 2))), eye[:, [0, 2]])

    def test_all_columns(self):
        A = RngSpec(0).generator().standard_normal((3, 4))
        np.testing.assert_array_equal(restrict(A, SupportSet((0, 1, 2, 3))), A)

    def test_entrywise_oracle(self):
        A = RngSpec(1).generator().standard_normal((4, 6))
        gamma = SupportSet((1, 4))
        sub = restrict(A, gamma)
        for row in range(4):
            for j, col in enumerate(gamma):
                assert sub[row, j] == A[row, col]

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            restrict(np.eye(3), SupportSet((0, 3)))


def split_y(A, v):
    """The least-squares coefficients y of ``least_squares_split``."""
    _, [(y, _)] = least_squares_split(A, v)
    return y


class TestLeastSquaresCoefficients:
    def test_orthonormal_block(self):
        gen = RngSpec(2).generator()
        Q, _ = np.linalg.qr(gen.standard_normal((8, 3)))
        v = gen.standard_normal(8)
        np.testing.assert_allclose(split_y(Q, v), Q.T @ v, atol=1e-12)

    def test_consistent_system(self):
        gen = RngSpec(3).generator()
        A = gen.standard_normal((8, 3))
        y0 = gen.standard_normal(3)
        y = split_y(A, A @ y0)
        np.testing.assert_allclose(y, y0, atol=1e-10)

    def test_normal_equations_oracle_extended_precision(self):
        gen = RngSpec(4).generator()
        A = gen.standard_normal((8, 3))
        v = gen.standard_normal(8)
        y = split_y(A, v)
        Al = A.astype(np.longdouble)
        vl = v.astype(np.longdouble)
        oracle = np.linalg.solve((Al.T @ Al).astype(float), (Al.T @ vl).astype(float))
        np.testing.assert_allclose(y, oracle, rtol=1e-10)

    def test_normal_equation_residual(self):
        gen = RngSpec(5).generator()
        for _ in range(20):
            A = gen.standard_normal((10, 4))
            v = gen.standard_normal(10)
            y = split_y(A, v)
            assert np.linalg.norm(A.T @ (v - A @ y)) <= 1e-10 * np.linalg.norm(v)

    def test_singular_values_are_those_of_r(self):
        A = RngSpec(6).generator().standard_normal((3, 8, 2))
        s, _ = least_squares_split(A, np.ones((3, 8)))
        np.testing.assert_array_equal(s, np.linalg.svd(np.linalg.qr(A)[1], compute_uv=False))

    def test_rank_deficiency(self):
        A = np.ones((6, 2))
        with pytest.raises(SingularMatrixError) as excinfo:
            split_y(A, np.ones(6))
        assert excinfo.value.condition > 1e12

    def test_right_hand_side_of_wrong_shape_raises(self):
        A = RngSpec(6).generator().standard_normal((3, 8, 2))
        for v in (np.ones(8), np.ones((3, 7)), np.ones((2, 8))):
            with pytest.raises(ShapeMismatchError):
                least_squares_split(A, v)

    def test_more_columns_than_rows_raises(self):
        with pytest.raises(InvalidArgumentError, match="at least as many rows"):
            least_squares_split(np.ones((2, 3)), np.ones(2))


class TestLeastSquaresSplitStack:
    def test_slices_equal_lone_calls(self):
        gen = RngSpec(7).generator()
        A = gen.standard_normal((6, 9, 4))
        v, e = gen.standard_normal((6, 9)), gen.standard_normal((6, 9))
        s, stacked = least_squares_split(A, v, e)
        for j in range(6):
            s_j, lone = least_squares_split(A[j], v[j], e[j])
            assert np.array_equal(s[j], s_j)
            for (y, w), (y_j, w_j) in zip(stacked, lone):
                assert np.array_equal(y[j], y_j) and np.array_equal(w[j], w_j)
        # The split of v does not depend on whether e comes with it.
        _, [(y_v, w_v)] = least_squares_split(A, v)
        assert np.array_equal(stacked[0][0], y_v) and np.array_equal(stacked[0][1], w_v)

    @pytest.mark.parametrize("T, m, p", [(16, 100, 10), (16, 60, 16), (5, 60, 6), (3, 40, 20), (2, 33, 16),
                                         (2, 64, 32)])
    def test_basis_is_the_thin_svd_of_a_gamma(self, T, m, p):
        # At m >= 2p dgesdd takes A's SVD through the same QR, so s and U1 are its bits.
        gen = RngSpec(10).generator()
        A = gen.standard_normal((T, m, p))
        v, e = gen.standard_normal((T, m)), gen.standard_normal((T, m))
        s, U1, splits = least_squares_split(A, v, e, basis=True)
        U, s_svd, _ = np.linalg.svd(A, full_matrices=False)
        assert np.array_equal(s, s_svd) and np.array_equal(U1, U)
        _, plain = least_squares_split(A, v, e)
        for (y, w), (y_0, w_0) in zip(splits, plain):
            assert np.array_equal(y, y_0) and np.array_equal(w, w_0)
        for j in range(T):
            s_j, U1_j, lone = least_squares_split(A[j], v[j], e[j], basis=True)
            assert np.array_equal(s[j], s_j) and np.array_equal(U1[j], U1_j)
            for (y, w), (y_j, w_j) in zip(splits, lone):
                assert np.array_equal(y[j], y_j) and np.array_equal(w[j], w_j)

    @pytest.mark.parametrize("j", [0, 3, 5])
    def test_duplicated_column_in_slice_j_raises_for_slice_j(self, j):
        gen = RngSpec(8).generator()
        A = gen.standard_normal((6, 9, 3))
        A[j, :, 2] = A[j, :, 0]
        v = gen.standard_normal((6, 9))
        with pytest.raises(SingularMatrixError) as alone:
            least_squares_split(A[j], v[j])
        with pytest.raises(SingularMatrixError) as stacked:
            least_squares_split(A, v)
        assert stacked.value.condition == alone.value.condition
        for i in range(j):
            least_squares_split(A[i], v[i])  # the slices before j are well posed

    def test_first_bad_slice_in_order_is_reported(self):
        gen = RngSpec(9).generator()
        A = gen.standard_normal((5, 8, 3))
        A[1, :, 1] = A[1, :, 0]
        A[3] = 0.0
        v = gen.standard_normal((5, 8))
        with pytest.raises(SingularMatrixError) as alone:
            least_squares_split(A[1], v[1])
        with pytest.raises(SingularMatrixError) as stacked:
            least_squares_split(A, v)
        assert math.isfinite(stacked.value.condition)
        assert stacked.value.condition == alone.value.condition


def _conditioned_stack(conds):
    """A stack of 9 x 4 matrices U diag(s) V^T, slice j with singular values
    log-spaced from 1 down to 1/conds[j], and its right-hand sides."""
    gen = RngSpec(31).generator()
    A = []
    for cond in conds:
        U = np.linalg.qr(gen.standard_normal((9, 4)))[0]
        V = np.linalg.qr(gen.standard_normal((4, 4)))[0]
        A.append((U * np.logspace(0, -math.log10(cond), 4)) @ V.T)
    return np.stack(A), gen.standard_normal((len(conds), 9))


class TestRankCheck:
    # Prescribed condition numbers log-spaced across the threshold, and four
    # within 1% of it, in an order where the first refused slice is neither
    # the best nor the worst conditioned of the refused ones.
    CONDS = np.random.default_rng(7).permutation(
        np.append(np.logspace(10, 14, 41), RANK_DEFICIENCY_CONDITION * np.array([0.99, 0.997, 1.003, 1.01]))
    )

    def test_refuses_exactly_where_cond_of_r_exceeds_threshold(self):
        A, v = _conditioned_stack(self.CONDS)
        cond = np.linalg.cond(np.linalg.qr(A)[1])
        refused = cond > RANK_DEFICIENCY_CONDITION
        first = cond[np.argmax(refused)]
        assert not refused[0] and cond[refused].min() < first < cond[refused].max()
        for j in range(len(A)):
            if refused[j]:
                with pytest.raises(SingularMatrixError) as excinfo:
                    least_squares_split(A[j], v[j])
                assert excinfo.value.condition == cond[j]
            else:
                least_squares_split(A[j], v[j])
        with pytest.raises(SingularMatrixError) as stacked:
            least_squares_split(A, v)
        assert stacked.value.condition == first

    def test_singular_values_with_vectors_give_the_same_decisions(self):
        # The split with basis (mc-dist at sigma > 0) checks the singular values
        # of R's SVD with vectors, whose ratio may differ from cond's in the last bits.
        A, v = _conditioned_stack(self.CONDS)
        cond = np.linalg.cond(np.linalg.qr(A)[1])
        assert np.all(np.abs(cond / RANK_DEFICIENCY_CONDITION - 1) > 1e-14)
        refused = cond > RANK_DEFICIENCY_CONDITION
        for j in range(len(A)):
            if refused[j]:
                with pytest.raises(SingularMatrixError) as excinfo:
                    least_squares_split(A[j], v[j], basis=True)
                assert excinfo.value.condition == pytest.approx(cond[j], rel=1e-14)
            else:
                least_squares_split(A[j], v[j], basis=True)
        with pytest.raises(SingularMatrixError) as stacked:
            least_squares_split(A, v, basis=True)
        assert stacked.value.condition == pytest.approx(cond[np.argmax(refused)], rel=1e-14)

    def test_zero_on_the_diagonal_is_infinitely_ill_conditioned(self):
        R = np.triu(np.ones((3, 3, 3)))
        R[1, 2, 2] = 0.0
        with pytest.raises(SingularMatrixError) as excinfo:
            _check_rank(R, np.linalg.svd(R, compute_uv=False))
        assert excinfo.value.condition == math.inf


class TestGaussianMatrix:
    def test_moments(self):
        A = sample_gaussian_matrix(1000, 1000, RngSpec(7))
        assert abs(A.mean()) <= 5e-3
        assert abs(A.var() * 1000 - 1.0) <= 1e-2

    def test_determinism(self):
        spec = RngSpec(8, stream_id=2)
        np.testing.assert_array_equal(sample_gaussian_matrix(20, 30, spec),
                                      sample_gaussian_matrix(20, 30, spec))

    def test_streams_differ(self):
        a = sample_gaussian_matrix(4, 4, RngSpec(8, stream_id=0))
        b = sample_gaussian_matrix(4, 4, RngSpec(8, stream_id=1))
        assert not np.array_equal(a, b)


def _words(bits: int):
    """Integers in [0, 2^bits) drawn so that each word count up to ``bits/32`` turns up."""
    return st.integers(0, bits).flatmap(lambda b: st.integers(0, 2**b - 1))


class TestSubstreamKeys:
    @given(seed=_words(200), stream=_words(70), cell=_words(70),
           trials=st.lists(st.integers(0, 2**32 - 1), max_size=5).map(lambda t: [0, 2**32 - 1, *t]))
    def test_equal_to_seed_sequence_state(self, seed, stream, cell, trials):
        keys = RngSpec(seed, stream).substream_keys(cell, trials)
        expected = [np.random.SeedSequence(entropy=seed, spawn_key=(stream, cell, t)).generate_state(2, np.uint64)
                    for t in trials]
        assert keys.dtype == np.uint64 and keys.shape == (len(trials), 2)
        np.testing.assert_array_equal(keys, expected)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128, 2**200])
    def test_seed_of_each_word_count_keys_its_substream(self, seed):
        # Seeds of 1, 2, 3, 4 and more than 4 words; more than 4 spill past
        # the pool of four and are mixed in after it.
        key = RngSpec(seed, 2**33 + 1).substream_keys(2**40 + 3, [7])[0]
        expected = RngSpec(seed, 2**33 + 1).substream(2**40 + 3, 7)
        assert expected.bit_generator.state["state"]["key"].tolist() == key.tolist()

    def test_no_trials(self):
        assert RngSpec(1).substream_keys(0, range(0)).shape == (0, 2)

    @pytest.mark.parametrize("cell, trials", [(-1, [0]), (0, [-1]), (0, [2**32]), (0, [2**70]), (0, [0.5])])
    def test_refuses_keys_out_of_range(self, cell, trials):
        with pytest.raises(InvalidArgumentError):
            RngSpec(1).substream_keys(cell, trials)

    @pytest.mark.parametrize("seed, stream", [(-1, 0), (0, -1)])
    def test_refuses_negative_seed_or_stream(self, seed, stream):
        with pytest.raises(InvalidArgumentError):
            RngSpec(seed, stream)


class TestSparseSignal:
    def test_unit_model_full_support(self):
        x = sample_sparse_signal(10, 10, "unit", RngSpec(9))
        np.testing.assert_allclose(np.abs(x), 1.0)

    def test_exact_nonzero_count(self):
        gen = RngSpec(10).generator()
        for _ in range(1000):
            x = sample_sparse_signal(25, 6, "gaussian", gen)
            assert np.count_nonzero(x) == 6

    def test_uniform_model_magnitudes(self):
        x = sample_sparse_signal(50, 20, "uniform", RngSpec(11))
        mags = np.abs(x[x != 0])
        assert np.all((mags >= 1.0) & (mags <= 2.0))

    def test_support_uniformity(self):
        # Per-index inclusion counts stay within 3-sigma binomial bands.
        N, k, draws = 20, 3, 100_000
        gen = RngSpec(12).generator()
        counts = np.zeros(N)
        for _ in range(draws):
            counts[np.flatnonzero(sample_sparse_signal(N, k, "unit", gen))] += 1
        p = k / N
        sigma = np.sqrt(draws * p * (1 - p))
        assert np.all(np.abs(counts - draws * p) <= 3 * sigma)

    def test_invalid_model(self):
        with pytest.raises(InvalidArgumentError):
            sample_sparse_signal(10, 2, "cauchy", RngSpec(0))


class TestNoise:
    def test_zero_sigma(self):
        np.testing.assert_array_equal(sample_noise(10, 0.0, RngSpec(0)), np.zeros(10))

    def test_energy_moment(self):
        gen = RngSpec(13).generator()
        sigma = 0.7
        energies = [np.sum(sample_noise(50, sigma, gen) ** 2) for _ in range(10_000)]
        assert np.mean(energies) == pytest.approx(sigma**2, rel=0.05)

    def test_determinism(self):
        spec = RngSpec(14, 3)
        np.testing.assert_array_equal(sample_noise(16, 1.0, spec), sample_noise(16, 1.0, spec))


class TestProblemInstance:
    def test_from_parts_consistency(self):
        gen = RngSpec(15).generator()
        A = sample_gaussian_matrix(20, 40, gen)
        x = sample_sparse_signal(40, 5, "gaussian", gen)
        e = sample_noise(20, 0.3, gen)
        inst = ProblemInstance.from_parts(A, x, e, k=5, sigma=0.3)
        assert np.max(np.abs(inst.A @ inst.x_star + inst.e - inst.b), initial=0.0) <= 1e-12 * inst.n
        assert inst.true_support == SupportSet.support_of(x)

    def test_dimension_bounds(self):
        A = np.zeros((4, 3))
        with pytest.raises(InvalidArgumentError):
            ProblemInstance.from_parts(np.zeros((4, 6)), np.array([1.0, 1, 1, 0, 0, 0]), np.zeros(4), k=3)
        with pytest.raises(ShapeMismatchError):
            ProblemInstance(A=np.eye(4), b=np.zeros(3), x_star=np.array([1.0, 0, 0, 0]),
                            e=np.zeros(4), k=1)

    def test_nonzero_count_enforced(self):
        with pytest.raises(InvalidArgumentError):
            ProblemInstance.from_parts(np.eye(4), np.array([1.0, 0, 0, 0]), np.zeros(4), k=2)


class TestProblemStack:
    def stack(self, A=None, b=None, k=None):
        return ProblemStack(np.zeros((3, 4, 6)) if A is None else A, np.zeros((3, 4)) if b is None else b,
                            np.array([1, 2, 6]) if k is None else k)

    def test_valid_stack(self):
        stack = self.stack()
        assert stack.A.shape == (3, 4, 6) and stack.b.shape == (3, 4) and stack.k.tolist() == [1, 2, 6]

    def test_A_must_be_three_dimensional(self):
        with pytest.raises(ShapeMismatchError):
            self.stack(A=np.zeros((4, 6)), b=np.zeros(4))

    def test_b_must_be_one_row_per_slice(self):
        # A shared b of shape (n,) would broadcast into every slice.
        with pytest.raises(ShapeMismatchError):
            self.stack(b=np.zeros(4))
        with pytest.raises(ShapeMismatchError):
            self.stack(b=np.zeros((3, 5)))

    @pytest.mark.parametrize("k", [np.array([1.0, 2.0, 3.0]), np.array([True, True, True]), np.array([1, 2]),
                                   np.array(2), np.array([0, 1, 2]), np.array([1, 2, 7])])
    def test_k_must_be_integers_in_range_one_per_slice(self, k):
        with pytest.raises(InvalidArgumentError, match="k must be integer"):
            self.stack(k=k)

    def test_stack_of_one_views_its_instance(self):
        inst = ProblemInstance.from_parts(np.eye(4, 6), np.array([1.0, 0, 0, 0, 0, 0]), np.zeros(4), k=1)
        stack = ProblemStack.of(inst)
        assert np.shares_memory(stack.A, inst.A) and np.shares_memory(stack.b, inst.b)
        assert stack.A.shape == (1, 4, 6) and stack.b.shape == (1, 4) and stack.k.tolist() == [1]


def test_top_support_matches_threshold():
    gen = RngSpec(16).generator()
    x = gen.standard_normal(15)
    assert np.flatnonzero(top_mask(x, 4)).tolist() == list(SupportSet.support_of(hard_threshold(x, 4)))
