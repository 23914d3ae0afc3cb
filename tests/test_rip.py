import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from ihtlab.core import RngSpec, sample_gaussian_matrix
from ihtlab.errors import (
    BudgetExceededError,
    InvalidArgumentError,
    NumericalDomainError,
    TableFormatError,
)
from ihtlab.rip import (
    TABLE_HEADER_PREFIX,
    ConstantRipProvider,
    TableRipProvider,
    default_provider,
    rip_exact,
    rip_monte_carlo,
)


class TestRipExact:
    @pytest.mark.parametrize("n, N, s", [(8, 16, 4), (6, 11, 2), (5, 7, 5)])
    def test_equals_per_support_eigvalsh_loop(self, n, N, s):
        # The C(16, 4) = 1820 supports span several chunks and a ragged last one.
        A = sample_gaussian_matrix(n, N, RngSpec(30 + N))
        lo, hi = math.inf, -math.inf
        for idx in combinations(range(N), s):
            sub = A[:, list(idx)]
            w = np.linalg.eigvalsh(sub.T @ sub)
            lo, hi = min(lo, float(w[0])), max(hi, float(w[-1]))
        constants = rip_exact(A, s)
        assert (constants.L, constants.U) == (1.0 - lo, hi - 1.0)

    def test_orthonormal_columns(self):
        gen = RngSpec(1).generator()
        Q, _ = np.linalg.qr(gen.standard_normal((10, 10)))
        A = Q[:, :6]
        for s in (1, 2, 3):
            constants = rip_exact(A, s)
            assert constants.L == pytest.approx(0.0, abs=1e-12)
            assert constants.U == pytest.approx(0.0, abs=1e-12)

    def test_order_one_column_norms(self):
        A = sample_gaussian_matrix(9, 14, RngSpec(2))
        norms = np.sum(A**2, axis=0)
        constants = rip_exact(A, 1)
        assert constants.L == pytest.approx(1.0 - norms.min(), abs=1e-12)
        assert constants.U == pytest.approx(norms.max() - 1.0, abs=1e-12)

    def test_random_rayleigh_quotient_oracle(self):
        # Random 2-sparse Rayleigh quotients lower-bound 1+U and upper-bound
        # the minimum; with many draws the gap closes to sampling slack.
        gen = RngSpec(3).generator()
        A = sample_gaussian_matrix(8, 12, gen)
        constants = rip_exact(A, 2)
        pairs = [(i, j) for i in range(12) for j in range(i + 1, 12)]
        grams = np.array([A[:, p].T @ A[:, p] for p in pairs])
        draws = 1_000_000
        which = gen.integers(0, len(pairs), size=draws)
        coeffs = gen.standard_normal((draws, 2))
        G = grams[which]
        num = np.einsum("ti,tij,tj->t", coeffs, G, coeffs)
        den = np.einsum("ti,ti->t", coeffs, coeffs)
        quotients = num / den
        upper_est = quotients.max()
        lower_est = quotients.min()
        assert upper_est <= 1.0 + constants.U + 1e-9
        assert lower_est >= 1.0 - constants.L - 1e-9
        assert 1.0 + constants.U - upper_est <= 0.05 * (1.0 + constants.U)
        assert lower_est - (1.0 - constants.L) <= 0.05

    def test_nondecreasing_in_order(self):
        A = sample_gaussian_matrix(10, 14, RngSpec(4))
        prev = rip_exact(A, 1)
        for s in (2, 3, 4):
            cur = rip_exact(A, s)
            assert cur.L >= prev.L - 1e-12
            assert cur.U >= prev.U - 1e-12
            prev = cur

    def test_general_position_flag(self):
        for seed in range(10):
            A = sample_gaussian_matrix(12, 18, RngSpec(100 + seed))
            constants = rip_exact(A, 4)
            assert constants.general_position

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            rip_exact(np.zeros((50, 200)), 6)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_refused(self, bad):
        # min(inf, nan) keeps inf, so the eigenvalue range alone would not show such an entry.
        A = sample_gaussian_matrix(6, 8, RngSpec(5))
        A[2, 3] = bad
        with pytest.raises(InvalidArgumentError, match="the matrix A must be finite"):
            rip_exact(A, 2)


class TestRipMonteCarlo:
    def test_single_trial(self):
        A = sample_gaussian_matrix(8, 10, RngSpec(7))
        gen = RngSpec(8).generator()
        support = np.sort(gen.choice(10, size=3, replace=False))
        w = np.linalg.eigvalsh(A[:, support].T @ A[:, support])
        mc = rip_monte_carlo(A, 3, 1, RngSpec(8))
        assert mc.L == pytest.approx(1.0 - w[0], abs=1e-12)
        assert mc.U == pytest.approx(w[-1] - 1.0, abs=1e-12)

    def test_prefix_monotone_in_trials(self):
        A = sample_gaussian_matrix(10, 16, RngSpec(9))
        estimates = [rip_monte_carlo(A, 3, t, RngSpec(10)).U for t in (1, 5, 20, 80)]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))

    def test_inner_estimates_bounded_by_exact(self):
        A = sample_gaussian_matrix(10, 12, RngSpec(11))
        exact = rip_exact(A, 3)
        mc = rip_monte_carlo(A, 3, 50, RngSpec(12))
        assert mc.U <= exact.U + 1e-14
        assert mc.L <= exact.L + 1e-14

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_matrix_refused(self, bad):
        A = sample_gaussian_matrix(6, 8, RngSpec(5))
        A[2, 3] = bad
        with pytest.raises(InvalidArgumentError, match="the matrix A must be finite"):
            rip_monte_carlo(A, 2, 10, RngSpec(6))


def write_table(path, rows, header="# rip-table v1; source=unit-test"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


class TestProviders:
    def test_constant_override(self):
        provider = ConstantRipProvider(0.5)
        assert provider.query(0.123, 0.456) == 0.5
        assert provider.query(0.9, 0.01) == 0.5

    @pytest.mark.parametrize("U", [math.nan, math.inf, -0.1])
    def test_constant_bound_must_be_finite_and_nonnegative(self, U):
        with pytest.raises(InvalidArgumentError):
            ConstantRipProvider(U)

    def test_knot_exactness(self, tmp_path):
        rows = [
            "0.1,0.0,0.0,0.0",
            "0.1,0.5,0.2,0.4",
            "0.1,1.0,0.3,0.9",
            "0.9,0.0,0.0,0.0",
            "0.9,0.5,0.25,0.5",
            "0.9,1.0,0.35,1.1",
        ]
        provider = TableRipProvider.from_file(write_table(tmp_path / "t.csv", rows))
        assert provider.query(0.1, 0.5) == 0.4
        assert provider.query(0.9, 1.0) == 1.1
        # Bilinear midpoint.
        assert provider.query(0.5, 0.75) == pytest.approx((0.4 + 0.9 + 0.5 + 1.1) / 4)

    @pytest.mark.parametrize("L", ["nan", "2", "-1"])
    def test_l_column_is_parsed_and_ignored(self, tmp_path, L):
        rows = ["0.1,0.0,{},0.0", "0.1,1.0,{},0.9", "0.9,0.0,{},0.1", "0.9,1.0,{},1.1"]
        valid = TableRipProvider.from_file(write_table(tmp_path / "valid.csv", [r.format("0.3") for r in rows]))
        odd = TableRipProvider.from_file(write_table(tmp_path / "odd.csv", [r.format(L) for r in rows]))
        deltas, rhos = np.meshgrid(np.linspace(0.1, 0.9, 7), np.linspace(0.0, 1.0, 9))
        assert odd.query(deltas, rhos).tobytes() == valid.query(deltas, rhos).tobytes()

    def test_out_of_hull(self, tmp_path):
        rows = ["0.1,0.0,0.0,0.0", "0.1,1.0,0.3,0.9", "0.9,0.0,0.0,0.0", "0.9,1.0,0.3,0.9"]
        provider = TableRipProvider.from_file(write_table(tmp_path / "t.csv", rows))
        with pytest.raises(NumericalDomainError):
            provider.query(0.05, 0.5)
        with pytest.raises(NumericalDomainError):
            provider.query(0.5, 1.5)

    @pytest.mark.parametrize("delta, rho", [
        (math.nan, 0.1), (0.5, math.nan), (np.array([0.5, math.nan]), 0.1), (0.5, np.array([0.1, math.nan])),
    ])
    def test_nan_is_outside_the_hull(self, delta, rho):
        with pytest.raises(NumericalDomainError, match="nan outside table hull"):
            default_provider().query(delta, rho)

    def test_monotonicity_violations_rejected(self, tmp_path):
        rows = ["0.1,0.0,0.0,0.5", "0.1,1.0,0.3,0.4", "0.9,0.0,0.0,0.5", "0.9,1.0,0.3,0.4"]
        with pytest.raises(TableFormatError):
            TableRipProvider.from_file(write_table(tmp_path / "bad.csv", rows))

    def test_parse_error_carries_line_number(self, tmp_path):
        rows = ["0.1,0.0,0.0,0.0", "0.1,0.5,oops,0.4"]
        with pytest.raises(TableFormatError) as excinfo:
            TableRipProvider.from_file(write_table(tmp_path / "bad.csv", rows))
        assert ":3:" in str(excinfo.value)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.1,0.0,0.0,0.0\n", encoding="utf-8")
        with pytest.raises(TableFormatError):
            TableRipProvider.from_file(path)

    def test_unsorted_rows_rejected(self, tmp_path):
        rows = ["0.1,1.0,0.3,0.9", "0.1,0.0,0.0,0.0"]
        with pytest.raises(TableFormatError):
            TableRipProvider.from_file(write_table(tmp_path / "bad.csv", rows))

    def test_ragged_grid_rejected(self, tmp_path):
        rows = ["0.1,0.0,0.0,0.0", "0.1,1.0,0.3,0.9", "0.9,0.5,0.1,0.2"]
        with pytest.raises(TableFormatError):
            TableRipProvider.from_file(write_table(tmp_path / "bad.csv", rows))

    @pytest.mark.parametrize("rows", [
        ["0.1,0.0,0.0,0.0", "0.1,1.0,0.3,0.9"],
        ["0.1,0.0,0.0,0.0", "0.1,1.0,0.3,nan", "0.9,0.0,0.0,0.0", "0.9,1.0,0.3,0.9"],
        ["0.1,0.0,0.0,0.0", "0.1,1.0,0.3,inf", "0.9,0.0,0.0,0.0", "0.9,1.0,0.3,inf"],
        ["0.1,0.0,0.0,0.0", "0.1,inf,0.3,0.9", "0.9,0.0,0.0,0.0", "0.9,inf,0.3,0.9"],
        ["-1e308,0.0,0.0,0.0", "-1e308,1.0,0.3,0.9", "1e308,0.0,0.0,0.0", "1e308,1.0,0.3,0.9"],
    ], ids=["one-delta", "nan-bound", "infinite-bound", "infinite-knot", "span-overflows"])
    def test_tables_that_cannot_interpolate_rejected(self, tmp_path, rows):
        with pytest.raises(TableFormatError):
            TableRipProvider.from_file(write_table(tmp_path / "bad.csv", rows))

    def test_default_table_loads_and_is_monotone(self):
        provider = default_provider()
        assert provider.provider_id.startswith("table(")
        rhos = np.linspace(0.0, 1.0, 21)
        for delta in (0.001, 0.3, 1.0):
            us = provider.query(delta, rhos)
            assert np.all(np.diff(us) >= -1e-12)


VALID_FIELDS = ["0", "0.1", "0.5", "0.9"]
TABLE_FIELDS = st.sampled_from(VALID_FIELDS + ["1", "2", "-1", "nan", "inf", "-inf", "1e400"]) | st.floats().map(repr)


@st.composite
def grid_tables(draw):
    """A header and the rows of a rectangular grid: a valid table, apart from
    axes of one knot, with one field or none replaced by any number; or a grid
    of any numbers."""
    valid = draw(st.booleans())
    fields = st.sampled_from(VALID_FIELDS) if valid else TABLE_FIELDS

    def column(n, unique=False):
        drawn = draw(st.lists(fields, min_size=n, max_size=n, unique_by=float if unique else None))
        return sorted(drawn, key=float) if valid else drawn

    deltas, rhos = column(draw(st.integers(1, 3)), True), column(draw(st.integers(1, 3)), True)
    rows = [[d, r, L, U] for d in deltas for r, L, U in zip(rhos, column(len(rhos)), column(len(rhos)))]
    if valid and draw(st.booleans()):
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 3))] = draw(TABLE_FIELDS)
    return "\n".join([f"{TABLE_HEADER_PREFIX}; source=fuzz"] + [",".join(row) for row in rows])


TABLE_TEXTS = grid_tables() | st.builds(
    lambda header, rows: "\n".join([header] + rows),
    st.sampled_from([f"{TABLE_HEADER_PREFIX}; source=fuzz", TABLE_HEADER_PREFIX]) | st.text(max_size=30),
    st.lists(st.lists(TABLE_FIELDS, min_size=4, max_size=4).map(",".join) | st.text(max_size=20), max_size=6),
)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(TABLE_TEXTS.map(lambda text: text.encode("utf-8", "surrogatepass")) | st.binary(max_size=60))
def test_any_table_file_is_a_provider_or_a_format_error(tmp_path, content):
    path = tmp_path / "table.csv"
    path.write_bytes(content)
    try:
        provider = TableRipProvider.from_file(path)
    except TableFormatError:
        return
    # A provider answers at every knot with the U of the file, finite and
    # >= 0, and between knots with a finite nonnegative U.
    for i, delta in enumerate(provider.deltas):
        for j, rho in enumerate(provider.rhos):
            U = provider.query(delta, rho)
            assert U == provider.U_grid[i, j] and 0 <= U < math.inf
    U = provider.query(*(0.5 * axis[0] + 0.5 * axis[-1] for axis in (provider.deltas, provider.rhos)))
    assert 0 <= U < math.inf
