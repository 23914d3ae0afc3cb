import math
import pickle
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ihtlab import solvers, transitions
from ihtlab.errors import InvalidArgumentError, StabilityUndefinedError
from ihtlab.rip import ConstantRipProvider, default_provider
from ihtlab.transitions import (
    RHO_BRACKET_HI,
    RHO_BRACKET_LO,
    RHO_POINTS_FLOOR,
    RHO_POINTS_PER_STEP,
    default_delta_grid,
    grid_emit,
    lhs_stable,
    rho_hat_iht,
    rho_hat_niht,
    stability_factor_iht,
    stability_factor_niht,
    stepsize_interval_iht,
    write_grid_csv,
)


@pytest.fixture(scope="module")
def provider():
    return default_provider()


class TestLhsStable:
    def test_vanishes_at_small_rho(self):
        assert lhs_stable(0.5, 1e-9) <= 1e-3

    def test_recorded_anchor(self):
        assert lhs_stable(0.5, 0.01) == pytest.approx(0.4684856657831614, rel=1e-12)

    def test_strictly_increasing_in_rho(self):
        rhos = np.linspace(0.002, 0.5, 60)
        vals = [lhs_stable(0.5, r) for r in rhos]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rho_domain(self):
        with pytest.raises(InvalidArgumentError):
            lhs_stable(0.5, 0.6)


class TestRhoHat:
    def test_degenerate_provider_solves_lhs_equals_one(self):
        res = rho_hat_iht(0.5, ConstantRipProvider(0.0))
        assert lhs_stable(0.5, res.rho_hat) == pytest.approx(1.0, abs=1e-9)
        assert res.residual <= 1e-10

    def test_decreasing_in_upper_bound(self):
        base = rho_hat_iht(0.5, ConstantRipProvider(0.3)).rho_hat
        shifted = rho_hat_iht(0.5, ConstantRipProvider(0.4)).rho_hat
        assert shifted < base

    def test_requery_residual(self, provider):
        for delta in (0.05, 0.2, 0.5, 1.0):
            res = rho_hat_iht(delta, provider)
            if res.saturated:
                continue
            U = provider.query(delta, 2 * res.rho_hat)
            assert abs(lhs_stable(delta, res.rho_hat) - 1.0 / (1.0 + U)) <= 1e-10

    def test_anchor_value(self, provider):
        assert rho_hat_iht(0.5, provider).rho_hat == pytest.approx(0.01696983243296265, rel=1e-9)

    def test_niht_kappa_one_coincides_with_iht(self, provider):
        iht = rho_hat_iht(0.3, provider)
        niht = rho_hat_niht(0.3, 1.0, provider)
        assert niht.rho_hat == pytest.approx(iht.rho_hat, rel=1e-12)

    def test_niht_strictly_below_iht(self, provider):
        for delta in (0.02, 0.1, 0.3, 0.6, 1.0):
            iht = rho_hat_iht(delta, provider)
            niht = rho_hat_niht(delta, 1.1, provider)
            assert niht.rho_hat < iht.rho_hat

    def test_provider_id_recorded(self, provider):
        res = rho_hat_iht(0.5, provider)
        assert res.provider_id == provider.provider_id


class TestStepsizeInterval:
    def test_nonempty_iff_below_transition(self, provider):
        for delta in (0.1, 0.5, 1.0):
            rho_hat = rho_hat_iht(delta, provider).rho_hat
            for factor in (0.25, 0.5, 0.9):
                assert stepsize_interval_iht(delta, factor * rho_hat, provider) is not None
            for factor in (1.05, 1.5):
                if factor * rho_hat <= 0.5:
                    assert stepsize_interval_iht(delta, factor * rho_hat, provider) is None

    def test_degenerate_at_transition(self, provider):
        rho_hat = rho_hat_iht(0.5, provider).rho_hat
        interval = stepsize_interval_iht(0.5, rho_hat * (1 - 1e-9), provider)
        assert interval is not None
        lo, hi = interval
        assert hi - lo <= 1e-6

    def test_width_decreasing_in_rho(self, provider):
        rho_hat = rho_hat_iht(0.5, provider).rho_hat
        widths = []
        for rho in np.linspace(0.1 * rho_hat, 0.95 * rho_hat, 20):
            lo, hi = stepsize_interval_iht(0.5, rho, provider)
            widths.append(hi - lo)
        assert all(b < a for a, b in zip(widths, widths[1:]))


class TestStabilityIht:
    def test_pole_as_alpha_approaches_lower_bound(self, provider):
        rho = 0.008
        lo, hi = stepsize_interval_iht(0.5, rho, provider)
        xi_near = stability_factor_iht(0.5, rho, provider, alpha=lo * (1 + 1e-9)).xi
        xi_mid = stability_factor_iht(0.5, rho, provider, alpha=0.5 * (lo + hi)).xi
        assert xi_near > 1e3 * xi_mid

    def test_undefined_below_threshold(self, provider):
        rho = 0.008
        lo, _ = stepsize_interval_iht(0.5, rho, provider)
        with pytest.raises(StabilityUndefinedError):
            stability_factor_iht(0.5, rho, provider, alpha=0.9 * lo)

    def test_anchor_value(self, provider):
        result = stability_factor_iht(0.5, 0.008, provider)
        assert result.a == pytest.approx(4.3148886285921115, rel=1e-9)
        assert result.xi == pytest.approx(4.575175672932638, rel=1e-9)

    def test_sigma_never_enters(self, provider):
        # The factor is a function of (delta, rho, alpha) only; calling twice
        # gives the identical value (no hidden state, no noise argument).
        a = stability_factor_iht(0.5, 0.008, provider, alpha=0.55)
        b = stability_factor_iht(0.5, 0.008, provider, alpha=0.55)
        assert a.xi == b.xi and a.a == b.a

    def test_xi_decreasing_in_alpha_on_interval(self, provider):
        rho = 0.008
        lo, hi = stepsize_interval_iht(0.5, rho, provider)
        alphas = np.linspace(lo * 1.02, hi * 0.98, 25)
        xis = [stability_factor_iht(0.5, rho, provider, alpha=a).xi for a in alphas]
        assert all(b < a for a, b in zip(xis, xis[1:]))

    def test_xi_dominates_a(self, provider):
        result = stability_factor_iht(0.5, 0.008, provider, alpha=0.55)
        assert result.xi >= result.a

    def test_infinite_alpha_in_array_refused(self, provider):
        deltas, rhos = np.array([0.5, 0.5]), np.array([0.008, 0.008])
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            stability_factor_iht(deltas, rhos, provider, alpha=np.array([0.6, np.inf]))
        with pytest.raises(InvalidArgumentError, match="positive and finite"):
            stability_factor_iht(0.5, 0.008, provider, alpha=np.inf)
        # NaN still marks a point without a stepsize.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            xi = stability_factor_iht(deltas, rhos, provider, alpha=np.array([0.6, np.nan])).xi
        assert np.isfinite(xi[0]) and np.isnan(xi[1])


class TestStabilityNiht:
    def test_blows_up_at_transition(self, provider):
        rho_hat = rho_hat_niht(0.5, 1.1, provider).rho_hat
        xi_mid = stability_factor_niht(0.5, rho_hat / 2, 1.1, provider).xi
        xi_near = stability_factor_niht(0.5, rho_hat * (1 - 1e-9), 1.1, provider).xi
        assert xi_near > 1e3 * xi_mid

    def test_undefined_above_transition(self, provider):
        rho_hat = rho_hat_niht(0.5, 1.1, provider).rho_hat
        with pytest.raises(StabilityUndefinedError):
            stability_factor_niht(0.5, min(0.5, rho_hat * 1.1), 1.1, provider)

    def test_kappa_one_matches_iht_a_at_matched_alpha(self, provider):
        rho = 0.008
        U = provider.query(0.5, 2 * rho)
        alpha = 1.0 / (1.0 + U)
        niht = stability_factor_niht(0.5, rho, 1.0, provider)
        iht = stability_factor_iht(0.5, rho, provider, alpha=alpha)
        assert niht.a == pytest.approx(iht.a, rel=1e-12)

    def test_anchor_value(self, provider):
        rho_hat = rho_hat_niht(0.5, 1.1, provider).rho_hat
        result = stability_factor_niht(0.5, rho_hat / 2, 1.1, provider)
        assert result.a == pytest.approx(2.6597312495223955, rel=1e-9)
        assert result.xi == pytest.approx(2.761469220378678, rel=1e-9)

    def test_variant_switch(self, provider):
        rho_hat = rho_hat_niht(0.5, 1.1, provider).rho_hat
        plain = stability_factor_niht(0.5, rho_hat / 2, 1.1, provider)
        padded = stability_factor_niht(
            0.5, rho_hat / 2, 1.1, provider, xi_variant="with_one_plus_a"
        )
        assert plain.a == padded.a
        assert padded.xi > plain.xi
        f_root_scaled = math.sqrt(plain.xi**2 - plain.a**2) / plain.a
        assert padded.xi == pytest.approx(
            math.sqrt((f_root_scaled * (1 + plain.a)) ** 2 + plain.a**2), rel=1e-12
        )

    def test_unknown_variant_rejected(self, provider):
        with pytest.raises(InvalidArgumentError):
            stability_factor_niht(0.5, 0.005, 1.1, provider, xi_variant="bogus")


class TestGridEmit:
    def test_three_point_curve(self, provider):
        rows = grid_emit("phase_iht", provider, [0.1, 0.3, 0.5])
        assert rows[0] == "delta,rho_hat,residual"
        assert len(rows) == 4

    def test_rerun_byte_identical(self, provider, tmp_path):
        grid = default_delta_grid(12)
        rows = grid_emit("phase_niht", provider, grid, kappa=1.1)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_grid_csv(p1, rows)
        write_grid_csv(p2, grid_emit("phase_niht", provider, grid, kappa=1.1))
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    def test_surface_with_undefined_points_empty_fields(self, provider):
        rho_hat = rho_hat_niht(0.5, 1.1, provider).rho_hat
        rows = grid_emit(
            "xi_niht", provider, [0.5], rho_grid=[rho_hat / 2, min(0.5, rho_hat * 2)], kappa=1.1
        )
        assert rows[0] == "delta,rho,xi"
        defined = rows[1].split(",")
        undefined = rows[2].split(",")
        assert defined[2] != ""
        assert undefined[2] == ""
        assert "nan" not in "".join(rows).lower()

    def test_stepsize_grid(self, provider):
        rho_hat = rho_hat_iht(0.5, provider).rho_hat
        rows = grid_emit(
            "stepsize_iht", provider, [0.5], rho_grid=[rho_hat / 2, min(0.5, rho_hat * 2)]
        )
        assert rows[0] == "delta,rho,alpha_lo,alpha_hi"
        assert rows[1].split(",")[2] != ""
        assert rows[2].split(",")[3] == ""

    def test_unknown_kind(self, provider):
        with pytest.raises(InvalidArgumentError):
            grid_emit("phase_bogus", provider, [0.5])


def _csv_field(value) -> str:
    """One CSV field formatted on its own, as trial CSVs were written field by
    field: the reference for ``_csv_rows``.  None is an undefined field."""
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def oracle_row(values) -> str:
    """One CSV row formatted field by field with ``_csv_field``; a NaN float
    is an undefined field, the None that trial rows used to hold."""
    return ",".join(_csv_field(None if isinstance(v, float) and math.isnan(v) else v) for v in values)


FLOAT_FIELDS = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300,
                0.1, 1 / 3, -7.0, 1e300, 123456789.125, float.fromhex("0x1.fffffffffffffp+1023"),
                -float.fromhex("0x1.fffffffffffffp+1023")]


@pytest.mark.parametrize("width", [2, 3, 4])
def test_csv_rows_match_fields_formatted_one_by_one(width):
    rng = np.random.default_rng(width)
    columns = [np.array(FLOAT_FIELDS)[rng.permutation(len(FLOAT_FIELDS))] for _ in range(width)]
    expected = ["h"] + [oracle_row(row) for row in zip(*(c.tolist() for c in columns))]
    assert transitions._csv_rows("h", *columns) == expected


def test_csv_rows_match_trial_fields_formatted_one_by_one():
    # Every column kind of a trial CSV side by side: floats, flags, counts and
    # termination names.
    terminations = [value for name, value in vars(solvers).items() if name.startswith("TERMINATION_")]
    m = len(FLOAT_FIELDS)
    rng = np.random.default_rng(7)
    columns = [
        np.array(FLOAT_FIELDS)[rng.permutation(m)],
        rng.integers(0, 2, m).astype(bool),
        np.concatenate([[0, -1, 2**62], rng.integers(0, 10**6, m - 3)]),
        np.array(terminations)[rng.integers(0, len(terminations), m)],
        np.array(FLOAT_FIELDS),
    ]
    expected = ["h"] + [oracle_row(row) for row in zip(*(c.tolist() for c in columns))]
    assert transitions._csv_rows("h", *columns) == expected
    # ``_csv_rows`` blanks "nan" anywhere in a row, so no name may contain it.
    assert terminations and not any("nan" in name for name in terminations)


def test_stability_defined_exactly_where_expected(provider):
    # IHT: the factor exists at the interval midpoint iff the interval is
    # nonempty; N-IHT: the factor exists iff rho is below its transition.
    for delta in (0.05, 0.3, 0.8):
        rho_hat = rho_hat_niht(delta, 1.1, provider).rho_hat
        for rho in np.linspace(0.001, 0.5, 12):
            if stepsize_interval_iht(delta, float(rho), provider) is not None:
                stability_factor_iht(delta, float(rho), provider)
            if rho < rho_hat:
                stability_factor_niht(delta, float(rho), 1.1, provider)
            else:
                with pytest.raises(StabilityUndefinedError):
                    stability_factor_niht(delta, float(rho), 1.1, provider)


def test_saturation_flag_with_tiny_upper_bound():
    # An (unrealistically) tiny upper bound pushes the crossing beyond 1/2.
    provider = ConstantRipProvider(1e-6)
    res = rho_hat_iht(1e-3, provider)
    if res.saturated:
        assert res.rho_hat == 0.5
    else:
        assert res.residual <= 1e-10


def bisection_rho_hat(delta: float, kappa: float, provider) -> float:
    """Per-delta reference: plain scalar bisection of the transition equation."""
    def g(rho):
        return lhs_stable(delta, rho) - 1.0 / (kappa * (1.0 + provider.query(delta, 2.0 * rho)))

    lo, hi = RHO_BRACKET_LO, RHO_BRACKET_HI
    if g(hi) < 0:
        return hi
    while lo < 0.5 * (lo + hi) < hi:
        lo, hi = (0.5 * (lo + hi), hi) if g(0.5 * (lo + hi)) <= 0 else (lo, 0.5 * (lo + hi))
    return 0.5 * (lo + hi)


DELTAS = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=4)
# More deltas than RHO_POINTS_PER_STEP // RHO_POINTS_FLOOR, so every step
# gives each unresolved delta the floor of points.
FLOOR_DELTAS = default_delta_grid(14).tolist()


def random_log_grid(seed: int, n: int) -> np.ndarray:
    """``n`` sorted deltas drawn log-uniformly from [1e-3, 1]."""
    return np.sort(10.0 ** np.random.default_rng([seed, n]).uniform(-3.0, 0.0, n))


RANDOM_30, RANDOM_100 = (random_log_grid(7, n).tolist() for n in (30, 100))


@settings(max_examples=10, deadline=None)
@given(DELTAS, st.sampled_from(["phase_iht", "phase_niht"]))
@example(FLOOR_DELTAS, "phase_iht")
@example(FLOOR_DELTAS, "phase_niht")
@example(RANDOM_30, "phase_iht")
@example(RANDOM_30, "phase_niht")
@example(RANDOM_100, "phase_iht")
@example(RANDOM_100, "phase_niht")
def test_batched_phase_rows_match_per_delta_bisection(deltas, kind):
    provider = default_provider()
    kappa = 1.1 if kind == "phase_niht" else 1.0
    rows = grid_emit(kind, provider, deltas, kappa=kappa)
    assert len(rows) == len(deltas) + 1
    for delta, row in zip(deltas, rows[1:]):
        d, rho_hat, residual = (float(v) for v in row.split(","))
        assert d == delta
        assert rho_hat == pytest.approx(bisection_rho_hat(delta, kappa, provider), rel=1e-12)
        assert residual <= 1e-10


def record_calls(monkeypatch, name):
    """Replace ``transitions.<name>`` by a wrapper; returns the list of the
    positional arguments of each call."""
    calls, function = [], getattr(transitions, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(transitions, name, wrapper)
    return calls


def test_hundred_delta_curve_within_twenty_steps(provider, monkeypatch):
    # Bisection, one point a delta and step, took 58 evaluations.
    calls = record_calls(monkeypatch, "lhs_stable")
    rho_hat_iht(default_delta_grid(100), provider)
    assert len(calls) <= 20
    # Every evaluation gives each of its deltas the floor of points.
    assert all(np.shape(rho)[-1] >= RHO_POINTS_FLOOR for _, rho, *_ in calls)


@pytest.mark.parametrize("kappa", [1.0, 1.1])
@pytest.mark.parametrize("grid", ["default", 1, 2, 3])
def test_hundred_delta_curve_within_twelve_steps(provider, monkeypatch, kappa, grid):
    # The fixed ladder of rho points took 16-17 evaluations.
    deltas = default_delta_grid(100) if grid == "default" else random_log_grid(grid, 100)
    calls = record_calls(monkeypatch, "lhs_stable")
    res = rho_hat_niht(deltas, kappa, provider)
    assert len(calls) <= 12
    assert np.all(res.residual <= 1e-10)


@pytest.mark.parametrize("kappa", [1.0, 1.1])
@pytest.mark.parametrize("grid", ["default", 1, 2, 3])
def test_hundred_delta_curve_within_eight_steps(provider, monkeypatch, kappa, grid):
    # Running every bracket down to one ulp took 9-10 evaluations: the last
    # ones were spent below the rounding-noise floor.
    deltas = default_delta_grid(100) if grid == "default" else random_log_grid(grid, 100)
    calls = record_calls(monkeypatch, "lhs_stable")
    res = rho_hat_niht(deltas, kappa, provider)
    assert len(calls) <= 8
    assert np.all(res.residual <= 1e-10)


@pytest.mark.parametrize("kind, kappa", [("phase_iht", 1.0), ("phase_niht", 1.1)])
@pytest.mark.parametrize("grid", ["default", 1, 2, 3])
def test_residual_is_measured_at_rho_hat(provider, kind, kappa, grid):
    deltas = default_delta_grid(100) if grid == "default" else random_log_grid(grid, 100)
    rows = np.array([row.split(",") for row in grid_emit(kind, provider, deltas, kappa=kappa)[1:]], dtype=float)
    delta, rho_hat, residual = rows.T
    lhs = lhs_stable(delta, rho_hat)
    recomputed = np.abs(lhs - 1.0 / (kappa * (1.0 + provider.query(delta, 2.0 * rho_hat))))
    # The curve solve starts its F roots elsewhere, so the left side may differ in its last bits.
    assert np.all(np.abs(recomputed - residual) <= 8 * np.spacing(lhs))
    assert np.all(residual <= 1e-10)


def record_point_solves(monkeypatch):
    """Record each F-root and lower-root solve at a single (delta, rho), the
    two roots that the IHT stepsize and stability factor share; returns the
    list of the solvers' names, one entry a solve."""
    solves = []
    for name, rho_of in (("_if_root", lambda args: args[1]), ("tail_il", lambda args: args[0].rho)):
        def wrapper(*args, name=name, function=getattr(transitions, name), rho_of=rho_of):
            if np.ndim(rho_of(args)) == 0:
                solves.append(name)
            return function(*args)

        monkeypatch.setattr(transitions, name, wrapper)
    return solves


def test_xi_iht_grid_solves_each_shared_root_once(provider, monkeypatch):
    f_calls = record_calls(monkeypatch, "_if_root")
    il_calls = record_calls(monkeypatch, "tail_il")
    rhos = np.linspace(0.001, 0.5, 7)
    grid_emit("xi_iht", provider, default_delta_grid(5), rho_grid=rhos)
    assert len(f_calls) == 1
    [(inputs,)] = il_calls
    assert np.array_equal(inputs.lam, 1.0 - inputs.rho)


@pytest.mark.parametrize("points", [5, 20])
def test_xi_iht_rows_match_midpoint_then_stability(provider, points):
    deltas, rhos = default_delta_grid(points), np.linspace(0.001, 0.5, points)
    d, r = (v.ravel() for v in np.meshgrid(deltas, rhos, indexing="ij"))
    xi = stability_factor_iht(d, r, provider).xi
    assert grid_emit("xi_iht", provider, deltas, rho_grid=rhos) == transitions._csv_rows("delta,rho,xi", d, r, xi)


ROOTS_POINTS = {
    "scalar": (0.5, 0.008),
    "array": (np.array([0.05, 0.5, 1.0]), np.array([0.004, 0.008, 0.3])),
}


@pytest.mark.parametrize("quantity", ["lhs", "interval"])
@pytest.mark.parametrize("point", ROOTS_POINTS)
def test_shared_roots_give_the_same_bits(provider, quantity, point):
    delta, rho = ROOTS_POINTS[point]
    compute = {
        "lhs": lambda **kw: lhs_stable(delta, rho, **kw),
        "interval": lambda **kw: stepsize_interval_iht(delta, rho, provider, **kw),
    }[quantity]
    # A pickle holds every bit and every type of the result.
    assert pickle.dumps(compute(roots=transitions._roots(delta, rho))) == pickle.dumps(compute())


@pytest.mark.parametrize("point", ROOTS_POINTS)
def test_default_iht_stepsize_is_the_interval_midpoint_bit_for_bit(provider, point):
    delta, rho = ROOTS_POINTS[point]
    lo, hi = stepsize_interval_iht(delta, rho, provider)
    assert pickle.dumps(stability_factor_iht(delta, rho, provider).alpha) == pickle.dumps(0.5 * (lo + hi))


def count_upper_root_points(monkeypatch):
    """Record each ``tail_iu`` solve; returns the list of the number of points of each."""
    counts, function = [], transitions.tail_iu

    def wrapper(inputs):
        counts.append(np.broadcast(inputs.delta, inputs.rho, inputs.lam).size)
        return function(inputs)

    monkeypatch.setattr(transitions, "tail_iu", wrapper)
    return counts


@pytest.mark.parametrize("kind", ["xi_iht", "xi_niht"])
@pytest.mark.parametrize("points", [5, 20])
def test_xi_grid_solves_upper_roots_only_where_xi_is_defined(provider, monkeypatch, kind, points):
    counts = count_upper_root_points(monkeypatch)
    rows = grid_emit(kind, provider, default_delta_grid(points), rho_grid=np.linspace(0.001, 0.5, points), kappa=1.1)
    defined = sum(row.split(",")[2] != "" for row in rows[1:])
    assert 0 < defined < points * points
    # One solve for each of the two upper roots, at the defined points only.
    assert counts == [defined, defined]


def test_all_undefined_array_solves_no_upper_root(provider, monkeypatch):
    counts = count_upper_root_points(monkeypatch)
    rhos = np.array([0.3, 0.4, 0.5])
    result = stability_factor_niht(np.full(3, 0.5), rhos, 1.1, provider)
    assert np.all(np.isnan(result.a)) and np.all(np.isnan(result.xi))
    result = stability_factor_iht(np.full(3, 0.5), rhos, provider, alpha=np.full(3, np.nan))
    assert np.all(np.isnan(result.a)) and np.all(np.isnan(result.xi))
    assert counts == [0, 0, 0, 0]


@pytest.mark.parametrize("kind", ["xi_iht", "xi_niht"])
def test_xi_grid_refuses_rho_above_half(provider, kind):
    with pytest.raises(InvalidArgumentError, match=r"rho must lie in \(0, 1/2\], got"):
        grid_emit(kind, provider, [0.5], rho_grid=[0.25, 0.6], kappa=1.1)


@pytest.mark.parametrize("kind", ["phase_niht", "xi_niht"])
def test_niht_grid_refuses_a_missing_kappa(provider, kind):
    with pytest.raises(InvalidArgumentError, match=f"grid kind '{kind}' requires a kappa"):
        grid_emit(kind, provider, [0.5], rho_grid=[0.25])


def test_scalar_point_solves_upper_roots_once_and_returns_floats(provider, monkeypatch):
    counts = count_upper_root_points(monkeypatch)
    iht = stability_factor_iht(0.5, 0.008, provider, alpha=0.55)
    for result in (iht, stability_factor_niht(0.5, 0.008, 1.1, provider)):
        assert type(result.a) is float and type(result.xi) is float
    assert counts == [1, 1, 1, 1]


def ladder_points(a, b, ga, gb, width, m):
    """The rho points at 10^-1, 10^-1.5, ... of ``width`` around the falsi
    point, the bracket width when the falsi point's error is not known."""
    offsets = 10.0 ** -(1.0 + 0.5 * np.arange(2 * (m - 1) // 5)) * width
    uniform = m - 2 * offsets.shape[-1]
    points = a + (b - a) * (np.arange(1, uniform + 1) / (uniform + 1))
    if offsets.size:
        falsi = a - ga * (b - a) / (gb - ga)
        points = np.sort(np.clip(np.concatenate([points, falsi - offsets, falsi + offsets], axis=1), a, b), axis=1)
    return points


@pytest.mark.parametrize("m", [RHO_POINTS_FLOOR, 12, 32, RHO_POINTS_PER_STEP])
def test_rho_points_offsets_from_falsi_error(m):
    a, b = np.array([[0.1], [0.2]]), np.array([[0.11], [0.3]])
    ga, gb = np.array([[-0.3], [-1e-3]]), np.array([[0.7], [2.0]])
    w = b - a
    falsi = a - ga * w / (gb - ga)
    for error in (np.inf, np.nan):
        expected = ladder_points(a, b, ga, gb, w, m)
        assert np.array_equal(transitions._rho_points(a, b, ga, gb, np.full_like(a, error), m), expected)
    # With no error the ladder sits at its floor, 10^-4 of the bracket (one
    # delta's 64 points keep the whole bracket), and falls no lower.
    k = 2 * (m - 1) // 5
    floor = 1.0 if m == RHO_POINTS_PER_STEP else 1e-4
    points = transitions._rho_points(a, b, ga, gb, np.zeros_like(a), m)
    assert np.allclose(points, ladder_points(a, b, ga, gb, floor * w, m), rtol=0, atol=1e-12 * w)
    assert np.all(np.abs(points - falsi) >= 10.0 ** -(0.5 + 0.5 * k) * floor * w - 2 * np.spacing(falsi))
    # A large error gives the offsets of the bracket width, no wider.
    assert np.array_equal(transitions._rho_points(a, b, ga, gb, np.full_like(a, 1e3), m), expected)


def test_one_delta_gets_every_point_of_a_step(provider, monkeypatch):
    calls = record_calls(monkeypatch, "_rho_points")
    rho_hat_iht(0.5, provider)
    assert calls and all(m == RHO_POINTS_PER_STEP for *_, m in calls)


@settings(max_examples=10, deadline=None)
@given(DELTAS, st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=4))
def test_xi_surface_empty_fields_match_pointwise_definition(deltas, rhos):
    provider = default_provider()
    points = [(d, r) for d in deltas for r in rhos]
    for kind in ("xi_iht", "xi_niht"):
        rows = grid_emit(kind, provider, deltas, rho_grid=rhos, kappa=1.1)[1:]
        for (d, r), row in zip(points, rows):
            try:
                if kind == "xi_iht":
                    xi = stability_factor_iht(d, r, provider).xi
                else:
                    xi = stability_factor_niht(d, r, 1.1, provider).xi
            except StabilityUndefinedError:
                xi = None
            field = row.split(",")[2]
            assert field == ("" if xi is None else f"{xi:.17g}")


def test_transition_over_delta_array(provider):
    deltas = np.array([0.05, 0.3, 1.0])
    res = rho_hat_niht(deltas, 1.1, provider)
    assert res.rho_hat.shape == res.residual.shape == res.saturated.shape == (3,)
    for delta, rho_hat in zip(deltas, res.rho_hat):
        assert rho_hat == pytest.approx(rho_hat_niht(float(delta), 1.1, provider).rho_hat, rel=1e-12)
