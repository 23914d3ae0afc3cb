import json
import math
import os
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ihtlab.asymptotics import chi2_cdf
from ihtlab.core import (
    RngSpec, SupportSet, least_squares_split, matvec, sample_gaussian_matrix, sample_instance, sample_noise, vecdot,
)
from ihtlab.errors import ConfigError
from ihtlab import experiments, solvers
from ihtlab.experiments import (
    STABLE_POINT_CHECK_TOL,
    ExperimentConfig,
    fifty_percent_contour,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    read_config,
    run_experiment,
    wilson_interval,
)
from ihtlab.solvers import SolverConfig, run_solver
from ihtlab.stablepoint import is_stable_point, stable_condition_terms
from test_transitions import oracle_row, record_point_solves


def _chunk(config, z, z_ray, trials):
    """A distribution chunk task with the stream 1 and 2 keys of its trials."""
    keys = [RngSpec(config.master_seed, s).substream_keys(0, trials) for s in (1, 2)]
    return config, z, z_ray, trials, np.stack(keys, axis=1)


def _separate_svd_columns(config, z, trials):
    """One sigma > 0 chunk's mc-dist columns with a thin SVD of A_gamma taken
    apart from its QR, from the draws ``_distribution_trial`` left in the
    chunk stacks."""
    n, k, r, sigma = config.n, config.k, config.overlap, config.sigma
    T, m = len(trials), n * (k + r)
    draws, _ = experiments._chunk_stacks(T, n, k, r)
    cols, e = draws[:, :m].reshape(T, n, k + r), draws[:, m:]
    A_gamma, A_diff = cols[..., :k], cols[..., k:]
    z_norm2 = float(z @ z)
    v = A_diff @ z
    _, [(y, w), (y_e, w_e)] = least_squares_split(A_gamma, v, e)
    quad = vecdot(v, w) / z_norm2
    lhs_42 = experiments._norm(matvec(A_diff.mT, w)) / math.sqrt(z_norm2)
    lhs_43 = experiments._norm(y_e)
    lhs_44_sq = np.float_power(experiments._norm(matvec(A_diff.mT, w_e)), 2)
    U1, s, _ = np.linalg.svd(A_gamma, full_matrices=False)
    rhs_43 = experiments._norm(matvec(U1.mT, e) / s)
    W, s_D, _ = np.linalg.svd(A_diff - U1 @ (U1.mT @ A_diff), full_matrices=False)
    We = matvec(W.mT, e)
    sWe = s_D * We
    h_norm2, rhs_44_sq = vecdot(We, We), vecdot(sWe, sWe)
    return {
        "trial": np.asarray(trials),
        "f_sample": vecdot(y, y) / z_norm2,
        "lhs_42": lhs_42,
        "quad_42": quad,
        "r_sample": quad * n / (n - k),
        "viol_42": lhs_42 < quad - 1e-12 * (1.0 + np.abs(quad)),
        "g_sample": np.float_power(lhs_43, 2) / sigma**2,
        "viol_43": lhs_43 > rhs_43 + 1e-12 * (1.0 + rhs_43),
        "lhs_44_sq": lhs_44_sq,
        "rhs_44_sq": rhs_44_sq,
        "viol_44": lhs_44_sq > rhs_44_sq + 1e-12 * (1.0 + rhs_44_sq),
        "s_sample": np.divide(rhs_44_sq, h_norm2, out=np.zeros(T), where=h_norm2 > 0) * n / (n - k),
        "t_sample": h_norm2 * n / sigma**2,
    }


class TestStatisticsHelpers:
    def test_ks_statistic_exact_fit(self):
        gen = RngSpec(1).generator()
        samples = gen.chisquare(5, size=50_000)
        d = ks_statistic(samples, lambda x: chi2_cdf(x, 5))
        assert d <= ks_critical_value(50_000)

    def test_ks_statistic_detects_wrong_law(self):
        gen = RngSpec(2).generator()
        samples = gen.chisquare(5, size=50_000)
        d = ks_statistic(samples, lambda x: chi2_cdf(x, 7))
        assert d > 10 * ks_critical_value(50_000)

    def test_ks_two_sample_same_law(self):
        gen = RngSpec(3).generator()
        a = gen.standard_normal(20_000)
        b = gen.standard_normal(20_000)
        assert ks_two_sample(a, b) <= 1.628 * math.sqrt(2 / 20_000)

    def test_wilson_interval_contains_rate(self):
        lo, hi = wilson_interval(190, 200)
        assert lo < 0.95 < hi
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contour_interpolation(self):
        cells = [
            {"delta": 0.5, "rho": 0.1, "success_rate": 1.0},
            {"delta": 0.5, "rho": 0.2, "success_rate": 0.75},
            {"delta": 0.5, "rho": 0.3, "success_rate": 0.25},
        ]
        contour = fifty_percent_contour(cells)
        assert contour == [{"delta": 0.5, "rho_50": pytest.approx(0.25)}]


class TestConfigValidation:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            ExperimentConfig.from_dict(
                {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
                 "trials": 5, "master_seed": 0, "bogus": 1}
            )

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError, match="missing config keys"):
            ExperimentConfig.from_dict({"kind": "mc_distribution", "n": 40})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown config kind 'mc_quantum'"):
            ExperimentConfig.from_dict({"kind": "mc_quantum"})

    def test_overlap_bounds(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 9,
                 "trials": 5, "master_seed": 0}
            )

    def test_solver_section_required(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"kind": "mc_transition", "n": 40, "delta_grid": [0.5],
                 "rho_grid": [0.1], "trials": 5, "master_seed": 0}
            )

    def test_bad_solver_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown solver keys"):
            ExperimentConfig.from_dict(
                {"kind": "mc_transition", "n": 40, "delta_grid": [0.5], "rho_grid": [0.1],
                 "trials": 5, "master_seed": 0, "solver": {"variant": "iht", "alpha": 0.6, "lr": 1}}
            )

    @pytest.mark.parametrize("solver, key", [
        ({"variant": "niht", "alpha": 5.0}, "alpha"),
        ({"variant": "iht", "alpha": 0.6, "kappa": 1.2}, "kappa"),
        ({"variant": "iht", "alpha": 0.6, "c": 0.1}, "c"),
    ])
    def test_solver_keys_the_variant_never_reads_rejected(self, solver, key):
        with pytest.raises(ConfigError, match=f"solver keys \\['{key}'\\] are not read by variant"):
            ExperimentConfig.from_dict(
                {"kind": "mc_transition", "n": 40, "delta_grid": [0.5], "rho_grid": [0.1],
                 "trials": 5, "master_seed": 0, "solver": solver}
            )

    @pytest.mark.parametrize("kind", ["mc_transition", "mc_error_vs_xi"])
    @pytest.mark.parametrize("variant", ["iht", "niht"])
    def test_residual_tol_is_an_unknown_solver_key(self, kind, variant):
        # A run goes to its limit: no solver key stops it on the residual.
        [base] = [config for config in VALID_CONFIGS if config["kind"] == kind]
        solver = {"variant": variant, "residual_tol": 0.1}
        with pytest.raises(ConfigError, match=f"unknown solver keys for variant '{variant}': \\['residual_tol'\\]"):
            ExperimentConfig.from_dict(dict(base, solver=solver))

    @pytest.mark.parametrize("field, value, message", [
        ("trials", 2.5, "trials must be an integer, got 2.5"),
        ("trials", True, "trials must be an integer, got True"),
        ("n", "20", "n must be an integer, got '20'"),
        ("sigma", False, "sigma must be a number, got False"),
        ("output_path", 3, "output_path must be a string or null, got 3"),
    ])
    def test_direct_construction_types_its_fields(self, field, value, message):
        # trials=2.5 used to crash in range(), trials=True to run one trial.
        kwargs = {"kind": "mc_distribution", "n": 20, "k": 3, "overlap": 2, "trials": 2, "master_seed": 1}
        kwargs[field] = value
        with pytest.raises(ConfigError, match=message):
            run_experiment(ExperimentConfig(**kwargs))

    @pytest.mark.parametrize("kind, changes, key", [
        ("mc_transition", {"delta_grid": ("0.5",)}, "delta_grid"),
        ("mc_transition", {"delta_grid": 0.5}, "delta_grid"),
        ("mc_transition", {"rho_grid": (True,)}, "rho_grid"),
        ("mc_distribution", {"delta": 0.5}, "delta"),
        ("mc_distribution", {"solver": {"variant": "x"}}, "solver"),
        ("mc_error_vs_xi", {"k": 3}, "k"),
    ])
    def test_direct_construction_refuses_what_from_dict_refuses(self, kind, changes, key):
        # The first two used to raise a bare TypeError, the others were accepted.
        [base] = [config for config in VALID_CONFIGS if config["kind"] == kind]
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig(**dict(base, **changes))

    @pytest.mark.parametrize("kind, key, value", [
        ("mc_error_vs_xi", "xi_variant", "bogus"),
        ("mc_error_vs_xi", "xi_variant", None),
        ("mc_error_vs_xi", "coefficient_model", "cauchy"),
        ("mc_transition", "coefficient_model", "cauchy"),
    ])
    @pytest.mark.parametrize("variant", ["iht", "niht"])
    def test_choice_fields_checked_when_built(self, kind, key, value, variant):
        # xi_variant was read by N-IHT runs only, coefficient_model by the first trial.
        [base] = [config for config in VALID_CONFIGS if config["kind"] == kind]
        data = dict(base, solver={"variant": variant}, **{key: value})
        if variant == "iht":
            data["solver"]["alpha"] = 0.5
        with pytest.raises(ConfigError, match=key if value is None else f"unknown config {key} '{value}'"):
            ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("trials", [0, 2**32 + 1, 10**11])
    def test_trials_bounded_by_the_stream_key_space(self, trials):
        # Trial ids key the streams as one 32-bit word; 10**11 trials used to end in a MemoryError.
        [base] = [config for config in VALID_CONFIGS if config["kind"] == "mc_distribution"]
        with pytest.raises(ConfigError, match=f"trials must lie in \\[1, 2\\^32\\], got {trials}"):
            ExperimentConfig.from_dict(dict(base, trials=trials))
        assert ExperimentConfig.from_dict(dict(base, trials=2**32)).trials == 2**32

    @pytest.mark.parametrize("rho", [0, -0.1, 0.6, 1.5])
    def test_error_rho_outside_half_unit_interval_refused_when_built(self, rho):
        # 0 and -0.1 used to pass the build and fail in the run, after the RIP table was read.
        [base] = [config for config in VALID_CONFIGS if config["kind"] == "mc_error_vs_xi"]
        with pytest.raises(ConfigError, match=f"rho must lie in \\(0, 1/2\\], got {rho}"):
            ExperimentConfig.from_dict(dict(base, rho=rho))

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ConfigError, match="kind must be a string, got \\[\\]"):
            ExperimentConfig.from_dict({"kind": []})

    @pytest.mark.parametrize("path", ["a" * 300, "a\0b.json"], ids=["name-too-long", "nul-byte"])
    def test_output_path_the_file_system_refuses_is_a_config_error(self, path):
        with pytest.raises(ConfigError, match="output_path"):
            ExperimentConfig.from_dict(
                {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
                 "trials": 5, "master_seed": 0, "output_path": path}
            )

    def test_integer_past_float_range_refused(self):
        with pytest.raises(ConfigError, match="sigma must be finite"):
            ExperimentConfig.from_dict(
                {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
                 "trials": 5, "master_seed": 0, "sigma": 10**400}
            )

    def test_integer_too_long_to_parse_refused(self, tmp_path):
        # Python refuses to convert integers of more than 4,300 digits.
        path = tmp_path / "cfg.json"
        path.write_text('{"kind": "mc_distribution", "n": 1' + "0" * 5000 + "}", encoding="utf-8")
        with pytest.raises(ConfigError, match="cannot read config"):
            read_config(path)

    @pytest.mark.parametrize("key, grid", [
        ("delta_grid", "1"),
        ("delta_grid", ["0.5"]),
        ("rho_grid", [True]),
        ("rho_grid", [0.1, None]),
        ("delta_grid", {"0.5": 1}),
        ("delta_grid", (0.5,)),
        ("rho_grid", [10**400]),
    ])
    def test_grid_must_be_a_list_of_json_numbers(self, key, grid):
        data = {"kind": "mc_transition", "n": 40, "delta_grid": [0.5], "rho_grid": [0.1], "trials": 5,
                "master_seed": 0, "solver": {"variant": "niht"}}
        with pytest.raises(ConfigError, match=f"{key} must be a list of numbers"):
            ExperimentConfig.from_dict(dict(data, **{key: grid}))

    def test_grid_numbers_become_floats(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 40, "delta_grid": [1, 0.5], "rho_grid": [0.1], "trials": 5,
             "master_seed": 0, "solver": {"variant": "niht"}}
        )
        assert config.delta_grid == (1.0, 0.5) and all(type(v) is float for v in config.delta_grid)

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
            "trials": 5, "master_seed": 0, "sigma": 1.0,
        }), encoding="utf-8")
        config = ExperimentConfig.from_dict(read_config(path))
        assert config.n == 40 and config.sigma == 1.0


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8,
)
# Values near the valid ranges and a huge integer.
CONFIG_VALUES = (
    st.integers(-2, 120) | st.floats(-0.5, 1.5) | st.sampled_from([10**400, 1e308, -0.0])
    | st.lists(st.integers(-2, 2) | st.floats(-0.5, 1.5) | JSON_VALUES, max_size=3)
    | JSON_VALUES
)
# Paths with names up to and past the usual 255-byte limit.
PATHS = st.lists(
    st.text(min_size=1) | st.sampled_from([255, 256, 5000]).map("a".__mul__), min_size=1, max_size=3
).map("/".join)
SOLVER_SECTIONS = st.dictionaries(
    st.sampled_from([f.name for f in fields(SolverConfig)]) | st.text(max_size=6),
    st.sampled_from(["iht", "niht"]) | CONFIG_VALUES,
    max_size=5,
) | JSON_VALUES
CONFIG_KEYS = sorted(experiments.EXPERIMENT_FIELDS.keys() - {"kind"}) + ["bogus"]
KEY_VALUES = {
    key: SOLVER_SECTIONS if key == "solver" else PATHS if key.endswith("path") else CONFIG_VALUES
    for key in CONFIG_KEYS
}
VALID_CONFIGS = (
    {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2, "trials": 5, "master_seed": 0},
    {"kind": "mc_transition", "n": 40, "delta_grid": [0.5], "rho_grid": [0.1], "trials": 5,
     "master_seed": 0, "solver": {"variant": "niht"}},
    {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.01, "sigma": 0.1, "trials": 2,
     "master_seed": 1, "solver": {"variant": "iht", "alpha": 0.5}},
)
# Free dicts, and valid configs with one or two keys changed, which reach the
# checks behind the key and type checks.
CONFIG_DICTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(experiments.KINDS) | JSON_VALUES}, optional=KEY_VALUES
) | st.builds(
    lambda base, changes: {**base, **changes},
    st.sampled_from(VALID_CONFIGS),
    st.lists(st.sampled_from(CONFIG_KEYS), min_size=1, max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: KEY_VALUES[key] for key in keys})
    ),
)


@pytest.mark.parametrize("base", VALID_CONFIGS, ids=lambda config: config["kind"])
def test_replace_equals_from_dict_of_the_edited_dict(base):
    # replace passes every field, also the keys the kind does not take, which stay unset.
    config = replace(ExperimentConfig.from_dict(base), trials=3, output_path="out.json")
    assert config == ExperimentConfig.from_dict(dict(base, trials=3, output_path="out.json"))


@pytest.mark.parametrize("base", VALID_CONFIGS, ids=lambda config: config["kind"])
def test_result_json_config_echo_reads_back_as_the_config(base, tmp_path):
    # The echo holds exactly the keys the kind takes, so from_dict reads it back.
    out = tmp_path / "result.json"
    config = ExperimentConfig.from_dict(dict(base, output_path=str(out)))
    run_experiment(config)
    echo = json.loads(out.read_text(encoding="utf-8"))["config"]
    rows = experiments.EXPERIMENT_FIELDS.items()
    assert echo.keys() == {key for key, row in rows if base["kind"] in row.required + row.optional}
    assert ExperimentConfig.from_dict(echo) == config


@settings(max_examples=500, deadline=None)
@given(CONFIG_DICTS)
def test_any_config_dict_is_a_config_or_a_config_error(data):
    try:
        config = ExperimentConfig.from_dict(data)
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    if config.solver is not None:
        try:
            assert isinstance(config.solver_config(), SolverConfig)
        except ConfigError:
            pass


@pytest.fixture(scope="module")
def dist_result():
    config = ExperimentConfig.from_dict(
        {"kind": "mc_distribution", "n": 100, "k": 10, "overlap": 5,
         "trials": 3000, "master_seed": 20240601, "sigma": 1.0}
    )
    return run_experiment(config)


class TestDistributionCheck:
    @pytest.fixture()
    def result(self, dist_result):
        return dist_result

    def test_ks_below_critical(self, result):
        s = result.summary
        for key in ("ks_f_ratio", "ks_r_quadratic", "ks_g_noise", "ks_s_noise",
                    "ks_t_noise", "ks_rayleigh_full", "ks_rayleigh_inverse"):
            assert s[key] <= s["ks_critical_99"], key
        assert s["ks_rayleigh_squared_two_sample"] <= s["ks_two_sample_critical_99"]

    def test_one_sided_claims_never_violated(self, result):
        assert result.summary["violations_42"] == 0
        assert result.summary["violations_43"] == 0
        assert result.summary["violations_44"] == 0

    def test_mean_of_squared_ratio(self, result):
        s = result.summary
        assert s["f_ratio_mean"] == pytest.approx(s["f_ratio_mean_expected"], rel=0.05)
        assert s["f_ratio_mean_expected"] == pytest.approx(10 / 89)

    def test_rayleigh_mean_within_three_standard_errors(self, result):
        # chi^2_n / n has mean 1 and variance 2/n.
        m = result.summary["trials"]
        se = math.sqrt(2 / 100) / math.sqrt(m)
        assert abs(result.summary["rayleigh_full_mean_normalised"] - 1.0) <= 3 * se

    def test_trial_terms_match_stable_condition_terms(self):
        # One draw, A = [A_gamma | A_diff]: gamma is the first k columns and
        # lam minus gamma the last r, so the trial's normalised statistics give
        # back the four norms of the stable-point condition.
        n, k, r, sigma = 30, 5, 2, 0.7
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": n, "k": k, "overlap": r,
             "trials": 1, "master_seed": 41, "sigma": sigma}
        )
        z = np.array([0.8, -1.3])
        columns, _ = experiments._distribution_trial(_chunk(config, z, np.ones(k), range(1)))
        assert all(len(column) == 1 for column in columns.values())
        f_sample, lhs_42, g_sample, lhs_44_sq = (
            columns[key][0] for key in ("f_sample", "lhs_42", "g_sample", "lhs_44_sq")
        )
        gen = RngSpec(41, 1).substream(0, 0)
        A = sample_gaussian_matrix(n, k + r, gen)
        e = sample_noise(n, sigma, gen)
        x_star = np.zeros(k + r)
        x_star[: k - r] = 1.0
        x_star[k:] = z
        terms = stable_condition_terms(
            A, x_star, e, SupportSet(tuple(range(k))),
            SupportSet(tuple(range(k - r)) + tuple(range(k, k + r))),
        )
        z_norm = math.sqrt(float(z @ z))
        assert math.sqrt(f_sample) * z_norm == pytest.approx(terms.lhs_signal, rel=1e-12)
        assert lhs_42 * z_norm == pytest.approx(terms.rhs_signal, rel=1e-12)
        assert math.sqrt(g_sample) * sigma == pytest.approx(terms.lhs_noise, rel=1e-12)
        assert math.sqrt(lhs_44_sq) == pytest.approx(terms.rhs_noise, rel=1e-12)

    def test_coupled_bounds_match_projector_oracle(self):
        # One draw against explicit projections through lstsq: D holds the
        # difference columns off range(A_gamma) and P_D e is e projected onto
        # range(D), so ||P_D e||^2 gives t_sample and ||D^T P_D e||^2 rhs_44_sq.
        n, k, r, sigma = 40, 6, 3, 0.9
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": n, "k": k, "overlap": r,
             "trials": 1, "master_seed": 23, "sigma": sigma}
        )
        columns, _ = experiments._distribution_trial(_chunk(config, np.array([1.0, -0.4, 0.7]), np.ones(k), range(1)))
        assert all(len(column) == 1 for column in columns.values())
        gen = RngSpec(23, 1).substream(0, 0)
        A = sample_gaussian_matrix(n, k + r, gen)
        e = sample_noise(n, sigma, gen)
        A_gamma, A_diff = A[:, :k], A[:, k:]
        D = A_diff - A_gamma @ np.linalg.lstsq(A_gamma, A_diff, rcond=None)[0]
        projected = D @ np.linalg.lstsq(D, e, rcond=None)[0]
        h_norm2 = float(projected @ projected)
        rhs_44_sq = float(np.sum((D.T @ projected) ** 2))
        assert columns["rhs_44_sq"][0] == pytest.approx(rhs_44_sq, rel=1e-12)
        assert columns["s_sample"][0] == pytest.approx(rhs_44_sq / h_norm2 * n / (n - k), rel=1e-12)
        assert columns["t_sample"][0] == pytest.approx(h_norm2 * n / sigma**2, rel=1e-12)
        # Flags, written as True/False: bool columns, both clear.
        assert columns["viol_43"].tolist() == [False] and columns["viol_43"].dtype == bool
        assert columns["viol_44"].tolist() == [False] and columns["viol_44"].dtype == bool

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    def test_rows_independent_of_chunking(self, sigma):
        # Chunks of one, of the module chunk size with a ragged last chunk,
        # and one chunk of all trials give equal columns and Rayleigh quotients.
        trials = 2 * experiments.DISTRIBUTION_CHUNK + 5
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": 30, "k": 4, "overlap": 2,
             "trials": trials, "master_seed": 17, "sigma": sigma}
        )
        z, z_ray = np.array([0.6, -1.1]), np.array([1.0, -0.5, 0.25, 2.0])

        def run(size):
            chunks = [experiments._distribution_trial(_chunk(config, z, z_ray, range(t, min(t + size, trials))))
                      for t in range(0, trials, size)]
            columns = experiments._concatenated([columns for columns, _ in chunks])
            return ({key: column.tolist() for key, column in columns.items()},
                    [np.concatenate(column).tolist() for column in zip(*(ray for _, ray in chunks))])

        columns, rayleigh = run(experiments.DISTRIBUTION_CHUNK)
        assert columns["trial"] == list(range(trials))
        assert all(len(column) == trials for column in columns.values())
        assert len(rayleigh) == 4 and all(len(column) == trials for column in rayleigh)
        for size in (1, trials):
            assert run(size) == (columns, rayleigh)

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    def test_chunk_draws_equal_per_trial_substreams(self, sigma):
        # The chunk stacks hold, bit for bit, what each trial's own substream
        # generators draw through sample_gaussian_matrix and sample_noise:
        # stream 1 the columns, then the noise, and stream 2 two blocks.
        n, k, r, trials = 30, 4, 2, range(5, 12)
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": n, "k": k, "overlap": r,
             "trials": 20, "master_seed": 2**40 + 9, "sigma": sigma}
        )
        experiments._distribution_trial(_chunk(config, np.array([0.6, -1.1]), np.ones(k), trials))
        draws, blocks = experiments._chunk_stacks(len(trials), n, k, r)
        m = n * (k + r)
        for i, trial in enumerate(trials):
            gen = RngSpec(config.master_seed, 1).substream(0, trial)
            assert draws[i, :m].tobytes() == sample_gaussian_matrix(n, k + r, gen).tobytes()
            if sigma > 0:
                assert draws[i, m:].tobytes() == sample_noise(n, sigma, gen).tobytes()
            gen = RngSpec(config.master_seed, 2).substream(0, trial)
            pair = [sample_gaussian_matrix(n, k, gen) for _ in range(2)]
            assert blocks[i].tobytes() == np.stack(pair).tobytes()

    @pytest.mark.parametrize(
        "n, k, r, seed",
        [(2, 1, 1, 1), (12, 1, 1, 2), (30, 6, 3, 3), (40, 10, 5, 4), (60, 16, 8, 5), (100, 32, 5, 6)],
    )
    def test_noise_columns_equal_separate_svd_oracle(self, n, k, r, seed):
        # The right-hand sides of (4.3) and (4.4) take A_gamma's thin SVD from
        # the QR of the left-hand sides.  Over ragged chunks, every column is
        # bit-equal to the one computed with a separate
        # np.linalg.svd(A_gamma, full_matrices=False); at k = 16 and 32 a
        # C-order Q @ U_R would differ in the last bits.
        trials = 2 * experiments.DISTRIBUTION_CHUNK + 5
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": n, "k": k, "overlap": r,
             "trials": trials, "master_seed": seed, "sigma": 1.0}
        )
        z = RngSpec(seed).generator().standard_normal(r)
        for start in range(0, trials, experiments.DISTRIBUTION_CHUNK):
            chunk = range(start, min(start + experiments.DISTRIBUTION_CHUNK, trials))
            columns, _ = experiments._distribution_trial(_chunk(config, z, np.ones(k), chunk))
            oracle = _separate_svd_columns(config, z, chunk)
            assert sorted(columns) == sorted(oracle)
            for key, column in columns.items():
                assert column.dtype == oracle[key].dtype and column.tobytes() == oracle[key].tobytes(), key

    def test_builds_no_seed_sequence_per_trial(self, monkeypatch):
        built = []

        class CountingSeedSequence(np.random.SeedSequence):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("spawn_key"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", CountingSeedSequence)
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
             "trials": 2000, "master_seed": 5, "sigma": 1.0}
        )
        assert run_experiment(config).summary["trials"] == 2000
        assert built == [(0, 0)]  # stream 0, for the run's shared vectors

    def test_noiseless_config_skips_noise_terms(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
             "trials": 50, "master_seed": 1, "sigma": 0.0}
        )
        summary = run_experiment(config).summary
        assert "ks_g_noise" not in summary
        assert summary["violations_42"] == 0


class TestRecoveryTransition:
    def test_success_profile_and_contour(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 50, "delta_grid": [0.5],
             "rho_grid": [0.04, 0.2, 0.44], "trials": 25, "master_seed": 5,
             "solver": {"variant": "iht", "alpha": 0.65, "max_iters": 800}}
        )
        result = run_experiment(config)
        rates = {c["rho"]: c["success_rate"] for c in result.cells}
        assert rates[0.04] == 1.0
        assert rates[0.44] <= 0.1
        contour = result.summary["contour_50"]
        assert contour[0]["rho_50"] is not None
        assert 0.04 < contour[0]["rho_50"] < 0.44

    def test_full_success_well_below_transition(self):
        # rho far below the transition bound recovers in every one of 200
        # trials.
        from ihtlab.rip import default_provider
        from ihtlab.transitions import rho_hat_iht

        rho_hat = rho_hat_iht(0.5, default_provider()).rho_hat
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 100, "delta_grid": [0.5],
             "rho_grid": [rho_hat / 2], "trials": 200, "master_seed": 15,
             "solver": {"variant": "iht", "alpha": 0.65, "max_iters": 2000}}
        )
        result = run_experiment(config)
        assert result.cells[0]["success_rate"] == 1.0

    def test_empirical_contour_above_transition_curve(self):
        # The transition bound is a lower bound: the empirical 50% contour
        # sits strictly above it at every tested delta.
        from ihtlab.rip import default_provider
        from ihtlab.transitions import rho_hat_iht

        provider = default_provider()
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 60, "delta_grid": [0.3, 0.5],
             "rho_grid": [0.05, 0.15, 0.25, 0.35, 0.45], "trials": 30,
             "master_seed": 16,
             "solver": {"variant": "iht", "alpha": 0.65, "max_iters": 1000}}
        )
        result = run_experiment(config)
        for entry in result.summary["contour_50"]:
            assert entry["rho_50"] is not None
            assert entry["rho_50"] > rho_hat_iht(entry["delta"], provider).rho_hat

    def test_invalid_cells_marked(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 20, "delta_grid": [0.5],
             "rho_grid": [0.04, 0.6], "trials": 5, "master_seed": 5,
             "solver": {"variant": "iht", "alpha": 0.5, "max_iters": 100}}
        )
        result = run_experiment(config)
        invalid = [c for c in result.cells if not c["valid"]]
        assert invalid and invalid[0]["success_rate"] is None


class TestErrorVsXi:
    def test_compliance_at_low_rho(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 30, "master_seed": 6,
             "solver": {"variant": "iht", "max_iters": 3000}}
        )
        result = run_experiment(config)
        assert result.summary["included"] >= 28
        assert result.summary["compliance_rate"] >= 0.95
        assert result.summary["xi"] > 0

    def test_zero_noise_uses_solver_tolerance(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
             "sigma": 0.0, "trials": 10, "master_seed": 7,
             "solver": {"variant": "iht", "max_iters": 3000}}
        )
        result = run_experiment(config)
        assert result.summary["error_bound"] == 1e-6
        assert result.summary["compliance_rate"] == 1.0

    def test_niht_variant(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 15, "master_seed": 8,
             "solver": {"variant": "niht", "max_iters": 3000}}
        )
        result = run_experiment(config)
        assert result.summary["compliance_rate"] >= 0.9

    def test_sigma_scaling_of_errors(self):
        summaries = []
        for sigma in (0.1, 0.2):
            config = ExperimentConfig.from_dict(
                {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
                 "sigma": sigma, "trials": 40, "master_seed": 9,
                 "solver": {"variant": "iht", "max_iters": 3000}}
            )
            summaries.append(run_experiment(config).summary)
        ratio = summaries[1]["error_q50"] / summaries[0]["error_q50"]
        assert 1.5 <= ratio <= 2.5
        assert summaries[1]["error_bound"] == pytest.approx(2 * summaries[0]["error_bound"])

    def test_iht_stepsize_and_factor_share_one_root_solve(self, monkeypatch):
        # rho_hat_iht solves its own roots over arrays; the stepsize and the
        # factor at the configured point share one solve.
        solves = record_point_solves(monkeypatch)
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.01,
             "sigma": 0.1, "trials": 2, "master_seed": 1,
             "solver": {"variant": "iht", "max_iters": 100}}
        )
        run_experiment(config)
        assert sorted(solves) == ["_if_root", "tail_il"]

    def test_unknown_solver_variant_is_config_error(self):
        with pytest.raises(ConfigError, match="unknown solver variant 'cosamp'"):
            ExperimentConfig.from_dict(
                {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.004,
                 "sigma": 0.1, "trials": 5, "master_seed": 10,
                 "solver": {"variant": "cosamp", "max_iters": 100}}
            )

    def test_stability_undefined_is_config_error(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.4,
             "sigma": 0.1, "trials": 5, "master_seed": 10,
             "solver": {"variant": "iht", "max_iters": 100}}
        )
        with pytest.raises(ConfigError):
            run_experiment(config)

    def test_alpha_outside_interval_rejected(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 5, "master_seed": 11,
             "solver": {"variant": "iht", "alpha": 0.99, "max_iters": 100}}
        )
        with pytest.raises(ConfigError):
            run_experiment(config)


STACKING_CONFIGS = {
    # Cells at rho = 0.3 diverge at alpha 0.65; their trials pass the
    # residual cap and leave their stacks early.
    "iht_diverging": {"kind": "mc_transition", "n": 40, "delta_grid": [0.5, 0.8], "rho_grid": [0.1, 0.3],
                      "trials": 3, "master_seed": 1,
                      "solver": {"variant": "iht", "alpha": 0.65, "max_iters": 1300}},
    "niht_shrinking": {"kind": "mc_transition", "n": 40, "delta_grid": [0.5, 0.8], "rho_grid": [0.1, 0.3],
                       "trials": 3, "master_seed": 1, "solver": {"variant": "niht", "max_iters": 300}},
    "error": {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.01, "sigma": 0.1,
              "trials": 8, "master_seed": 31, "solver": {"variant": "iht", "max_iters": 500}},
}


@pytest.mark.parametrize("name", STACKING_CONFIGS)
def test_rows_independent_of_stacking(name, monkeypatch):
    # Every trial a stack of one, stacks under the module cap, and whole delta
    # columns as one stack give equal trial columns, error column included.
    config = ExperimentConfig.from_dict(STACKING_CONFIGS[name])

    def columns(stack_bytes):
        monkeypatch.setattr(experiments, "SOLVER_STACK_BYTES", stack_bytes)
        return run_experiment(config).trial_columns

    expected = columns(1)
    assert expected["trial"].tolist()[:3] == [0, 1, 2]
    for stack_bytes in (experiments.SOLVER_STACK_BYTES, 1 << 40):
        got = columns(stack_bytes)
        assert got.keys() == expected.keys()
        for key in expected:
            # NaN (a diverged trial's error) equals NaN here.
            np.testing.assert_array_equal(got[key], expected[key], strict=True)
    if name == "iht_diverging":
        # A diverged trial reads as a run to the budget, with a NaN error.
        diverged = expected["termination"] == "max_iters"
        assert diverged.any()
        assert np.all(expected["iterations"][diverged] == 1300)
        assert np.all(np.isnan(expected["error"][diverged]))
    if name == "niht_shrinking":
        # The trial (cell 1, trial 0) takes shrinkage steps.
        N, k = experiments._cell_shape(40, 0.5, 0.3)
        instance = sample_instance(40, N, k, 0.0, RngSpec(1, 3).substream(1, 0))
        assert any(rec.used_shrinkage for rec in run_solver(instance, config.solver_config()).iterates)


def test_stacked_error_norms_equal_per_trial_norms():
    # The error and signal norms of a stack are, bit for bit, np.linalg.norm
    # of each trial's vector, diverged trials included.
    config = ExperimentConfig.from_dict(STACKING_CONFIGS["iht_diverging"])
    N, k = experiments._cell_shape(40, 0.5, 0.3)
    draws = [(1, k, t) for t in range(3)]
    _, x_star, result, errors = experiments._solve_stack(config, config.solver_config(), 3, 40, N, draws)
    assert not np.all(np.isfinite(errors))
    with np.errstate(over="ignore", invalid="ignore"):
        np.testing.assert_array_equal(errors, [np.linalg.norm(x - x0) for x, x0 in zip(result.final, x_star)])
    np.testing.assert_array_equal(experiments._norm(x_star), [np.linalg.norm(x0) for x0 in x_star])


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_divergence_cap_changes_no_outcome(seed, monkeypatch):
    # On recovery-map's grid the capped run and the uncapped one agree on
    # every trial's success, termination and iteration count (a diverged
    # trial is charged its budget), and every trial that does not end on
    # max_iters is bit-identical.  The cap never fires for N-IHT.
    grid = {"kind": "mc_transition", "n": 60, "delta_grid": [0.3, 0.5, 0.8], "rho_grid": [0.05, 0.1, 0.2, 0.3],
            "trials": 2, "master_seed": seed}

    def columns(solver, ratio2):
        monkeypatch.setattr(solvers, "DIVERGENCE_RATIO2", ratio2)
        return run_experiment(ExperimentConfig.from_dict(dict(grid, solver=solver))).trial_columns

    for solver in ({"variant": "iht", "alpha": 0.65, "max_iters": 1000}, {"variant": "niht", "max_iters": 1000}):
        capped, uncapped = columns(solver, solvers.DIVERGENCE_RATIO2), columns(solver, math.inf)
        for key in ("success", "termination", "iterations"):
            np.testing.assert_array_equal(capped[key], uncapped[key], strict=True)
        ended = capped["termination"] != "max_iters"
        for key in capped:
            assert capped[key][ended].tobytes() == uncapped[key][ended].tobytes()
        if solver["variant"] == "niht":
            for key in capped:
                assert capped[key].tobytes() == uncapped[key].tobytes()
        else:
            # A capped trial stopped while its uncapped twin ran on to the budget.
            assert np.any(np.isnan(capped["error"]) & np.isfinite(uncapped["error"]))


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_certified_finish_changes_no_mc_error_outcome(seed, monkeypatch):
    # On recovery-map's mc-error cell, mc-error with its solver stacks run
    # with the finish and without it agree on every trial's converged, stable,
    # included and compliant flags.  Each finished final iterate lies within
    # 1e-9 relative of its step_tol final, so the errors agree to 1e-9 ||x̄||,
    # and no trial runs more iterations.
    from ihtlab.rip import default_provider
    from ihtlab.transitions import rho_hat_iht

    rho = rho_hat_iht(0.5, default_provider()).rho_hat / 4
    config = ExperimentConfig.from_dict(
        {"kind": "mc_error_vs_xi", "n": 400, "delta": 0.5, "rho": rho, "sigma": 0.1, "trials": 10,
         "master_seed": seed, "solver": {"variant": "iht", "max_iters": 1000}}
    )
    monkeypatch.setenv(experiments.WORKERS_ENV_VAR, "1")
    solve_stack = experiments._solve_stack

    def run(allow_finish):
        finals = []

        def recorded(*args, finish):
            out = solve_stack(*args, finish=finish and allow_finish)
            finals.append(out[2].final)
            return out

        monkeypatch.setattr(experiments, "_solve_stack", recorded)
        return run_experiment(config).trial_columns, np.concatenate(finals)

    (on, final_on), (off, final_off) = run(True), run(False)
    assert set(on["termination"]) == {"stable_point"} and set(off["termination"]) == {"step_tol"}
    for key in ("converged", "stable", "included", "compliant"):
        np.testing.assert_array_equal(on[key], off[key], strict=True)
    scale = experiments._norm(final_off)
    assert np.all(experiments._norm(final_on - final_off) <= 1e-9 * scale)
    assert np.all(np.abs(on["error"] - off["error"]) <= 1e-9 * scale)
    assert np.all(on["iterations"] <= off["iterations"])


def test_certified_trials_skip_the_stable_point_test(monkeypatch):
    # The certificate proves each stable_point trial's x̄ stable at the
    # solver's alpha, alpha_lb: a stack of such trials reads stable with no
    # gradient and no stable-point test.
    def no_test(*args):
        raise AssertionError("a certified trial was tested again")

    monkeypatch.setenv(experiments.WORKERS_ENV_VAR, "1")
    monkeypatch.setattr(experiments, "_stability_test", no_test)
    columns = run_experiment(ExperimentConfig.from_dict(STACKING_CONFIGS["error"])).trial_columns
    assert set(columns["termination"]) == {"stable_point"}
    assert columns["stable"].all()


@pytest.mark.parametrize("name, finishes", [("error", True), ("niht", False)])
def test_mc_error_finishes_iht_runs_without_a_residual_tolerance(name, finishes):
    # N-IHT runs end as they did before the finish.
    columns = run_experiment(ExperimentConfig.from_dict(STABLE_ORACLE_CONFIGS[name])).trial_columns
    assert ("stable_point" in columns["termination"]) == finishes


@pytest.mark.parametrize("n", [0, -3, 1])
def test_mc_error_refuses_a_cell_without_room_before_any_work(n, monkeypatch):
    # 0 < 2k <= n <= N fails: refused before the provider is loaded or a trial drawn.
    def no_provider(*args):
        raise AssertionError("the provider was loaded")

    monkeypatch.setattr(experiments, "load_provider", no_provider)
    config = ExperimentConfig.from_dict(dict(STACKING_CONFIGS["error"], n=n))
    with pytest.raises(ConfigError, match=f"n={n}: the cell .* does not satisfy 0 < 2k <= n <= N"):
        run_experiment(config)


STABLE_ORACLE_CONFIGS = {
    "error": STACKING_CONFIGS["error"],
    "niht": dict(STACKING_CONFIGS["error"], solver={"variant": "niht", "max_iters": 500}),
}


@pytest.mark.parametrize("name", STABLE_ORACLE_CONFIGS)
def test_stable_column_matches_per_trial_stable_point_check(name):
    # The stack-wide stable-point test gives, trial by trial, the verdict of
    # is_stable_point on each converged run's final iterate and its support.
    config = ExperimentConfig.from_dict(STABLE_ORACLE_CONFIGS[name])
    result = run_experiment(config)
    alpha_lb = result.summary["alpha_lb"]
    columns = result.trial_columns
    solver_config = config.solver_config(alpha_override=alpha_lb if config.solver["variant"] == "iht" else None)
    N, k = experiments._cell_shape(config.n, config.delta, config.rho)
    verdicts = []
    for trial in range(config.trials):
        instance = sample_instance(config.n, N, k, config.sigma, RngSpec(config.master_seed, 4).substream(0, trial))
        x_bar = run_solver(instance, solver_config).final
        report = is_stable_point(
            x_bar, SupportSet.support_of(x_bar), alpha_lb, instance.A, instance.b, tol=STABLE_POINT_CHECK_TOL
        )
        verdicts.append(report.is_stable)
    assert columns["converged"].all()
    assert columns["stable"].tolist() == verdicts


TRIAL_CSV_CONFIGS = {
    "dist": {"kind": "mc_distribution", "n": 30, "k": 4, "overlap": 2, "trials": 37, "master_seed": 3,
             "sigma": 1.0},
    "iht_diverging": STACKING_CONFIGS["iht_diverging"],
    "error": STACKING_CONFIGS["error"],
}


@pytest.mark.parametrize("name", TRIAL_CSV_CONFIGS)
def test_trial_csv_equals_columns_formatted_field_by_field(name, tmp_path):
    # The written trial CSV is the sorted header, then each trial's row built
    # field by field from the result's columns with the old formatter.
    path = tmp_path / "trials.csv"
    config = ExperimentConfig.from_dict(dict(TRIAL_CSV_CONFIGS[name], trial_csv_path=str(path)))
    columns = run_experiment(config).trial_columns
    keys = sorted(columns)
    rows = list(zip(*(columns[key].tolist() for key in keys)))
    assert len(rows) == config.trials * (len(config.delta_grid) * len(config.rho_grid) if config.delta_grid else 1)
    text = "\n".join([",".join(keys), *(oracle_row(row) for row in rows)]) + "\n"
    assert path.read_bytes() == text.encode("utf-8")
    if name == "iht_diverging":
        # A diverged trial's NaN error is an empty field.
        assert any(line.split(",")[1] == "" for line in text.splitlines())


class TestReproducibility:
    DIST = {"kind": "mc_distribution", "n": 60, "k": 6, "overlap": 3,
            "trials": 200, "master_seed": 31, "sigma": 1.0}
    TRANSITION = {"kind": "mc_transition", "n": 30, "delta_grid": [0.3, 0.6], "rho_grid": [0.05, 0.15],
                  "trials": 4, "master_seed": 31, "solver": {"variant": "niht", "max_iters": 200}}
    ERROR = {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.01, "sigma": 0.1,
             "trials": 8, "master_seed": 31, "solver": {"variant": "iht", "max_iters": 500}}

    def run_with_workers(self, config, workers, tmp_path, name):
        out = tmp_path / f"{name}.json"
        csv = tmp_path / f"{name}.csv"
        data = dict(config, output_path=str(out), trial_csv_path=str(csv))
        old = os.environ.get("IHTLAB_WORKERS")
        os.environ["IHTLAB_WORKERS"] = str(workers)
        try:
            run_experiment(ExperimentConfig.from_dict(data))
        finally:
            if old is None:
                os.environ.pop("IHTLAB_WORKERS", None)
            else:
                os.environ["IHTLAB_WORKERS"] = old
        return out.read_bytes(), csv.read_bytes()

    @pytest.mark.parametrize("config", [DIST, TRANSITION, ERROR], ids=lambda config: config["kind"])
    def test_worker_count_does_not_change_output(self, config, tmp_path, monkeypatch):
        # Enough CPUs that 3 workers are not clamped: chunking must really be uneven.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        json1, csv1 = self.run_with_workers(config, 1, tmp_path, "w1")
        json2, csv2 = self.run_with_workers(config, 3, tmp_path, "w3")
        # The config echo embeds distinct output paths; compare the payloads.
        d1, d2 = json.loads(json1), json.loads(json2)
        for d in (d1, d2):
            d["config"].pop("output_path")
            d["config"].pop("trial_csv_path")
        assert d1 == d2
        assert csv1 == csv2

    def test_rerun_byte_identical(self, tmp_path):
        json1, csv1 = self.run_with_workers(self.DIST, 1, tmp_path, "r1")
        json2, csv2 = self.run_with_workers(self.DIST, 1, tmp_path, "r1")
        assert json1 == json2 and csv1 == csv2


def test_result_json_embeds_config_and_version(tmp_path):
    out = tmp_path / "res.json"
    config = ExperimentConfig.from_dict(
        {"kind": "mc_distribution", "n": 20, "k": 3, "overlap": 2, "trials": 2,
         "master_seed": 13, "output_path": str(out)}
    )
    run_experiment(config)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["config"]["master_seed"] == 13
    assert payload["config"]["kind"] == "mc_distribution"
    assert payload["version"]
    assert payload["kind"] == "mc_distribution"


class TestWorkerCount:
    @pytest.mark.parametrize("raw", ["abc", "", "1.5", "0", "-2", "\u00b2"])
    def test_malformed_value_raises_config_error(self, monkeypatch, raw):
        monkeypatch.setenv("IHTLAB_WORKERS", raw)
        with pytest.raises(ConfigError, match="IHTLAB_WORKERS"):
            experiments._worker_count()

    def test_value_above_cpu_count_is_clamped_with_warning(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 3)
        monkeypatch.setenv("IHTLAB_WORKERS", "1000000")
        assert experiments._worker_count() == 3
        assert "IHTLAB_WORKERS=1000000 exceeds 3 CPUs" in capsys.readouterr().err

    def test_valid_value_is_kept(self, monkeypatch, capsys):
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 4)
        monkeypatch.setenv("IHTLAB_WORKERS", " 2 ")
        assert experiments._worker_count() == 2
        monkeypatch.delenv("IHTLAB_WORKERS")
        assert experiments._worker_count() == 1
        assert capsys.readouterr().err == ""

    def test_experiment_reads_worker_count_once(self, monkeypatch, capsys):
        # Clamped to one CPU, so no worker process starts; the warning comes
        # once, when the experiment reads the worker count before its trials.
        monkeypatch.setattr(experiments.os, "cpu_count", lambda: 1)
        monkeypatch.setenv("IHTLAB_WORKERS", "2")
        run_experiment(ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": 20, "k": 3, "overlap": 2, "trials": 5, "master_seed": 3}
        ))
        assert capsys.readouterr().err.count("exceeds 1 CPUs") == 1
