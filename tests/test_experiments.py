import json
import math
import os
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ihtlab.asymptotics import chi2_cdf
from ihtlab.core import RngSpec, SupportSet, sample_gaussian_matrix, sample_instance, sample_noise
from ihtlab.errors import ConfigError
from ihtlab import experiments
from ihtlab.experiments import (
    ExperimentConfig,
    fifty_percent_contour,
    ks_critical_value,
    ks_statistic,
    ks_two_sample,
    mc_distribution_check,
    mc_error_vs_xi,
    mc_recovery_transition,
    read_config,
    run_experiment,
    wilson_interval,
)
from ihtlab.solvers import SolverConfig, run_solver
from ihtlab.stablepoint import stable_condition_terms


def _chunk(config, z, z_ray, trials):
    """A distribution chunk task with the stream 1 and 2 keys of its trials."""
    keys = [RngSpec(config.master_seed, s).substream_keys(0, trials) for s in (1, 2)]
    return config, z, z_ray, trials, np.stack(keys, axis=1)


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
        with pytest.raises(ConfigError, match="unknown experiment kind"):
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
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 40, "delta_grid": [0.5], "rho_grid": [0.1],
             "trials": 5, "master_seed": 0, "solver": {"variant": "iht", "alpha": 0.6, "lr": 1}}
        )
        with pytest.raises(ConfigError, match="unknown solver keys"):
            config.solver_config()

    def test_unhashable_kind_rejected(self):
        with pytest.raises(ConfigError, match="unknown experiment kind"):
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
CONFIG_KEYS = sorted(set().union(*(r | o for r, o in experiments._FIELD_SETS.values())) - {"kind"}) + ["bogus"]
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
    return mc_distribution_check(config)


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
        [row], _ = experiments._distribution_trial(_chunk(config, z, np.ones(k), range(1)))
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
        assert math.sqrt(row["f_sample"]) * z_norm == pytest.approx(terms.lhs_signal, rel=1e-12)
        assert row["lhs_42"] * z_norm == pytest.approx(terms.rhs_signal, rel=1e-12)
        assert math.sqrt(row["g_sample"]) * sigma == pytest.approx(terms.lhs_noise, rel=1e-12)
        assert math.sqrt(row["lhs_44_sq"]) == pytest.approx(terms.rhs_noise, rel=1e-12)

    def test_coupled_bounds_match_projector_oracle(self):
        # One draw against explicit projections through lstsq: D holds the
        # difference columns off range(A_gamma) and P_D e is e projected onto
        # range(D), so ||P_D e||^2 gives t_sample and ||D^T P_D e||^2 rhs_44_sq.
        n, k, r, sigma = 40, 6, 3, 0.9
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": n, "k": k, "overlap": r,
             "trials": 1, "master_seed": 23, "sigma": sigma}
        )
        [row], _ = experiments._distribution_trial(_chunk(config, np.array([1.0, -0.4, 0.7]), np.ones(k), range(1)))
        gen = RngSpec(23, 1).substream(0, 0)
        A = sample_gaussian_matrix(n, k + r, gen)
        e = sample_noise(n, sigma, gen)
        A_gamma, A_diff = A[:, :k], A[:, k:]
        D = A_diff - A_gamma @ np.linalg.lstsq(A_gamma, A_diff, rcond=None)[0]
        projected = D @ np.linalg.lstsq(D, e, rcond=None)[0]
        h_norm2 = float(projected @ projected)
        rhs_44_sq = float(np.sum((D.T @ projected) ** 2))
        assert row["rhs_44_sq"] == pytest.approx(rhs_44_sq, rel=1e-12)
        assert row["s_sample"] == pytest.approx(rhs_44_sq / h_norm2 * n / (n - k), rel=1e-12)
        assert row["t_sample"] == pytest.approx(h_norm2 * n / sigma**2, rel=1e-12)
        assert row["viol_43"] is False and row["viol_44"] is False

    @pytest.mark.parametrize("sigma", [0.0, 0.8])
    def test_rows_independent_of_chunking(self, sigma):
        # Chunks of one, of the module chunk size with a ragged last chunk,
        # and one chunk of all trials give equal rows and Rayleigh quotients.
        trials = 2 * experiments.DISTRIBUTION_CHUNK + 5
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": 30, "k": 4, "overlap": 2,
             "trials": trials, "master_seed": 17, "sigma": sigma}
        )
        z, z_ray = np.array([0.6, -1.1]), np.array([1.0, -0.5, 0.25, 2.0])

        def run(size):
            chunks = [experiments._distribution_trial(_chunk(config, z, z_ray, range(t, min(t + size, trials))))
                      for t in range(0, trials, size)]
            rows = [row for chunk, _ in chunks for row in chunk]
            return rows, [np.concatenate(column).tolist() for column in zip(*(ray for _, ray in chunks))]

        rows, rayleigh = run(experiments.DISTRIBUTION_CHUNK)
        assert [row["trial"] for row in rows] == list(range(trials))
        assert len(rayleigh) == 4 and all(len(column) == trials for column in rayleigh)
        for size in (1, trials):
            assert run(size) == (rows, rayleigh)

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
        assert mc_distribution_check(config).summary["trials"] == 2000
        assert built == [(0, 0)]  # stream 0, for the run's shared vectors

    def test_noiseless_config_skips_noise_terms(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_distribution", "n": 40, "k": 4, "overlap": 2,
             "trials": 50, "master_seed": 1, "sigma": 0.0}
        )
        summary = mc_distribution_check(config).summary
        assert "ks_g_noise" not in summary
        assert summary["violations_42"] == 0


class TestRecoveryTransition:
    def test_success_profile_and_contour(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 50, "delta_grid": [0.5],
             "rho_grid": [0.04, 0.2, 0.44], "trials": 25, "master_seed": 5,
             "solver": {"variant": "iht", "alpha": 0.65, "max_iters": 800}}
        )
        result = mc_recovery_transition(config)
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
        result = mc_recovery_transition(config)
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
        result = mc_recovery_transition(config)
        for entry in result.summary["contour_50"]:
            assert entry["rho_50"] is not None
            assert entry["rho_50"] > rho_hat_iht(entry["delta"], provider).rho_hat

    def test_invalid_cells_marked(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_transition", "n": 20, "delta_grid": [0.5],
             "rho_grid": [0.04, 0.6], "trials": 5, "master_seed": 5,
             "solver": {"variant": "iht", "alpha": 0.5, "max_iters": 100}}
        )
        result = mc_recovery_transition(config)
        invalid = [c for c in result.cells if not c["valid"]]
        assert invalid and invalid[0]["success_rate"] is None


class TestErrorVsXi:
    def test_compliance_at_low_rho(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 30, "master_seed": 6,
             "solver": {"variant": "iht", "max_iters": 3000}}
        )
        result = mc_error_vs_xi(config)
        assert result.summary["included"] >= 28
        assert result.summary["compliance_rate"] >= 0.95
        assert result.summary["xi"] > 0

    def test_zero_noise_uses_solver_tolerance(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
             "sigma": 0.0, "trials": 10, "master_seed": 7,
             "solver": {"variant": "iht", "max_iters": 3000}}
        )
        result = mc_error_vs_xi(config)
        assert result.summary["error_bound"] == 1e-6
        assert result.summary["compliance_rate"] == 1.0

    def test_niht_variant(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 15, "master_seed": 8,
             "solver": {"variant": "niht", "max_iters": 3000}}
        )
        result = mc_error_vs_xi(config)
        assert result.summary["compliance_rate"] >= 0.9

    def test_sigma_scaling_of_errors(self):
        summaries = []
        for sigma in (0.1, 0.2):
            config = ExperimentConfig.from_dict(
                {"kind": "mc_error_vs_xi", "n": 200, "delta": 0.5, "rho": 0.004,
                 "sigma": sigma, "trials": 40, "master_seed": 9,
                 "solver": {"variant": "iht", "max_iters": 3000}}
            )
            summaries.append(mc_error_vs_xi(config).summary)
        ratio = summaries[1]["error_q50"] / summaries[0]["error_q50"]
        assert 1.5 <= ratio <= 2.5
        assert summaries[1]["error_bound"] == pytest.approx(2 * summaries[0]["error_bound"])

    def test_unknown_solver_variant_is_config_error(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 5, "master_seed": 10,
             "solver": {"variant": "cosamp", "max_iters": 100}}
        )
        with pytest.raises(ConfigError, match="unknown solver variant 'cosamp'"):
            mc_error_vs_xi(config)

    def test_stability_undefined_is_config_error(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.4,
             "sigma": 0.1, "trials": 5, "master_seed": 10,
             "solver": {"variant": "iht", "max_iters": 100}}
        )
        with pytest.raises(ConfigError):
            mc_error_vs_xi(config)

    def test_alpha_outside_interval_rejected(self):
        config = ExperimentConfig.from_dict(
            {"kind": "mc_error_vs_xi", "n": 100, "delta": 0.5, "rho": 0.004,
             "sigma": 0.1, "trials": 5, "master_seed": 11,
             "solver": {"variant": "iht", "alpha": 0.99, "max_iters": 100}}
        )
        with pytest.raises(ConfigError):
            mc_error_vs_xi(config)


STACKING_CONFIGS = {
    # Cells at rho = 0.3 diverge at alpha 0.65; one trial overflows before
    # max_iters and leaves its stack early.
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
    # columns as one stack give equal rows, error column included.
    config = ExperimentConfig.from_dict(STACKING_CONFIGS[name])

    def rows(stack_bytes):
        monkeypatch.setattr(experiments, "SOLVER_STACK_BYTES", stack_bytes)
        return run_experiment(config).trial_rows

    expected = rows(1)
    assert [row["trial"] for row in expected][:3] == [0, 1, 2]
    for stack_bytes in (experiments.SOLVER_STACK_BYTES, 1 << 40):
        assert rows(stack_bytes) == expected
    if name == "iht_diverging":
        diverged = [row for row in expected if row["termination"] == "max_iters"]
        assert any(row["iterations"] < 1300 for row in diverged)
        assert any(row["error"] is None for row in diverged)
        assert any(row["error"] is not None for row in diverged)
    if name == "niht_shrinking":
        # The trial (cell 1, trial 0) takes shrinkage steps.
        N, k = experiments._cell_shape(40, 0.5, 0.3)
        instance = sample_instance(40, N, k, 0.0, RngSpec(1, 3).substream(1, 0))
        assert any(rec.used_shrinkage for rec in run_solver(instance, config.solver_config()).iterates)


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
    mc_distribution_check(config)
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
