"""Surrogate independence tests: residuals, tetrad form, two-stage test."""

import numpy as np
import pytest

from effectrestore import (
    CovStats,
    LinearSemSpec,
    TestResult,
    UnidentifiableError,
    ValidationError,
    lambda_from_two_indicators,
    simulate_linear,
    tetrad_residual,
    tetrad_test,
    theorem1_residual,
    theorem1_test,
    two_stage_test,
)


def make_spec(rng, *, c0=0.0, with_v=False, var_ew=None):
    kwargs = {}
    if with_v:
        kwargs = {"c_v": rng.uniform(0.5, 2.0), "var_ev": rng.uniform(0.1, 1.0)}
    return LinearSemSpec(
        c0=c0,
        c1=rng.uniform(0.5, 1.5) * rng.choice([-1, 1]),
        c2=rng.uniform(0.5, 1.5) * rng.choice([-1, 1]),
        c3=rng.uniform(0.5, 1.5) * rng.choice([-1, 1]),
        var_z=rng.uniform(0.5, 1.5),
        var_ex=rng.uniform(0.2, 1.0),
        var_ey=rng.uniform(0.2, 1.0),
        var_ew=rng.uniform(0.2, 1.0) if var_ew is None else var_ew,
        **kwargs,
    )


def near_degenerate_regressor_rows(n=2000):
    """Rows (x, y, w) with w = x + 1e-5 e, and alpha = cov(x, w): the
    fictitious regressor X - (cov(XW)/alpha) W keeps a relative variance of
    about 5e-11."""
    x, y, e = np.random.default_rng(19).normal(size=(3, n))
    w = x + 1e-5 * e
    return np.column_stack([x, y, w]), float(np.cov(x, w)[0, 1])


class TestTheorem1Residual:
    def test_null_population_residual_vanishes(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = make_spec(rng, c0=0.0)
            lam = spec.c3**2 * spec.var_z
            assert theorem1_residual(spec.population_cov(), lam) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_nonnull_residual_is_effect_times_positive_factor(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c0 = rng.uniform(0.2, 2.0) * rng.choice([-1, 1])
            spec = make_spec(rng, c0=c0)
            pop = spec.population_cov()
            lam = spec.c3**2 * spec.var_z
            expected = c0 * (pop.var_x - pop.cov_xw**2 / lam)
            assert theorem1_residual(pop, lam) == pytest.approx(expected, rel=1e-10)
            assert theorem1_residual(pop, lam) == pytest.approx(
                c0 * spec.var_ex, rel=1e-10
            )

    def test_error_variance_substitution(self):
        from effectrestore import lambda_from_error_variance

        rng = np.random.default_rng(3)
        spec = make_spec(rng, c0=0.0)
        pop = spec.population_cov()
        lam = lambda_from_error_variance(pop.var_w, spec.var_ew)
        assert theorem1_residual(pop, lam) == pytest.approx(0.0, abs=1e-12)

    def test_nonpositive_lambda_rejected(self):
        s = CovStats(var_x=1.0, var_y=1.0, var_w=1.0, cov_xy=0.1, cov_xw=0.1, cov_yw=0.1)
        with pytest.raises(ValidationError):
            theorem1_residual(s, 0.0)
        with pytest.raises(ValidationError):
            theorem1_residual(s, -0.5)


class TestTetradResidual:
    def test_null_population_residual_vanishes(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            spec = make_spec(rng, c0=0.0, with_v=True)
            assert tetrad_residual(spec.population_cov()) == pytest.approx(0.0, abs=1e-12)

    def test_equals_theorem1_with_two_indicator_lambda(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            spec = make_spec(rng, c0=rng.uniform(-1.5, 1.5), with_v=True)
            pop = spec.population_cov()
            lam = lambda_from_two_indicators(pop)
            assert tetrad_residual(pop) == pytest.approx(
                theorem1_residual(pop, lam), abs=1e-12, rel=1e-12
            )

    def test_sign_follows_effect(self):
        rng = np.random.default_rng(6)
        for c0 in (-1.0, -0.3, 0.4, 1.2):
            spec = make_spec(rng, c0=c0, with_v=True)
            assert np.sign(tetrad_residual(spec.population_cov())) == np.sign(c0)

    def test_requires_second_indicator(self):
        rng = np.random.default_rng(7)
        with pytest.raises(ValidationError):
            tetrad_residual(make_spec(rng).population_cov())


class TestTwoStage:
    def test_population_identity_under_null(self):
        # the fitted coefficient targets cov(Y, X - W cov(XW)/alpha)/var(V),
        # whose numerator is exactly the theorem1 residual
        rng = np.random.default_rng(8)
        spec = make_spec(rng, c0=0.0)
        pop = spec.population_cov()
        alpha = spec.c3**2 * spec.var_z
        numerator = pop.cov_xy - pop.cov_xw * pop.cov_yw / alpha
        assert numerator == pytest.approx(theorem1_residual(pop, alpha), abs=1e-15)
        assert numerator == pytest.approx(0.0, abs=1e-12)

    def test_null_acceptance_and_estimate(self):
        rng = np.random.default_rng(9)
        spec = make_spec(rng, c0=0.0)
        alpha = spec.c3**2 * spec.var_z
        rows, _ = simulate_linear(spec, 20_000, seed=10)
        result = two_stage_test(rows, alpha)
        assert result.method == "two_stage"
        assert abs(result.statistic) < 4.0 * result.stderr
        assert result.decision == "accept"

    def test_rejection_rate_near_level(self):
        rng = np.random.default_rng(11)
        spec = make_spec(rng, c0=0.0, var_ew=0.0)  # noiseless proxy, W = c3 Z
        alpha = spec.c3**2 * spec.var_z
        rejections = 0
        reps = 200
        for r in range(reps):
            rows, _ = simulate_linear(spec, 2000, seed=1000 + r)
            if two_stage_test(rows, alpha).decision == "reject":
                rejections += 1
        assert 0.02 <= rejections / reps <= 0.09

    def test_power_against_real_effect(self):
        rng = np.random.default_rng(12)
        spec = make_spec(rng, c0=1.0)
        alpha = spec.c3**2 * spec.var_z
        rows, _ = simulate_linear(spec, 5000, seed=13)
        assert two_stage_test(rows, alpha).decision == "reject"

    def test_misspecified_alpha_shifts_the_population_target(self):
        # doubling alpha on a confounded null model leaves a nonzero target
        rng = np.random.default_rng(14)
        spec = make_spec(rng, c0=0.0)
        pop = spec.population_cov()
        alpha = spec.c3**2 * spec.var_z
        wrong = 2.0 * alpha
        assert abs(theorem1_residual(pop, wrong)) > 1e-3
        means = []
        for r in range(50):
            rows, _ = simulate_linear(spec, 5000, seed=2000 + r)
            means.append(two_stage_test(rows, wrong).statistic)
        sem = np.std(means, ddof=1) / np.sqrt(len(means))
        assert abs(np.mean(means)) > 5.0 * sem

    def test_scale_invariance_of_decision(self):
        rng = np.random.default_rng(15)
        spec = make_spec(rng, c0=0.0)
        alpha = spec.c3**2 * spec.var_z
        rows, _ = simulate_linear(spec, 5000, seed=16)
        base = two_stage_test(rows, alpha)
        sx, sy, sw = 2.0, 3.0, 0.5
        scaled_rows = rows * np.array([sx, sy, sw])
        scaled = two_stage_test(scaled_rows, alpha * sw * sw)
        assert scaled.p_value == pytest.approx(base.p_value, abs=1e-10)
        assert scaled.statistic == pytest.approx(base.statistic * sy / sx, rel=1e-10)

    def test_degenerate_regressor_rejected(self):
        rng = np.random.default_rng(17)
        w = rng.normal(size=200)
        y = rng.normal(size=200)
        rows = np.column_stack([w, y, w])  # X == W exactly
        alpha = float(np.var(w, ddof=1))
        with pytest.raises(UnidentifiableError):
            two_stage_test(rows, alpha)

    def test_near_degenerate_regressor_rejected(self):
        # between the 1e-12 relative cut this test had of its own and
        # linear.TOL_DEN, which _check_den applies: with it the test accepted
        # the missing edge on a standard error of the order of 1e6
        rows, alpha = near_degenerate_regressor_rows()
        x, w = rows[:, 0], rows[:, 2]
        v = (x - x.mean()) - (w - w.mean())  # alpha is cov(x, w)
        scale = float(np.var(x, ddof=1) + np.var(w, ddof=1))
        assert 1e-12 < float(np.var(v, ddof=1)) / scale < 1e-9
        with pytest.raises(UnidentifiableError, match=r"^var\(X - .* vanishes"):
            two_stage_test(rows, alpha)

    def test_input_contracts(self):
        rows = np.zeros((5, 3))
        with pytest.raises(ValidationError):
            two_stage_test(rows, 1.0)  # too few rows
        rng = np.random.default_rng(18)
        rows = rng.normal(size=(50, 3))
        with pytest.raises(ValidationError):
            two_stage_test(rows, -1.0)
        with pytest.raises(ValidationError):
            two_stage_test(rows, 1.0, level=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rows_refused(self, bad):
        # refused before any moment is formed, as theorem1 and tetrad refuse
        # them through CovStats: a NaN statistic must not read as p = 0
        rows = np.random.default_rng(18).normal(size=(50, 3))
        rows[7, 2] = bad
        with pytest.raises(ValidationError, match="^rows must be finite$"):
            two_stage_test(rows, 1.0)


class TestResultContracts:
    def test_decision_consistency_enforced(self):
        # the decision is derived from p_value and level, never passed in
        for p_value, decision in ((0.5, "accept"), (0.05, "accept"), (0.049, "reject")):
            result = TestResult(method="two_stage", statistic=1.0, stderr=1.0,
                                p_value=p_value, level=0.05)
            assert result.decision == decision
        with pytest.raises(TypeError):
            TestResult(method="two_stage", statistic=1.0, stderr=1.0,
                       p_value=0.5, level=0.05, decision="reject")
        with pytest.raises(ValidationError):
            TestResult(
                method="two_stage", statistic=1.0, stderr=1.0,
                p_value=1.5, level=0.05,
            )

    def test_json_document(self):
        rng = np.random.default_rng(19)
        spec = make_spec(rng, c0=0.0)
        rows, _ = simulate_linear(spec, 1000, seed=20)
        doc = two_stage_test(rows, spec.c3**2 * spec.var_z, level=0.1).to_json_dict()
        assert set(doc) == {"method", "statistic", "stderr", "p_value", "level", "decision"}
        assert doc["level"] == 0.1


class TestSampleResidualTests:
    def test_theorem1_accepts_null(self):
        rng = np.random.default_rng(21)
        spec = make_spec(rng, c0=0.0)
        lam = spec.c3**2 * spec.var_z
        rows, _ = simulate_linear(spec, 20_000, seed=22)
        result = theorem1_test(rows, lam, n_boot=200, seed=23)
        assert result.method == "theorem1"
        assert result.decision == "accept"

    def test_theorem1_rejects_strong_effect(self):
        rng = np.random.default_rng(24)
        spec = make_spec(rng, c0=1.5)
        lam = spec.c3**2 * spec.var_z
        rows, _ = simulate_linear(spec, 20_000, seed=25)
        assert theorem1_test(rows, lam, n_boot=200, seed=26).decision == "reject"

    def test_tetrad_accepts_null_and_rejects_effect(self):
        rng = np.random.default_rng(27)
        null_spec = make_spec(rng, c0=0.0, with_v=True)
        rows, _ = simulate_linear(null_spec, 20_000, seed=28)
        assert tetrad_test(rows, n_boot=200, seed=29).decision == "accept"
        alt_spec = make_spec(rng, c0=1.5, with_v=True)
        rows, _ = simulate_linear(alt_spec, 20_000, seed=30)
        assert tetrad_test(rows, n_boot=200, seed=31).decision == "reject"
