"""Linear-model identification: pivotal product, corrected coefficients."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectrestore import (
    CovStats,
    EffectRestoreError,
    InvalidErrorVarianceError,
    LinearSemSpec,
    UnidentifiableError,
    ValidationError,
    bootstrap_se,
    bootstrap_values,
    c0_error_prone_k,
    c0_from_lambda,
    c0_noiseless,
    c0_two_indicator,
    cov_from_samples,
    lambda_from_error_variance,
    lambda_from_two_indicators,
    simulate_linear,
    surrogate_slope,
)
from effectrestore import linear
from effectrestore.rng import make_rng


def random_spec(rng, *, c0=None, with_v=True, var_ew=None):
    kwargs = {}
    if with_v:
        kwargs = {"c_v": rng.uniform(0.5, 2.0), "var_ev": rng.uniform(0.1, 2.0)}
    return LinearSemSpec(
        c0=rng.uniform(-2.0, 2.0) if c0 is None else c0,
        c1=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        c2=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        c3=rng.uniform(0.5, 2.0) * rng.choice([-1, 1]),
        var_z=rng.uniform(0.5, 2.0),
        var_ex=rng.uniform(0.1, 2.0),
        var_ey=rng.uniform(0.1, 2.0),
        var_ew=rng.uniform(0.1, 2.0) if var_ew is None else var_ew,
        **kwargs,
    )


def scale_w(s: CovStats, a: float) -> CovStats:
    """Moments after replacing W by a*W."""
    kwargs = {}
    if s.has_v:
        kwargs = {
            "var_v": s.var_v,
            "cov_xv": s.cov_xv,
            "cov_yv": s.cov_yv,
            "cov_wv": a * s.cov_wv,
        }
    return CovStats(
        var_x=s.var_x,
        var_y=s.var_y,
        var_w=a * a * s.var_w,
        cov_xy=s.cov_xy,
        cov_xw=a * s.cov_xw,
        cov_yw=a * s.cov_yw,
        n=s.n,
        **kwargs,
    )


class TestCovStats:
    def test_cauchy_schwarz_enforced(self):
        with pytest.raises(ValidationError):
            CovStats(var_x=1.0, var_y=1.0, var_w=1.0, cov_xy=1.5, cov_xw=0.0, cov_yw=0.0)

    def test_negative_variance_rejected(self):
        with pytest.raises(ValidationError):
            CovStats(var_x=-1.0, var_y=1.0, var_w=1.0, cov_xy=0.0, cov_xw=0.0, cov_yw=0.0)

    def test_partial_v_moments_rejected(self):
        with pytest.raises(ValidationError):
            CovStats(
                var_x=1.0, var_y=1.0, var_w=1.0,
                cov_xy=0.0, cov_xw=0.0, cov_yw=0.0,
                var_v=1.0,
            )

    def test_json_roundtrip(self):
        s = CovStats(
            var_x=1.0, var_y=2.0, var_w=3.0, cov_xy=0.5, cov_xw=0.25, cov_yw=0.75, n=10
        )
        back = CovStats.from_json_dict(s.to_json_dict())
        assert back == s

    # the simulate-linear CLI tests cover the linear model's list and missing field
    @pytest.mark.parametrize("cls, doc, message", [
        (CovStats, [1], "covariance-stats JSON: expected an object, got list"),
        (CovStats, {"var_x": 1.0, "var_y": 1.0, "var_w": 1.0, "cov_xy": 0.0, "cov_xw": 0.0},
         "covariance-stats JSON: missing field 'cov_yw'"),
        (CovStats, {"var_x": 1.0, "var_y": 1.0, "var_w": 1.0, "cov_xy": 0.0, "cov_xw": 0.0,
                    "cov_yw": 0.0, "n": 2.5}, "covariance-stats JSON: n must be an integer"),
        (LinearSemSpec, {"c0": 1.0, "c1": 1.0, "c2": 1.0, "c3": [1.0], "var_z": 1.0,
                         "var_ex": 1.0, "var_ey": 1.0, "var_ew": 1.0},
         "linear-model JSON: c3 must be a number, got list"),
        (LinearSemSpec, {"c0": 1.0, "c1": 1.0, "c2": 1.0, "c3": 1.0, "var_z": 10**400,
                         "var_ex": 1.0, "var_ey": 1.0, "var_ew": 1.0},
         "linear-model JSON: int too large to convert to float"),
        (CovStats, {"var_x": True, "var_y": 1.0, "var_w": 1.0, "cov_xy": 0.0, "cov_xw": 0.0,
                    "cov_yw": 0.0}, "covariance-stats JSON: var_x must be a number, got bool"),
        (CovStats, {"var_x": 1.0, "var_y": 1.0, "var_w": 1.0, "cov_xy": 0.0, "cov_xw": 0.0,
                    "cov_yw": 0.0, "n": True}, "covariance-stats JSON: n must be an integer"),
        (LinearSemSpec, {"c0": 1.0, "c1": 1.0, "c2": 1.0, "c3": 1.0, "var_z": 1.0,
                         "var_ex": 1.0, "var_ey": 1.0, "var_ew": 1.0, "c4": 1.0},
         "linear-model JSON: unknown field 'c4'"),
    ])
    def test_malformed_json_names_the_fault(self, cls, doc, message):
        with pytest.raises(ValidationError, match=f"^malformed {message}"):
            cls.from_json_dict(doc)

    def test_moments_beyond_float64_are_refused(self):
        spec = LinearSemSpec(
            c0=0.5, c1=1e200, c2=1.0, c3=1.0, var_z=1.0, var_ex=1.0, var_ey=1.0, var_ew=1.0
        )
        with pytest.raises(ValidationError, match="overflow float64"):
            spec.population_cov()


class TestPathTracing:
    def test_zero_coefficients_disconnect_everything(self):
        spec = LinearSemSpec(
            c0=0.0, c1=0.0, c2=0.0, c3=1.0, var_z=1.0, var_ex=1.0, var_ey=1.0, var_ew=0.5
        )
        pop = spec.population_cov()
        assert pop.cov_xy == 0.0
        assert pop.cov_xw == 0.0
        assert pop.cov_yw == 0.0
        assert pop.var_w == pytest.approx(1.5)

    def test_treatment_outcome_covariance_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            spec = random_spec(rng)
            pop = spec.population_cov()
            assert pop.cov_xy == pytest.approx(
                spec.c0 * pop.var_x + spec.c1 * spec.c2 * spec.var_z, abs=1e-12
            )

    def test_population_matches_large_sample_moments(self):
        # independent route: draw through the structural equations
        rng = np.random.default_rng(2)
        spec = random_spec(rng)
        rows, pop = simulate_linear(spec, 400_000, seed=3)
        sample = cov_from_samples(rows)
        for field in ("var_x", "var_y", "var_w", "cov_xy", "cov_xw", "cov_yw", "cov_wv"):
            a, b = getattr(sample, field), getattr(pop, field)
            assert a == pytest.approx(b, rel=0.03, abs=0.03)


class TestLambda:
    def test_unit_loadings_give_unit_lambda(self):
        spec = LinearSemSpec(
            c0=0.7, c1=1.0, c2=0.5, c3=1.0, var_z=1.0,
            var_ex=0.4, var_ey=0.3, var_ew=0.6, c_v=1.0, var_ev=0.2,
        )
        assert lambda_from_two_indicators(spec.population_cov()) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_identifies_proxy_loading_product(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            spec = random_spec(rng)
            lam = lambda_from_two_indicators(spec.population_cov())
            assert lam == pytest.approx(spec.c3**2 * spec.var_z, rel=1e-10)

    def test_scales_with_squared_units(self):
        rng = np.random.default_rng(4)
        spec = random_spec(rng)
        pop = spec.population_cov()
        scaled = CovStats(
            **{
                k: (v * 4.0 if k != "n" and v is not None else v)
                for k, v in pop.to_json_dict().items()
            }
        )
        assert lambda_from_two_indicators(scaled) == pytest.approx(
            4.0 * lambda_from_two_indicators(pop), rel=1e-12
        )

    def test_sample_estimate_within_three_ses(self):
        rng = np.random.default_rng(5)
        spec = random_spec(rng)
        rows, _ = simulate_linear(spec, 100_000, seed=6)
        lam = lambda_from_two_indicators(cov_from_samples(rows))
        se = bootstrap_se(rows, lambda_from_two_indicators, n_boot=200, seed=7)
        assert abs(lam - spec.c3**2 * spec.var_z) < 3.0 * se

    def test_requires_second_indicator(self):
        rng = np.random.default_rng(8)
        pop = random_spec(rng, with_v=False).population_cov()
        with pytest.raises(ValidationError):
            lambda_from_two_indicators(pop)

    def test_from_error_variance(self):
        assert lambda_from_error_variance(2.0, 0.5) == pytest.approx(1.5)
        assert lambda_from_error_variance(2.0, 0.0) == pytest.approx(2.0)
        with pytest.raises(InvalidErrorVarianceError):
            lambda_from_error_variance(2.0, 2.0)
        with pytest.raises(InvalidErrorVarianceError):
            lambda_from_error_variance(2.0, 2.5)

    def test_constant_proxy_is_a_model_error(self):
        # var_w = 0 leaves any error variance without signal; only a
        # negative or non-finite var_w is malformed input
        for var_ew in (0.0, 0.1):
            with pytest.raises(InvalidErrorVarianceError):
                lambda_from_error_variance(0.0, var_ew)
        for var_w in (-1e-19, np.nan):
            with pytest.raises(ValidationError):
                lambda_from_error_variance(var_w, 0.1)


class TestC0FromLambda:
    def test_null_effect(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec = random_spec(rng, c0=0.0)
            lam = spec.c3**2 * spec.var_z
            assert c0_from_lambda(spec.population_cov(), lam) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_recovers_coefficient_from_population_moments(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            spec = random_spec(rng)
            lam = spec.c3**2 * spec.var_z
            assert c0_from_lambda(spec.population_cov(), lam) == pytest.approx(
                spec.c0, abs=1e-10, rel=1e-10
            )

    def test_noiseless_lambda_matches_partial_regression(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            spec = random_spec(rng)
            pop = spec.population_cov()
            assert c0_from_lambda(pop, pop.var_w) == pytest.approx(
                c0_noiseless(pop), abs=1e-12, rel=1e-12
            )

    def test_invalid_lambda(self):
        rng = np.random.default_rng(12)
        pop = random_spec(rng).population_cov()
        with pytest.raises(ValidationError):
            c0_from_lambda(pop, 0.0)
        with pytest.raises(ValidationError):
            c0_from_lambda(pop, -1.0)

    def test_vanishing_denominator_unidentifiable(self):
        # lam exactly cov^2(XW)/var(X): X fully determined by the proxy signal
        s = CovStats(var_x=1.0, var_y=1.0, var_w=1.0, cov_xy=0.3, cov_xw=0.5, cov_yw=0.2)
        with pytest.raises(UnidentifiableError):
            c0_from_lambda(s, 0.25)


class TestC0TwoIndicator:
    def test_equals_composition(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            pop = random_spec(rng).population_cov()
            composed = c0_from_lambda(pop, lambda_from_two_indicators(pop))
            assert c0_two_indicator(pop) == pytest.approx(composed, abs=1e-12, rel=1e-12)

    def test_null_effect(self):
        rng = np.random.default_rng(14)
        pop = random_spec(rng, c0=0.0).population_cov()
        assert c0_two_indicator(pop) == pytest.approx(0.0, abs=1e-12)

    def test_sample_estimate_within_three_ses(self):
        rng = np.random.default_rng(15)
        spec = random_spec(rng)
        rows, _ = simulate_linear(spec, 100_000, seed=16)
        est = c0_two_indicator(cov_from_samples(rows))
        se = bootstrap_se(rows, c0_two_indicator, n_boot=200, seed=17)
        assert abs(est - spec.c0) < 3.0 * se


class TestC0Noiseless:
    def test_irrelevant_proxy_leaves_plain_slope(self):
        # W independent of X and Y: adjusting for it changes nothing
        rng = np.random.default_rng(18)
        spec = random_spec(rng, with_v=False)
        spec = LinearSemSpec(
            c0=spec.c0, c1=spec.c1, c2=spec.c2, c3=0.0,
            var_z=spec.var_z, var_ex=spec.var_ex, var_ey=spec.var_ey, var_ew=1.0,
        )
        pop = spec.population_cov()
        assert c0_noiseless(pop) == pytest.approx(pop.cov_xy / pop.var_x, abs=1e-12)

    def test_recovers_coefficient_when_proxy_is_noiseless(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            spec = random_spec(rng, with_v=False, var_ew=0.0)
            assert c0_noiseless(spec.population_cov()) == pytest.approx(
                spec.c0, abs=1e-10, rel=1e-10
            )

    def test_collinear_rejected(self):
        s = CovStats(var_x=1.0, var_y=1.0, var_w=1.0, cov_xy=0.3, cov_xw=1.0, cov_yw=0.3)
        with pytest.raises(UnidentifiableError):
            c0_noiseless(s)

    def test_scale_invariance_in_proxy(self):
        rng = np.random.default_rng(20)
        pop = random_spec(rng).population_cov()
        for a in (2.0, -0.5, 10.0):
            assert c0_noiseless(scale_w(pop, a)) == pytest.approx(
                c0_noiseless(pop), rel=1e-12
            )

    def test_plain_adjustment_stays_biased_under_noise(self):
        # no rescaling of a noisy proxy makes plain adjustment unbiased
        spec = LinearSemSpec(
            c0=1.0, c1=1.0, c2=1.0, c3=1.0, var_z=1.0, var_ex=0.5, var_ey=0.5, var_ew=0.5
        )
        pop = spec.population_cov()
        for a in (0.25, 0.5, 1.0, 2.0, 4.0):
            assert abs(c0_noiseless(scale_w(pop, a)) - spec.c0) > 1e-3


class TestC0ErrorProneK:
    @staticmethod
    def betas(s: CovStats):
        return (
            s.cov_xy / s.var_x,
            s.cov_yw / s.var_w,
            s.cov_xw / s.var_x,
            s.cov_xw / s.var_w,
        )

    def test_k_one_is_noiseless_form(self):
        rng = np.random.default_rng(21)
        pop = random_spec(rng).population_cov()
        assert c0_error_prone_k(*self.betas(pop), k=1.0) == pytest.approx(
            c0_noiseless(pop), rel=1e-12
        )

    def test_matches_lambda_route(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            pop = random_spec(rng).population_cov()
            k = rng.uniform(0.2, 1.0)
            assert c0_error_prone_k(*self.betas(pop), k=k) == pytest.approx(
                c0_from_lambda(pop, k * pop.var_w), abs=1e-12, rel=1e-12
            )

    def test_null_effect_with_true_reliability(self):
        rng = np.random.default_rng(23)
        spec = random_spec(rng, c0=0.0)
        pop = spec.population_cov()
        k = 1.0 - spec.var_ew / pop.var_w
        assert c0_error_prone_k(*self.betas(pop), k=k) == pytest.approx(0.0, abs=1e-12)

    def test_k_out_of_range(self):
        with pytest.raises(ValidationError):
            c0_error_prone_k(0.1, 0.1, 0.1, 0.1, k=0.0)
        with pytest.raises(ValidationError):
            c0_error_prone_k(0.1, 0.1, 0.1, 0.1, k=1.5)


class TestSurrogateSlope:
    def test_perfect_proxy(self):
        rng = np.random.default_rng(24)
        spec = random_spec(rng, with_v=False, var_ew=0.0)
        pop = spec.population_cov()
        assert surrogate_slope(pop, pop.var_w) == pytest.approx(1.0)

    def test_forced_ratio(self):
        s = CovStats(var_x=1.0, var_y=1.0, var_w=2.0, cov_xy=0.0, cov_xw=0.0, cov_yw=0.0)
        assert surrogate_slope(s, 1.5) == pytest.approx(0.75)

    def test_equals_reliability_ratio(self):
        rng = np.random.default_rng(25)
        spec = random_spec(rng)
        pop = spec.population_cov()
        lam = lambda_from_error_variance(pop.var_w, spec.var_ew)
        assert surrogate_slope(pop, lam) == pytest.approx(
            1.0 - spec.var_ew / pop.var_w, rel=1e-12
        )


class TestCovFromSamples:
    def test_two_point_moments(self):
        rows = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
        s = cov_from_samples(rows)
        for field in ("var_x", "var_y", "var_w", "cov_xy", "cov_xw", "cov_yw"):
            assert getattr(s, field) == pytest.approx(0.5)
        assert s.n == 2

    def test_constant_column_flagged(self):
        rows = np.column_stack([np.ones(20), np.arange(20.0), np.arange(20.0) ** 2])
        with pytest.warns(RuntimeWarning, match="constant"):
            s = cov_from_samples(rows)
        assert s.var_x == 0.0

    def test_insufficient_rows(self):
        with pytest.raises(ValidationError):
            cov_from_samples(np.array([[1.0, 2.0, 3.0]]))

    def test_four_columns_fill_v_moments(self):
        rng = np.random.default_rng(26)
        rows = rng.normal(size=(100, 4))
        s = cov_from_samples(rows)
        assert s.has_v
        assert s.cov_wv == pytest.approx(np.cov(rows[:, 2], rows[:, 3], ddof=1)[0, 1])


class TestBootstrap:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(27)
        rows = rng.normal(size=(500, 3))
        a = bootstrap_se(rows, lambda s: s.cov_xy, n_boot=50, seed=1)
        b = bootstrap_se(rows, lambda s: s.cov_xy, n_boot=50, seed=1)
        assert a == b
        c = bootstrap_se(rows, lambda s: s.cov_xy, n_boot=50, seed=2)
        assert a != c

    def test_tracks_analytic_standard_error(self):
        # SE of a sample mean-like statistic: var_x has known order 1/sqrt(n)
        rng = np.random.default_rng(28)
        rows = rng.normal(size=(4000, 3))
        se = bootstrap_se(rows, lambda s: s.var_x, n_boot=300, seed=3)
        # var of sample variance of N(0,1) is ~2/n
        assert se == pytest.approx(np.sqrt(2.0 / 4000), rel=0.25)


def loop_bootstrap_values(rows, statistic, n_boot, seed):
    """Reference engine: one resample per iteration, uncentered moments.

    A column whose drawn values are all equal gets exactly zero variance
    and covariances; a model error from the statistic skips the resample.
    """
    arr = np.asarray(rows, dtype=float)
    n, k = arr.shape
    cols = [arr[:, i] for i in range(k)]
    prods = np.stack(
        [cols[i] * cols[j] for i in range(k) for j in range(i, k)], axis=1
    )
    pair_index = {(i, j): m for m, (i, j) in enumerate(
        (i, j) for i in range(k) for j in range(i, k)
    )}
    values = []
    for b in range(n_boot):
        counts = np.bincount(make_rng(seed, b).integers(0, n, size=n), minlength=n)
        cf = counts.astype(float)
        means = cf @ arr / n
        raw = cf @ prods
        cov = np.empty((k, k))
        for (i, j), m in pair_index.items():
            cov[i, j] = cov[j, i] = (raw[m] - n * means[i] * means[j]) / (n - 1)
        for i in np.flatnonzero(np.ptp(arr[counts > 0], axis=0) == 0.0):
            cov[i, :] = cov[:, i] = 0.0
        kwargs: dict = {}
        if k == 4:
            kwargs = {
                "var_v": cov[3, 3], "cov_xv": cov[0, 3],
                "cov_yv": cov[1, 3], "cov_wv": cov[2, 3],
            }
        stats = CovStats(
            var_x=cov[0, 0], var_y=cov[1, 1], var_w=cov[2, 2],
            cov_xy=cov[0, 1], cov_xw=cov[0, 2], cov_yw=cov[1, 2],
            n=n, **kwargs,
        )
        try:
            values.append(statistic(stats))
        except ValidationError:
            raise
        except EffectRestoreError:
            continue
    return np.asarray(values)


def noisy_proxy_rows(n=200):
    """x = 0.5z + e_x, y = 0.3x + 0.4z + e_y, w = 0.3z + e_w: a weak proxy
    whose resampled var(w) often falls below a large error variance."""
    rng = np.random.default_rng(0)
    z, e_x, e_y, e_w = (rng.normal(0.0, 1.0, n) for _ in range(4))
    x = 0.5 * z + e_x
    return np.column_stack([x, 0.3 * x + 0.4 * z + e_y, 0.3 * z + e_w])


def degenerate_proxy_rows(n=40):
    """x ~ N(0, 1), y = x + N(0, 1), and w zero except 1.0 and 0.5 in two
    rows: about one resample in eight draws neither, so its w is constant."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=n)
    w = np.zeros(n)
    w[[3, 17]] = 1.0, 0.5
    return np.column_stack([x, x + rng.normal(size=n), w])


def error_variance_c0(var_ew):
    def statistic(s: CovStats) -> float:
        return c0_from_lambda(s, lambda_from_error_variance(s.var_w, var_ew))
    return statistic


def all_moments(s: CovStats) -> float:
    """A statistic that reads every stored moment."""
    return sum(v for k, v in s.to_json_dict().items() if k != "n")


class TestBootstrapEngine:
    @pytest.mark.parametrize("k", [3, 4])
    def test_matches_per_resample_loop(self, k, monkeypatch):
        # 7 resamples per chunk, 30 resamples: four full chunks and a partial one
        rng = np.random.default_rng(40 + k)
        rows = rng.normal(size=(200, k)) @ rng.normal(size=(k, k))
        monkeypatch.setattr(linear, "_COUNT_CELLS", 7 * 200)
        got = bootstrap_values(rows, all_moments, n_boot=30, seed=9)
        want = loop_bootstrap_values(rows, all_moments, 30, 9)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_default_chunk_with_partial_last_chunk(self):
        # 2**21 // 20_000 = 104 resamples per chunk; 250 is not a multiple
        rng = np.random.default_rng(44)
        spec = random_spec(rng)
        rows, _ = simulate_linear(spec, 20_000, seed=45)
        got = bootstrap_se(rows, c0_two_indicator, n_boot=250, seed=46)
        want = np.std(loop_bootstrap_values(rows, c0_two_indicator, 250, 46), ddof=1)
        assert got == pytest.approx(want, rel=1e-12)

    def test_undefined_resamples_are_skipped_like_the_loop(self):
        rng = np.random.default_rng(47)
        rows = rng.normal(size=(300, 3))
        ref = np.sort(loop_bootstrap_values(rows, lambda s: s.cov_xy, 60, 5))
        cut = 0.5 * (ref[40] + ref[41])  # between two resamples: 19 of 60 undefined

        def statistic(s):
            if s.cov_xy > cut:
                raise UnidentifiableError("above the cut")
            return s.var_x / s.var_y

        got = bootstrap_values(rows, statistic, n_boot=60, seed=5)
        want = loop_bootstrap_values(rows, statistic, 60, 5)
        assert len(got) == len(want) == 41
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert bootstrap_se(rows, statistic, n_boot=60, seed=5) == pytest.approx(
            np.std(want, ddof=1), rel=1e-12
        )

    def test_mostly_undefined_raises_with_counts(self):
        rng = np.random.default_rng(48)
        rows = rng.normal(size=(300, 3))
        ref = np.sort(loop_bootstrap_values(rows, lambda s: s.cov_xy, 60, 5))
        cut = 0.5 * (ref[28] + ref[29])  # 29 of 60 defined: fewer than half

        def statistic(s):
            if s.cov_xy > cut:
                raise UnidentifiableError("above the cut")
            return s.cov_xy

        with pytest.raises(UnidentifiableError, match=r"used 29/60"):
            bootstrap_se(rows, statistic, n_boot=60, seed=5)

    def test_any_model_error_is_undefined_but_validation_errors_propagate(self):
        # the table engine's rule: an invalid error variance on a resample
        # skips it, like an unidentified coefficient would
        rows = noisy_proxy_rows()
        var_ew = 0.8 * np.var(rows[:, 2], ddof=1)

        def statistic(s):
            return c0_from_lambda(s, lambda_from_error_variance(s.var_w, var_ew))

        assert len(bootstrap_values(rows, statistic, n_boot=200, seed=0)) == 195

        def invalid(s):
            raise ValidationError("bad statistic")

        with pytest.raises(ValidationError, match="bad statistic"):
            bootstrap_values(rows, invalid, n_boot=10, seed=0)

    def test_constant_resampled_column_has_exactly_zero_moments(self):
        # rounding noise of either sign used to reach CovStats, which rejected
        # a negative variance as malformed input and stopped the bootstrap
        rows = degenerate_proxy_rows()

        def w_moments(s):
            return s.var_w, s.cov_xw, s.cov_yw

        got = bootstrap_values(rows, w_moments, n_boot=200, seed=0)
        want = loop_bootstrap_values(rows, w_moments, 200, 0)
        flat = (want == 0.0).all(axis=1)
        assert 0 < flat.sum() < 200
        np.testing.assert_array_equal((got == 0.0).all(axis=1), flat)
        np.testing.assert_allclose(got[~flat], want[~flat], rtol=1e-9)

    def test_constant_resampled_proxy_is_undefined_like_the_loop(self):
        rows = degenerate_proxy_rows()
        statistic = error_variance_c0(0.001)
        got = bootstrap_values(rows, statistic, n_boot=200, seed=0)
        want = loop_bootstrap_values(rows, statistic, 200, 0)
        assert len(got) == len(want) < 200
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_too_few_rows_rejected(self):
        rows = np.random.default_rng(49).normal(size=(9, 3))
        with pytest.raises(ValidationError, match="at least 10 rows"):
            bootstrap_se(rows, lambda s: s.cov_xy, n_boot=50, seed=1)
        with pytest.raises(ValidationError, match="n_boot"):
            bootstrap_se(np.vstack([rows, rows]), lambda s: s.cov_xy, n_boot=1)

    def test_large_means_do_not_cancel(self):
        # columns shifted by 1e6: the uncentered formula subtracts two ~n*1e12
        # terms, the centered engine never forms them
        rng = np.random.default_rng(50)
        n = 2000
        rows = rng.normal(size=(n, 3)) + 1e6
        got = bootstrap_values(rows, lambda s: s.cov_xy, n_boot=20, seed=3)
        old = loop_bootstrap_values(rows, lambda s: s.cov_xy, 20, 3)
        exact = np.array([
            np.cov(rows[make_rng(3, b).integers(0, n, size=n)].T)[0, 1] for b in range(20)
        ])
        err_new = np.abs(got - exact).max()
        err_old = np.abs(old - exact).max()
        assert err_new < 1e-12
        assert err_new * 1e3 < err_old


def serial_bootstrap_values(rows, statistic, n_boot, seed, per_chunk):
    """Reference engine: the chunked count-matrix bootstrap with its counts
    drawn one resample after another on the calling thread, ``per_chunk``
    resamples per matrix product.  A model error from the statistic skips
    the resample; fewer than two or than half kept is unidentifiable."""
    arr = np.asarray(rows, dtype=float)
    n, k = arr.shape
    pairs = [(i, j) for i in range(k) for j in range(i, k)]
    fields = [f"var_{'xywv'[i]}" if i == j else f"cov_{'xywv'[i]}{'xywv'[j]}" for i, j in pairs]
    left, right = (np.array(side) for side in zip(*pairs))
    diag = [pairs.index((i, i)) for i in range(k)]
    centered = arr - arr.mean(axis=0)
    stacked = np.column_stack([centered, centered[:, left] * centered[:, right]])
    counts = np.empty((min(n_boot, per_chunk), n))

    def resamples():
        for start in range(0, n_boot, counts.shape[0]):
            block = counts[: min(counts.shape[0], n_boot - start)]
            for r in range(block.shape[0]):
                block[r] = np.bincount(
                    make_rng(seed, start + r).integers(0, n, size=n), minlength=n
                )
            sums = block @ stacked
            mean = sums[:, :k] / n
            cov = (sums[:, k:] - n * mean[:, left] * mean[:, right]) / (n - 1)
            constant = cov[:, diag] * (n - 1) <= linear.TOL_DEN * sums[:, k:][:, diag]
            cov[constant[:, left] | constant[:, right]] = 0.0
            for moments in cov.tolist():
                yield CovStats(**dict(zip(fields, moments)), n=n)

    values = []
    for resample in resamples():
        try:
            values.append(statistic(resample))
        except ValidationError:
            raise
        except EffectRestoreError:
            continue
    used = len(values)
    if used < 2 or 2 * used < n_boot:
        raise UnidentifiableError(
            f"statistic undefined on {n_boot - used} of {n_boot} bootstrap resamples "
            f"(used {used}/{n_boot}); its standard error is not estimable"
        )
    return np.asarray(values, dtype=float)


def outcome(engine):
    """The values an engine returns, or the type and text of what it raises."""
    try:
        return engine()
    except EffectRestoreError as exc:
        return type(exc), str(exc)


class RecordingGenerator:
    """A resample generator that records the thread drawing from it and can
    be told to fail there.  It keeps the thread object: a finished thread's
    ident may be reused by the next one."""

    def __init__(self, gen, b, drawn, fail_at):
        self.gen, self.b, self.drawn, self.fail_at = gen, b, drawn, fail_at

    def integers(self, *args, **kwargs):
        self.drawn[self.b] = threading.current_thread()
        if self.b == self.fail_at:
            raise MemoryError(f"draw of resample {self.b} failed")
        return self.gen.integers(*args, **kwargs)


def recording_rng(drawn, fail_at=None):
    return lambda seed, b: RecordingGenerator(make_rng(seed, b), b, drawn, fail_at)


class TestThreadedCountFill:
    """The counts of a chunk are drawn on several threads; the values must be
    the serial engine's bits whatever the number of threads."""

    @settings(max_examples=120, deadline=None)
    @given(
        n=st.integers(10, 300),
        n_boot=st.integers(2, 130),
        k=st.sampled_from([3, 4]),
        per_chunk=st.integers(1, 40),
        workers=st.sampled_from([1, 2, 3, 131]),
        data_seed=st.integers(0, 2**32 - 1),
        undefined=st.floats(0.0, 0.8),
    )
    def test_matches_serial_engine(self, n, n_boot, k, per_chunk, workers, data_seed, undefined):
        rng = np.random.default_rng(data_seed)
        rows = rng.normal(size=(n, k)) @ rng.normal(size=(k, k))
        ref = np.sort(serial_bootstrap_values(rows, lambda s: s.cov_xy, n_boot, 3, n_boot))
        cut = ref[min(n_boot - 1, int((1.0 - undefined) * n_boot))]

        def statistic(s):
            if s.cov_xy > cut:
                raise UnidentifiableError("above the cut")
            return all_moments(s)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linear, "_COUNT_CELLS", per_chunk * n)
            mp.setattr(linear, "_fill_workers", lambda: workers)
            got = outcome(lambda: bootstrap_values(rows, statistic, n_boot=n_boot, seed=3))
        want = outcome(lambda: serial_bootstrap_values(
            rows, statistic, n_boot, 3, max(workers, per_chunk)
        ))
        if isinstance(want, tuple):
            assert got == want
            assert want[0] is UnidentifiableError and "used " in want[1]
        else:
            assert isinstance(got, np.ndarray) and np.array_equal(got, want)

    def test_default_chunk_is_the_serial_engine(self):
        rng = np.random.default_rng(51)
        rows, _ = simulate_linear(random_spec(rng), 20_000, seed=52)
        got = bootstrap_values(rows, c0_two_indicator, n_boot=250, seed=53)
        per_chunk = max(linear._fill_workers(), linear._COUNT_CELLS // 20_000)
        want = serial_bootstrap_values(rows, c0_two_indicator, 250, 53, per_chunk)
        assert np.array_equal(got, want)

    def test_skipped_resamples_match(self):
        rows = noisy_proxy_rows()
        statistic = error_variance_c0(0.8 * np.var(rows[:, 2], ddof=1))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linear, "_COUNT_CELLS", 9 * 200)
            mp.setattr(linear, "_fill_workers", lambda: 2)
            got = bootstrap_values(rows, statistic, n_boot=200, seed=0)
        want = serial_bootstrap_values(rows, statistic, 200, 0, 9)
        assert len(got) == 195
        assert np.array_equal(got, want)

    def test_validation_error_from_the_statistic_propagates(self):
        before = threading.active_count()

        def invalid(s):
            raise ValidationError("bad statistic")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linear, "_fill_workers", lambda: 3)
            with pytest.raises(ValidationError, match="bad statistic"):
                bootstrap_values(noisy_proxy_rows(), invalid, n_boot=10, seed=0)
        assert threading.active_count() == before

    @pytest.mark.parametrize("fail_at", [0, 5], ids=["calling-thread", "fill-thread"])
    def test_fault_in_a_fill_thread_reaches_the_caller(self, fail_at):
        # 6 resamples in one chunk on 3 threads: rows 0-1 on the calling
        # thread, rows 4-5 on the last new thread
        drawn: dict = {}
        before = threading.active_count()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linear, "make_rng", recording_rng(drawn, fail_at))
            mp.setattr(linear, "_fill_workers", lambda: 3)
            with pytest.raises(MemoryError, match=f"resample {fail_at} failed"):
                bootstrap_values(noisy_proxy_rows(), all_moments, n_boot=6, seed=0)
        assert threading.active_count() == before
        assert (drawn[fail_at] is threading.current_thread()) == (fail_at == 0)

    def test_many_threads_switching_often(self):
        # 16 threads on 2-row slices, switching every microsecond: a row
        # written twice or missed would change the values
        rows = noisy_proxy_rows(50)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(linear, "_COUNT_CELLS", 32 * 50)
                mp.setattr(linear, "_fill_workers", lambda: 16)
                got = bootstrap_values(rows, all_moments, n_boot=130, seed=4)
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, serial_bootstrap_values(rows, all_moments, 130, 4, 32))

    def test_wide_rows_give_every_worker_a_row(self):
        # 100 cells hold 2 resamples of n = 40: the buffer still takes one
        # row per worker, so each of 3 threads draws one of each chunk's 3
        rows = degenerate_proxy_rows()
        drawn: dict = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linear, "_COUNT_CELLS", 100)
            mp.setattr(linear, "make_rng", recording_rng(drawn))
            mp.setattr(linear, "_fill_workers", lambda: 3)
            got = bootstrap_values(rows, all_moments, n_boot=7, seed=0)
        chunks = [range(0, 3), range(3, 6), range(6, 7)]
        assert [len({drawn[b] for b in chunk}) for chunk in chunks] == [3, 3, 1]
        assert all(drawn[b] is threading.current_thread() for b in (0, 3, 6))
        assert np.array_equal(got, serial_bootstrap_values(rows, all_moments, 7, 0, 3))
