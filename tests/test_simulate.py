"""Simulator: model validation, analytic oracles, determinism, convergence."""

import numpy as np
import pytest

from effectrestore import (
    BinaryErrorParams,
    DiscreteModelSpec,
    ErrorMatrix,
    LinearSemSpec,
    ValidationError,
    binary_spec,
    cov_from_samples,
    empirical_joint,
    naive_effect,
    simulate_discrete,
    simulate_linear,
)
from effectrestore.rng import make_rng


def example_spec():
    return binary_spec(
        0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], BinaryErrorParams(0.2, 0.1)
    )


class TestDiscreteModelSpec:
    def test_conditionals_must_be_distributions(self):
        with pytest.raises(ValidationError):
            DiscreteModelSpec(
                p_z=np.array([0.5, 0.4]),
                p_x_given_z=np.array([[0.5, 0.5], [0.5, 0.5]]),
                p_y_given_xz=np.full((2, 2, 2), 0.5),
                error=ErrorMatrix.identity(2),
            )
        with pytest.raises(ValidationError):
            DiscreteModelSpec(
                p_z=np.array([0.5, 0.5]),
                p_x_given_z=np.array([[0.7, 0.5], [0.5, 0.5]]),
                p_y_given_xz=np.full((2, 2, 2), 0.5),
                error=ErrorMatrix.identity(2),
            )
        with pytest.raises(ValidationError, match="p_z entries must be a nonempty"):
            DiscreteModelSpec(
                p_z=np.zeros(0),
                p_x_given_z=np.zeros((2, 0)),
                p_y_given_xz=np.zeros((2, 2, 0)),
                error=ErrorMatrix.identity(2),
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["p_z", "p_x_given_z", "p_y_given_xz"])
    def test_non_finite_entries_rejected_by_name(self, field, bad):
        arrays = {
            "p_z": np.array([0.5, 0.5]),
            "p_x_given_z": np.full((2, 2), 0.5),
            "p_y_given_xz": np.full((2, 2, 2), 0.5),
        }
        arrays[field].flat[0] = bad
        with pytest.raises(ValidationError, match=f"{field} entries must be finite"):
            DiscreteModelSpec(**arrays, error=ErrorMatrix.identity(2))

    def test_mechanism_dimension_checked(self):
        with pytest.raises(ValidationError):
            DiscreteModelSpec(
                p_z=np.array([0.5, 0.5]),
                p_x_given_z=np.full((2, 2), 0.5),
                p_y_given_xz=np.full((2, 2, 2), 0.5),
                error=ErrorMatrix.identity(3),
            )
        with pytest.raises(ValidationError):
            DiscreteModelSpec(
                p_z=np.array([0.25, 0.25, 0.25, 0.25]),
                p_x_given_z=np.full((2, 4), 0.5),
                p_y_given_xz=np.full((2, 2, 4), 0.5),
                error=(BinaryErrorParams(0.1, 0.1),),  # 1 component != 4 cells
            )

    def test_latent_joint_and_effect(self):
        spec = example_spec()
        joint = spec.joint_xyz()
        assert joint.total() == pytest.approx(1.0, abs=1e-12)
        assert joint.cells[1, 0, 0] == pytest.approx(0.5 * 0.8 * 0.6)
        # adjustment oracle: sum_z P(y|x,z) P(z) by hand
        truth = 0.5 * 0.4 + 0.5 * 0.9
        assert spec.effect(1)[1] == pytest.approx(truth, abs=1e-12)
        assert spec.effect_table().shape == (2, 2)

    def test_json_roundtrip(self):
        spec = example_spec()
        back = DiscreteModelSpec.from_json_dict(spec.to_json_dict())
        np.testing.assert_allclose(back.joint_xyz().cells, spec.joint_xyz().cells, atol=0)
        assert back.k_components == 1
        dense = DiscreteModelSpec(
            p_z=np.array([0.3, 0.7]),
            p_x_given_z=np.array([[0.9, 0.4], [0.1, 0.6]]),
            p_y_given_xz=np.full((2, 2, 2), 0.5),
            error=ErrorMatrix.from_binary(BinaryErrorParams(0.1, 0.2)),
        )
        back = DiscreteModelSpec.from_json_dict(dense.to_json_dict())
        np.testing.assert_allclose(back.mechanism().dense(), dense.mechanism().dense())


class TestSimulateDiscrete:
    def test_zero_samples_still_returns_truth(self):
        samples, effect = simulate_discrete(example_spec(), 0, seed=1)
        assert samples.shape == (0, 3)
        assert effect.shape == (2, 2)
        assert effect[1, 1] == pytest.approx(0.65)

    def test_deterministic_given_seed(self):
        spec = example_spec()
        a, _ = simulate_discrete(spec, 500, seed=7)
        b, _ = simulate_discrete(spec, 500, seed=7)
        np.testing.assert_array_equal(a, b)
        c, _ = simulate_discrete(spec, 500, seed=8)
        assert (a != c).any()

    def test_identity_mechanism_frequencies_converge_to_latent_joint(self):
        # analytic distribution oracle with a faithful proxy
        spec = DiscreteModelSpec(
            p_z=np.array([0.3, 0.7]),
            p_x_given_z=np.array([[0.9, 0.4], [0.1, 0.6]]),
            p_y_given_xz=np.moveaxis(
                np.array([[[0.2, 0.8], [0.5, 0.5]], [[0.7, 0.3], [0.1, 0.9]]]), -1, 0
            ),
            error=ErrorMatrix.identity(2),
        )
        samples, _ = simulate_discrete(spec, 200_000, seed=2)
        freq = empirical_joint(samples, (2, 2, 2), "W")
        assert np.abs(freq.cells - spec.joint_xyz().cells).max() < 0.005

    def test_observed_frequencies_converge_through_mechanism(self):
        spec = example_spec()
        samples, _ = simulate_discrete(spec, 200_000, seed=3)
        freq = empirical_joint(samples, (2, 2, 2), "W")
        assert np.abs(freq.cells - spec.joint_xyw().cells).max() < 0.005

    def test_component_errors_yield_bit_columns(self):
        errs = (BinaryErrorParams(0.1, 0.1), BinaryErrorParams(0.2, 0.05))
        spec = DiscreteModelSpec(
            p_z=np.full(4, 0.25),
            p_x_given_z=np.tile(np.array([[0.7], [0.3]]), (1, 4)),
            p_y_given_xz=np.full((2, 2, 4), 0.5),
            error=errs,
        )
        samples, _ = simulate_discrete(spec, 1000, seed=4)
        assert samples.shape == (1000, 4)
        assert set(np.unique(samples[:, 2:])) <= {0, 1}

    def test_latent_draw_is_inverse_cdf_count(self):
        # noiseless components copy the bits of z, so the draw can be checked
        # against the inverse-CDF count (u > cdf).sum(), zero-mass values included
        p_z = np.array([0.1, 0.0, 0.25, 0.0, 0.0, 0.4, 0.25, 0.0])
        spec = DiscreteModelSpec(
            p_z=p_z,
            p_x_given_z=np.full((2, 8), 0.5),
            p_y_given_xz=np.full((2, 2, 8), 0.5),
            error=(BinaryErrorParams(0.0, 0.0),) * 3,
        )
        samples, _ = simulate_discrete(spec, 5000, seed=6)
        z = samples[:, 2:] @ np.array([4, 2, 1])
        u_z = make_rng(6).random(5000)
        np.testing.assert_array_equal(z, (u_z[:, None] > np.cumsum(p_z)).sum(axis=1))

    def test_dense_categorical_mechanism(self):
        mech = ErrorMatrix(entries=np.array(
            [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]
        ))
        spec = DiscreteModelSpec(
            p_z=np.array([0.2, 0.3, 0.5]),
            p_x_given_z=np.full((2, 3), 0.5),
            p_y_given_xz=np.full((2, 2, 3), 0.5),
            error=mech,
        )
        samples, _ = simulate_discrete(spec, 50_000, seed=5)
        assert samples[:, 2].max() == 2
        freq = empirical_joint(samples, (2, 2, 3), "W")
        assert np.abs(freq.cells - spec.joint_xyw().cells).max() < 0.01


    @staticmethod
    def dense_spec(rng, n_v):
        # every column of the mechanism a full distribution, two zero-mass z values
        mech = rng.dirichlet(np.ones(n_v), size=n_v).T
        p_z = rng.dirichlet(np.ones(n_v))
        p_z[[1, n_v - 2]] = 0.0
        return DiscreteModelSpec(
            p_z=p_z / p_z.sum(),
            p_x_given_z=np.full((2, n_v), 0.5),
            p_y_given_xz=np.full((2, 2, n_v), 0.5),
            error=ErrorMatrix(entries=mech),
        )

    def test_dense_proxy_draw_is_inverse_cdf_count(self):
        # oracle: the per-sample comparison count (u > cdf of column z).sum()
        spec = self.dense_spec(np.random.default_rng(9), 64)
        n = 20_000
        samples, _ = simulate_discrete(spec, n, seed=10)
        rng = make_rng(10)
        u_z, _, _, u_w = (rng.random(n) for _ in range(4))
        z = (u_z[:, None] > np.cumsum(spec.p_z)).sum(axis=1)
        cum_w = np.cumsum(spec.mechanism().dense(), axis=0)
        np.testing.assert_array_equal(samples[:, 2], (u_w[:, None] > cum_w.T[z]).sum(axis=1))

    def test_dense_proxy_draw_memory_stays_below_samples_times_values(self):
        import tracemalloc

        spec = self.dense_spec(np.random.default_rng(11), 256)
        n = 20_000
        simulate_discrete(spec, 10, seed=1)  # warm up lazy allocations
        tracemalloc.start()
        try:
            simulate_discrete(spec, n, seed=12)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * 256 * 8 / 8


class TestSimulateLinear:
    def test_disconnected_model_has_zero_population_covariance(self):
        spec = LinearSemSpec(
            c0=0.0, c1=0.0, c2=0.0, c3=1.0, var_z=1.0, var_ex=1.0, var_ey=1.0, var_ew=0.5
        )
        rows, pop = simulate_linear(spec, 50_000, seed=6)
        assert pop.cov_xy == 0.0
        assert abs(cov_from_samples(rows).cov_xy) < 0.02

    def test_population_covariance_identity(self):
        spec = LinearSemSpec(
            c0=0.8, c1=1.2, c2=-0.7, c3=1.5, var_z=1.3,
            var_ex=0.6, var_ey=0.9, var_ew=0.4,
        )
        _, pop = simulate_linear(spec, 0, seed=0)
        assert pop.cov_xy == pytest.approx(
            spec.c0 * pop.var_x + spec.c1 * spec.c2 * spec.var_z, abs=1e-12
        )
        assert pop.cov_xw == pytest.approx(spec.c1 * spec.c3 * spec.var_z, abs=1e-12)

    def test_deterministic_and_v_column(self):
        spec = LinearSemSpec(
            c0=0.5, c1=1.0, c2=1.0, c3=1.0, var_z=1.0,
            var_ex=0.5, var_ey=0.5, var_ew=0.5, c_v=0.8, var_ev=0.3,
        )
        a, _ = simulate_linear(spec, 100, seed=9)
        b, _ = simulate_linear(spec, 100, seed=9)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100, 4)

    def test_sample_moments_converge_at_root_n(self):
        spec = LinearSemSpec(
            c0=0.8, c1=1.2, c2=-0.7, c3=1.5, var_z=1.3,
            var_ex=0.6, var_ey=0.9, var_ew=0.4,
        )
        _, pop = simulate_linear(spec, 0, seed=0)
        errs = {1000: [], 100_000: []}
        for n in errs:
            for r in range(10):
                rows, _ = simulate_linear(spec, n, seed=100 + r)
                s = cov_from_samples(rows)
                errs[n].append(abs(s.cov_xy - pop.cov_xy))
        ratio = np.mean(errs[1000]) / np.mean(errs[100_000])
        assert 3.0 < ratio < 33.0  # ~sqrt(100) = 10 expected


class TestNaiveEffect:
    def test_matches_adjustment_on_proxy(self):
        spec = example_spec()
        observed = spec.joint_xyw()
        out = naive_effect(observed, 1)
        from effectrestore import adjust_for_confounder

        np.testing.assert_allclose(
            out, adjust_for_confounder(observed.with_axis("Z"), 1), atol=0
        )

    def test_biased_under_noise(self):
        spec = example_spec()
        observed = spec.joint_xyw()
        assert abs(naive_effect(observed, 1)[1] - spec.effect(1)[1]) > 0.005
