"""Simulator: model validation, analytic oracles, determinism, convergence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectrestore import (
    BinaryErrorParams,
    DiscreteModelSpec,
    ErrorMatrix,
    LinearSemSpec,
    ValidationError,
    binary_spec,
    component_mechanism,
    cov_from_samples,
    empirical_joint,
    naive_effect,
    simulate,
    simulate_discrete,
    simulate_linear,
)
from effectrestore.rng import make_rng
from strategies import binary_rate_lists, traced_peak


def example_spec():
    return binary_spec(
        0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], BinaryErrorParams(0.2, 0.1)
    )


def component_spec(rng, k):
    """A model with K binary proxy components and random conditionals."""
    n_z = 2**k
    p_x1 = rng.uniform(0.2, 0.8, n_z)
    p_y1 = rng.uniform(0.2, 0.8, (2, n_z))
    return DiscreteModelSpec(
        p_z=rng.dirichlet(np.ones(n_z)),
        p_x_given_z=np.stack([1.0 - p_x1, p_x1]),
        p_y_given_xz=np.stack([1.0 - p_y1, p_y1]),
        error=component_mechanism(
            [BinaryErrorParams(*rng.uniform(0.0, 0.3, 2)) for _ in range(k)]),
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
                error=component_mechanism([BinaryErrorParams(0.1, 0.1)]),  # 2 != 4 cells
            )
        with pytest.raises(ValidationError, match="error must be an ErrorMatrix, got tuple"):
            DiscreteModelSpec(
                p_z=np.array([0.5, 0.5]),
                p_x_given_z=np.full((2, 2), 0.5),
                p_y_given_xz=np.full((2, 2, 2), 0.5),
                error=(BinaryErrorParams(0.1, 0.1),),
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
        # a components document is read as its factored mechanism, written as a matrix
        errs = [BinaryErrorParams(0.2, 0.1), BinaryErrorParams(0.05, 0.3)]
        doc = {**component_spec(np.random.default_rng(3), 2).to_json_dict(),
               "error": {"components": [e.to_json_dict() for e in errs]}}
        want = {"matrix": component_mechanism(errs).to_json_dict()}
        assert DiscreteModelSpec.from_json_dict(doc).to_json_dict()["error"] == want
        dense = DiscreteModelSpec(
            p_z=np.array([0.3, 0.7]),
            p_x_given_z=np.array([[0.9, 0.4], [0.1, 0.6]]),
            p_y_given_xz=np.full((2, 2, 2), 0.5),
            error=ErrorMatrix.from_binary(BinaryErrorParams(0.1, 0.2)),
        )
        back = DiscreteModelSpec.from_json_dict(dense.to_json_dict())
        np.testing.assert_allclose(back.error.dense(), dense.error.dense())

    @pytest.mark.parametrize("error, message", [
        ({"components": "abc"}, "malformed binary error params JSON: expected an object, got str"),
        ({"components": []}, "need at least one component"),
        ({"matrix": {}, "components": []},
         "malformed discrete-model JSON: error must hold 'matrix' or 'components' alone, "
         "got ['matrix', 'components']"),
    ])
    def test_error_fields_are_read_as_mechanism_documents(self, error, message):
        # one reader, ErrorMatrix.from_json_dict, and its messages, for either field
        with pytest.raises(ValidationError) as info:
            DiscreteModelSpec.from_json_dict({**example_spec().to_json_dict(), "error": error})
        assert str(info.value) == message


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
            error=component_mechanism(errs),
        )
        samples, _ = simulate_discrete(spec, 1000, seed=4)
        assert samples.shape == (1000, 4)
        assert set(np.unique(samples[:, 2:])) <= {0, 1}

    @pytest.mark.parametrize("k, n", [(12, 0), (12, 1000), (12, 20_000), (3, 70_000)])
    def test_component_columns_follow_the_documented_stream(self, k, n):
        # oracle from simulate_discrete's docstring: u_z, u_x, u_y (n each), then one
        # record-major (n, K) block; column i is the inverse-CDF count
        # (u_w[:, i] > cdf of P(w_i | bit_i(z))).sum().
        # 20_000 rows at K = 12 and 70_000 at K = 3 span more than three row
        # blocks of 2^16 values, the last one partial
        spec = component_spec(np.random.default_rng(k + n), k)
        mats = spec.error._mats
        samples, _ = simulate_discrete(spec, n, seed=13)
        stream = make_rng(13)
        u_z, _, _ = (stream.random(n) for _ in range(3))
        u_w = stream.random((n, k))
        z = np.searchsorted(np.cumsum(spec.p_z), u_z, side="left")
        want = np.empty((n, k), dtype=np.int64)
        for i, m in enumerate(mats):
            bit = (z >> (k - 1 - i)) & 1
            cdf = np.cumsum(m, axis=0)
            want[:, i] = (u_w[:, i, None] > cdf.T[bit]).sum(axis=1)
        assert samples.dtype == np.int64 and samples.shape == (n, 2 + k)
        np.testing.assert_array_equal(samples[:, 2:], want)

    @settings(max_examples=40, deadline=None)
    @given(binary_rate_lists(), st.integers(0, 20_000), st.integers(0, 2**32 - 1))
    def test_matrix_model_draws_what_its_components_draw(self, errs, n, seed):
        # a components document and a matrix document of the same factors,
        # nested or not, load as one mechanism and draw the same samples: either
        # field takes any mechanism document, so the rates may sit under matrix
        base = component_spec(np.random.default_rng(seed), len(errs)).to_json_dict()
        factors = [ErrorMatrix.from_binary(e) for e in errs]
        nested = ErrorMatrix(factors=(ErrorMatrix(factors=tuple(factors[:1])), *factors[1:]))
        draws = [
            simulate_discrete(DiscreteModelSpec.from_json_dict({**base, "error": error}), n,
                              seed=seed)[0]
            for error in ({"components": [e.to_json_dict() for e in errs]},
                          {"matrix": ErrorMatrix(factors=tuple(factors)).to_json_dict()},
                          {"matrix": nested.to_json_dict()},
                          {"matrix": [e.to_json_dict() for e in errs]},
                          {"components": nested.to_json_dict()})
        ]
        assert draws[0].shape == (n, 2 + len(errs))
        for other in draws[1:]:
            np.testing.assert_array_equal(other, draws[0])

    def test_latent_draw_is_inverse_cdf_count(self):
        # noiseless components copy the bits of z, so the draw can be checked
        # against the inverse-CDF count (u > cdf).sum(), zero-mass values included
        p_z = np.array([0.1, 0.0, 0.25, 0.0, 0.0, 0.4, 0.25, 0.0])
        spec = DiscreteModelSpec(
            p_z=p_z,
            p_x_given_z=np.full((2, 8), 0.5),
            p_y_given_xz=np.full((2, 2, 8), 0.5),
            error=component_mechanism([BinaryErrorParams(0.0, 0.0)] * 3),
        )
        samples, _ = simulate_discrete(spec, 5000, seed=6)
        z = samples[:, 2:] @ np.array([4, 2, 1])
        u_z = make_rng(6).random(5000)
        np.testing.assert_array_equal(z, (u_z[:, None] > np.cumsum(p_z)).sum(axis=1))

    @pytest.mark.parametrize("card_x, card_y", [(3, 2), (64, 20)])
    def test_treatment_and_outcome_draws_are_inverse_cdf_counts(self, card_x, card_y):
        # oracle from the documented stream: u_z, u_x, u_y (n each); x counts the
        # entries of column z of P(x | z)'s CDF below u_x, y those of column (x, z)
        # of P(y | x, z)'s below u_y, zero-mass values included; 64 and 20 values
        # are drawn by search, 3 and 2 by count
        rng = np.random.default_rng(card_x)
        p_x = rng.dirichlet(np.ones(card_x), size=3).T
        p_y = rng.dirichlet(np.ones(card_y), size=(card_x, 3))
        p_y[..., 0] = 0.0
        spec = DiscreteModelSpec(
            p_z=np.array([0.3, 0.0, 0.7]),
            p_x_given_z=p_x,
            p_y_given_xz=np.moveaxis(p_y / p_y.sum(axis=-1, keepdims=True), -1, 0),
            error=ErrorMatrix.identity(3),
        )
        n = 20_000
        samples, _ = simulate_discrete(spec, n, seed=8)
        stream = make_rng(8)
        u_z, u_x, u_y = (stream.random(n) for _ in range(3))
        z = (u_z[:, None] > np.cumsum(spec.p_z)).sum(axis=1)
        x = (u_x[:, None] > np.cumsum(spec.p_x_given_z, axis=0).T[z]).sum(axis=1)
        cum_y = np.moveaxis(np.cumsum(spec.p_y_given_xz, axis=0), 0, -1)
        y = (u_y[:, None] > cum_y[x, z]).sum(axis=1)
        np.testing.assert_array_equal(samples, np.column_stack([x, y, z]))
        assert not np.isin(1, z) and not np.isin(0, y)

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
        cum_w = np.cumsum(spec.error.dense(), axis=0)
        np.testing.assert_array_equal(samples[:, 2], (u_w[:, None] > cum_w.T[z]).sum(axis=1))

    def test_dense_proxy_draw_memory_stays_below_samples_times_values(self):
        spec = self.dense_spec(np.random.default_rng(11), 256)
        n = 20_000
        simulate_discrete(spec, 10, seed=1)  # warm up lazy allocations
        _, peak = traced_peak(lambda: simulate_discrete(spec, n, seed=12))
        assert peak < n * 256 * 8 / 8

    def test_component_draw_memory_stays_near_the_output(self):
        # the w columns are filled row block by row block, so the uniforms
        # never take an (n, K) array of their own
        spec = component_spec(np.random.default_rng(14), 12)
        n = 100_000
        simulate_discrete(spec, 10, seed=1)  # warm up lazy allocations
        (samples, _), peak = traced_peak(lambda: simulate_discrete(spec, n, seed=15))
        assert peak < 1.5 * samples.nbytes

    def test_large_card_treatment_draw_memory_stays_near_the_output(self):
        # a CDF row per sample for 256 treatment values would take n x 256 floats,
        # 410 MB here, against the 4.8 MB output
        rng = np.random.default_rng(18)
        spec = DiscreteModelSpec(
            p_z=np.full(4, 0.25),
            p_x_given_z=rng.dirichlet(np.ones(256), size=4).T,
            p_y_given_xz=np.full((2, 256, 4), 0.5),
            error=ErrorMatrix.identity(4),
        )
        n = 200_000
        simulate_discrete(spec, 10, seed=1)  # warm up lazy allocations
        (samples, _), peak = traced_peak(lambda: simulate_discrete(spec, n, seed=19))
        assert peak < 2.5 * samples.nbytes

    def test_factored_matrix_draw_never_expands_the_mechanism(self):
        # 13 binary factors make an 8192 x 8192 mechanism, above DENSE_CAP
        spec = component_spec(np.random.default_rng(16), 13)
        simulate_discrete(spec, 10, seed=1)  # warm up lazy allocations
        (samples, _), peak = traced_peak(lambda: simulate_discrete(spec, 10_000, seed=17))
        assert samples.shape == (10_000, 2 + 13) and set(np.unique(samples[:, 2:])) <= {0, 1}
        assert peak < 10e6


@st.composite
def cdf_draws(draw):
    """A (card, columns) CDF table on either side of ``_COUNT_MAX_CARD``, with
    rows of zero mass, and samples' columns and uniforms, 0 and CDF entries
    among them."""
    card = draw(st.integers(1, 2 * simulate._COUNT_MAX_CARD))
    columns = draw(st.integers(1, 6))
    n = draw(st.integers(0, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.ones(card), size=columns).T
    p[rng.random(card) < 0.3] = 0.0
    cum = np.cumsum(p, axis=0)
    col = rng.integers(0, columns, n)
    u = rng.random(n)
    on_entry = rng.random(n) < 0.4
    u[on_entry] = cum[rng.integers(0, card, n), col][on_entry]
    u[rng.random(n) < 0.1] = 0.0
    return cum, col.astype(draw(st.sampled_from([np.intp, np.uint8]))), u


class TestDraw:
    @settings(max_examples=200, deadline=None)
    @given(cdf_draws())
    def test_draw_is_the_per_sample_search(self, drawn):
        cum, col, u = drawn
        want = [np.searchsorted(cum[:, c], v, side="left") for c, v in zip(col, u)]
        np.testing.assert_array_equal(simulate._draw(cum, col, u), np.array(want, dtype=np.intp))


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
