"""Binary closed forms: restoration, weight split, corrected IPW, synthesis."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import (
    BinaryErrorParams,
    DegenerateDenominatorError,
    ErrorMatrix,
    EffectRestoreError,
    IncompatibleModelError,
    JointTable,
    SingularError,
    UnidentifiableError,
    ValidationError,
    adjust_for_confounder,
    bootstrap_table_values,
    causal_effect_binary,
    causal_effect_binary_infinitesimal,
    restore_binary,
    restore_joint,
    synthesize_samples,
    weight_split,
)
from effectrestore.restore import TOL_INCOMPATIBLE
from effectrestore.rng import make_rng
from strategies import traced_peak


def random_valid_instance(rng, margin=0.03):
    """Random (observed table, error params) whose restoration is strictly
    positive and whose closed-form denominators stay away from zero."""
    while True:
        eps, delta = rng.uniform(0.02, 0.3, size=2)
        err = BinaryErrorParams(eps, delta)
        truth = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        if truth.min() < margin:
            continue
        observed = np.einsum("wz,xyz->xyw", err.matrix(), truth)
        return JointTable(observed, "W"), err, JointTable(truth, "Z")


class TestRestoreBinary:
    def test_zero_rates_are_identity(self):
        rng = np.random.default_rng(1)
        table = JointTable(rng.dirichlet(np.ones(8)).reshape(2, 2, 2), "W")
        restored = restore_binary(table, BinaryErrorParams(0.0, 0.0))
        np.testing.assert_allclose(restored.cells, table.cells, atol=1e-15)
        assert restored.axis == "Z"

    def test_forced_split(self):
        # all mass on one (x, y): observed (0.45, 0.55) restores to (0.4, 0.6)
        cells = np.zeros((2, 2, 2))
        cells[1, 0] = [0.45, 0.55]
        restored = restore_binary(JointTable(cells, "W"), BinaryErrorParams(0.25, 0.25))
        assert restored.cells[1, 0, 0] == pytest.approx(0.4, abs=1e-15)
        assert restored.cells[1, 0, 1] == pytest.approx(0.6, abs=1e-15)

    def test_uninformative_rates_raise(self):
        with pytest.raises(SingularError):
            BinaryErrorParams(0.6, 0.4)
        # the constructor is the only gate, so near-singular params never exist
        with pytest.raises(SingularError):
            BinaryErrorParams(0.6, 0.4 - 1e-9)

    def test_preserves_treatment_outcome_marginal(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            observed, err, _ = random_valid_instance(rng)
            restored = restore_binary(observed, err)
            np.testing.assert_allclose(
                restored.cells.sum(axis=2),
                observed.cells.sum(axis=2),
                rtol=1e-13,
                atol=1e-16,
            )

    def test_incompatible_observed_fraction(self):
        err = BinaryErrorParams(0.3, 0.3)
        cells = np.full((2, 2, 2), 0.05)
        cells[1, 1] = [0.07, 0.63]  # P(w1|1,1) = 0.9 > 1 - eps
        with pytest.raises(IncompatibleModelError):
            restore_binary(JointTable(cells, "W"), err)
        restored = restore_binary(JointTable(cells, "W"), err, clip=True)
        assert restored.cells.min() >= 0.0

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValidationError):
            restore_binary(
                JointTable(np.full((2, 2, 3), 1 / 12), "W"), BinaryErrorParams(0.1, 0.1)
            )


class TestWeightSplit:
    def test_lower_endpoint_sends_all_mass_to_z0(self):
        err = BinaryErrorParams(0.2, 0.1)
        assert weight_split(err.delta, err) == 0.0

    def test_upper_endpoint_sends_all_mass_to_z1(self):
        err = BinaryErrorParams(0.2, 0.1)
        assert weight_split(1.0 - err.eps, err) == math.inf

    def test_forced_ratio(self):
        assert weight_split(0.55, BinaryErrorParams(0.25, 0.25)) == pytest.approx(1.5)

    def test_strictly_increasing(self):
        err = BinaryErrorParams(0.15, 0.05)
        grid = np.linspace(err.delta + 1e-6, 1 - err.eps - 1e-6, 200)
        values = [weight_split(p, err) for p in grid]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_out_of_range_is_incompatible(self):
        err = BinaryErrorParams(0.2, 0.1)
        with pytest.raises(IncompatibleModelError):
            weight_split(0.05, err)
        with pytest.raises(IncompatibleModelError):
            weight_split(0.85, err)

    def test_reproduces_restored_cell_ratio(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            observed, err, _ = random_valid_instance(rng)
            restored = restore_binary(observed, err)
            x, y = int(rng.integers(2)), int(rng.integers(2))
            p = observed.cells[x, y, 1] / observed.cells[x, y].sum()
            ratio = restored.cells[x, y, 1] / restored.cells[x, y, 0]
            assert weight_split(p, err) == pytest.approx(ratio, rel=1e-10)


class TestCausalEffectBinary:
    def test_zero_rates_reduce_to_standard_ipw(self):
        rng = np.random.default_rng(4)
        cells = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        table = JointTable(cells, "W")
        err = BinaryErrorParams(0.0, 0.0)
        p_xw = cells.sum(axis=1)
        p_w = cells.sum(axis=(0, 1))
        for x in (0, 1):
            for y in (0, 1):
                ipw = cells[x, y, 1] / (p_xw[x, 1] / p_w[1]) + cells[x, y, 0] / (
                    p_xw[x, 0] / p_w[0]
                )
                assert causal_effect_binary(table, err, x, y) == pytest.approx(
                    ipw, abs=1e-15
                )

    def test_matches_restore_then_adjust_composition(self):
        # oracle: explicit restoration followed by confounder adjustment
        rng = np.random.default_rng(5)
        for _ in range(1000):
            observed, err, _ = random_valid_instance(rng)
            x, y = int(rng.integers(2)), int(rng.integers(2))
            composed = adjust_for_confounder(restore_binary(observed, err), x)[y]
            direct = causal_effect_binary(observed, err, x, y)
            assert abs(direct - composed) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 0.4), st.floats(0.0, 0.4),
        hnp.arrays(np.float64, (2, 2, 2), elements=st.floats(0.01, 1.0)),
        st.integers(0, 1), st.integers(0, 1),
    )
    def test_closed_form_is_the_composition(self, eps, delta, latent, x, y):
        # the closed form divides by err.determinant unchecked: the params'
        # own gate must be enough for it to agree with restore-then-adjust
        err = BinaryErrorParams(eps, delta)
        observed = JointTable(np.einsum("wz,xyz->xyw", err.matrix(), latent / latent.sum()), "W")
        composed = adjust_for_confounder(restore_binary(observed, err), x)[y]
        assert causal_effect_binary(observed, err, x, y) == pytest.approx(composed, abs=1e-12)

    @settings(max_examples=300, deadline=None)
    @given(
        st.floats(0.0, 0.99), st.floats(0.0, 0.99),
        hnp.arrays(np.float64, (2, 2, 2), elements=st.floats(0.01, 1.0)),
        st.integers(0, 1), st.integers(0, 1),
    )
    def test_refuses_exactly_what_restoration_refuses(self, eps, delta, cells, x, y):
        # arbitrary tables, not pushforwards: the rates may contradict them
        assume(abs(1.0 - eps - delta) >= 1e-3)
        err = BinaryErrorParams(eps, delta)
        observed = JointTable(cells / cells.sum(), "W")
        mech = ErrorMatrix.from_binary(err)
        raw = mech.apply_inverse(observed.cells)
        assume(abs(-raw[raw < 0.0].sum() - TOL_INCOMPATIBLE) > 1e-12)
        try:
            restored = restore_joint(observed, mech).restored
        except IncompatibleModelError:
            restored = None
        for effect in (causal_effect_binary, causal_effect_binary_infinitesimal):
            try:
                value = effect(observed, err, x, y)
            except DegenerateDenominatorError:
                reject()  # checked before compatibility; nothing to compare
            except IncompatibleModelError:
                assert restored is None
                continue
            assert restored is not None
            if effect is causal_effect_binary and raw.min() >= 0.0:
                composed = adjust_for_confounder(restored, x)[y]
                assert value == pytest.approx(composed, rel=0, abs=1e-12)

    def test_recovers_truth_from_exact_observed(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            observed, err, truth = random_valid_instance(rng)
            x = int(rng.integers(2))
            expected = adjust_for_confounder(truth, x)
            got = [causal_effect_binary(observed, err, x, y) for y in (0, 1)]
            np.testing.assert_allclose(got, expected, atol=1e-11)

    def test_bracket_denominator_hits_zero(self):
        # P(w1|x=1, y) pinned at delta for both y: the restored stratum
        # P(x=1, z1) is empty and the bracket denominator vanishes
        err = BinaryErrorParams(0.2, 0.1)
        cells = np.empty((2, 2, 2))
        cells[0, 0] = [0.15, 0.15]
        cells[0, 1] = [0.1, 0.1]
        for y, mass in ((0, 0.3), (1, 0.2)):
            cells[1, y] = [(1 - err.delta) * mass, err.delta * mass]
        table = JointTable(cells, "W")
        with pytest.raises(DegenerateDenominatorError, match="bracket"):
            causal_effect_binary(table, err, 1, 1)

    def test_vanishing_cell_denominator(self):
        err = BinaryErrorParams(0.2, 0.1)
        cells = np.full((2, 2, 2), 1 / 8)
        cells[1, 1] = [0.25, 0.0]  # P(w1|1,1) = 0
        with pytest.raises(DegenerateDenominatorError):
            causal_effect_binary(JointTable(cells, "W"), err, 1, 1)


class TestInfinitesimalApproximation:
    def test_zero_rates_coincide_with_exact(self):
        rng = np.random.default_rng(7)
        observed, _, _ = random_valid_instance(rng)
        err = BinaryErrorParams(0.0, 0.0)
        for x in (0, 1):
            for y in (0, 1):
                exact = causal_effect_binary(observed, err, x, y)
                approx = causal_effect_binary_infinitesimal(observed, err, x, y)
                assert approx == pytest.approx(exact, abs=1e-14)

    def test_error_is_second_order(self):
        rng = np.random.default_rng(8)
        observed, _, _ = random_valid_instance(rng)
        x, y = 1, 1
        # |approx - exact| <= C (eps + delta)^2 with C calibrated by a sweep
        cs = []
        for scale in (1e-2, 5e-3, 2e-3, 1e-3):
            err = BinaryErrorParams(scale, 0.8 * scale)
            exact = causal_effect_binary(observed, err, x, y)
            approx = causal_effect_binary_infinitesimal(observed, err, x, y)
            cs.append(abs(approx - exact) / (err.eps + err.delta) ** 2)
        c_bound = 2.0 * max(cs)
        err = BinaryErrorParams(4e-3, 3e-3)
        exact = causal_effect_binary(observed, err, x, y)
        approx = causal_effect_binary_infinitesimal(observed, err, x, y)
        assert abs(approx - exact) < c_bound * (err.eps + err.delta) ** 2

    def test_halving_rates_quarters_the_error(self):
        rng = np.random.default_rng(9)
        observed, _, _ = random_valid_instance(rng)
        x, y = 0, 1
        prev = None
        for k in range(5):
            err = BinaryErrorParams(1e-3 / 2**k, 8e-4 / 2**k)
            exact = causal_effect_binary(observed, err, x, y)
            approx = causal_effect_binary_infinitesimal(observed, err, x, y)
            gap = abs(approx - exact)
            if prev is not None:
                assert 3.5 < prev / gap < 4.5
            prev = gap


def loop_synthesize_samples(samples, errs, seed):
    """Reference synthesis: one boolean mask per (x, y) group and component."""
    arr = np.asarray(samples)
    u = make_rng(seed).random((arr.shape[0], len(errs)))
    out = arr.astype(int)
    xy = arr[:, 0] * 2 + arr[:, 1]
    for cell in range(4):
        mask = xy == cell
        cx, cy = divmod(cell, 2)
        if not mask.any():
            warnings.warn(f"no samples in group (x={cx}, y={cy})", RuntimeWarning)
            continue
        w = arr[mask, 2:]
        for i, err in enumerate(errs):
            q = float(w[:, i].mean())
            if q < err.delta or q > 1.0 - err.eps:
                raise IncompatibleModelError(f"component {i}: (x={cx}, y={cy})")
            r = (q - err.delta) / err.determinant
            post1 = (1.0 - err.eps) * r / q if q > 0.0 else 0.0
            post0 = err.eps * r / (1.0 - q) if q < 1.0 else 0.0
            prob = np.where(w[:, i] == 1, post1, post0)
            out[mask, 2 + i] = (u[mask, i] < prob).astype(int)
    return out


class TestSynthesizeSamples:
    @pytest.mark.parametrize("case", range(10))
    def test_matches_per_group_loop(self, case):
        # same draws, same warnings in the same order, same first error; cases
        # 8 and 9 (K = 4 and 5) span several row blocks of 2^16 uniforms
        rng = np.random.default_rng(case)
        n = 70_000 if case >= 8 else (0, 37, 1000, 5000)[case % 4]
        k = 1 + case % 5
        samples = (rng.random((n, 2 + k)) < rng.uniform(0.2, 0.8, 2 + k)).astype(int)
        if case == 5:
            samples[:, 0] = 0
        errs = [BinaryErrorParams(*rng.uniform(0.0, 0.4 if case == 7 else 0.15, 2))
                for _ in range(k)]
        outcomes = []
        for fn in (loop_synthesize_samples, synthesize_samples):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    result = fn(samples, errs, seed=case)
                except IncompatibleModelError as exc:
                    result = str(exc).split(":")[0]
            outcomes.append((result, [str(w.message).split(";")[0] for w in caught]))
        (want, want_warned), (got, got_warned) = outcomes
        assert got_warned == want_warned
        if isinstance(want, str):
            assert got == want
        else:
            np.testing.assert_array_equal(got, want)

    def test_noiseless_is_identity(self):
        rng = np.random.default_rng(10)
        samples = rng.integers(0, 2, size=(500, 4))
        errs = [BinaryErrorParams(0.0, 0.0), BinaryErrorParams(0.0, 0.0)]
        out = synthesize_samples(samples, errs, seed=7)
        np.testing.assert_array_equal(out, samples)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(11)
        samples = rng.integers(0, 2, size=(300, 3))
        errs = [BinaryErrorParams(0.2, 0.1)]
        a = synthesize_samples(samples, errs, seed=42)
        b = synthesize_samples(samples, errs, seed=42)
        np.testing.assert_array_equal(a, b)
        c = synthesize_samples(samples, errs, seed=43)
        assert (a != c).any()

    def test_synthetic_distribution_matches_restoration(self):
        # oracle: the closed-form restoration of the empirical table
        from effectrestore import BinaryErrorParams as BEP
        from effectrestore import binary_spec, empirical_joint, simulate_discrete

        err = BEP(0.25, 0.25)
        spec = binary_spec(0.45, [0.75, 0.3], [[0.2, 0.5], [0.45, 0.85]], err)
        samples, _ = simulate_discrete(spec, 200_000, seed=12)
        observed = empirical_joint(samples, (2, 2, 2), "W")
        restored = restore_binary(observed, err, clip=True)
        synth = synthesize_samples(samples, [err], seed=13)
        synthetic = empirical_joint(synth, (2, 2, 2), "Z")
        n = samples.shape[0]
        for x in (0, 1):
            for y in (0, 1):
                # given the data, the synthetic count is a sum of independent
                # Bernoullis with mean matching the restored cell, so its
                # frequency SE is bounded by sqrt(m/4)/n for group size m
                group_frac = observed.cells[x, y].sum()
                se = math.sqrt(group_frac / (4.0 * n))
                for z in (0, 1):
                    diff = abs(synthetic.cells[x, y, z] - restored.cells[x, y, z])
                    assert diff < 3.0 * se

    def test_incompatible_group_frequency_names_component(self):
        err = BinaryErrorParams(0.3, 0.1)
        samples = np.array([[0, 0, 1], [0, 0, 1], [1, 1, 0], [1, 1, 1]])
        # group (0,0) has P(w=1) = 1 > 1 - eps
        with pytest.raises(IncompatibleModelError, match="component 0"):
            synthesize_samples(samples, [err], seed=0)

    def test_empty_group_warns(self):
        samples = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 1]])  # no (1, 1) group
        with pytest.warns(RuntimeWarning, match=r"x=1, y=1"):
            synthesize_samples(samples, [BinaryErrorParams(0.0, 0.0)], seed=0)

    def test_memory_stays_near_the_output(self):
        # uniforms are drawn in row blocks straight into the output's w columns
        rng = np.random.default_rng(15)
        k, n = 12, 100_000
        samples = rng.integers(0, 2, size=(n, 2 + k))
        errs = [BinaryErrorParams(*rng.uniform(0.05, 0.15, 2)) for _ in range(k)]
        synthesize_samples(samples[:1000], errs, seed=1)  # warm up lazy allocations
        out, peak = traced_peak(lambda: synthesize_samples(samples, errs, seed=16))
        assert out.dtype == np.int64
        assert peak < 1.5 * out.nbytes

    def test_shape_and_values_validated(self):
        errs = [BinaryErrorParams(0.1, 0.1)]
        with pytest.raises(ValidationError):
            synthesize_samples(np.array([[0, 0]]), errs, seed=0)
        with pytest.raises(ValidationError):
            synthesize_samples(np.array([[0, 0, 2]]), errs, seed=0)


def test_effect_composition_equivalence_with_matrix_route():
    # the general matrix path and the binary closed form are two
    # implementations of one estimand
    from effectrestore import ErrorMatrix, causal_effect_restored

    rng = np.random.default_rng(14)
    for _ in range(100):
        observed, err, _ = random_valid_instance(rng)
        mech = ErrorMatrix.from_binary(err)
        x = int(rng.integers(2))
        via_matrix = causal_effect_restored(observed, mech, x)
        via_closed = [causal_effect_binary(observed, err, x, y) for y in (0, 1)]
        np.testing.assert_allclose(via_closed, via_matrix, atol=1e-12)


def loop_table_bootstrap(observed, err, x, n, n_boot, seed):
    """The per-resample loop effect-binary ran before the table engine."""
    counts = observed.cells.ravel() * n
    boots = []
    for b in range(n_boot):
        draw = make_rng(seed, b).multinomial(n, counts / counts.sum())
        table = JointTable((draw / n).reshape(2, 2, 2), "W")
        try:
            boots.append([causal_effect_binary(table, err, x, y) for y in (0, 1)])
        except EffectRestoreError:
            continue
    return np.asarray(boots)


def effect_statistic(err, x):
    def statistic(cells):
        table = JointTable(cells.reshape(2, 2, 2), "W")
        return [causal_effect_binary(table, err, x, y) for y in (0, 1)]

    return statistic


def table_bootstrap(observed, err, x, n, n_boot, seed):
    counts = observed.cells.ravel() * n
    return bootstrap_table_values(
        counts / counts.sum(), n, effect_statistic(err, x), n_boot=n_boot, seed=seed
    )


class TestTableBootstrap:
    def test_matches_the_resample_loop(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            observed, err, _ = random_valid_instance(rng)
            n = int(rng.integers(200, 5000))
            x, seed = int(rng.integers(2)), int(rng.integers(100))
            got = table_bootstrap(observed, err, x, n, 40, seed)
            want = loop_table_bootstrap(observed, err, x, n, 40, seed)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_skips_undefined_resamples_like_the_loop(self):
        # 40 records with rare (x=1) cells: some resamples miss one, and the
        # statistic's denominators vanish there
        cells = np.array([[[7, 7], [7, 7]], [[2, 3], [2, 3]]], dtype=float) / 40
        observed, err = JointTable(cells, "W"), BinaryErrorParams(0.1, 0.1)
        got = table_bootstrap(observed, err, 1, 40, 60, 3)
        want = loop_table_bootstrap(observed, err, 1, 40, 60, 3)
        assert 30 <= len(want) < 60
        assert got.tobytes() == want.tobytes()

    def test_refuses_too_few_records(self):
        observed, err, _ = random_valid_instance(np.random.default_rng(2))
        with pytest.raises(ValidationError, match="need at least 10 rows.*got 9"):
            table_bootstrap(observed, err, 1, 9, 50, 0)
        with pytest.raises(ValidationError, match="n_boot must be >= 2"):
            table_bootstrap(observed, err, 1, 100, 1, 0)

    def test_mostly_undefined_statistic_raises_with_counts(self):
        cells = np.array([[[2, 2], [2, 2]], [[1, 1], [1, 1]]], dtype=float) / 12
        observed, err = JointTable(cells, "W"), BinaryErrorParams(0.1, 0.1)
        used = len(loop_table_bootstrap(observed, err, 1, 12, 50, 0))
        assert 2 * used < 50
        with pytest.raises(UnidentifiableError, match=f"used {used}/50"):
            table_bootstrap(observed, err, 1, 12, 50, 0)

    def test_validation_errors_are_not_counted_as_undefined(self):
        def statistic(cells):
            raise ValidationError("bad statistic")

        with pytest.raises(ValidationError, match="bad statistic"):
            bootstrap_table_values(np.full(8, 0.125), 100, statistic, n_boot=10, seed=0)
