"""Binary closed forms: restoration, weight split, corrected IPW, synthesis."""

import math
import re
import warnings
from contextlib import contextmanager, nullcontext

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
    PositivityError,
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
from effectrestore import linear, restore
from effectrestore.restore import RESIDUE_ROUNDINGS, TOL_INCOMPATIBLE, TOL_VANISHING
from effectrestore.rng import make_rng
from strategies import traced_peak


def closed_form_effect(observed, err, x, y, tol=TOL_VANISHING):
    """The paper's modified inverse-probability weighting, the oracle of
    ``causal_effect_binary``: P(y | do(x)) straight from observed quantities,

        sum_w P(x,y,w)/P(x|w) (1 - r/P(w|x,y)) (1 - r/P(w)) / (1 - r/P(w|x)) / (1 - eps - delta)

    with r = delta on the w1 branch and eps on the w0 one.  Raises
    DegenerateDenominatorError when a denominator is below ``tol`` in
    absolute value (the bracket 1 - r/P(w|x) is 0 exactly when the restored
    stratum P(x, z_w) is empty), and then IncompatibleModelError when the
    closed-form restoration of the observed cells carries negative mass
    above ``TOL_INCOMPATIBLE``.
    """
    p = observed.cells
    p_w, p_x, p_xw, p_xy = p.sum(axis=(0, 1)), p.sum(axis=(1, 2)), p.sum(axis=1), p.sum(axis=2)
    total = 0.0
    for w, rate in ((1, err.delta), (0, err.eps)):
        with np.errstate(all="ignore"):  # each ratio is checked after its denominator
            denominators = {
                "P(w)": p_w[w], "P(x)": p_x[x], "P(x,y)": p_xy[x, y],
                "P(x|w)": p_xw[x, w] / p_w[w], "P(w|x,y)": p[x, y, w] / p_xy[x, y],
                "P(w|x)": p_xw[x, w] / p_x[x],
            }
            denominators["bracket"] = 1.0 - rate / denominators["P(w|x)"]
        for name, value in denominators.items():
            if abs(value) < tol:
                raise DegenerateDenominatorError(f"{name} of branch w{w} = {value:.3e} vanishes")
        d = denominators
        total += (p[x, y, w] / d["P(x|w)"]) * (1.0 - rate / d["P(w|x,y)"]) \
            * (1.0 - rate / d["P(w)"]) / d["bracket"]
    raw = np.stack(((1.0 - err.eps) * p_xy - p[:, :, 1], p[:, :, 1] - err.delta * p_xy), axis=-1)
    if -raw[raw < 0.0].sum() / err.determinant > TOL_INCOMPATIBLE:
        raise IncompatibleModelError("negative restored mass")
    return total / err.determinant


@contextmanager
def recorded_warnings():
    """A block whose warnings are recorded in the yielded list, not raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        yield caught


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
        # oracle: the paper's closed form, on tables away from its denominators' zeros
        rng = np.random.default_rng(5)
        for _ in range(1000):
            observed, err, _ = random_valid_instance(rng)
            x, y = int(rng.integers(2)), int(rng.integers(2))
            composed = adjust_for_confounder(restore_binary(observed, err), x)[y]
            direct = closed_form_effect(observed, err, x, y)
            assert abs(direct - composed) < 1e-12
            assert causal_effect_binary(observed, err, x, y) == composed

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 0.4), st.floats(0.0, 0.4),
        hnp.arrays(np.float64, (2, 2, 2), elements=st.floats(0.01, 1.0)),
        st.integers(0, 1), st.integers(0, 1),
    )
    def test_closed_form_is_the_composition(self, eps, delta, latent, x, y):
        # on compatible tables whose closed-form denominators are all >= 1e-6
        # the two agree to rounding.  The closed form divides by err.determinant
        # unchecked, and its rounding grows as 1 / (1 - eps - delta): 1.5e-14
        # was seen at eps = delta = 0.4
        err = BinaryErrorParams(eps, delta)
        observed = JointTable(np.einsum("wz,xyz->xyw", err.matrix(), latent / latent.sum()), "W")
        try:
            oracle = closed_form_effect(observed, err, x, y, tol=1e-6)
        except DegenerateDenominatorError:
            reject()
        value = causal_effect_binary(observed, err, x, y)  # nothing to clip: no warning
        assert abs(value - oracle) <= 1e-14 / err.determinant

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
                with recorded_warnings():
                    value = effect(observed, err, x, y)
            except DegenerateDenominatorError:
                reject()  # the first-order form checks it before compatibility
            except PositivityError:
                # the composition's adjustment, reached only past restoration
                assert effect is causal_effect_binary and restored is not None
                continue
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

    @staticmethod
    def empty_stratum_table():
        """P(w1|x=1, y) pinned at delta for both y, at rates (0.2, 0.1): the
        restored stratum P(x=1, z1) is empty."""
        err = BinaryErrorParams(0.2, 0.1)
        cells = np.empty((2, 2, 2))
        cells[0, 0] = [0.15, 0.15]
        cells[0, 1] = [0.1, 0.1]
        for y, mass in ((0, 0.3), (1, 0.2)):
            cells[1, y] = [(1 - err.delta) * mass, err.delta * mass]
        return JointTable(cells, "W"), err

    def test_bracket_denominator_hits_zero(self):
        # the closed form's bracket denominator 1 - delta / P(w1|x=1) vanishes
        table, err = self.empty_stratum_table()
        with pytest.raises(DegenerateDenominatorError, match="bracket"):
            closed_form_effect(table, err, 1, 1)

    def test_an_empty_restored_stratum_violates_positivity(self):
        # the composition refuses the same table on its restored propensity
        # P(x=1 | z1): the restored P(x=1, z1) is a rounding residue, set to an
        # exact 0, which is no clip, so nothing is warned
        table, err = self.empty_stratum_table()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for y in (0, 1):
                with pytest.raises(PositivityError, match=r"P\(x=1 \| v=1\) = 0 while"):
                    causal_effect_binary(table, err, 1, y)
            untreated = causal_effect_binary(table, err, 0, 1)
        assert caught == []
        assert untreated == pytest.approx(0.4, abs=1e-12)

    def test_vanishing_cell_denominator(self):
        # P(w1|1,1) = 0: the closed form's P(w1|x,y) vanishes
        err = BinaryErrorParams(0.2, 0.1)
        cells = np.full((2, 2, 2), 1 / 8)
        cells[1, 1] = [0.25, 0.0]
        with pytest.raises(DegenerateDenominatorError, match=r"P\(w\|x,y\) of branch w1"):
            closed_form_effect(JointTable(cells, "W"), err, 1, 1)

    def test_a_fraction_below_delta_is_incompatible(self):
        # the composition refuses the same table: P(w1|1,1) = 0 < delta
        # restores to a negative cell of mass 0.1 * 0.25 / 0.7
        err = BinaryErrorParams(0.2, 0.1)
        cells = np.full((2, 2, 2), 1 / 8)
        cells[1, 1] = [0.25, 0.0]
        with pytest.raises(IncompatibleModelError, match="negative mass 3.571e-02"):
            causal_effect_binary(JointTable(cells, "W"), err, 1, 1)

    def test_an_empty_slice_gets_an_estimate(self):
        # a pushforward whose latent P(x=1, y=1, .) = 0: the closed form's
        # P(x=1,y=1) vanishes, while the composition adjusts the y = 0 slice
        err = BinaryErrorParams(0.2, 0.1)
        latent = np.full((2, 2, 2), 1 / 6)
        latent[1, 1] = 0.0
        observed = JointTable(np.einsum("wz,xyz->xyw", err.matrix(), latent), "W")
        with pytest.raises(DegenerateDenominatorError, match=r"P\(x,y\) of branch w1 = 0"):
            closed_form_effect(observed, err, 1, 1)
        got = [causal_effect_binary(observed, err, 1, y) for y in (0, 1)]
        assert got == [pytest.approx(1.0, abs=1e-15), 0.0]


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
    """Reference synthesis: one boolean mask per (x, y) group and component.

    Component i's restored table carries the negative mass
    sum over groups of P(x, y) max(0, delta - q, q - (1 - eps)) / (1 - eps - delta)
    for group frequencies q (for eps + delta < 1): above ``TOL_INCOMPATIBLE``
    it is refused, and a smaller one is clipped, moving a group's split to
    the nearer end of [0, 1].
    """
    arr = np.asarray(samples)
    u = make_rng(seed).random((arr.shape[0], len(errs)))
    out = arr.astype(int)
    xy = arr[:, 0] * 2 + arr[:, 1]
    masks = [xy == cell for cell in range(4)]
    for cell, mask in enumerate(masks):
        if not mask.any():
            warnings.warn(f"no samples in group (x={cell // 2}, y={cell % 2})", RuntimeWarning)
    for i, err in enumerate(errs):
        qs = [float(arr[mask, 2 + i].mean()) if mask.any() else None for mask in masks]
        negative_mass = sum(
            mask.mean() * max(0.0, err.delta - q, q - (1.0 - err.eps)) / err.determinant
            for mask, q in zip(masks, qs) if q is not None
        )
        if negative_mass > TOL_INCOMPATIBLE:
            raise IncompatibleModelError(f"component {i}: negative mass {negative_mass}")
        if negative_mass > 0.0:
            warnings.warn(f"clipped the restored table for component {i}", RuntimeWarning)
        for mask, q in zip(masks, qs):
            if q is None:
                continue
            r = min(max((q - err.delta) / err.determinant, 0.0), 1.0)
            post1 = (1.0 - err.eps) * r / q if q > 0.0 else 0.0
            post0 = err.eps * r / (1.0 - q) if q < 1.0 else 0.0
            prob = np.where(arr[mask, 2 + i] == 1, post1, post0)
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
                    result = re.search(r"component \d+", str(exc)).group()
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
        with pytest.raises(IncompatibleModelError, match="component 0"), \
                pytest.warns(RuntimeWarning, match="no samples in group") as caught:
            synthesize_samples(samples, [err], seed=0)
        assert [str(w.message).split(";")[0] for w in caught] == [
            "no samples in group (x=0, y=1)", "no samples in group (x=1, y=0)"]

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


def exceeds_the_floor(mech, cells):
    """Whether the restoration of ``cells`` has a cell below -floor, the
    floor of its (x, y) slice being RESIDUE_ROUNDINGS * eps_mach * the
    condition number * |the slice's mass|."""
    raw = mech.apply_inverse(np.asarray(cells, dtype=float))
    floor = RESIDUE_ROUNDINGS * np.finfo(float).eps * mech.condition() * np.abs(raw.sum(axis=2))
    return bool((raw < -floor[:, :, None]).any())


def clip_warning(expected):
    """A block that must raise the clip warning when ``expected``, and
    otherwise no warning at all."""
    if expected:
        return pytest.warns(RuntimeWarning, match="clipped the restored table")
    return nullcontext()


def near_an_end(err, offset, upper):
    """P(w1|x,y) within ``offset`` of delta or, with ``upper``, of 1 - eps."""
    return min(max((1.0 - err.eps if upper else err.delta) + offset, 0.0), 1.0)


def verdict(fn, *args):
    """True when ``fn(*args)`` is accepted, False when it is refused as incompatible."""
    try:
        fn(*args)
    except IncompatibleModelError:
        return False
    return True


near_tolerance = st.floats(-3 * TOL_INCOMPATIBLE, 3 * TOL_INCOMPATIBLE)


class TestOneCompatibilityRule:
    """Every binary consumer refuses what ``restore._finalize`` refuses."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 0.4), st.floats(0.0, 0.4),
        hnp.arrays(np.float64, (2, 2), elements=st.floats(0.05, 1.0)),
        st.lists(st.tuples(near_tolerance, st.booleans()), min_size=4, max_size=4),
        st.integers(0, 1), st.integers(0, 1),
    )
    def test_effect_and_restoration_agree_near_the_ends(self, eps, delta, mass, ends, x, y):
        # the effect, its closed-form oracle and restoration give one verdict
        # wherever the oracle's denominators exist.  The effect's positivity
        # refusal comes after its restoration was accepted
        err = BinaryErrorParams(eps, delta)
        q = np.array([near_an_end(err, *end) for end in ends]).reshape(2, 2)
        mass = mass / mass.sum()
        observed = JointTable(np.stack((mass * (1.0 - q), mass * q), axis=-1), "W")
        mech = ErrorMatrix.from_binary(err)
        negative_mass = restore_joint(observed, mech, clip=True).negative_mass
        assume(abs(negative_mass - TOL_INCOMPATIBLE) > 1e-12)  # not a rounding tie
        try:
            oracle = verdict(closed_form_effect, observed, err, x, y)
        except DegenerateDenominatorError:
            reject()
        with recorded_warnings():
            try:
                effect = verdict(causal_effect_binary, observed, err, x, y)
            except PositivityError:
                effect = True
            restored = verdict(restore_binary, observed, err)
        assert effect == oracle == restored == (negative_mass <= TOL_INCOMPATIBLE)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(0.0, 0.4), st.floats(0.0, 0.4), near_tolerance, st.booleans(),
        st.integers(0, 3),
    )
    def test_weight_split_and_restoration_agree_near_the_ends(self, eps, delta, offset, upper,
                                                               cell):
        err = BinaryErrorParams(eps, delta)
        p = near_an_end(err, offset, upper)
        cells = np.zeros((2, 2, 2))
        cells[divmod(cell, 2)] = [1.0 - p, p]
        observed = JointTable(cells, "W")
        mech = ErrorMatrix.from_binary(err)
        negative_mass = restore_joint(observed, mech, clip=True).negative_mass
        assume(abs(negative_mass - TOL_INCOMPATIBLE) > 1e-12)
        accepted = negative_mass <= TOL_INCOMPATIBLE
        # each warns iff it is accepted and its clipped mass exceeds the
        # floor; a residue at or below the floor is set to 0 silently
        split_table = np.array([[[1.0 - p, p]]])
        with clip_warning(accepted and exceeds_the_floor(mech, split_table)):
            assert verdict(weight_split, p, err) == accepted
        with clip_warning(accepted and exceeds_the_floor(mech, cells)):
            assert verdict(restore_binary, observed, err) == accepted

    @pytest.mark.parametrize("eps, delta", [(0.2, 0.1), (0.0, 0.3), (0.35, 0.0), (0.05, 0.45),
                                            (0.3, 0.25)])
    def test_the_exact_ends_restore_an_exact_zero_without_a_warning(self, eps, delta):
        # P(w1|x,y) = delta in the y = 0 slices and 1 - eps in the y = 1 ones
        err = BinaryErrorParams(eps, delta)
        q = np.array([[delta, 1.0 - eps], [delta, 1.0 - eps]])
        mass = np.array([[0.1, 0.2], [0.3, 0.4]])
        observed = JointTable(np.stack((mass * (1.0 - q), mass * q), axis=-1), "W")
        result = restore_joint(observed, ErrorMatrix.from_binary(err))
        assert (result.negative_mass, result.clipped) == (0.0, False)
        restored = restore_binary(observed, err)  # a warning would fail the test
        assert restored.cells[:, 0, 1].tolist() == [0.0, 0.0]
        assert restored.cells[:, 1, 0].tolist() == [0.0, 0.0]
        np.testing.assert_allclose(restored.cells.sum(axis=2), mass, rtol=1e-15)
        assert weight_split(delta, err) == 0.0
        assert weight_split(1.0 - eps, err) == math.inf

    @pytest.mark.parametrize("upper", [False, True])
    def test_a_defect_ten_times_the_floor_is_clipped_and_reported(self, upper):
        err = BinaryErrorParams(0.2, 0.1)
        mech = ErrorMatrix.from_binary(err)
        defect = 10.0 * RESIDUE_ROUNDINGS * np.finfo(float).eps * mech.condition()
        # the restored end cell of a slice of mass 1 is about -defect
        p = 1.0 - err.eps + defect * err.determinant if upper else \
            err.delta - defect * err.determinant
        cells = np.zeros((2, 2, 2))
        cells[1, 0] = [1.0 - p, p]
        observed = JointTable(cells, "W")
        result = restore_joint(observed, mech)
        assert result.clipped
        assert result.negative_mass == pytest.approx(defect, rel=0.01)
        message = f"clipped the restored table; its negative mass {result.negative_mass:.3e} "
        with pytest.warns(RuntimeWarning, match=message):
            assert restore_binary(observed, err).cells[1, 0, 0 if upper else 1] == 0.0
        # the one slice alone restores to within rounding of the same defect
        with pytest.warns(RuntimeWarning, match=r"P\(w1\|x,y\) = \S+; its negative mass \S+e-15 "):
            assert weight_split(p, err) == (math.inf if upper else 0.0)

    def test_a_fraction_just_below_delta_is_clipped_everywhere(self):
        err = BinaryErrorParams(0.2, 0.1)
        q = np.array([[err.delta - 1e-9, 0.3], [0.5, 0.6]])
        mass = np.array([[0.2, 0.3], [0.25, 0.25]])
        observed = JointTable(np.stack((mass * (1.0 - q), mass * q), axis=-1), "W")
        clipped = r"clipped the restored table; its negative mass 2\.857e-10 is within"
        with pytest.warns(RuntimeWarning, match=clipped):
            assert restore_binary(observed, err).cells[0, 0, 1] == 0.0
        with pytest.warns(RuntimeWarning, match=clipped):
            assert math.isfinite(causal_effect_binary(observed, err, 1, 1))
        with pytest.warns(RuntimeWarning, match=r"clipped .* P\(w1\|x,y\) = 0\.099999999; "
                                                 r"its negative mass 1\.429e-09"):
            assert weight_split(err.delta - 1e-9, err) == 0.0
        with pytest.raises(IncompatibleModelError, match=r"for P\(w1\|x,y\) = 0\.0999"):
            weight_split(err.delta - 1e-6, err)

    @pytest.mark.parametrize("n, ones, accepted", [
        (2_000_000, 199_999, True),
        (2_000_000, 199_990, False),
        # a one-record defect needs n >= 1 / (1e-6 (1 - eps - delta)), about 1.43e6
        (1_400_000, 139_999, False),
    ])
    def test_synthesis_refuses_what_restoration_refuses(self, n, ones, accepted):
        err = BinaryErrorParams(0.2, 0.1)
        samples = np.zeros((n, 3), dtype=np.int8)  # one (x, y) group
        samples[:ones, 2] = 1
        observed = JointTable(np.array([[[n - ones, ones], [0, 0]], [[0, 0], [0, 0]]]) / n, "W")
        with recorded_warnings():
            assert verdict(restore_binary, observed, err) == accepted
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if not accepted:
                with pytest.raises(IncompatibleModelError, match="for component 0"):
                    synthesize_samples(samples, [err], seed=0)
                return
            out = synthesize_samples(samples, [err], seed=0)
        clipped = [str(w.message) for w in caught if "clipped" in str(w.message)]
        assert clipped == [
            "clipped the restored table for component 0; its negative mass 7.143e-07 "
            "is within the tolerance 1.0e-06"
        ]
        assert not out[:, 2].any()  # the split is clipped to P(z1|x,y) = 0


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
        via_closed = [closed_form_effect(observed, err, x, y) for y in (0, 1)]
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
    """The chunk statistic of ``effect-binary``: every resampled table of a
    chunk restored and adjusted at once, with the mask of those defined."""
    mech = ErrorMatrix.from_binary(err)

    def statistic(chunk):
        return restore._restored_effects(chunk.reshape(-1, 2, 2, 2), mech, x)

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
        # rates contradict the slice that is left
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
        def statistic(chunk):
            assert chunk.shape == (10, 8)
            raise ValidationError("bad statistic")

        with pytest.raises(ValidationError, match="bad statistic"):
            bootstrap_table_values(np.full(8, 0.125), 100, statistic, n_boot=10, seed=0)

    def test_one_statistic_call_for_the_default_resamples(self):
        # 200 resamples of a 2x2x2 table are 1600 cells, one chunk
        observed, err, _ = random_valid_instance(np.random.default_rng(22))
        chunks = []
        inner = effect_statistic(err, 1)

        def statistic(chunk):
            chunks.append(chunk.shape)
            return inner(chunk)

        counts = observed.cells * 1000
        got = bootstrap_table_values(counts / counts.sum(), 1000, statistic, n_boot=200, seed=4)
        assert chunks == [(200, 2, 2, 2)]
        want = loop_table_bootstrap(observed, err, 1, 1000, 200, 4)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("cells_cap", [8, 24, 100])
    def test_a_chunk_holds_at_most_the_count_buffers_cells(self, monkeypatch, cells_cap):
        monkeypatch.setattr(linear, "_COUNT_CELLS", cells_cap)
        cells = np.array([[[7, 7], [7, 7]], [[2, 3], [2, 3]]], dtype=float) / 40
        observed, err = JointTable(cells, "W"), BinaryErrorParams(0.1, 0.1)
        sizes = []
        inner = effect_statistic(err, 1)

        def statistic(chunk):
            sizes.append(chunk.size)
            return inner(chunk)

        counts = observed.cells * 40
        got = bootstrap_table_values(counts / counts.sum(), 40, statistic, n_boot=60, seed=3)
        assert max(sizes) <= cells_cap and sum(sizes) == 60 * 8
        assert len(sizes) == -(-60 // (cells_cap // 8))
        want = loop_table_bootstrap(observed, err, 1, 40, 60, 3)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(10, 80),
        n_boot=st.integers(2, 70),
        cells_cap=st.integers(1, 300),
        workers=st.sampled_from([1, 2, 3, 131]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_values_do_not_depend_on_chunks_or_threads(
        self, n, n_boot, cells_cap, workers, data_seed
    ):
        # small n leaves some resamples undefined and sometimes most of them
        rng = np.random.default_rng(data_seed)
        observed, err, _ = random_valid_instance(rng)
        x, seed = int(rng.integers(2)), int(rng.integers(100))

        def outcome():
            try:
                got = table_bootstrap(observed, err, x, n, n_boot, seed)
                return got.shape, got.tobytes()
            except EffectRestoreError as exc:
                return type(exc), str(exc)

        want = outcome()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linear, "_COUNT_CELLS", cells_cap)
            mp.setattr(linear, "_fill_workers", lambda: workers)
            assert outcome() == want
