"""Matrix restoration, restored propensity scores, and stratified effects."""

import copy
import pickle
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import (
    BinaryErrorParams,
    DegenerateStratumError,
    ErrorMatrix,
    IncompatibleModelError,
    JointTable,
    PositivityError,
    PropensityProfile,
    SingularError,
    ValidationError,
    adjust_for_confounder,
    causal_effect_restored,
    component_mechanism,
    propensity_profile,
    pushforward,
    restore_binary,
    restore_joint,
    restored_propensity,
    stratified_effect,
)
from effectrestore import mechanism, restore, tables
from effectrestore.restore import CONDITION_CAP

from strategies import factor_lists, lu_from, stochastic_matrices, traced_peak


def random_table(rng, cards, axis="Z"):
    cells = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
    return JointTable(cells, axis)


def well_conditioned_mechanism(rng, n, mix=0.4):
    # diagonally dominated column-stochastic matrix: always invertible
    noise = rng.dirichlet(np.ones(n), size=n).T
    return ErrorMatrix(entries=(1.0 - mix) * np.eye(n) + mix * noise)


class TestRestoreJoint:
    def test_identity_mechanism_is_noop(self):
        rng = np.random.default_rng(1)
        table = random_table(rng, (2, 2, 3), axis="W")
        result = restore_joint(table, ErrorMatrix.identity(3))
        np.testing.assert_array_equal(result.restored.cells, table.cells)
        assert result.restored.axis == "Z"
        assert result.negative_mass == 0.0
        assert not result.clipped

    def test_roundtrip_recovers_ground_truth(self):
        # forward-multiplication oracle: exact by construction
        rng = np.random.default_rng(2)
        for _ in range(50):
            cards = tuple(rng.integers(1, 5, size=2)) + (int(rng.integers(2, 5)),)
            truth = random_table(rng, cards)
            mech = well_conditioned_mechanism(rng, cards[2])
            observed = pushforward(truth, mech)
            result = restore_joint(observed, mech)
            assert np.abs(result.restored.cells - truth.cells).max() < 1e-10
            assert result.condition_estimate >= 1.0

    def test_uninformative_binary_mechanism_raises(self):
        mech = ErrorMatrix(entries=np.array([[0.5, 0.5], [0.5, 0.5]]))
        table = JointTable(np.full((2, 2, 2), 1 / 8), "W")
        with pytest.raises(SingularError):
            restore_joint(table, mech)

    def test_condition_cap(self):
        eps = 0.5 - 1e-10
        mech = ErrorMatrix(entries=np.array([[1 - eps, eps], [eps, 1 - eps]]))
        table = JointTable(np.full((2, 2, 2), 1 / 8), "W")
        with pytest.raises(SingularError):
            restore_joint(table, mech)
        eps = 0.5 - 1e-6  # condition 5e5, below the cap
        mech = ErrorMatrix(entries=np.array([[1 - eps, eps], [eps, 1 - eps]]))
        restored = restore_joint(table, mech).restored
        np.testing.assert_allclose(restored.cells, table.cells, atol=1e-9)

    def test_mass_conserved_per_treatment_outcome_pair(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            truth = random_table(rng, (3, 2, 4))
            mech = well_conditioned_mechanism(rng, 4)
            observed = pushforward(truth, mech)
            restored = restore_joint(observed, mech).restored
            np.testing.assert_allclose(
                restored.cells.sum(axis=2), observed.cells.sum(axis=2), atol=1e-12
            )

    def test_incompatible_data_raises_then_clips_on_request(self):
        err = BinaryErrorParams(0.3, 0.3)
        cells = np.full((2, 2, 2), 0.05)
        cells[1, 1] = [0.07, 0.63]  # P(w1|x=1,y=1) = 0.9, outside [delta, 1-eps]
        table = JointTable(cells, "W")
        mech = ErrorMatrix.from_binary(err)
        with pytest.raises(IncompatibleModelError):
            restore_joint(table, mech)
        result = restore_joint(table, mech, clip=True)
        assert result.clipped
        assert result.negative_mass > 1e-6
        assert result.restored.cells.min() >= 0.0
        np.testing.assert_allclose(
            result.restored.cells.sum(axis=2), table.cells.sum(axis=2), atol=1e-12
        )

    def test_tiny_negative_noise_is_clipped_silently(self):
        err = BinaryErrorParams(0.2, 0.1)
        cells = np.full((2, 2, 2), 1 / 8)
        # P(w1|x,y) a hair under delta: restored z1 cell goes slightly negative
        p_xy = 0.25
        cells[0, 0, 1] = (err.delta - 4e-9) * p_xy
        cells[0, 0, 0] = p_xy - cells[0, 0, 1]
        table = JointTable(cells, "W")
        result = restore_joint(table, ErrorMatrix.from_binary(err))
        assert result.clipped
        assert 0.0 < result.negative_mass < 1e-6
        assert result.restored.cells.min() >= 0.0

    def test_rectangular_mechanism_rejected(self):
        rect = ErrorMatrix(entries=np.array([[0.5, 0.1, 0.2], [0.5, 0.9, 0.8]]))
        table = JointTable(np.full((2, 2, 3), 1 / 12), "W")
        with pytest.raises(ValidationError):
            restore_joint(table, rect)

    def test_factored_path_matches_dense(self):
        rng = np.random.default_rng(4)
        errs = [BinaryErrorParams(0.15, 0.05), BinaryErrorParams(0.1, 0.2)]
        factors = tuple(ErrorMatrix.from_binary(e) for e in errs)
        factored = ErrorMatrix(factors=factors)
        dense = ErrorMatrix(entries=ErrorMatrix(factors=factors).dense())
        truth = random_table(rng, (2, 2, 4))
        observed_f = pushforward(truth, factored)
        observed_d = pushforward(truth, dense)
        np.testing.assert_allclose(observed_f.cells, observed_d.cells, atol=1e-15)
        rf = restore_joint(observed_f, factored).restored.cells
        rd = restore_joint(observed_d, dense).restored.cells
        np.testing.assert_allclose(rf, rd, atol=1e-13)
        np.testing.assert_allclose(rf, truth.cells, atol=1e-12)

    def test_large_mechanism_uses_solve_path(self):
        # a 12-dimensional dense mechanism restored through its cached inverse
        rng = np.random.default_rng(20)
        truth = random_table(rng, (2, 2, 12))
        mech = well_conditioned_mechanism(rng, 12)
        observed = pushforward(truth, mech)
        result = restore_joint(observed, mech)
        assert np.abs(result.restored.cells - truth.cells).max() < 1e-10

    def test_factored_path_beyond_dense_cap(self):
        # 13 binary components: 8192 latent cells, dense inversion forbidden
        rng = np.random.default_rng(5)
        errs = [
            BinaryErrorParams(rng.uniform(0, 0.2), rng.uniform(0, 0.2)) for _ in range(13)
        ]
        mech = ErrorMatrix(factors=tuple(ErrorMatrix.from_binary(e) for e in errs))
        truth = random_table(rng, (2, 1, 8192))
        observed = pushforward(truth, mech)
        restored = restore_joint(observed, mech).restored
        assert np.abs(restored.cells - truth.cells).max() < 1e-10


@st.composite
def latent_tables(draw, card_v):
    cx, cy = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cells = draw(hnp.arrays(np.float64, (cx, cy, card_v), elements=st.floats(0.01, 1.0)))
    return JointTable(cells / cells.sum(), "Z")


@st.composite
def mechanisms(draw):
    """Well-conditioned mechanisms, dense or factored."""
    if draw(st.booleans()):
        return ErrorMatrix(entries=draw(stochastic_matrices(draw(st.integers(1, 6)))))
    return ErrorMatrix(factors=tuple(draw(factor_lists())))


@st.composite
def stacked_tables(draw, mech, xy_cards=st.integers(1, 3)):
    """B in {1, 2, 7} observed (x, y, w) tables of one shape for ``mech``,
    each a pushforward of a latent table with zero cells (restored to
    rounding residues, and to a vanishing propensity where a stratum has
    no mass at x), the same with noise of either sign up to 1e-7 on its
    cells (negative mass near ``TOL_INCOMPATIBLE``), or any table (often
    incompatible with ``mech``)."""
    b = draw(st.sampled_from([1, 2, 7]))
    cx, cy = draw(xy_cards), draw(xy_cards)
    cells = st.sampled_from([0.0]) | st.floats(0.01, 1.0)
    stack = []
    for _ in range(b):
        kind = draw(st.sampled_from(["latent", "noisy", "any"]))
        table = draw(hnp.arrays(np.float64, (cx, cy, mech.n_z), elements=cells))
        table = table / table.sum() if table.sum() > 0.0 else np.full(table.shape, 1 / table.size)
        if kind != "any":
            table = mech.apply(table)
        if kind == "noisy":
            table = table + draw(hnp.arrays(np.float64, table.shape,
                                            elements=st.floats(-1e-7, 1e-7)))
        stack.append(table)
    return np.stack(stack), draw(st.integers(0, cx - 1))


def check_stack_per_table(stack, mech, x, clip, *, whole_stack):
    """The batched restoration and adjustment kernels against the one-table
    functions on every table of ``stack``: the same bits, negative mass and
    clipped flag, and a refusal exactly where those functions raise.  With
    ``whole_stack`` the inverse of the stack is one operator call, as in
    ``restore._restored_effects``; else each table's inverse is taken
    alone.  Returns the outcomes seen."""
    if whole_stack:
        raw = mech.apply_inverse(stack)
    else:
        raw = np.stack([mech.apply_inverse(table) for table in stack])
    restored, negative_mass, clipped, refused, _ = restore._finalize(
        raw, mech.condition(), clip=clip)
    effects, positive = tables._adjusted(restored, x)
    assert restored.shape == stack.shape and effects.shape == stack.shape[:1] + stack.shape[2:3]
    if whole_stack and not clip:
        got, defined = restore._restored_effects(stack, mech, x)
        assert got.tobytes() == effects.tobytes()
        assert (defined == positive & ~refused).all()
    seen = set()
    for b, cells in enumerate(stack):
        try:
            one = restore_joint(JointTable(cells, "W"), mech, clip=clip)
        except IncompatibleModelError:
            assert refused[b]
            seen.add("refused")
            continue
        assert not refused[b]
        assert restored[b].tobytes() == one.restored.cells.tobytes()
        assert negative_mass[b].tobytes() == np.float64(one.negative_mass).tobytes()
        assert clipped[b] == one.clipped
        if one.clipped:
            seen.add("clipped beyond the tolerance" if one.negative_mass > 1e-6 else "clipped")
        elif ((one.restored.cells == 0.0) & (mech.apply_inverse(cells) != 0.0)).any():
            seen.add("residue")
        try:
            effect = adjust_for_confounder(one.restored, x)
        except PositivityError:
            assert not positive[b]
            seen.add("positivity")
            continue
        assert positive[b]
        assert effects[b].tobytes() == effect.tobytes()
        seen.add("defined")
    return seen


def binary_mechanisms():
    rates = st.floats(0.0, 0.45)
    return st.builds(lambda e, d: ErrorMatrix.from_binary(BinaryErrorParams(e, d)), rates, rates)


def outcome_stack(rng, mech, n_w):
    """Seven (2, 2, ``n_w``) tables for ``mech``: one whose stratum z = 0 has
    no mass at x = 1, one with an empty stratum z = 1, one that restores
    to a cell of -1e-7, one with a slice all at w = 0, which no mechanism
    with mixing produces, and three pushforwards."""
    latent = rng.uniform(0.5, 1.5, (7, 2, 2, n_w))
    latent[0, 1, :, 0] = 0.0
    latent[1, :, :, 1] = 0.0
    latent[2, 0, 0, 0] = 0.0
    latent /= latent.sum(axis=(1, 2, 3), keepdims=True)
    stack = mech.apply(latent)
    stack[2, 0, 0] += mech.apply(np.eye(n_w)[1] - np.eye(n_w)[0]) * 1e-7
    stack[3, 1, 1] = np.eye(n_w)[0] * stack[3, 1, 1].sum()  # restores to negatives
    return stack


class TestBatchedKernelsMatchOneTable:
    """``restore._finalize`` and ``tables._adjusted`` take a leading batch
    axis; every table of a batch gets what the one-table functions give it
    alone.  The inverse itself is a BLAS product whose last bits may depend
    on how many rows it holds (a one-row product is a GEMV; a GEMM of a
    side of 32 or more switches kernels with its size), so a general
    mechanism's tables are inverted one at a time here, and a whole stack
    in one call only for the 2x2 mechanism of ``effect-binary``, whose
    bits do not depend on the row count."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_table_of_a_stack(self, data):
        mech = data.draw(mechanisms())
        stack, x = data.draw(stacked_tables(mech))
        for kind in check_stack_per_table(stack, mech, x, data.draw(st.booleans()),
                                          whole_stack=False):
            event(kind)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_each_binary_table_of_a_stack_restored_at_once(self, data):
        mech = data.draw(binary_mechanisms())
        stack, x = data.draw(stacked_tables(mech, xy_cards=st.just(2)))
        for kind in check_stack_per_table(stack, mech, x, data.draw(st.booleans()),
                                          whole_stack=True):
            event(kind)

    @pytest.mark.parametrize("clip", [False, True])
    @pytest.mark.parametrize("binary", [False, True])
    def test_every_outcome_in_one_stack(self, clip, binary):
        rng = np.random.default_rng(46)
        mech = (ErrorMatrix.from_binary(BinaryErrorParams(0.15, 0.1)) if binary
                else well_conditioned_mechanism(rng, 5))
        stack = outcome_stack(rng, mech, mech.n_w)
        seen = check_stack_per_table(stack, mech, 1, clip, whole_stack=binary)
        expected = {"positivity", "residue", "clipped", "defined"}
        expected |= {"clipped beyond the tolerance"} if clip else {"refused"}
        assert seen == expected


@st.composite
def rational_mechanisms(draw, n):
    """A mechanism of side ``n`` with rational entries: for n = 2 possibly
    the binary one of rates in hundredths, else one whose column z is
    integer weights, w = z outweighing the rest (so that it is
    invertible), divided by their sum."""
    if n == 2 and draw(st.booleans()):
        eps, delta = (draw(st.integers(0, 45)) / 100 for _ in range(2))
        return ErrorMatrix.from_binary(BinaryErrorParams(eps, delta))
    weights = draw(hnp.arrays(np.int64, (n, n), elements=st.integers(0, 4)))  # [z, w]
    np.fill_diagonal(weights, 0)
    np.fill_diagonal(weights, weights.sum(axis=1)
                     + draw(hnp.arrays(np.int64, n, elements=st.integers(1, 9))))
    return ErrorMatrix(entries=np.array([[Fraction(int(weights[z, w]), int(weights[z].sum()))
                                          for z in range(n)] for w in range(n)], dtype=float))


def latent_counts():
    """Cell counts of a latent table, half of them exactly zero."""
    return st.just(0) | st.integers(1, 6)


def exact_pushforward(counts, mech):
    """The latent table ``counts`` / its total and its pushforward through
    ``mech``'s float entries, computed in ``Fraction`` and rounded once."""
    latent = np.vectorize(lambda c: Fraction(int(c), int(counts.sum())), otypes=[object])(counts)
    entries = np.vectorize(Fraction, otypes=[object])(mech.dense())
    return latent.astype(float), np.dot(latent, entries.T).astype(float)


def check_exact_zeros(result, counts, latent):
    """A compatible table restores with no clip, and every exactly-zero
    latent cell to exactly 0.0."""
    assert not result.clipped and result.negative_mass == 0.0
    cells = result.restored.cells
    assert (cells[counts == 0] == 0.0).all()
    np.testing.assert_allclose(cells, latent, rtol=0, atol=1e-12)
    return int(np.count_nonzero(counts == 0))


class TestExactZerosRestoreToZero:
    """Latent tables with exact zeros, pushed forward exactly by rational
    mechanisms of side 2-4 and binary ones: the restored zeros come back as
    exactly 0.0 (rounding residues of the inversion), and nothing is
    clipped."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_table(self, data):
        mech = data.draw(rational_mechanisms(data.draw(st.integers(2, 4))))
        cards = (data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), mech.n_z)
        counts = data.draw(hnp.arrays(np.int64, cards, elements=latent_counts()))
        counts.flat[data.draw(st.integers(0, counts.size - 1))] += 1  # some mass
        latent, observed = exact_pushforward(counts, mech)
        result = restore_joint(JointTable(observed, "W"), mech)
        event(f"exact zeros: {check_exact_zeros(result, counts, latent) > 0}")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_stack_through_the_kernel(self, data):
        # K tables with one mechanism each, or one mechanism for all of them
        n, k = data.draw(st.integers(2, 4)), data.draw(st.integers(1, 4))
        cards = (k, data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)), n)
        counts = data.draw(hnp.arrays(np.int64, cards, elements=latent_counts()))
        counts[:, 0, 0, 0] += 1  # some mass in each table
        mechs = [data.draw(rational_mechanisms(n))
                 for _ in range(k if data.draw(st.booleans()) else 1)]
        pairs = [exact_pushforward(c, mechs[i % len(mechs)]) for i, c in enumerate(counts)]
        wheres = [f" for table {i}" for i in range(k)]
        raw, conds = restore._inverted(np.stack([obs for _, obs in pairs]), mechs,
                                       wheres[:len(mechs)])
        results = list(restore._judged(raw, conds * (k // len(conds)), clip=False, wheres=wheres))
        assert len(results) == k
        for i, (result, (latent, observed)) in enumerate(zip(results, pairs)):
            check_exact_zeros(result, counts[i], latent)
            if len(mechs) == k:  # a table of its own mechanism gets restore_joint's bits
                one = restore_joint(JointTable(observed, "W"), mechs[i])
                assert one.restored.cells.tobytes() == result.restored.cells.tobytes()


class TestRestoreInvertsPushforward:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_roundtrip(self, data):
        mech = data.draw(mechanisms())
        truth = data.draw(latent_tables(mech.n_z))
        result = restore_joint(pushforward(truth, mech), mech)
        np.testing.assert_allclose(result.restored.cells, truth.cells, atol=1e-12)
        assert 1.0 - 1e-12 <= result.condition_estimate <= 5.0 ** 4


class TestRestorationConservesSliceMass:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_each_xy_slice_keeps_its_mass(self, data):
        # any observed table, compatible or not: clipping rescales each
        # slice back to the mass the inverse conserves
        mech = data.draw(mechanisms())
        observed = data.draw(latent_tables(mech.n_w)).with_axis("W")
        result = restore_joint(observed, mech, clip=True)
        np.testing.assert_allclose(
            result.restored.cells.sum(axis=2), observed.cells.sum(axis=2), atol=1e-12
        )
        assert result.restored.cells.min() >= 0.0


class TestFactorizedOnce:
    def test_one_inverse_serves_every_step(self, monkeypatch):
        calls = {"inv": 0, "solve": 0, "norm": 0, "_kron_blocks": 0}
        real = {"inv": np.linalg.inv, "solve": np.linalg.solve, "norm": np.linalg.norm,
                "_kron_blocks": mechanism._kron_blocks}

        def counted(name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real[name](*args, **kwargs)
            return wrapper

        for name in ("inv", "solve", "norm"):
            monkeypatch.setattr(np.linalg, name, counted(name))
        monkeypatch.setattr(mechanism, "_kron_blocks", counted("_kron_blocks"))
        rng = np.random.default_rng(21)
        mech = well_conditioned_mechanism(rng, 12)
        observed = pushforward(random_table(rng, (2, 2, 12)), mech)
        cond = restore_joint(observed, mech).condition_estimate
        p_w = observed.cells.sum(axis=(0, 1))
        restored_propensity(observed.cells[1].sum(axis=0) / p_w, p_w, mech)
        assert mech.condition() == mech.condition() == cond
        # one inverse, and the 1-norm of the inverse once: the matrix's own
        # 1-norm is found while it is validated
        assert calls == {"inv": 1, "solve": 0, "norm": 1, "_kron_blocks": 2}

        factored = component_mechanism([BinaryErrorParams(0.1, 0.2)] * 3)
        observed = pushforward(random_table(rng, (2, 2, 8)), factored)
        restore_joint(observed, factored)
        restore_joint(observed, factored)
        factored.apply(observed.cells)
        assert factored.condition() > 1.0
        # the blocks of the matrices and of their inverses are built once each
        assert calls == {"inv": 4, "solve": 0, "norm": 4, "_kron_blocks": 4}

    def test_one_lu_factorization_serves_every_step(self, monkeypatch):
        names = ("getrf", "gecon", "getrs")
        calls = dict.fromkeys((*names, "inv"), 0)

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        lapack = mechanism._lapack()
        for name in names:
            monkeypatch.setattr(lapack, name, counted(name, getattr(lapack, name)))
        monkeypatch.setattr(np.linalg, "inv", counted("inv", np.linalg.inv))
        monkeypatch.setattr(mechanism, "_LU_MIN_SIDE", 12)
        rng = np.random.default_rng(22)
        mech = well_conditioned_mechanism(rng, 12)
        observed = pushforward(random_table(rng, (2, 2, 12)), mech)
        cond = restore_joint(observed, mech).condition_estimate
        p_w = observed.cells.sum(axis=(0, 1))
        restored_propensity(observed.cells[1].sum(axis=0) / p_w, p_w, mech)
        assert mech.condition() == mech.condition() == cond
        # one factorization and one estimate; a solve per restoration, no inverse
        assert calls == {"getrf": 1, "gecon": 1, "getrs": 2, "inv": 0}

        factored = ErrorMatrix(factors=(ErrorMatrix.identity(2), mech))
        observed = pushforward(random_table(rng, (2, 2, 24)), factored)
        restore_joint(observed, factored)
        restore_joint(observed, factored)
        assert factored.condition() == pytest.approx(cond, rel=1e-15)
        # the factored instance reuses the factors and their condition
        # numbers; only the 2x2 identity takes an inverse
        assert calls == {"getrf": 1, "gecon": 1, "getrs": 4, "inv": 1}


def bounded_table(rng, n, axis="Z"):
    """A (2, 2, n) table whose cells lie within a factor of 3 of each other."""
    cells = rng.uniform(0.5, 1.5, (2, 2, n))
    return JointTable(cells / cells.sum(), axis)


class TestLUPath:
    """Dense factors from ``_LU_MIN_SIDE`` up are solved through their LU
    factors; an explicit ``np.linalg.inv`` is the oracle."""

    @staticmethod
    def check_inverse_oracle(m, seed, lapack):
        """Restoration and propensity through ``m`` from side 1 agree with
        ``np.linalg.inv``; returns the mechanism."""
        rng = np.random.default_rng(seed)
        n = m.shape[0]
        inv = np.linalg.inv(m)
        cells = rng.random((3, 2, n))
        with lu_from(1, lapack):
            mech = ErrorMatrix(entries=m)
            np.testing.assert_allclose(mech.apply_inverse(cells), cells @ inv.T, rtol=0, atol=1e-12)
            observed = pushforward(bounded_table(rng, n), mech)
            restored = restore_joint(observed, mech).restored.cells
            p_w = observed.cells.sum(axis=(0, 1))
            score_w = observed.cells[1].sum(axis=0) / p_w
            propensity = restored_propensity(score_w, p_w, mech)
        np.testing.assert_allclose(restored, observed.cells @ inv.T, rtol=0, atol=1e-12)
        expected = (inv @ (score_w * p_w)) / (inv @ p_w)
        np.testing.assert_allclose(propensity, expected, rtol=0, atol=1e-12)
        return mech

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 30).flatmap(stochastic_matrices), st.integers(0, 2**32 - 1))
    def test_matches_inverse_oracle(self, m, seed):
        mech = self.check_inverse_oracle(m, seed, lapack=True)
        assert isinstance(mech._inverses[0], mechanism._LU)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 30).flatmap(stochastic_matrices), st.integers(0, 2**32 - 1))
    def test_without_numpys_lapack_factors_are_inverted(self, m, seed):
        # numpy linked to another LAPACK: the explicit inverse, exact condition number
        mech = self.check_inverse_oracle(m, seed, lapack=False)
        assert isinstance(mech._inverses[0], np.ndarray)
        exact = np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)
        assert mech.condition() == exact

    def test_exactly_singular_factor_raises(self):
        rng = np.random.default_rng(23)
        observed = random_table(rng, (2, 2, 4), axis="W")
        p_w = observed.cells.sum(axis=(0, 1))
        with lu_from(2):
            mech = ErrorMatrix(entries=np.full((4, 4), 0.25))
            with pytest.raises(SingularError, match="singular"):
                restore_joint(observed, mech)
            with pytest.raises(SingularError):
                restored_propensity(np.full(4, 0.5), p_w, mech)
            nested = ErrorMatrix(factors=(ErrorMatrix.identity(2), mech))
            with pytest.raises(SingularError):
                restore_joint(random_table(rng, (2, 2, 8), axis="W"), nested)
        assert mech._inverses is None

    def test_ill_conditioned_factor_raises_through_the_cap(self):
        # eigenvalues 1 and 2e-10: invertible, condition number near 1e10
        n, gap = 8, 2e-10
        m = gap * np.eye(n) + (1.0 - gap) / n
        rng = np.random.default_rng(24)
        observed = random_table(rng, (2, 2, n), axis="W")
        p_w = observed.cells.sum(axis=(0, 1))
        with lu_from(2):
            mech = ErrorMatrix(entries=m)
            assert isinstance(mech._inverses[0], mechanism._LU)
            assert mech.condition() > CONDITION_CAP
            with pytest.raises(SingularError, match="condition estimate"):
                restore_joint(observed, mech)
            with pytest.raises(SingularError, match="condition estimate"):
                restored_propensity(np.full(n, 0.5), p_w, mech)


    @pytest.mark.parametrize("lu_side", [2, None])
    def test_an_estimate_below_the_cap_is_checked_exactly(self, lu_side):
        # LAPACK estimates this 3-side mechanism's condition number as 7.6e7,
        # below the cap; the exact value, 1.238e8, is above it
        rng = np.random.default_rng(5640)
        n = int(rng.integers(3, 12))
        mix = rng.random((n, n)) ** rng.uniform(1, 6)
        mix /= mix.sum(axis=0)
        base = mix @ np.diag(rng.dirichlet(np.ones(n)))
        base /= base.sum(axis=0)
        singular = np.outer(rng.dirichlet(np.ones(n)), np.ones(n))
        gap = 10 ** rng.uniform(-9.5, -7.0)
        m = gap * base + (1 - gap) * singular
        m /= m.sum(axis=0)
        exact = np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)
        with lu_from(lu_side or mechanism._LU_MIN_SIDE):
            mech = ErrorMatrix(entries=m)
            assert isinstance(mech._inverses[0], mechanism._LU) == (lu_side is not None)
            assert mech.condition() == pytest.approx(exact, rel=1e-6)
            with pytest.raises(SingularError, match=r"condition estimate 1\.238e\+08"):
                restore_joint(random_table(rng, (2, 2, n), axis="W"), mech)

    @pytest.mark.parametrize("lu_side", [2, None])
    @pytest.mark.parametrize("share, accepted", [(1.02, False), (0.5, True)])
    def test_the_cap_on_a_family_whose_estimate_is_exact(self, lu_side, share, accepted):
        # gap I + (1 - gap) / n has condition number (n + (n - 2)(1 - gap)) / (n gap)
        n = 8
        gap = (2 * n - 2) / (n * share * CONDITION_CAP + n - 2)
        m = gap * np.eye(n) + (1.0 - gap) / n
        observed = random_table(np.random.default_rng(25), (2, 2, n), axis="W")
        with lu_from(lu_side or mechanism._LU_MIN_SIDE):
            mech = ErrorMatrix(entries=m)
            if not accepted:
                with pytest.raises(SingularError, match="condition estimate"):
                    restore_joint(observed, mech)
                return
            result = restore_joint(observed, mech, clip=True)
        assert result.condition_estimate == pytest.approx(share * CONDITION_CAP, rel=1e-6)

class TestBinaryIsTheTwoByTwoCase:
    @settings(max_examples=100, deadline=None)
    @given(
        st.floats(0.0, 0.45), st.floats(0.0, 0.45),
        hnp.arrays(np.float64, (2, 2, 2), elements=st.floats(0.01, 1.0)),
    )
    def test_matches_closed_form(self, eps, delta, latent):
        # oracle: the closed-form 2x2 inverse, cell by cell
        err = BinaryErrorParams(eps, delta)
        m = np.array([[1.0 - delta, eps], [delta, 1.0 - eps]])
        p = np.einsum("wz,xyz->xyw", m, latent / latent.sum())
        det = 1.0 - eps - delta
        expected = np.empty_like(p)
        expected[:, :, 0] = ((1.0 - eps) * p[:, :, 0] - eps * p[:, :, 1]) / det
        expected[:, :, 1] = (-delta * p[:, :, 0] + (1.0 - delta) * p[:, :, 1]) / det
        restored = restore_binary(JointTable(p, "W"), err)
        np.testing.assert_allclose(restored.cells, expected, atol=1e-14)


ERROR_FREE = ErrorMatrix.identity(2)


class TestRestoreJointDifferential:
    # ``restore_joint`` with a grid[x][y] of mechanisms, one per (x, y) slice

    def test_equal_mechanisms_collapse_to_shared_restoration(self):
        rng = np.random.default_rng(6)
        mech = well_conditioned_mechanism(rng, 3)
        observed = pushforward(random_table(rng, (2, 2, 3)), mech)
        a = restore_joint(observed, [[mech, mech], [mech, mech]]).restored.cells
        b = restore_joint(observed, mech).restored.cells
        np.testing.assert_allclose(a, b, atol=1e-15)

    def test_identity_family_is_noop(self):
        rng = np.random.default_rng(7)
        observed = random_table(rng, (2, 2, 3), axis="W")
        identity = ErrorMatrix.identity(3)
        result = restore_joint(observed, [[identity] * 2] * 2)
        np.testing.assert_array_equal(result.restored.cells, observed.cells)

    @staticmethod
    def two_rate_family():
        # a differential family, its latent truth and the exact observed table
        m_a = ErrorMatrix.from_binary(BinaryErrorParams(0.1, 0.2))
        m_b = ErrorMatrix.from_binary(BinaryErrorParams(0.25, 0.05))
        grid = [[m_a, m_b], [m_b, m_a]]
        truth = random_table(np.random.default_rng(8), (2, 2, 2))
        cells = np.stack(
            [[grid[x][y].dense() @ truth.cells[x, y, :] for y in range(2)] for x in range(2)]
        )
        return grid, truth, JointTable(cells, "W")

    @staticmethod
    def per_pair_solve(grid, observed):
        # oracle: an independent linear solve per (x, y) slice
        return np.stack([[np.linalg.solve(grid[x][y].dense(), observed.cells[x, y, :])
                          for y in range(observed.card_y)] for x in range(observed.card_x)])

    def test_matches_per_pair_solve_oracle(self):
        grid, truth, observed = self.two_rate_family()
        restored = restore_joint(observed, grid).restored
        np.testing.assert_allclose(restored.cells, self.per_pair_solve(grid, observed),
                                   atol=1e-12)
        np.testing.assert_allclose(restored.cells, truth.cells, atol=1e-12)

    def test_missing_pair_rejected(self):
        rng = np.random.default_rng(9)
        observed = random_table(rng, (2, 2, 2), axis="W")
        identity = ErrorMatrix.identity(2)
        with pytest.raises(ValidationError, match=r"grid has shape \(2,\)"):
            restore_joint(observed, [[identity, identity], [identity]])

    @pytest.mark.parametrize("grid, shape", [
        ([[ERROR_FREE] * 2], (1, 2)),
        ([[ERROR_FREE] * 2] * 2, (2, 2)),
        ([[ERROR_FREE] * 2] * 3, (3, 2)),
        ([ERROR_FREE] * 6, (6,)),
        ({(x, y): ERROR_FREE for x in range(2) for y in range(3)}, ()),  # a mapping is no grid
    ], ids=["1x2", "2x2", "3x2", "flat", "mapping"])
    def test_wrong_shaped_grid_rejected(self, grid, shape):
        observed = random_table(np.random.default_rng(12), (2, 3, 2), axis="W")
        with pytest.raises(ValidationError, match=(
                rf"^mechanism grid has shape {re.escape(str(shape))} but the observed table "
                r"has \(x, y\) cards \(2, 3\)$")):
            restore_joint(observed, grid)

    def test_wrong_n_w_named_by_its_pair(self):
        rng = np.random.default_rng(13)
        observed = random_table(rng, (2, 2, 2), axis="W")
        grid = [[ErrorMatrix.identity(2)] * 2 for _ in range(2)]
        grid[0][1] = ErrorMatrix.identity(3)
        with pytest.raises(ValidationError,
                           match=r"^mechanism for \(x=0, y=1\) has n_w=3, expected 2$"):
            restore_joint(observed, grid)

    def test_singular_reported_with_pair(self):
        rng = np.random.default_rng(10)
        observed = random_table(rng, (2, 2, 2), axis="W")
        bad = ErrorMatrix(entries=np.array([[0.5, 0.5], [0.5, 0.5]]))
        grid = [[ErrorMatrix.identity(2)] * 2 for _ in range(2)]
        grid[1][0] = bad
        with pytest.raises(SingularError) as info:
            restore_joint(observed, grid)
        assert str(info.value).count("(x=1, y=0)") == 1

    @pytest.mark.parametrize("x", [0, 1])
    def test_causal_effect_takes_the_grid(self, x):
        grid, _, observed = self.two_rate_family()
        expected = adjust_for_confounder(JointTable(self.per_pair_solve(grid, observed), "Z"), x)
        np.testing.assert_allclose(causal_effect_restored(observed, grid, x), expected,
                                   atol=1e-12)


class TestCausalEffectRestored:
    def test_identity_mechanism_reduces_to_plain_adjustment(self):
        rng = np.random.default_rng(11)
        observed = random_table(rng, (2, 3, 4), axis="W")
        for x in (0, 1):
            np.testing.assert_allclose(
                causal_effect_restored(observed, ErrorMatrix.identity(4), x),
                adjust_for_confounder(observed.with_axis("Z"), x),
                atol=1e-15,
            )

    def test_recovers_generating_model_effect_from_exact_observed(self):
        from effectrestore import binary_spec

        spec = binary_spec(
            0.4, [0.7, 0.2], [[0.2, 0.6], [0.5, 0.9]], BinaryErrorParams(0.2, 0.1)
        )
        observed = spec.joint_xyw()
        mech = spec.error
        for x in (0, 1):
            np.testing.assert_allclose(
                causal_effect_restored(observed, mech, x), spec.effect(x), atol=1e-10
            )


class TestRestoredPropensity:
    def test_identity_mechanism_is_noop(self):
        scores = np.array([0.3, 0.8, 0.5])
        p = np.array([0.2, 0.5, 0.3])
        out = restored_propensity(scores, p, ErrorMatrix.identity(3))
        np.testing.assert_allclose(out, scores, atol=1e-15)

    def test_constant_score_is_fixed_point(self):
        rng = np.random.default_rng(12)
        mech = well_conditioned_mechanism(rng, 4)
        p = rng.dirichlet(np.ones(4))
        out = restored_propensity(np.full(4, 0.37), p, mech)
        np.testing.assert_allclose(out, 0.37, atol=1e-12)

    def test_matches_restored_joint_conditional(self):
        # oracle: restore the joint, then condition by definition
        rng = np.random.default_rng(13)
        for _ in range(20):
            truth = random_table(rng, (2, 2, 4))
            mech = well_conditioned_mechanism(rng, 4)
            observed = pushforward(truth, mech)
            p_w = observed.cells.sum(axis=(0, 1))
            score_w = observed.cells[1].sum(axis=0) / p_w
            restored = restore_joint(observed, mech).restored
            expected = restored.cells[1].sum(axis=0) / restored.cells.sum(axis=(0, 1))
            out = restored_propensity(score_w, p_w, mech)
            np.testing.assert_allclose(out, expected, atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_inputs_rejected(self, bad):
        mech = ErrorMatrix.from_binary(BinaryErrorParams(0.2, 0.1))
        score, p_w = np.array([0.3, 0.6]), np.array([0.4, 0.6])
        with pytest.raises(ValidationError, match="must be finite"):
            restored_propensity(np.array([bad, 0.6]), p_w, mech)
        with pytest.raises(ValidationError, match="must be finite"):
            restored_propensity(score, np.array([0.4, bad]), mech)

    def test_vanishing_denominator_raises(self):
        err = BinaryErrorParams(0.2, 0.2)
        mech = ErrorMatrix.from_binary(err)
        p_w = np.array([0.8, 0.2])  # P(w1) == delta: restored z1 stratum empty
        with pytest.raises(DegenerateStratumError):
            restored_propensity(np.array([0.5, 0.5]), p_w, mech)

    def test_negative_latent_mass_is_incompatible(self):
        # M^-1 P(w) = (1.071, -0.071): the z1 stratum would carry negative
        # mass, which used to come back as a propensity of 0.14
        mech = ErrorMatrix.from_binary(BinaryErrorParams(0.2, 0.1))
        with pytest.raises(IncompatibleModelError, match="negative mass 7.143e-02"):
            restored_propensity(np.array([0.5, 0.9]), np.array([0.95, 0.05]), mech)

    @pytest.mark.parametrize("bad", [-0.1, 1.1])
    def test_score_outside_the_unit_interval_rejected(self, bad):
        mech = ErrorMatrix.from_binary(BinaryErrorParams(0.2, 0.1))
        with pytest.raises(ValidationError, match=r"score_w must lie in \[0, 1\]"):
            restored_propensity(np.array([0.5, bad]), np.array([0.4, 0.6]), mech)


class TestStratifiedEffect:
    def test_singleton_strata_equal_full_adjustment(self):
        rng = np.random.default_rng(14)
        table = random_table(rng, (3, 2, 6))
        profile = PropensityProfile(
            scores=table.cells[1].sum(axis=0) / table.cells.sum(axis=(0, 1)),
            labels=np.arange(6),
            weights=table.cells.sum(axis=(0, 1)),
        )
        for x in range(3):
            np.testing.assert_allclose(
                stratified_effect(table, profile, x),
                adjust_for_confounder(table, x),
                atol=1e-12,
            )

    def test_single_stratum_is_no_adjustment(self):
        rng = np.random.default_rng(15)
        table = random_table(rng, (2, 2, 5))
        profile = PropensityProfile(
            scores=np.zeros(5), labels=np.zeros(5, dtype=int), weights=np.array([1.0])
        )
        p_y_given_x1 = table.cells[1].sum(axis=1) / table.cells[1].sum()
        np.testing.assert_allclose(
            stratified_effect(table, profile, 1), p_y_given_x1, atol=1e-14
        )

    def test_exact_value_binning_is_lossless_for_binary_treatment(self):
        # L takes two distinct values; grouping by value loses nothing
        rng = np.random.default_rng(16)
        n_z = 10
        p_z = rng.dirichlet(np.ones(n_z))
        score = np.where(np.arange(n_z) % 2 == 0, 0.3, 0.7)
        p_y = rng.dirichlet(np.ones(3), size=(2, n_z))  # (x, z) -> dist over y
        cells = np.empty((2, 3, n_z))
        for z in range(n_z):
            for x in (0, 1):
                px = score[z] if x == 1 else 1.0 - score[z]
                cells[x, :, z] = p_z[z] * px * p_y[x, z]
        table = JointTable(cells, "Z")
        profile = propensity_profile(table, n_bins=10)
        assert len(profile.strata) == 2
        for x in (0, 1):
            np.testing.assert_allclose(
                stratified_effect(table, profile, x),
                adjust_for_confounder(table, x),
                atol=1e-12,
            )

    def test_equal_width_binning_when_many_distinct_scores(self):
        rng = np.random.default_rng(17)
        table = random_table(rng, (2, 2, 40))
        profile = propensity_profile(table, n_bins=5)
        assert len(profile.strata) <= 5
        assert profile.weights.sum() == pytest.approx(1.0, abs=1e-12)
        out = stratified_effect(table, profile, 1)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_stratum_with_weight_raises(self):
        rng = np.random.default_rng(18)
        table = random_table(rng, (2, 2, 2))
        profile = PropensityProfile(
            scores=np.array([0.5, 0.5]),
            labels=np.array([0, 0]),
            weights=np.array([0.6, 0.4]),
        )
        with pytest.raises(DegenerateStratumError):
            stratified_effect(table, profile, 1)

    def test_uncovered_mass_raises(self):
        rng = np.random.default_rng(19)
        table = random_table(rng, (2, 2, 3))
        profile = PropensityProfile(
            scores=np.full(3, 0.5), labels=np.array([0, 0, -1]), weights=np.array([1.0])
        )
        with pytest.raises(ValidationError):
            stratified_effect(table, profile, 0)

    def test_positivity_inside_stratum(self):
        cells = np.zeros((2, 2, 2))
        cells[0, 0, 0] = 0.25
        cells[0, 1, 0] = 0.25
        cells[0, 0, 1] = 0.1
        cells[1, 1, 1] = 0.4
        table = JointTable(cells, "Z")
        profile = PropensityProfile(
            scores=np.array([0.0, 0.8]),
            labels=np.array([0, 1]),
            weights=np.array([0.5, 0.5]),
        )
        with pytest.raises(PositivityError):
            stratified_effect(table, profile, 1)

    def test_profile_weight_validation(self):
        # weights sum to 1; one integer label per score, each in [-1, n_strata)
        for scores, labels, weights, fault in (
            ([0.5], [0], [0.7], "weights sum to 0.7"),
            ([0.5, 0.5], [0, 2], [0.5, 0.5], r"labels must lie in \[-1, 2\)"),
            ([0.5, 0.5], [-2, 0], [1.0], r"labels must lie in \[-1, 1\)"),
            ([0.5, 0.5], [0], [1.0], "one per score"),
            ([0.5], [0.0], [1.0], "must be integers"),
        ):
            with pytest.raises(ValidationError, match=fault):
                PropensityProfile(np.array(scores), np.array(labels), np.array(weights))


class TestLazyStrata:
    """A profile keeps one stratum label per z and forms the ``strata``
    tuples only when the attribute is read."""

    @staticmethod
    def profile_and_table():
        rng = np.random.default_rng(25)
        table = table_with_scores(rng, rng.choice([0.2, 0.5, 0.9], size=40), zero_mass=(3, 7))
        return propensity_profile(table, n_bins=5), table

    def test_strata_are_formed_on_first_read(self):
        profile, table = self.profile_and_table()
        effect = stratified_effect(table, profile, 1)
        assert "strata" not in vars(profile)
        strata = profile.strata
        assert profile.strata is strata
        labels = profile.labels.tolist()
        assert [[z for z in range(len(labels)) if labels[z] == k]
                for k in range(len(profile.weights))] == [list(s) for s in strata]
        assert all(type(z) is int for s in strata for z in s)
        np.testing.assert_array_equal(stratified_effect(table, profile, 1), effect)
        with pytest.raises(AttributeError, match="no attribute 'stratum'"):
            profile.stratum

    @pytest.mark.parametrize("read_first", [False, True])
    def test_repr_deepcopy_and_pickle_round_trips(self, read_first):
        profile, table = self.profile_and_table()
        strata = tuple(tuple(s) for s in profile.strata)
        if not read_first:
            profile, _ = self.profile_and_table()
        for clone in (copy.deepcopy(profile), pickle.loads(pickle.dumps(profile))):
            assert clone.strata == strata
            np.testing.assert_array_equal(clone.scores, profile.scores)
            np.testing.assert_array_equal(clone.weights, profile.weights)
            np.testing.assert_array_equal(
                stratified_effect(table, clone, 1), stratified_effect(table, profile, 1)
            )
        text = repr(profile)
        assert text.startswith("PropensityProfile(scores=") and "labels=array(" in text
        assert "strata" not in text

    def test_public_constructor_keeps_its_strata(self):
        profile = PropensityProfile(
            scores=np.full(4, 0.5), labels=np.array([0, 1, 0, -1]), weights=np.array([0.6, 0.4])
        )
        assert profile.strata == ((0, 2), (1,))
        assert all(type(z) is int for s in profile.strata for z in s)
        assert not profile.labels.flags.writeable
        assert pickle.loads(pickle.dumps(profile)).strata == profile.strata


def loop_propensity_profile(table, *, treated=1, n_bins=20):
    """Reference stratification: a Python loop over z."""
    p_z = table.cells.sum(axis=(0, 1))
    p_xz = table.cells.sum(axis=1)
    pos = p_z > 0.0
    scores = np.full(table.card_v, np.nan)
    scores[pos] = p_xz[treated, pos] / p_z[pos]
    pos_idx = np.nonzero(pos)[0]
    values = np.round(scores[pos_idx], 12)
    groups = {}
    if len(np.unique(values)) <= n_bins:
        for z, val in zip(pos_idx, values):
            groups.setdefault(float(val), []).append(int(z))
    else:
        clipped = np.clip(values, 0.0, 1.0)
        bins = np.minimum((clipped * n_bins).astype(int), n_bins - 1)
        for z, b in zip(pos_idx, bins):
            groups.setdefault(float(b), []).append(int(z))
    strata = tuple(tuple(groups[k]) for k in sorted(groups))
    weights = np.array([p_z[list(s)].sum() for s in strata])
    return scores, strata, weights / weights.sum()


def loop_stratified_effect(table, profile, x):
    """Reference stratified effect: a Python loop over strata with set unions."""
    p_z = table.cells.sum(axis=(0, 1))
    covered = set()
    for s in profile.strata:
        covered |= set(s)
    uncovered = [int(z) for z in np.nonzero(p_z > 0.0)[0] if int(z) not in covered]
    if uncovered:
        raise ValidationError(f"strata do not cover positive-mass z indices {uncovered}")
    out = np.zeros(table.card_y)
    for k, (members, weight) in enumerate(zip(profile.strata, profile.weights)):
        if weight <= 0.0:
            continue
        if not members:
            raise DegenerateStratumError(f"stratum {k} is empty but has weight {weight:.3e}")
        idx = list(members)
        p_xl = float(table.cells[x, :, idx].sum())
        if p_xl / weight < 1e-9:
            raise PositivityError(
                f"P(x={x} | l={k}) = {p_xl / weight:.3g} while P(l={k}) = {weight:.6g}: "
                f"stratum l={k} violates positivity (propensity below 1e-09)"
            )
        p_xyl = table.cells[x, :, idx].sum(axis=0)
        out += weight * (p_xyl / p_xl)
    return out


def discrete_score_table(rng, n_z, n_scores, card_y=3, zero_mass=()):
    """Latent table whose scores take n_scores distinct values; the listed
    z values carry no mass."""
    p_z = rng.dirichlet(np.ones(n_z))
    p_z[list(zero_mass)] = 0.0
    score = rng.uniform(0.05, 0.95, n_scores)[rng.integers(0, n_scores, n_z)]
    p_y = rng.dirichlet(np.ones(card_y), size=(2, n_z))
    cells = np.stack([(1.0 - score) * p_z * p_y[0].T, score * p_z * p_y[1].T])
    return JointTable(cells / cells.sum(), "Z")


def reference_propensity_profile(table, *, treated=1, n_bins=20):
    """The stratification before labels were narrowed: np.unique labels and
    an int64 stable argsort.  Returns scores, strata, weights and the
    stratum label of each z (-1 for a zero-mass z)."""
    p_z = table.cells.sum(axis=(0, 1))
    p_xz = table.cells.sum(axis=1)
    pos = p_z > 0.0
    scores = np.full(table.card_v, np.nan)
    scores[pos] = p_xz[treated, pos] / p_z[pos]
    pos_idx = np.flatnonzero(pos)
    values = np.round(scores[pos_idx], 12)
    keys, labels = np.unique(values, return_inverse=True)
    if len(keys) > n_bins:
        bins = np.minimum((np.clip(values, 0.0, 1.0) * n_bins).astype(int), n_bins - 1)
        keys, labels = np.unique(bins, return_inverse=True)
    order = np.argsort(labels, kind="stable")
    members = pos_idx[order]
    ends = np.cumsum(np.bincount(labels, minlength=len(keys))).tolist()
    strata = tuple(tuple(members[a:b].tolist()) for a, b in zip([0, *ends], ends))
    weights = np.bincount(labels, weights=p_z[pos_idx], minlength=len(keys))
    labels_z = np.full(table.card_v, -1)
    labels_z[pos_idx] = labels
    return scores, strata, weights / weights.sum(), labels_z


def table_with_scores(rng, scores, card_y=2, zero_mass=()):
    """Latent table whose treated share at z is scores[z]; the listed z
    values carry no mass."""
    n_z = len(scores)
    p_z = rng.dirichlet(np.ones(n_z))
    p_z[list(zero_mass)] = 0.0
    p_y = rng.dirichlet(np.ones(card_y), size=(2, n_z))
    cells = np.stack([(1.0 - scores) * p_z * p_y[0].T, scores * p_z * p_y[1].T])
    return JointTable(cells, "Z")


class TestStratificationMatchesReference:
    def check(self, table, n_bins):
        scores, strata, weights, labels = reference_propensity_profile(table, n_bins=n_bins)
        profile = propensity_profile(table, n_bins=n_bins)
        np.testing.assert_array_equal(profile.scores, scores)
        np.testing.assert_array_equal(profile.weights, weights)
        np.testing.assert_array_equal(profile.labels, labels)
        assert profile.strata == strata
        return profile

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n_bins", [1, 7, 20, 300])
    def test_binned_random_tables(self, seed, n_bins):
        rng = np.random.default_rng(seed)
        zero_mass = rng.choice(2**12, size=40, replace=False)
        table = table_with_scores(rng, rng.random(2**12), zero_mass=zero_mass)
        profile = self.check(table, n_bins)
        assert len(profile.strata) <= n_bins < 2**12

    @pytest.mark.parametrize("n_bins", [1, 5, 20, 260])
    def test_exactly_n_bins_distinct_scores(self, n_bins):
        rng = np.random.default_rng(n_bins)
        values = rng.uniform(0.05, 0.95, n_bins)
        scores = rng.permutation(np.resize(values, 3 * n_bins))
        table = table_with_scores(rng, scores, zero_mass=(0,) if n_bins > 1 else ())
        profile = self.check(table, n_bins)
        assert len(profile.strata) == n_bins

    @pytest.mark.parametrize("n_bins", [1, 5, 20, 260])
    def test_extra_distinct_score_only_at_the_last_z(self, n_bins):
        # n_bins distinct scores up to the last z, one more there: binned
        rng = np.random.default_rng(100 + n_bins)
        values = rng.uniform(0.05, 0.95, n_bins)
        scores = np.append(rng.permutation(np.resize(values, 3 * n_bins)), 0.999)
        table = table_with_scores(rng, scores)
        profile = self.check(table, n_bins)
        assert profile.strata[-1][-1] == len(scores) - 1


class TestStratificationMatchesLoop:
    @pytest.mark.parametrize(
        "n_scores, n_bins", [(4, 10), (10, 10), (400, 7), (400, 1)]
    )
    def test_profile_and_effect(self, n_scores, n_bins):
        # n_scores <= n_bins: one stratum per distinct score; otherwise equal-width bins
        rng = np.random.default_rng(n_scores + n_bins)
        table = discrete_score_table(rng, 500, n_scores, zero_mass=(3, 77, 499))
        scores, strata, weights = loop_propensity_profile(table, n_bins=n_bins)
        profile = propensity_profile(table, n_bins=n_bins)
        np.testing.assert_array_equal(profile.scores, scores)
        assert profile.strata == strata
        np.testing.assert_allclose(profile.weights, weights, rtol=1e-13, atol=0)
        for x in (0, 1):
            np.testing.assert_allclose(
                stratified_effect(table, profile, x),
                loop_stratified_effect(table, profile, x),
                rtol=1e-13, atol=1e-16,
            )

    @pytest.mark.parametrize(
        "strata, weights, x, error",
        [
            (((0, 1),), [1.0], 0, ValidationError),                 # z = 2, 3 uncovered
            (((0, 1), (2,), ()), [0.5, 0.3, 0.2], 0, ValidationError),
            (((2,), (), (0, 1, 3)), [0.4, 0.1, 0.5], 1, DegenerateStratumError),
            (((0,), (1,), (2, 3)), [0.3, 0.3, 0.4], 1, PositivityError),
            (((1,), (0,), (2, 3)), [0.0, 0.6, 0.4], 1, PositivityError),
        ],
    )
    def test_same_error_as_loop(self, strata, weights, x, error):
        cells = np.full((2, 2, 4), 0.05)
        cells[1, :, 1] = 0.0    # z = 1 never treated
        cells[1, :, 0] = 0.0    # nor z = 0
        table = JointTable(cells / cells.sum(), "Z")
        labels = np.full(4, -1)
        for k, members in enumerate(strata):
            labels[list(members)] = k
        profile = PropensityProfile(scores=np.zeros(4), labels=labels, weights=np.array(weights))
        assert profile.strata == strata
        with pytest.raises(error) as want:
            loop_stratified_effect(table, profile, x)
        with pytest.raises(error) as got:
            stratified_effect(table, profile, x)
        assert str(got.value) == str(want.value)

    def test_out_of_range_member_rejected(self):
        table = JointTable(np.full((2, 2, 3), 1.0 / 12), "Z")
        # a profile of four latent values for a table of three
        profile = PropensityProfile(
            scores=np.zeros(4), labels=np.zeros(4, dtype=int), weights=np.array([1.0])
        )
        with pytest.raises(ValidationError, match="4 latent values, table has card_v=3"):
            stratified_effect(table, profile, 1)


class TestLatentPathMemory:
    """At K = 16 binary components each stage's traced peak above its live
    input, in restored tables (2 x 2 x 2^16 cells, 2 MB).  The bounds sit
    below the figures of the first implementation: restoration and
    pushforward 2.00, the profile 2.81, adjustment 1.03, stratification 0.78."""

    @pytest.fixture(scope="class")
    def latent(self):
        rng = np.random.default_rng(43)
        mech = component_mechanism(
            [BinaryErrorParams(*rng.uniform(0.02, 0.15, 2)) for _ in range(16)])
        cells = rng.uniform(0.5, 1.5, (2, 2, 2**16))
        observed = pushforward(JointTable(cells / cells.sum(), "Z"), mech)
        restored = restore_joint(observed, mech).restored  # inverts and blocks the factors
        return mech, observed, restored

    @staticmethod
    def tables(fn, table):
        fn()  # first calls may allocate caches
        return traced_peak(fn)[1] / table.cells.nbytes

    def test_restoration_and_pushforward(self, latent):
        mech, observed, restored = latent
        assert self.tables(lambda: restore_joint(observed, mech), restored) <= 1.3
        assert self.tables(lambda: pushforward(restored, mech), restored) <= 1.3

    def test_clipped_restoration(self, latent):
        # the latent cells read as proxy ones restore with negatives, clipped;
        # 1.43 tables before the negatives were summed in place
        mech, _, restored = latent
        proxy = restored.with_axis("W")
        assert restore_joint(proxy, mech, clip=True).clipped
        assert self.tables(lambda: restore_joint(proxy, mech, clip=True), restored) <= 1.5

    def test_profile(self, latent):
        _, _, restored = latent
        assert self.tables(lambda: propensity_profile(restored, n_bins=20), restored) <= 1.6

    def test_adjustment_and_stratification(self, latent):
        _, _, restored = latent
        profile = propensity_profile(restored, n_bins=20)
        assert self.tables(lambda: adjust_for_confounder(restored, 1), restored) <= 0.75
        assert self.tables(lambda: stratified_effect(restored, profile, 1), restored) <= 0.6


class TestArrayOwnership:
    """Public constructors copy the caller's arrays; the library's own fresh
    arrays are frozen in place."""

    def test_profile_copies_the_callers_arrays(self):
        scores, labels, weights = np.full(4, 0.5), np.array([0, 1, 0, -1]), np.array([0.6, 0.4])
        profile = PropensityProfile(scores, labels, weights)
        for mine, held in ((scores, profile.scores), (labels, profile.labels),
                           (weights, profile.weights)):
            assert mine.flags.writeable and not np.shares_memory(mine, held)
            assert not held.flags.writeable
        scores[0] = 0.9
        assert profile.scores[0] == 0.5

    def test_estimators_hand_over_read_only_arrays(self):
        scores = np.tile([0.2, 0.5, 0.9], 5)
        table = table_with_scores(np.random.default_rng(44), scores, zero_mass=(4,))
        profile = propensity_profile(table, n_bins=3)
        assert not any(a.flags.writeable for a in (profile.scores, profile.labels, profile.weights))
        mech = well_conditioned_mechanism(np.random.default_rng(45), 15)
        pushed = pushforward(table, mech)
        clipped = restore_joint(table.with_axis("W"), mech, clip=True)
        assert clipped.clipped
        for out in (pushed, restore_joint(pushed, mech).restored, clipped.restored):
            assert not out.cells.flags.writeable and out.cells.flags.c_contiguous
