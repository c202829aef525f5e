"""Error-mechanism matrices: validation, binary params, tensor expansion."""

from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectrestore import (
    BinaryErrorParams,
    ErrorMatrix,
    SingularError,
    ValidationError,
    component_mechanism,
    expand_factored,
)
from effectrestore import mechanism
from strategies import factor_lists, lu_from, nested_mechanisms, stochastic_matrices


class TestErrorMatrix:
    def test_column_stochastic_enforced(self):
        with pytest.raises(ValidationError):
            ErrorMatrix(entries=np.array([[0.5, 0.5], [0.6, 0.5]]))
        with pytest.raises(ValidationError):
            ErrorMatrix(entries=np.array([[1.2, 0.0], [-0.2, 1.0]]))
        with pytest.raises(ValidationError, match="nonempty"):
            ErrorMatrix.from_json_dict({"n_w": 0, "n_z": 0, "entries": []})

    def test_identity(self):
        m = ErrorMatrix.identity(3)
        np.testing.assert_array_equal(m.dense(), np.eye(3))
        assert m.n_w == m.n_z == 3

    def test_json_roundtrip_column_major(self):
        m = ErrorMatrix(entries=np.array([[0.9, 0.2], [0.1, 0.8]]))
        doc = m.to_json_dict()
        assert doc["entries"] == [0.9, 0.1, 0.2, 0.8]
        back = ErrorMatrix.from_json_dict(doc)
        assert (back.dense() == m.dense()).all()

    def test_factored_json_roundtrip(self):
        mech = component_mechanism(
            [BinaryErrorParams(0.1, 0.2), BinaryErrorParams(0.05, 0.3)]
        )
        back = ErrorMatrix.from_json_dict(mech.to_json_dict())
        assert back.factors is not None and len(back.factors) == 2
        np.testing.assert_allclose(back.dense(), mech.dense(), atol=0)

    def test_needs_entries_or_factors(self):
        with pytest.raises(ValidationError):
            ErrorMatrix()

    def test_holds_exactly_one_form(self):
        eye = ErrorMatrix.identity(2)
        with pytest.raises(ValidationError, match="not both"):
            ErrorMatrix(entries=np.eye(2), factors=(eye,))
        doc = {"n_w": 2, "n_z": 2, "entries": [1.0, 0.0, 0.0, 1.0],
               "factors": [eye.to_json_dict()]}
        with pytest.raises(ValidationError, match="not both"):
            ErrorMatrix.from_json_dict(doc)

    def test_singular_operator(self):
        m = ErrorMatrix(entries=np.full((2, 2), 0.5))
        assert m.condition() == float("inf")
        with pytest.raises(SingularError):
            m.apply_inverse(np.ones(2))
        factored = ErrorMatrix(factors=(ErrorMatrix.identity(2), m))
        assert factored.condition() == float("inf")

    def test_operand_length_checked(self):
        mech = component_mechanism([BinaryErrorParams(0.1, 0.2)] * 2)
        with pytest.raises(ValidationError, match="length 4"):
            mech.apply(np.ones((2, 3)))
        with pytest.raises(ValidationError, match="length 4"):
            mech.apply_inverse(np.ones(5))

    def test_cached_inverse_is_read_only(self):
        m = ErrorMatrix(entries=BinaryErrorParams(0.2, 0.1).matrix())
        (inv,) = m._inverses
        assert m._inverses is m._inverses
        assert not inv.flags.writeable


class TestBinaryErrorParams:
    def test_matrix_layout(self):
        err = BinaryErrorParams(eps=0.2, delta=0.1)
        np.testing.assert_allclose(err.matrix(), [[0.9, 0.2], [0.1, 0.8]])
        assert err.determinant == pytest.approx(0.7)

    def test_uninformative_proxy_is_singular(self):
        with pytest.raises(SingularError):
            BinaryErrorParams(0.5, 0.5)
        with pytest.raises(SingularError):
            BinaryErrorParams(0.6, 0.4)

    def test_near_singular_gate(self):
        with pytest.raises(SingularError):
            BinaryErrorParams(0.3, 0.7 - 1e-7)
        BinaryErrorParams(0.3, 0.7 - 1e-5)  # outside the gate constructs fine

    def test_rates_must_be_proper(self):
        for eps, delta in ((1.0, 0.0), (-0.1, 0.0), (0.0, 1.5), (np.nan, 0.0)):
            with pytest.raises((ValidationError, SingularError)):
                BinaryErrorParams(eps, delta)


class TestExpandFactored:
    def test_single_factor_unchanged(self):
        f = ErrorMatrix(entries=BinaryErrorParams(0.2, 0.1).matrix())
        expanded = expand_factored([f])
        np.testing.assert_array_equal(expanded.dense(), f.dense())

    def test_two_identities(self):
        eye = ErrorMatrix.identity(2)
        expanded = expand_factored([eye, eye])
        np.testing.assert_array_equal(expanded.dense(), np.eye(4))
        assert expanded.factors is None

    def test_inverse_of_expansion_is_expansion_of_inverses(self):
        # oracle: dense inversion of the expanded matrix
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = ErrorMatrix.from_binary(
                BinaryErrorParams(rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4))
            )
            b = ErrorMatrix.from_binary(
                BinaryErrorParams(rng.uniform(0.0, 0.4), rng.uniform(0.0, 0.4))
            )
            expanded = expand_factored([a, b]).dense()
            lhs = np.linalg.inv(expanded)
            rhs = np.kron(np.linalg.inv(a.dense()), np.linalg.inv(b.dense()))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_cap(self):
        factors = [ErrorMatrix.identity(2)] * 13  # 8192 > default cap
        with pytest.raises(ValidationError, match="cap"):
            expand_factored(factors)
        mech = ErrorMatrix(factors=tuple(factors))
        assert mech.n_w == 8192
        with pytest.raises(ValidationError, match="cap"):
            mech.dense()

    def test_rectangular_factor_rejected(self):
        rect = ErrorMatrix(entries=np.array([[0.5, 0.1, 0.2], [0.5, 0.9, 0.8]]))
        with pytest.raises(ValidationError):
            expand_factored([rect])


class TestFactoredOperatorMatchesExpansion:
    @settings(max_examples=60, deadline=None)
    @given(factor_lists(), st.integers(0, 2**32 - 1))
    def test_apply_inverse_and_condition(self, factors, seed):
        factored = ErrorMatrix(factors=tuple(factors))
        dense = expand_factored(factors)
        m = dense.dense()
        cells = np.random.default_rng(seed).random((2, 3, factored.n_z))
        np.testing.assert_allclose(factored.apply(cells), dense.apply(cells), atol=1e-14)
        np.testing.assert_allclose(factored.apply(cells), cells @ m.T, atol=1e-14)
        np.testing.assert_allclose(
            factored.apply_inverse(cells), dense.apply_inverse(cells), rtol=1e-10, atol=1e-12
        )
        solved = np.linalg.solve(m, cells.reshape(-1, m.shape[0]).T).T.reshape(cells.shape)
        np.testing.assert_allclose(factored.apply_inverse(cells), solved, rtol=1e-10, atol=1e-12)
        assert factored.condition() == pytest.approx(dense.condition(), rel=1e-9)
        assert dense.condition() == pytest.approx(
            np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1), rel=1e-9
        )


class TestBlockContraction:
    """Kronecker blocks of consecutive factors apply the same operator as
    one factor at a time and as the dense expansion."""

    @staticmethod
    def operand(data, n):
        lead = data.draw(st.sampled_from([(), (2, 3), (3, 2, 2)]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        return np.random.default_rng(seed).random((*lead, n))

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.booleans())
    def test_apply_matches_factors_and_dense(self, data, square):
        mech, mats = data.draw(nested_mechanisms(square=square))
        cells = self.operand(data, mech.n_z)
        blocked = mech.apply(cells)
        assert blocked.shape == cells.shape[:-1] + (mech.n_w,)
        np.testing.assert_allclose(blocked, mechanism._contract(mats, cells), rtol=0, atol=1e-12)
        np.testing.assert_allclose(blocked, cells @ mech.dense().T, rtol=0, atol=1e-12)
        assert all(max(b.shape) <= mechanism._BLOCK_CAP for b in mech._blocks)
        np.testing.assert_allclose(
            reduce(np.kron, mech._blocks), reduce(np.kron, mats), rtol=0, atol=1e-15
        )

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_apply_inverse_and_condition_match(self, data):
        mech, mats = data.draw(nested_mechanisms(square=True))
        cells = self.operand(data, mech.n_z)
        invs = [np.linalg.inv(m) for m in mats]
        blocked = mech.apply_inverse(cells)
        np.testing.assert_allclose(blocked, mechanism._contract(invs, cells), rtol=0, atol=1e-12)
        expanded = expand_factored([ErrorMatrix(entries=m) for m in mats])
        np.testing.assert_allclose(blocked, expanded.apply_inverse(cells), rtol=0, atol=1e-12)
        np.testing.assert_allclose(mech.apply(blocked), cells, rtol=0, atol=1e-12)
        cond = 1.0
        for m, inv in zip(mats, invs):
            cond *= float(np.linalg.norm(m, 1)) * float(np.linalg.norm(inv, 1))
        assert mech.condition() == cond

    def test_blocks_group_consecutive_factors_up_to_the_cap(self):
        binary = [ErrorMatrix.from_binary(BinaryErrorParams(0.1, 0.2))] * 18
        assert [b.shape for b in ErrorMatrix(factors=tuple(binary))._blocks] == [(64, 64)] * 3
        big = ErrorMatrix.identity(100)
        mech = ErrorMatrix(factors=(*binary[:2], big, *binary[:7]))
        assert [b.shape for b in mech._blocks] == [(4, 4), (100, 100), (64, 64), (2, 2)]
        assert mech._blocks[1] is big.entries
        dense = ErrorMatrix(entries=BinaryErrorParams(0.1, 0.2).matrix())
        assert dense._blocks == (dense.entries,)


def exact_condition(m):
    return float(np.linalg.norm(m, 1)) * float(np.linalg.norm(np.linalg.inv(m), 1))


class TestLUFactors:
    """Dense square factors from ``_LU_MIN_SIDE`` up keep LU factors instead
    of an inverse; an explicit ``np.linalg.inv`` is the oracle."""

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.integers(1, 4))
    def test_nested_mechanism_with_lu_factors_matches_expansion(self, data, side):
        mech, mats = data.draw(nested_mechanisms(square=True))
        cells = TestBlockContraction.operand(data, mech.n_z)
        with lu_from(side):
            blocked = mech.apply_inverse(cells)
            cond = mech.condition()
        n_lu = sum(isinstance(b, mechanism._LU) for b in mech._inverse_blocks)
        assert n_lu == sum(m.shape[0] >= side for m in mats)
        dense = mech.dense()
        inv = np.linalg.inv(dense)
        np.testing.assert_allclose(blocked, cells @ inv.T, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mech.apply(blocked), cells, rtol=0, atol=1e-12)
        exact = exact_condition(dense)
        assert exact / 3**n_lu * (1 - 1e-9) <= cond <= exact * (1 + 1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40).flatmap(stochastic_matrices))
    def test_condition_estimate_is_a_close_lower_bound(self, m):
        with lu_from(1):
            est = ErrorMatrix(entries=m).condition()
        exact = exact_condition(m)
        assert exact / 3 <= est <= exact * (1 + 1e-9)

    def test_condition_estimate_on_a_benchmark_shaped_matrix(self):
        # the benchmark's dense mechanism: 0.7 I plus 0.3 times a random stochastic matrix
        rng = np.random.default_rng(9)
        raw = rng.random((600, 600))
        m = 0.7 * np.eye(600) + 0.3 * raw / raw.sum(axis=0)
        with lu_from(600):
            mech = ErrorMatrix(entries=m)
            est = mech.condition()
        assert isinstance(mech._inverses[0], mechanism._LU)
        exact = exact_condition(m)
        assert exact / 3 <= est <= exact * (1 + 1e-9)

    def test_factors_are_read_only_and_own_their_block(self):
        m = BinaryErrorParams(0.2, 0.1).matrix()
        with lu_from(2):
            mech = ErrorMatrix(factors=(ErrorMatrix(entries=m), ErrorMatrix.identity(1)))
            (lu, eye) = mech._inverses
        assert isinstance(lu, mechanism._LU)
        assert not lu.lu.flags.writeable and not lu.piv.flags.writeable
        # LU factors are never merged into a Kronecker block
        assert mech._inverse_blocks == (lu, eye)
        np.testing.assert_allclose(mech.apply_inverse(m[:, 0]), [1.0, 0.0], atol=1e-15)

    def test_exact_zero_pivot_is_singular(self):
        with lu_from(2):
            m = ErrorMatrix(entries=np.full((4, 4), 0.25))
            assert m._inverses is None
            assert m.condition() == float("inf")
            with pytest.raises(SingularError):
                m.apply_inverse(np.ones(4))

    def test_norm_reads_column_chunks_bit_identically(self, monkeypatch):
        rng = np.random.default_rng(10)
        for rows, cols in ((50, 70), (50, 71), (886, 886), (3, 1), (1, 5)):
            m = rng.standard_normal((rows, cols))
            expected = float(np.linalg.norm(m, 1))
            for chunk in (1, 100, 150, 700, 3500, 1 << 18):
                monkeypatch.setattr(mechanism, "_NORM_CHUNK", chunk)
                assert mechanism._norm1(m) == expected
                assert mechanism._norm1(np.asfortranarray(m)) == float(
                    np.linalg.norm(np.asfortranarray(m), 1)
                )
