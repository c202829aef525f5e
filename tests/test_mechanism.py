"""Error-mechanism matrices: validation, binary params, tensor expansion."""

import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import (
    BinaryErrorParams,
    ErrorMatrix,
    SingularError,
    ValidationError,
    component_mechanism,
)
from effectrestore import mechanism
from strategies import (
    factor_lists,
    kron_factors,
    lu_from,
    nested_mechanisms,
    stochastic_matrices,
    traced_peak,
)


class TestErrorMatrix:
    def test_column_stochastic_enforced(self):
        with pytest.raises(ValidationError):
            ErrorMatrix(entries=np.array([[0.5, 0.5], [0.6, 0.5]]))
        with pytest.raises(ValidationError):
            ErrorMatrix(entries=np.array([[1.2, 0.0], [-0.2, 1.0]]))
        with pytest.raises(ValidationError, match="nonempty"):
            ErrorMatrix.from_json_dict({"n_w": 0, "n_z": 0, "entries": []})

    @pytest.mark.parametrize("columns, message", [
        ([[np.nan, 1.0], [0.5, 0.5]], "mechanism entries must be finite"),
        ([[np.inf, 0.0], [0.5, 0.5]], "mechanism entries must be finite"),
        ([[-np.inf, 1.0], [0.5, 0.5]], "mechanism entries must be finite"),
        ([[np.nan, np.inf], [0.5, 0.5]], "mechanism entries must be finite"),
        ([[np.inf, -np.inf], [np.nan, np.inf]], "mechanism entries must be finite"),
        ([[1.5, 0.0], [0.5, 0.5]], "mechanism entries must lie in [0, 1]"),
        ([[1.0 + 2e-12, 0.0], [0.5, 0.5]], "mechanism entries must lie in [0, 1]"),
        ([[1.5, -0.5], [0.5, 0.5]], "mechanism entries must lie in [0, 1]"),
        ([[1.0 + 1e-11, -1e-11], [0.5, 0.5]], "mechanism entries must lie in [0, 1]"),
        ([[0.5, 0.4], [0.5, 0.5]], "mechanism columns must sum to 1 (worst defect 1.000e-01)"),
        ([[1.0, 0.0], [0.5, 0.5 + 2e-12]],
         "mechanism columns must sum to 1 (worst defect 2.000e-12)"),
    ])
    def test_each_broken_rule_is_named(self, columns, message):
        # the first rule broken, in the order finite, range, column sums;
        # inf - inf and overflow in the column sums warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as info:
                ErrorMatrix(entries=np.array(columns).T)
        assert str(info.value) == message

    @pytest.mark.parametrize("doc, message", [
        # a factor must be an error-matrix object (a top-level list is read as rates)
        ({"factors": [[1.0]]}, "expected an object, got list"),
        ({"n_z": 1, "entries": [1.0]}, "missing field 'n_w'"),
        ({"n_w": 1, "entries": [1.0]}, "missing field 'n_z'"),
        ({"n_w": 2, "n_z": 2, "entries": ["0.9", "0.1", "0.1", "0.9"]},
         "entries must be nested lists of numbers, got str"),
        # numpy alone reads this as the 2x2 identity
        ({"n_w": 2, "n_z": 2, "entries": [1, 0, 0, True]},
         "entries must be nested lists of numbers, got bool"),
        ({"n_w": 7, "n_z": 3, "factors": [{"n_w": 2, "n_z": 2, "entries": [1, 0, 0, 1]}]},
         "n_w and n_z declare a 7x3 mechanism, the factors make a 2x2 one"),
        ({"n_w": 1, "n_z": 1, "entries": [1.0], "kind": "dense"}, "unknown field 'kind'"),
        # one list per z: doubly stochastic, so read column-major it would load as M^T
        ({"n_w": 3, "n_z": 3, "entries": [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]},
         "entries must be a flat list, got shape (3, 3)"),
    ])
    def test_malformed_json_names_the_fault(self, doc, message):
        with pytest.raises(ValidationError) as info:
            ErrorMatrix.from_json_dict(doc)
        assert str(info.value) == f"malformed error-matrix JSON: {message}"

    def test_rates_are_read_as_their_component_mechanism(self):
        # one reader for every mechanism document: a rates object or a list of
        # them is the factored mechanism of its pairs, bit for bit
        rates = [BinaryErrorParams(0.2, 0.1), BinaryErrorParams(0.05, 0.3)]
        for doc, errs in (([r.to_json_dict() for r in rates], rates),
                          (rates[0].to_json_dict(), rates[:1])):
            mech = ErrorMatrix.from_json_dict(doc)
            assert [f.entries.tobytes() for f in mech._leaves] == [
                f.entries.tobytes() for f in component_mechanism(errs)._leaves]

    @pytest.mark.parametrize("doc, message", [
        ([1.0], "malformed binary error params JSON: expected an object, got float"),
        ("abc", "malformed binary error params JSON: expected an object, got str"),
        ({"eps": 0.1, "delta": 0.2, "n_w": 2}, "malformed binary error params JSON: "
                                               "unknown field 'n_w'"),
        ([], "need at least one component"),
    ])
    def test_whatever_is_not_a_matrix_object_is_read_as_rates(self, doc, message):
        with pytest.raises(ValidationError) as info:
            ErrorMatrix.from_json_dict(doc)
        assert str(info.value) == message

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

    def test_nested_factors_are_flattened_when_built(self):
        a, b, c = (ErrorMatrix.from_binary(BinaryErrorParams(e, 0.1)) for e in (0.1, 0.2, 0.3))
        nested = ErrorMatrix(factors=(ErrorMatrix(factors=(a, b)), c))
        assert len(nested.factors) == 3
        assert all(f is g for f, g in zip(nested.factors, (a, b, c)))
        flat = ErrorMatrix(factors=(a, b, c)).to_json_dict()
        assert [f["entries"] for f in flat["factors"]] == [m.entries.ravel("F").tolist()
                                                          for m in (a, b, c)]
        # a nested document is written back as a flat list
        assert nested.to_json_dict() == flat
        doc = {"factors": [{"factors": flat["factors"][:2]}, flat["factors"][2]]}
        assert ErrorMatrix.from_json_dict(doc).to_json_dict() == flat

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

    @pytest.mark.parametrize("doc, message", [
        ([0.1, 0.2], "expected an object, got list"),
        ({"eps": 0.1}, "missing field 'delta'"),
        ({"eps": "0.1", "delta": False}, "eps must be a number, got str"),
        ({"eps": 0.1, "delta": False}, "delta must be a number, got bool"),
        ({"eps": 0.1, "delta": 0.2, "z": 1}, "unknown field 'z'"),
    ])
    def test_malformed_json_names_the_fault(self, doc, message):
        with pytest.raises(ValidationError) as info:
            BinaryErrorParams.from_json_dict(doc)
        assert str(info.value) == f"malformed binary error params JSON: {message}"


class TestExpandFactored:
    def test_single_factor_unchanged(self):
        f = ErrorMatrix(entries=BinaryErrorParams(0.2, 0.1).matrix())
        expanded = ErrorMatrix(entries=ErrorMatrix(factors=(f,)).dense())
        np.testing.assert_array_equal(expanded.dense(), f.dense())

    def test_two_identities(self):
        eye = ErrorMatrix.identity(2)
        expanded = ErrorMatrix(entries=ErrorMatrix(factors=(eye, eye)).dense())
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
            expanded = ErrorMatrix(factors=(a, b)).dense()
            lhs = np.linalg.inv(expanded)
            rhs = np.kron(np.linalg.inv(a.dense()), np.linalg.inv(b.dense()))
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_dimension_cap(self):
        factors = [ErrorMatrix.identity(2)] * 13  # 8192 > default cap
        mech = ErrorMatrix(factors=tuple(factors))
        assert mech.n_w == 8192
        with pytest.raises(ValidationError, match="cap"):
            mech.dense()


class TestFactoredOperatorMatchesExpansion:
    @settings(max_examples=60, deadline=None)
    @given(factor_lists(), st.integers(0, 2**32 - 1))
    def test_apply_inverse_and_condition(self, factors, seed):
        factored = ErrorMatrix(factors=tuple(factors))
        dense = ErrorMatrix(entries=ErrorMatrix(factors=tuple(factors)).dense())
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
        # nesting is flattened when built
        assert len(mech.factors) == len(mats)
        assert all(np.array_equal(f.entries, m) for f, m in zip(mech.factors, mats))
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
        expanded = ErrorMatrix(entries=reduce(np.kron, mats))
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


class TestInPlaceContraction:
    """The work table is contracted digit by digit in chunks; any chunk size
    gives the dense Kronecker product's result."""

    @staticmethod
    def assert_close(got, cells, dense):
        # componentwise: |error| <= 1e-12 (|cells| @ |dense|^T), whatever the summation order
        want = cells @ dense.T
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-12 * (np.abs(cells) @ np.abs(dense).T))

    @settings(max_examples=60, deadline=None)
    @given(st.data(), st.booleans(), st.sampled_from([1, 5, 64, 700, mechanism._CONTRACT_CHUNK]),
           st.sampled_from([None, 3, 5]))
    def test_matches_the_dense_kronecker_product(self, data, square, chunk, lu_side):
        mats = data.draw(kron_factors(square=square))
        mech = ErrorMatrix(factors=tuple(ErrorMatrix(entries=m) for m in mats))
        lead = data.draw(st.sampled_from([(), (4,), (2, 3), (3, 2, 2)]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        cells = np.random.default_rng(seed).random((*lead, mech.n_z))
        cells.setflags(write=False)  # the operand is read, never written
        with pytest.MonkeyPatch.context() as mp, lu_from(lu_side or mechanism._LU_MIN_SIDE):
            mp.setattr(mechanism, "_CONTRACT_CHUNK", chunk)
            pushed = mech.apply(cells)
            self.assert_close(pushed, cells, reduce(np.kron, mats))
            if square:
                restored = mech.apply_inverse(cells)
                inverse = reduce(np.kron, [np.linalg.inv(m) for m in mats])
                self.assert_close(restored, cells, inverse)
                np.testing.assert_allclose(mech.apply_inverse(pushed), cells, rtol=0, atol=1e-12)

    def test_a_dense_block_is_one_gemm(self):
        rng = np.random.default_rng(40)
        m = rng.random((50, 50))
        m /= m.sum(axis=0)
        cells = rng.random((2, 3, 50))
        # bit for bit the single product m @ cells^T
        product = np.dot(m, cells.reshape(-1, 50).T).T.reshape(2, 3, 50)
        assert np.array_equal(ErrorMatrix(entries=m).apply(cells), product)
        inv = np.linalg.inv(m)
        assert np.array_equal(mechanism._contract((inv,), cells),
                              np.dot(inv, cells.reshape(-1, 50).T).T.reshape(2, 3, 50))

    def test_lu_factors_are_one_solve_in_place(self):
        rng = np.random.default_rng(41)
        m = 0.7 * np.eye(64) + 0.3 * rng.dirichlet(np.ones(64), 64).T
        cells = rng.random((2, 2, 256, 64))
        with lu_from(64):
            mech = ErrorMatrix(entries=m)
            mech.apply_inverse(cells[0, 0, :1])  # factor first
            (lu,) = mech._inverse_blocks
            restored, peak = traced_peak(lambda: mech.apply_inverse(cells))
        # bit for bit the single solve of cells^T
        rhs = np.array(cells.reshape(-1, 64).T, order="F")  # a copy, solved in place
        assert np.array_equal(restored, lu.solve_in_place(rhs).T.reshape(cells.shape))
        # the work table is the right-hand side: no second table
        assert peak < 1.1 * cells.nbytes

    def test_a_factored_pass_holds_one_table_and_one_chunk(self):
        mech = component_mechanism([BinaryErrorParams(0.1, 0.05)] * 16)
        cells = np.random.default_rng(42).random((2, 2, 2**16))
        mech.apply_inverse(cells)  # invert and block the factors first
        restored, peak = traced_peak(lambda: mech.apply_inverse(cells))
        assert restored.flags.c_contiguous
        assert peak < cells.nbytes + 1.1 * 8 * mechanism._CONTRACT_CHUNK

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_entries_are_copied_once(self, dtype):
        entries = np.full((512, 512), 1, dtype=dtype)
        entries[1:] = 0
        mech, peak = traced_peak(lambda: ErrorMatrix(entries=entries))
        assert mech.entries.dtype == np.float64 and mech.entries.base is None
        assert peak <= 1.1 * mech.entries.nbytes


@st.composite
def stochastic_with_zeros(draw):
    """A square, wide or tall column-stochastic matrix with entries of +0.0
    and -0.0, and perhaps tiny negative ones that the tolerance accepts."""
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    raw = draw(hnp.arrays(np.float64, (rows, cols), elements=st.one_of(
        st.floats(0.01, 1.0), st.sampled_from([0.0, -0.0]))))
    raw[np.arange(cols) % rows, np.arange(cols)] += 1.0  # no column is all zero
    if draw(st.booleans()):
        zeros = np.flatnonzero(raw == 0.0)
        if zeros.size:
            raw.flat[draw(st.sampled_from(zeros.tolist()))] = -draw(st.floats(1e-16, 1e-14))
    return raw / raw.sum(axis=0)


class TestValidationNorm:
    """Validation leaves the matrix's 1-norm behind when no entry is negative."""

    @settings(max_examples=200, deadline=None)
    @given(stochastic_with_zeros())
    def test_cached_norm_is_numpys_to_the_bit(self, m):
        mech = ErrorMatrix(entries=m)
        if m.min() >= 0.0:
            assert mech._entries_norm == float(np.linalg.norm(m, 1))
        else:
            assert mech._entries_norm is None  # the condition number reads _norm1
        if m.shape[0] == m.shape[1]:
            try:
                exact = exact_condition(m)
            except np.linalg.LinAlgError:
                exact = float("inf")
            assert mech.condition() == exact

    def test_large_matrix_norm_is_numpys_to_the_bit(self):
        rng = np.random.default_rng(12)
        for rows, cols in ((3000, 1), (1, 3000), (2048, 2048), (700, 3000)):
            raw = rng.random((rows, cols))
            raw[rng.random((rows, cols)) < 0.3] = -0.0
            raw[0] += 1.0
            m = raw / raw.sum(axis=0)
            assert ErrorMatrix(entries=m)._entries_norm == float(np.linalg.norm(m, 1))


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

    def test_shapes_are_checked_before_lapack_reads(self):
        with pytest.raises(ValueError, match="square"):
            mechanism._LU.factor(np.full((2, 3), 0.5))
        lu = mechanism._LU.factor(np.eye(3))
        for bad in (np.ones((2, 1)), np.ones(3), np.ones((4, 3))):
            with pytest.raises(ValueError, match="shape"):
                lu.solve_in_place(np.array(bad, order="F"))
        np.testing.assert_array_equal(lu.solve_in_place(np.ones((3, 2), order="F")),
                                      np.ones((3, 2)))

    def test_numpys_bundled_openblas_exposes_the_kernels(self):
        # a wheel that dropped one of the symbols would silently invert instead
        lapack = np.show_config(mode="dicts")["Build Dependencies"].get("lapack", {})
        if lapack.get("name") != "scipy-openblas" or "USE64BITINT" not in lapack.get(
            "openblas configuration", ""
        ):
            pytest.skip(f"numpy links {lapack.get('name')!r}, not its ILP64 scipy-openblas")
        assert mechanism._lapack() is not None

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
