"""Joint-table construction, validation, marginals, and adjustment."""

import numpy as np
import pytest

from effectrestore import (
    JointTable,
    PositivityError,
    ValidationError,
    adjust_for_confounder,
    empirical_joint,
    marginal,
    validate_joint,
)


def random_table(rng, cards=(2, 2, 4), axis="Z"):
    cells = rng.dirichlet(np.ones(int(np.prod(cards)))).reshape(cards)
    return JointTable(cells, axis)


class TestValidation:
    def test_uniform_table_valid(self):
        table = JointTable(np.full((2, 2, 2), 1 / 8), "Z")
        report = validate_joint(table)
        assert report.valid
        assert report.defect == 0.0
        assert report.negative_cells == ()

    def test_mass_deficit_reported(self):
        cells = np.full((2, 2, 2), 1 / 8)
        cells[0, 0, 0] -= 0.1
        report = validate_joint(JointTable(cells, "Z"))
        assert not report.valid
        assert report.defect == pytest.approx(0.1)

    def test_negative_cell_reported(self):
        cells = np.full((2, 2, 2), 1 / 8)
        cells[1, 0, 1] = -0.01
        cells[0, 0, 0] += 0.135  # keep the mass at 1 so only negativity trips
        report = validate_joint(JointTable(cells, "Z"))
        assert not report.valid
        assert ((1, 0, 1), -0.01) in report.negative_cells

    def test_constructor_rejects_bad_shape_and_axis(self):
        with pytest.raises(ValidationError):
            JointTable(np.ones((2, 2)), "Z")
        with pytest.raises(ValidationError):
            JointTable(np.full((2, 2, 2), 1 / 8), "Q")
        with pytest.raises(ValidationError):
            JointTable(np.full((2, 2, 2), np.nan), "Z")

    def test_cells_are_immutable(self):
        table = JointTable(np.full((2, 2, 2), 1 / 8), "Z")
        with pytest.raises(ValueError):
            table.cells[0, 0, 0] = 1.0


class TestMarginal:
    def test_uniform_v_marginal(self):
        table = JointTable(np.full((2, 2, 2), 1 / 8), "Z")
        np.testing.assert_allclose(marginal(table, "v"), [0.5, 0.5])

    def test_point_mass(self):
        cells = np.zeros((2, 2, 2))
        cells[0, 0, 1] = 1.0
        np.testing.assert_allclose(marginal(JointTable(cells, "Z"), "v"), [0.0, 1.0])

    def test_marginals_stay_normalized(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            table = random_table(rng, (3, 2, 4))
            for axes in ("x", "y", "v", "xy", ("x", "v"), ("y", "v")):
                assert marginal(table, axes).sum() == pytest.approx(1.0, abs=1e-12)

    def test_order_independence(self):
        rng = np.random.default_rng(12)
        table = random_table(rng, (3, 2, 4))
        via_v_then_y = marginal(table, ("x", "y")).sum(axis=1)
        via_y_then_v = marginal(table, ("x", "v")).sum(axis=1)
        np.testing.assert_allclose(via_v_then_y, via_y_then_v, atol=1e-15)
        np.testing.assert_allclose(via_v_then_y, marginal(table, "x"), atol=1e-15)

    def test_empty_and_unknown_axes_rejected(self):
        table = JointTable(np.full((2, 2, 2), 1 / 8), "Z")
        with pytest.raises(ValidationError):
            marginal(table, ())
        with pytest.raises(ValidationError):
            marginal(table, ("x", "q"))


class TestAdjustForConfounder:
    def test_single_stratum_collapses_to_conditional(self):
        rng = np.random.default_rng(21)
        cells = rng.dirichlet(np.ones(6)).reshape(2, 3, 1)
        table = JointTable(cells, "Z")
        p_y_given_x1 = cells[1, :, 0] / cells[1, :, 0].sum()
        np.testing.assert_allclose(adjust_for_confounder(table, 1), p_y_given_x1, atol=1e-14)

    def test_randomized_treatment_collapses_to_conditional(self):
        # Z independent of X: adjustment equals the plain conditional
        rng = np.random.default_rng(22)
        p_z = rng.dirichlet(np.ones(3))
        p_x = rng.dirichlet(np.ones(2))
        p_y_xz = rng.dirichlet(np.ones(2), size=(2, 3))  # (x, z) -> dist over y
        cells = np.einsum("x,z,xzy->xyz", p_x, p_z, p_y_xz)
        table = JointTable(cells, "Z")
        for x in (0, 1):
            p_y_given_x = cells[x].sum(axis=1) / cells[x].sum()
            np.testing.assert_allclose(
                adjust_for_confounder(table, x), p_y_given_x, atol=1e-14
            )

    def test_matches_bruteforce_summation(self):
        # independent oracle: plain python loop over all strata
        rng = np.random.default_rng(23)
        for _ in range(25):
            table = random_table(rng, (2, 2, 4))
            x = int(rng.integers(2))
            cells = table.cells
            expected = np.zeros(2)
            for y in range(2):
                for z in range(4):
                    p_z = cells[:, :, z].sum()
                    p_xz = cells[x, :, z].sum()
                    expected[y] += cells[x, y, z] / p_xz * p_z
            np.testing.assert_allclose(adjust_for_confounder(table, x), expected, atol=1e-13)

    def test_output_is_probability_vector(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            table = random_table(rng, (3, 4, 3))
            out = adjust_for_confounder(table, int(rng.integers(3)))
            assert out.min() >= 0.0
            assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_positivity_violation_names_stratum(self):
        cells = np.array(
            [
                [[0.2, 0.0], [0.1, 0.0]],
                [[0.1, 0.3], [0.1, 0.2]],
            ]
        )
        table = JointTable(cells, "Z")
        with pytest.raises(PositivityError, match="v=1"):
            adjust_for_confounder(table, 0)

    def test_positivity_names_first_offending_stratum(self):
        cells = np.full((2, 2, 5), 0.05)
        cells[0, :, [1, 3]] = 0.0
        table = JointTable(cells / cells.sum(), "Z")
        with pytest.raises(PositivityError, match=r"P\(x=0 \| v=1\) = 0 .* stratum v=1 "):
            adjust_for_confounder(table, 0)

    def test_zero_mass_strata_are_skipped(self):
        # oracle: the same loop over positive-mass strata that the adjustment
        # formula writes out, summed in stratum order
        rng = np.random.default_rng(25)
        for _ in range(25):
            cells = rng.dirichlet(np.ones(2 * 3 * 6)).reshape(2, 3, 6)
            cells[:, :, rng.integers(6, size=2)] = 0.0
            table = JointTable(cells / cells.sum(), "Z")
            p_v = table.cells.sum(axis=(0, 1))
            p_xv = table.cells.sum(axis=1)
            for x in range(2):
                expected = np.zeros(3)
                for v in np.nonzero(p_v > 0.0)[0]:
                    expected += table.cells[x, :, v] * (p_v[v] / p_xv[x, v])
                np.testing.assert_allclose(
                    adjust_for_confounder(table, x), expected, rtol=1e-14, atol=1e-16
                )

    def test_x_out_of_range(self):
        table = JointTable(np.full((2, 2, 2), 1 / 8), "Z")
        with pytest.raises(ValidationError):
            adjust_for_confounder(table, 5)


class TestSerialization:
    def test_json_roundtrip_is_bit_exact(self):
        rng = np.random.default_rng(31)
        table = random_table(rng, (2, 3, 4), axis="W")
        back = JointTable.from_json_dict(table.to_json_dict())
        assert back.axis == "W"
        assert (back.cells == table.cells).all()

    def test_row_major_cell_order(self):
        cells = np.arange(8, dtype=float).reshape(2, 2, 2) / 28.0
        doc = JointTable(cells, "Z").to_json_dict()
        assert doc["cards"] == [2, 2, 2]
        np.testing.assert_array_equal(doc["cells"], cells.ravel())

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            JointTable.from_json_dict({"cards": [2, 2], "cells": [1.0], "axis": "Z"})


class TestEmpiricalJoint:
    def test_counts(self):
        samples = np.array([[0, 0, 0], [0, 0, 0], [1, 1, 1], [1, 0, 1]])
        table = empirical_joint(samples, (2, 2, 2), "W")
        assert table.cells[0, 0, 0] == pytest.approx(0.5)
        assert table.cells[1, 1, 1] == pytest.approx(0.25)
        assert table.cells[1, 0, 1] == pytest.approx(0.25)
        assert table.total() == pytest.approx(1.0)

    def test_smoothing_fills_empty_cells(self):
        samples = np.array([[0, 0, 0]])
        table = empirical_joint(samples, (2, 2, 2), "W", smooth=0.5)
        assert table.cells.min() > 0.0
        assert table.total() == pytest.approx(1.0)
        assert table.cells[0, 0, 0] == pytest.approx(1.5 / 5.0)

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValidationError):
            empirical_joint(np.array([[0, 0, 2]]), (2, 2, 2))
