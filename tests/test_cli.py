"""End-to-end CLI behavior over flat files."""

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effectrestore

from effectrestore import (
    BinaryErrorParams,
    JointTable,
    binary_spec,
    causal_effect_restored,
    component_mechanism,
    empirical_joint,
)
from effectrestore.cli import main
from effectrestore.io import dump_json, load_json, read_samples_csv, write_samples_csv
from effectrestore.mechanism import ErrorMatrix

from strategies import lu_from, traced_peak


#: valid model documents for ``simulate-linear`` and ``simulate-discrete``
LINEAR_MODEL = {"c0": 0.5, "c1": 0.9, "c2": 0.7, "c3": 1.1, "var_z": 1.0, "var_ex": 1.0,
                "var_ey": 1.0, "var_ew": 0.3, "c_v": 0.8, "var_ev": 0.4}
DISCRETE_MODEL = binary_spec(
    0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], BinaryErrorParams(0.2, 0.1)
).to_json_dict()


@pytest.fixture()
def strong_confounding_spec():
    return binary_spec(
        0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], BinaryErrorParams(0.2, 0.1)
    )


def write_binary_samples(tmp_path, spec, n=20_000, seed=5):
    from effectrestore import simulate_discrete

    samples, _ = simulate_discrete(spec, n, seed=seed)
    path = tmp_path / "samples.csv"
    write_samples_csv(path, ["x", "y", "w"], samples, integer=True)
    return path, samples


class TestRestoreBinaryCommand:
    def test_noiseless_restoration_relabels_frequencies(self, tmp_path, strong_confounding_spec, capsys):
        samples_path, samples = write_binary_samples(tmp_path, strong_confounding_spec)
        err_path = tmp_path / "err.json"
        dump_json({"eps": 0.0, "delta": 0.0}, err_path)
        out_path = tmp_path / "out.json"
        code = main([
            "restore-binary", "--in", str(samples_path),
            "--error", str(err_path), "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        assert doc["method"] == "restore-binary"
        restored = JointTable.from_json_dict(doc["restored"])
        assert restored.axis == "Z"
        expected = empirical_joint(samples, (2, 2, 2), "W")
        np.testing.assert_allclose(restored.cells, expected.cells, atol=1e-15)

    def test_uninformative_rates_exit_2_with_machine_readable_error(self, tmp_path):
        samples_path, _ = write_binary_samples(tmp_path, binary_spec(
            0.5, [0.8, 0.2], [[0.2, 0.6], [0.4, 0.9]], BinaryErrorParams(0.2, 0.1)
        ), n=500)
        err_path = tmp_path / "err.json"
        dump_json({"eps": 0.6, "delta": 0.4}, err_path)
        out_path = tmp_path / "out.json"
        code = main([
            "restore-binary", "--in", str(samples_path),
            "--error", str(err_path), "--out", str(out_path),
        ])
        assert code == 2
        doc = load_json(out_path)
        assert doc["error"] == "singular"
        assert "message" in doc

    def test_rates_the_data_contradict_exit_2_from_both_binary_commands(self, tmp_path):
        samples_path, _ = write_binary_samples(tmp_path, binary_spec(
            0.4, [0.3, 0.7], [[0.2, 0.5], [0.4, 0.8]], BinaryErrorParams(0.1, 0.15)
        ), seed=3)
        err_path = tmp_path / "err.json"
        dump_json({"eps": 0.4, "delta": 0.4}, err_path)
        # two pairs of rates, a 4x4 mechanism, for a binary proxy: refused, not read
        # as the first pair
        pairs_path = tmp_path / "pairs.json"
        dump_json([{"eps": 0.1, "delta": 0.15}] * 2, pairs_path)
        for command in ("restore-binary", "effect-binary"):
            out_path = tmp_path / f"{command}.json"
            code = main([command, "--in", str(samples_path), "--error", str(err_path),
                         "--out", str(out_path)])
            assert code == 2
            assert load_json(out_path)["error"] == "incompatible"
            out_path.unlink()
            code, out, err, leaked = run_main([command, "--in", str(samples_path), "--error",
                                               str(pairs_path), "--out", str(out_path)])
            assert (code, out, leaked) == (1, "", [])
            assert err == (f"effectrestore {command}: error: {pairs_path}: {command} takes "
                           "a 2x2 mechanism (one rates pair or a 2x2 matrix), got 4x4\n")
            assert not out_path.exists()

    @pytest.mark.parametrize("flags", [[], ["--smooth"], ["--clip"]])
    def test_restored_is_the_closed_form_byte_for_byte(self, tmp_path, strong_confounding_spec,
                                                       flags):
        # restore-binary is restore-discrete on the 2x2 mechanism; its "restored"
        # is what the closed-form path writes, and restore-discrete given the
        # same rates as a matrix writes the same bytes
        from effectrestore import restore_binary

        samples_path, samples = write_binary_samples(tmp_path, strong_confounding_spec)
        err = BinaryErrorParams(0.2, 0.1)
        rates_path, matrix_path = tmp_path / "err.json", tmp_path / "matrix.json"
        dump_json(err.to_json_dict(), rates_path)
        dump_json(ErrorMatrix.from_binary(err).to_json_dict(), matrix_path)
        smooth = 0.5 if flags == ["--smooth"] else 0.0
        closed = restore_binary(empirical_joint(samples, (2, 2, 2), "W", smooth=smooth), err,
                                clip=flags == ["--clip"])
        docs = {}
        for command, error in (("restore-binary", rates_path),
                               ("restore-discrete", matrix_path)):
            out_path = tmp_path / f"{command}.json"
            assert main([command, "--in", str(samples_path), "--error", str(error), *flags,
                         "--out", str(out_path)]) == 0
            docs[command] = load_json(out_path)
            assert dump_json(docs[command]["restored"], None) == dump_json(
                closed.to_json_dict(), None)
        binary_doc = docs["restore-binary"]
        assert set(binary_doc) == {"method", "config", "restored", "condition_estimate",
                                   "negative_mass", "clipped"}
        for key in ("condition_estimate", "negative_mass", "clipped"):
            assert binary_doc[key] == docs["restore-discrete"][key]
        assert binary_doc["clipped"] is False

    def test_a_json_table_must_have_binary_x_and_y(self, tmp_path):
        table_path, rates_path = tmp_path / "t.json", tmp_path / "e.json"
        dump_json(JointTable(np.full((3, 3, 2), 1 / 18), "W").to_json_dict(), table_path)
        dump_json({"eps": 0.1, "delta": 0.1}, rates_path)
        code, out, err, leaked = run_main(
            ["restore-binary", "--in", str(table_path), "--error", str(rates_path)])
        assert (code, out, leaked) == (1, "", [])
        assert err == (f"effectrestore restore-binary: error: {table_path}: card_x=3 and "
                       "card_y=3, expected 2 and 2\n")


class TestSimulateThenEstimate:
    def test_effect_binary_covers_ground_truth(self, tmp_path, strong_confounding_spec):
        spec_path = tmp_path / "model.json"
        dump_json(strong_confounding_spec.to_json_dict(), spec_path)
        samples_path = tmp_path / "samples.csv"
        truth_path = tmp_path / "truth.json"
        code = main([
            "simulate-discrete", "--in", str(spec_path), "--out", str(samples_path),
            "--truth", str(truth_path), "--n", "100000", "--seed", "11",
        ])
        assert code == 0
        header, data = read_samples_csv(samples_path)
        assert header == ["x", "y", "w"]  # a mechanism of one factor: one w column
        assert data.shape == (100_000, 3)
        truth = load_json(truth_path)["effect"]

        err_path = tmp_path / "err.json"
        dump_json({"eps": 0.2, "delta": 0.1}, err_path)
        out_path = tmp_path / "est.json"
        code = main([
            "effect-binary", "--in", str(samples_path), "--error", str(err_path),
            "--x", "1", "--seed", "3", "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        for y in (0, 1):
            lo, hi = doc["ci95"][y]
            assert lo <= truth[1][y] <= hi
        assert doc["config"]["x"] == 1

    def test_simulation_is_byte_identical_across_runs(self, tmp_path, strong_confounding_spec):
        spec_path = tmp_path / "model.json"
        dump_json(strong_confounding_spec.to_json_dict(), spec_path)
        paths = []
        for tag in ("a", "b"):
            out = tmp_path / f"samples_{tag}.csv"
            main([
                "simulate-discrete", "--in", str(spec_path), "--out", str(out),
                "--n", "2000", "--seed", "21",
            ])
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["p_z", "p_x_given_z", "p_y_given_xz"])
    def test_non_finite_model_entry_exits_1_naming_the_field(
        self, tmp_path, capsys, strong_confounding_spec, field, bad
    ):
        doc = strong_confounding_spec.to_json_dict()
        cell = doc[field]
        while isinstance(cell[0], list):
            cell = cell[0]
        cell[0] = bad
        spec_path = tmp_path / "model.json"
        spec_path.write_text(json.dumps(doc))  # json writes NaN / Infinity
        code = main([
            "simulate-discrete", "--in", str(spec_path), "--out", str(tmp_path / "s.csv"),
            "--n", "10",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{field} entries must be finite" in err
        assert "Traceback" not in err


class TestRestoreDiscreteCommand:
    def test_effect_from_table_json_matches_library(self, tmp_path, strong_confounding_spec):
        observed = strong_confounding_spec.joint_xyw()
        mech = strong_confounding_spec.error
        table_path = tmp_path / "observed.json"
        dump_json(observed.to_json_dict(), table_path)
        mech_path = tmp_path / "mech.json"
        dump_json(mech.to_json_dict(), mech_path)
        out_path = tmp_path / "restored.json"
        code = main([
            "restore-discrete", "--in", str(table_path), "--error", str(mech_path),
            "--x", "1", "--strata", "10", "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        np.testing.assert_allclose(
            doc["effect"], causal_effect_restored(observed, mech, 1), atol=1e-12
        )
        np.testing.assert_allclose(doc["stratified_effect"], doc["effect"], atol=1e-9)
        assert doc["condition_estimate"] >= 1.0

    @pytest.mark.parametrize("flaw, fault", [
        ("ones", "cells sum to 8.0, 7.000e+00 from 1 (tolerance 1e-09)"),
        ("negative", "cell (x, y, v) = (0, 1, 0) is negative (-0.05)"),
    ], ids=["ones", "negative"])
    def test_a_json_table_must_be_a_distribution(self, tmp_path, flaw, fault):
        cells = np.full((2, 2, 2), 1 / 8)
        if flaw == "ones":
            cells[:] = 1.0
        else:
            cells[0, 1] = [-0.05, 0.3]  # mass still 1
        table_path, mech_path = tmp_path / "t.json", tmp_path / "m.json"
        dump_json(JointTable(cells, "W").to_json_dict(), table_path)
        dump_json(ErrorMatrix.identity(2).to_json_dict(), mech_path)
        code, out, err, leaked = run_main(
            ["restore-discrete", "--in", str(table_path), "--error", str(mech_path), "--x", "1"])
        assert (code, out, leaked) == (1, "", [])
        assert err == f"effectrestore restore-discrete: error: {table_path}: {fault}\n"

    def test_strata_stratify_on_the_treatment_value(self, tmp_path):
        # six latent values with distinct scores P(X = 2 | z): one stratum per
        # z, so the stratified effect of x = 2 is the adjusted one
        rng = np.random.default_rng(41)
        table_path, mech_path = tmp_path / "t.json", tmp_path / "m.json"
        dump_json(JointTable(rng.dirichlet(np.ones(36)).reshape(3, 2, 6), "W").to_json_dict(),
                  table_path)
        dump_json(ErrorMatrix.identity(6).to_json_dict(), mech_path)
        code, out, err, _ = run_main(["restore-discrete", "--in", str(table_path), "--error",
                                      str(mech_path), "--x", "2", "--strata", "20"])
        assert code == 0, err
        doc = json.loads(out)
        np.testing.assert_allclose(doc["stratified_effect"], doc["effect"], rtol=0, atol=1e-12)
        # a CSV whose x is always 0 has card_x 1; its treatment value 0 stratifies
        csv_path = tmp_path / "s.csv"
        write_samples_csv(csv_path, ["x", "y", "w"], np.array([[0, 0, 0], [0, 1, 1], [0, 1, 0]]),
                          integer=True)
        dump_json(ErrorMatrix.identity(2).to_json_dict(), mech_path)
        code, out, err, _ = run_main(["restore-discrete", "--in", str(csv_path), "--error",
                                      str(mech_path), "--x", "0", "--strata", "5"])
        assert code == 0, err
        doc = json.loads(out)
        np.testing.assert_allclose(doc["stratified_effect"], doc["effect"], rtol=0, atol=1e-12)

    def test_each_estimate_stands_alone(self, tmp_path):
        # z0 carries mass but is never treated: the cell-level effect of x = 1
        # fails on positivity, while one stratum over every z does not
        cells = np.zeros((2, 2, 3))
        cells[0, :, 0] = [0.1, 0.1]
        cells[0, :, 1:] = 0.05
        cells[1, :, 1] = [0.1, 0.15]
        cells[1, :, 2] = [0.2, 0.15]
        table_path, mech_path = tmp_path / "t.json", tmp_path / "m.json"
        dump_json(JointTable(cells, "W").to_json_dict(), table_path)
        dump_json(ErrorMatrix.identity(3).to_json_dict(), mech_path)
        code, out, err, leaked = run_main(["restore-discrete", "--in", str(table_path),
                                           "--error", str(mech_path), "--x", "1", "--strata", "1"])
        assert (code, leaked) == (2, [])
        doc = json.loads(out)
        message = "P(x=1 | v=0) = 0 while P(v=0) = 0.2: stratum v=0 violates positivity " \
                  "(propensity below 1e-09)"
        assert doc["effect"] == {"error": "positivity", "message": message}
        assert err == f"effectrestore restore-discrete: positivity: {message}\n"
        # the restoration and the stratified effect are kept: P(y | x=1) over all z
        assert doc["restored"]["cells"] == cells.ravel().tolist()
        assert doc["condition_estimate"] == 1.0 and doc["clipped"] is False
        np.testing.assert_allclose(doc["stratified_effect"], [0.5, 0.5], rtol=0, atol=1e-15)

    def test_csv_ingestion_with_smoothing(self, tmp_path):
        samples = np.array([[0, 0, 0], [1, 1, 1], [1, 0, 1]])
        path = tmp_path / "tiny.csv"
        write_samples_csv(path, ["x", "y", "w"], samples, integer=True)
        mech_path = tmp_path / "mech.json"
        dump_json(ErrorMatrix.identity(2).to_json_dict(), mech_path)
        out_path = tmp_path / "out.json"
        code = main([
            "restore-discrete", "--in", str(path), "--error", str(mech_path),
            "--smooth", "--out", str(out_path),
        ])
        assert code == 0
        restored = JointTable.from_json_dict(load_json(out_path)["restored"])
        assert restored.cells.min() > 0.0


def write_components_model(tmp_path, k, seed):
    """A model JSON with K binary proxy components and its rates list JSON."""
    from effectrestore import DiscreteModelSpec

    rng = np.random.default_rng(seed)
    p_z = rng.dirichlet(np.full(2**k, 5.0))
    p_x1 = rng.uniform(0.2, 0.8, 2**k)
    p_y1 = rng.uniform(0.2, 0.8, (2, 2**k))
    rates = [BinaryErrorParams(*rng.uniform(0.05, 0.15, 2)) for _ in range(k)]
    spec = DiscreteModelSpec(p_z, np.stack([1 - p_x1, p_x1]), np.stack([1 - p_y1, p_y1]),
                             component_mechanism(rates))
    model_path, rates_path = tmp_path / "model.json", tmp_path / "rates.json"
    dump_json({**spec.to_json_dict(), "error": {"components": [r.to_json_dict() for r in rates]}},
              model_path)
    dump_json([r.to_json_dict() for r in rates], rates_path)
    return model_path, rates_path


class TestSimulatedComponentsRestore:
    """A CSV that ``simulate-discrete`` writes for a ``components`` model,
    x, y and one w column per component, restores through
    ``restore-discrete`` with the model's rates list."""

    def simulate(self, tmp_path, k, n, seed):
        model_path, rates_path = write_components_model(tmp_path, k, seed)
        samples_path, truth_path = tmp_path / "samples.csv", tmp_path / "truth.json"
        assert main(["simulate-discrete", "--in", str(model_path), "--out", str(samples_path),
                     "--truth", str(truth_path), "--n", str(n), "--seed", str(seed)]) == 0
        return samples_path, rates_path, load_json(truth_path)["effect"]

    def test_four_components_recover_the_effect(self, tmp_path):
        samples_path, rates_path, truth = self.simulate(tmp_path, 4, 20_000, 1)
        header, data = read_samples_csv(samples_path)
        assert header == ["x", "y", "w1", "w2", "w3", "w4"]
        out_path = tmp_path / "restored.json"
        assert main(["restore-discrete", "--in", str(samples_path), "--error", str(rates_path),
                     "--x", "1", "--out", str(out_path)]) == 0
        doc = load_json(out_path)
        assert doc["restored"]["cards"] == [2, 2, 16]
        assert np.abs(np.subtract(doc["effect"], truth[1])).max() < 0.02
        # the same samples with the components raveled into one w column, first
        # most significant, restore to the same bytes
        raveled = np.column_stack([data[:, :2], data[:, 2:].astype(int) @ [8, 4, 2, 1]])
        raveled_path = tmp_path / "raveled.csv"
        write_samples_csv(raveled_path, ["x", "y", "w"], raveled, integer=True)
        assert main(["restore-discrete", "--in", str(raveled_path), "--error", str(rates_path),
                     "--x", "1", "--out", str(out_path)]) == 0
        assert load_json(out_path)["restored"] == doc["restored"]

    def test_twelve_components_restore_with_clipping(self, tmp_path):
        samples_path, rates_path, _ = self.simulate(tmp_path, 12, 100_000, 2)
        out_path = tmp_path / "restored.json"
        assert main(["restore-discrete", "--in", str(samples_path), "--error", str(rates_path),
                     "--clip", "--out", str(out_path)]) == 0
        doc = load_json(out_path)
        assert doc["restored"]["cards"] == [2, 2, 4096]
        assert doc["clipped"] is True
        assert sum(doc["restored"]["cells"]) == pytest.approx(1.0, abs=1e-9)

    def test_twelve_components_keep_the_stratified_effect(self, tmp_path):
        # a clipped latent value of positive mass is never treated, so the
        # cell-level effect fails on positivity; the stratified one stands
        samples_path, rates_path, truth = self.simulate(tmp_path, 12, 100_000, 2)
        code, out, err, leaked = run_main([
            "restore-discrete", "--in", str(samples_path), "--error", str(rates_path), "--clip",
            "--x", "1", "--strata", "20"])
        assert (code, leaked) == (2, [])
        doc = json.loads(out)
        assert "error" not in doc and doc["clipped"] is True
        assert doc["effect"]["error"] == "positivity"
        assert err == f"effectrestore restore-discrete: positivity: {doc['effect']['message']}\n"
        assert np.abs(np.subtract(doc["stratified_effect"], truth[1])).max() < 0.01

    def test_a_csv_of_another_width_names_both_widths(self, tmp_path):
        samples_path, _, _ = self.simulate(tmp_path, 3, 50, 3)
        _, rates_path = write_components_model(tmp_path, 2, 3)
        code, out, err, leaked = run_main(
            ["restore-discrete", "--in", str(samples_path), "--error", str(rates_path)])
        assert (code, out, leaked) == (1, "", [])
        assert err == (f"effectrestore restore-discrete: error: {samples_path}: expected 3 or 4 "
                       "columns, got 5 (['x', 'y', 'w1', 'w2', 'w3'])\n")


#: (x, y, w) counts of 100 rows whose P(w1 | x=1, y) is 0.1 for both y: at rates
#: (eps, delta) = (0.2, 0.1) the restored stratum P(x=1, z1) is empty
EMPTY_STRATUM_COUNTS = {(0, 0, 0): 15, (0, 0, 1): 15, (0, 1, 0): 10, (0, 1, 1): 10,
                        (1, 0, 0): 27, (1, 0, 1): 3, (1, 1, 0): 18, (1, 1, 1): 2}


class TestOneBinaryPath:
    """``effect-binary`` restores and adjusts as ``restore-discrete --x`` does,
    and both refuse a rounding-noise propensity."""

    def test_an_empty_restored_stratum_exits_2_positivity(self, tmp_path):
        from effectrestore import DegenerateDenominatorError, PositivityError, causal_effect_binary
        from test_binary import closed_form_effect

        rows = np.array([key for key, count in EMPTY_STRATUM_COUNTS.items() for _ in range(count)])
        samples_path, rates_path = tmp_path / "rows.csv", tmp_path / "rates.json"
        write_samples_csv(samples_path, ["x", "y", "w"], rows, integer=True)
        err = BinaryErrorParams(0.2, 0.1)
        dump_json(err.to_json_dict(), rates_path)
        base = ["--in", str(samples_path), "--error", str(rates_path), "--x", "1"]
        for argv, failed in (
            (["effect-binary", *base], ["error"]),
            (["restore-discrete", *base], ["effect"]),
            (["restore-discrete", *base, "--strata", "2"], ["effect", "stratified_effect"]),
        ):
            code, out, err_text, leaked = run_main(argv)
            assert (code, leaked) == (2, [])
            doc = json.loads(out)
            for key in failed:
                failure = doc if key == "error" else doc[key]
                assert failure["error"] == "positivity"
                assert re.match(r"P\(x=1 \| [vl]=\d\) = 0 while", failure["message"])
                assert "violates positivity (propensity below 1e-09)" in failure["message"]
            if argv[0] == "restore-discrete":
                # the restored P(x=1, z1) is a rounding residue, set to 0: no clip
                assert (doc["clipped"], doc["negative_mass"]) == (False, 0.0)
                assert "warnings" not in doc
        observed = empirical_joint(rows, (2, 2, 2), "W")
        with pytest.raises(PositivityError):  # and no clip warning, which would raise
            causal_effect_binary(observed, err, 1, 1)
        with pytest.raises(DegenerateDenominatorError, match="bracket"):
            closed_form_effect(observed, err, 1, 1)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_effect_binary_writes_restore_discretes_effect(self, tmp_path, seed):
        model_path, samples_path = tmp_path / "model.json", tmp_path / "samples.csv"
        dump_json(DISCRETE_MODEL, model_path)
        assert main(["simulate-discrete", "--in", str(model_path), "--out", str(samples_path),
                     "--n", "5000", "--seed", str(seed)]) == 0
        rates_path = tmp_path / "rates.json"
        dump_json({"eps": 0.2, "delta": 0.1}, rates_path)
        texts = []
        for command in ("effect-binary", "restore-discrete"):
            code, out, err, _ = run_main([command, "--in", str(samples_path), "--error",
                                          str(rates_path), "--x", "1"])
            assert code == 0, err
            texts.append(out)
        # the same bytes of the printed effect, and the same diagnostics
        effect_a, effect_b = (re.search(r'"effect": \[[^]]*\]', text)[0] for text in texts)
        assert effect_a == effect_b
        binary_doc, discrete_doc = map(json.loads, texts)
        for key in ("condition_estimate", "negative_mass", "clipped"):
            assert binary_doc[key] == discrete_doc[key]


def write_dense_model(tmp_path, seed):
    """A model JSON with a dense 3 x 3 mechanism."""
    from effectrestore import DiscreteModelSpec

    rng = np.random.default_rng(seed)
    p_x1 = rng.uniform(0.2, 0.8, 3)
    p_y1 = rng.uniform(0.2, 0.8, (2, 3))
    mech = 0.7 * np.eye(3) + 0.3 * rng.dirichlet(np.ones(3), size=3).T
    spec = DiscreteModelSpec(rng.dirichlet(np.ones(3)), np.stack([1 - p_x1, p_x1]),
                             np.stack([1 - p_y1, p_y1]), ErrorMatrix(entries=mech))
    path = tmp_path / "dense_model.json"
    dump_json(spec.to_json_dict(), path)
    return path


def simulated_layouts(tmp_path):
    """CSV paths ``simulate-discrete`` wrote (--n 3000 --seed 7) for a
    ``components`` model of three rates, a dense model and the components'
    factored ``matrix``."""
    components, _ = write_components_model(tmp_path, 3, 7)
    doc = load_json(components)
    rates = [BinaryErrorParams(**r) for r in doc["error"]["components"]]
    matrix = tmp_path / "matrix_model.json"
    dump_json({**doc, "error": {"matrix": component_mechanism(rates).to_json_dict()}}, matrix)
    paths = {}
    for name, model in (("components", components), ("dense", write_dense_model(tmp_path, 8)),
                        ("matrix", matrix)):
        paths[name] = tmp_path / f"{name}.csv"
        assert main(["simulate-discrete", "--in", str(model), "--out", str(paths[name]),
                     "--n", "3000", "--seed", "7"]) == 0
    return paths


class TestSimulatedLayout:
    """``simulate-discrete`` writes x, y and one w column per dense factor of
    the model's mechanism, headed ``w`` for one and w1..wK otherwise."""

    #: SHA-256 of the CSVs of ``simulated_layouts``; "matrix" is of the
    #: factored matrix model's CSV with its w columns raveled into one ``w``,
    #: first most significant, the layout such models were once written in
    DIGESTS = {
        "components": "84f1b2be0eab0ad6c458971c932db9902c78d16d47ee68b86b2c4b90f409dc41",
        "dense": "991bd31de2bf565edaed31acd2a3bd1e253e3c41de6bdced24f12e483c4df5a2",
        "matrix": "7d494fd78b807de2a1c68de15173aa6ee639a701d83b1524f5e1c639c4875dc0",
    }

    def test_components_and_dense_models_keep_their_bytes(self, tmp_path):
        paths = simulated_layouts(tmp_path)
        for name in ("components", "dense"):
            assert hashlib.sha256(paths[name].read_bytes()).hexdigest() == self.DIGESTS[name]
        assert read_samples_csv(paths["dense"])[0] == ["x", "y", "w"]

    def test_factored_matrix_writes_the_components_columns(self, tmp_path):
        paths = simulated_layouts(tmp_path)
        assert paths["matrix"].read_bytes() == paths["components"].read_bytes()
        header, data = read_samples_csv(paths["matrix"])
        assert header == ["x", "y", "w1", "w2", "w3"]
        raveled = tmp_path / "raveled.csv"
        write_samples_csv(raveled, ["x", "y", "w"],
                          np.column_stack([data[:, :2], data[:, 2:] @ [4, 2, 1]]), integer=True)
        assert hashlib.sha256(raveled.read_bytes()).hexdigest() == self.DIGESTS["matrix"]
        # restore-discrete reads both layouts, to the same bytes
        mech = tmp_path / "mech.json"
        dump_json(load_json(tmp_path / "matrix_model.json")["error"]["matrix"], mech)
        table, docs = tmp_path / "table.csv", []
        for source in (paths["matrix"], raveled):
            table.write_bytes(source.read_bytes())
            code, out, err, _ = run_main(["restore-discrete", "--in", str(table), "--error",
                                          str(mech), "--x", "1", "--strata", "4"])
            assert code == 0, err
            docs.append(out)
        assert docs[0] == docs[1]


class TestInferredCardsCap:
    def test_a_huge_x_value_exits_1_before_any_table_is_allocated(self, tmp_path):
        path = tmp_path / "huge.csv"
        write_samples_csv(path, ["x", "y", "w"], np.array([[0, 0, 1], [1, 1, 0], [1000000, 1, 1]]),
                          integer=True)
        mech = tmp_path / "mech.json"
        dump_json(ErrorMatrix.identity(2).to_json_dict(), mech)
        (code, out, err, leaked), peak = traced_peak(lambda: run_main(
            ["restore-discrete", "--in", str(path), "--error", str(mech), "--x", "1"]))
        assert (code, out, leaked) == (1, "", [])
        assert err == (f"effectrestore restore-discrete: error: {path}: column 'x' holds "
                       "1000000, so the 1000001 x 2 x 2 table exceeds the cap of 1048576 cells\n")
        assert peak < 4 << 20  # the uncapped table took over 100 MB


class TestSynthesizeCommand:
    def test_noiseless_copies_proxy_column(self, tmp_path):
        rng = np.random.default_rng(31)
        samples = rng.integers(0, 2, size=(200, 3))
        path = tmp_path / "s.csv"
        write_samples_csv(path, ["x", "y", "w1"], samples, integer=True)
        err_path = tmp_path / "e.json"
        dump_json([{"eps": 0.0, "delta": 0.0}], err_path)
        out_path = tmp_path / "synth.csv"
        code = main([
            "synthesize", "--in", str(path), "--error", str(err_path),
            "--seed", "1", "--out", str(out_path),
        ])
        assert code == 0
        header, data = read_samples_csv(out_path)
        assert header == ["x", "y", "z1"]
        np.testing.assert_array_equal(data.astype(int), samples)


class TestLinearCommands:
    def test_effect_linear_recovers_coefficient(self, tmp_path):
        from effectrestore import LinearSemSpec

        spec = LinearSemSpec(
            c0=0.8, c1=1.0, c2=1.0, c3=1.2, var_z=1.0,
            var_ex=0.5, var_ey=0.5, var_ew=0.4,
        )
        spec_path = tmp_path / "sem.json"
        dump_json(spec.to_json_dict(), spec_path)
        samples_path = tmp_path / "rows.csv"
        code = main([
            "simulate-linear", "--in", str(spec_path), "--out", str(samples_path),
            "--n", "50000", "--seed", "41",
        ])
        assert code == 0
        out_path = tmp_path / "c0.json"
        code = main([
            "effect-linear", "--in", str(samples_path), "--var-ew", "0.4",
            "--boot", "200", "--seed", "42", "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        assert abs(doc["c0"] - spec.c0) < 3.0 * doc["stderr"]
        assert doc["lambda_source"] == "error_variance"
        assert doc["boot_used"] == 200

    def test_effect_linear_two_indicator_route(self, tmp_path):
        from effectrestore import LinearSemSpec

        spec = LinearSemSpec(
            c0=-0.6, c1=1.0, c2=0.8, c3=1.2, var_z=1.0,
            var_ex=0.5, var_ey=0.5, var_ew=0.4, c_v=0.9, var_ev=0.3,
        )
        spec_path = tmp_path / "sem.json"
        dump_json(spec.to_json_dict(), spec_path)
        samples_path = tmp_path / "rows.csv"
        main([
            "simulate-linear", "--in", str(spec_path), "--out", str(samples_path),
            "--n", "50000", "--seed", "43",
        ])
        out_path = tmp_path / "c0.json"
        code = main([
            "effect-linear", "--in", str(samples_path), "--two-indicator",
            "--boot", "200", "--seed", "44", "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        assert doc["lambda_source"] == "two_indicator"
        assert abs(doc["c0"] - spec.c0) < 3.0 * doc["stderr"]
        assert abs(doc["lambda"] - spec.c3**2 * spec.var_z) < 0.05

    @pytest.mark.parametrize("share, used", [(0.8, 195), (0.97, 115)])
    def test_effect_linear_skips_resamples_with_too_little_proxy_variance(
        self, tmp_path, capsys, share, used
    ):
        # var_ew below the data's var(w) but above some resamples': those
        # resamples are undefined, the estimate is not
        from test_linear import noisy_proxy_rows

        rows = noisy_proxy_rows()
        samples_path = tmp_path / "rows.csv"
        write_samples_csv(samples_path, ["x", "y", "w"], rows)
        var_ew = share * np.var(rows[:, 2], ddof=1)
        code = main([
            "effect-linear", "--in", str(samples_path), "--var-ew", repr(float(var_ew)),
            "--boot", "200",
        ])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["boot_used"] == used

    def test_effect_linear_counts_constant_proxy_resamples_as_undefined(self, tmp_path, capsys):
        # a resample that draws only w = 0 rows is degenerate, not malformed
        # input: it used to exit 1 on its rounding-noise var_w
        from test_linear import degenerate_proxy_rows, error_variance_c0, loop_bootstrap_values

        samples_path = tmp_path / "rows.csv"
        write_samples_csv(samples_path, ["x", "y", "w"], degenerate_proxy_rows())
        code = main([
            "effect-linear", "--in", str(samples_path), "--var-ew", "0.001", "--boot", "200",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        _, rows = read_samples_csv(samples_path)
        want = loop_bootstrap_values(rows, error_variance_c0(0.001), 200, 0)
        assert doc["boot_used"] == len(want) < 200
        assert doc["stderr"] == pytest.approx(np.std(want, ddof=1), rel=1e-9)

    def test_effect_linear_refuses_a_bootstrap_from_two_rows(self, tmp_path, capsys):
        # two rows cannot support a standard error: a usage error, not stderr 0.0
        samples_path = tmp_path / "rows.csv"
        rows = np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 5.0]])
        write_samples_csv(samples_path, ["x", "y", "w"], rows)
        assert main(["effect-linear", "--in", str(samples_path), "--lambda", "1"]) == 1
        captured = capsys.readouterr()
        assert "at least 10 rows" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_effect_linear_requires_exactly_one_lambda_source(self, tmp_path):
        rng = np.random.default_rng(51)
        samples_path = tmp_path / "rows.csv"
        write_samples_csv(samples_path, ["x", "y", "w"], rng.normal(size=(100, 3)))
        assert main(["effect-linear", "--in", str(samples_path)]) == 1
        assert main([
            "effect-linear", "--in", str(samples_path),
            "--lambda", "1.0", "--var-ew", "0.5",
        ]) == 1

    def test_effect_binary_refuses_a_bootstrap_from_eight_rows(self, tmp_path, capsys):
        # each (x, y, w) cell once: too few records for a standard error
        samples_path = tmp_path / "rows.csv"
        rows = np.array([[i // 4, (i // 2) % 2, i % 2] for i in range(8)])
        write_samples_csv(samples_path, ["x", "y", "w"], rows, integer=True)
        err_path = tmp_path / "e.json"
        dump_json({"eps": 0.1, "delta": 0.1}, err_path)
        code = main([
            "effect-binary", "--in", str(samples_path), "--error", str(err_path),
            "--boot", "50",
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "need at least 10 rows for a bootstrap standard error, got 8" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_effect_binary_mostly_undefined_bootstrap_exits_2(self, tmp_path, capsys):
        # 12 rows with each x=1 cell once: most resamples keep one reading of
        # an x=1 slice, which contradicts the rates, or miss x=1 altogether
        samples_path = tmp_path / "rows.csv"
        rows = [[1, i // 2, i % 2] for i in range(4)]
        rows += [[0, (i // 2) % 2, i % 2] for i in range(8)]
        write_samples_csv(samples_path, ["x", "y", "w"], np.array(rows), integer=True)
        err_path = tmp_path / "e.json"
        dump_json({"eps": 0.1, "delta": 0.1}, err_path)
        code = main([
            "effect-binary", "--in", str(samples_path), "--error", str(err_path),
            "--boot", "50",
        ])
        assert code == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["error"] == "unidentifiable"
        assert "used 13/50" in doc["message"]
        assert "unidentifiable" in captured.err
        assert "Traceback" not in captured.err

    def test_test_dsep_two_stage_accepts_null(self, tmp_path):
        from effectrestore import LinearSemSpec

        spec = LinearSemSpec(
            c0=0.0, c1=1.0, c2=1.0, c3=1.0, var_z=1.0,
            var_ex=0.5, var_ey=0.5, var_ew=0.3,
        )
        spec_path = tmp_path / "sem.json"
        dump_json(spec.to_json_dict(), spec_path)
        samples_path = tmp_path / "rows.csv"
        main([
            "simulate-linear", "--in", str(spec_path), "--out", str(samples_path),
            "--n", "20000", "--seed", "61",
        ])
        out_path = tmp_path / "test.json"
        code = main([
            "test-dsep", "--in", str(samples_path), "--method", "two-stage",
            "--alpha-param", "1.0", "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        assert doc["method"] == "test-dsep"
        assert doc["test_method"] == "two_stage"
        assert doc["decision"] == "accept"

    def test_test_dsep_two_stage_near_degenerate_regressor_exits_2(self, tmp_path, capsys):
        from test_dsep import near_degenerate_regressor_rows

        rows, alpha = near_degenerate_regressor_rows()
        samples_path = tmp_path / "rows.csv"
        write_samples_csv(samples_path, ["x", "y", "w"], rows)
        code = main(["test-dsep", "--in", str(samples_path), "--method", "two-stage",
                     "--alpha-param", repr(alpha)])
        assert code == 2
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["error"] == "unidentifiable"
        assert doc["message"].startswith("var(X - (cov(XW)/alpha) W) = ")
        assert "unidentifiable" in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("method", ["two-stage", "theorem1", "tetrad"])
    def test_test_dsep_refuses_a_five_column_sample(self, tmp_path, capsys, method):
        # every method reads the one sample rule, (x, y, w[, v])
        samples_path = tmp_path / "rows.csv"
        rows = np.random.default_rng(52).normal(size=(200, 5))
        write_samples_csv(samples_path, ["x", "y", "w", "v", "u"], rows)
        code = main(["test-dsep", "--in", str(samples_path), "--method", method,
                     "--alpha-param", "1.0", "--lambda", "1.0", "--boot", "20"])
        assert code == 1
        captured = capsys.readouterr()
        assert "rows must have shape (n, 3) or (n, 4), got (200, 5)" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_test_dsep_theorem1_requires_lambda(self, tmp_path):
        from effectrestore import LinearSemSpec

        spec = LinearSemSpec(
            c0=0.0, c1=1.0, c2=1.0, c3=1.0, var_z=1.0,
            var_ex=0.5, var_ey=0.5, var_ew=0.3,
        )
        spec_path = tmp_path / "sem.json"
        dump_json(spec.to_json_dict(), spec_path)
        samples_path = tmp_path / "rows.csv"
        main([
            "simulate-linear", "--in", str(spec_path), "--out", str(samples_path),
            "--n", "20000", "--seed", "64",
        ])
        assert main([
            "test-dsep", "--in", str(samples_path), "--method", "theorem1",
        ]) == 1
        out_path = tmp_path / "t1.json"
        code = main([
            "test-dsep", "--in", str(samples_path), "--method", "theorem1",
            "--lambda", "1.0", "--boot", "200", "--seed", "65",
            "--out", str(out_path),
        ])
        assert code == 0
        doc = load_json(out_path)
        assert doc["test_method"] == "theorem1"
        assert doc["decision"] == "accept"

    def test_test_dsep_tetrad_needs_v_column(self, tmp_path):
        from effectrestore import LinearSemSpec

        spec = LinearSemSpec(
            c0=0.0, c1=1.0, c2=1.0, c3=1.0, var_z=1.0,
            var_ex=0.5, var_ey=0.5, var_ew=0.3, c_v=1.0, var_ev=0.2,
        )
        spec_path = tmp_path / "sem.json"
        dump_json(spec.to_json_dict(), spec_path)
        samples_path = tmp_path / "rows.csv"
        main([
            "simulate-linear", "--in", str(spec_path), "--out", str(samples_path),
            "--n", "20000", "--seed", "100",
        ])
        out_path = tmp_path / "tetrad.json"
        code = main([
            "test-dsep", "--in", str(samples_path), "--method", "tetrad",
            "--boot", "200", "--seed", "1000", "--out", str(out_path),
        ])
        assert code == 0
        assert load_json(out_path)["decision"] == "accept"


#: (--lambda or --alpha-param value, as the refusal prints it)
LAMBDAS = [("inf", "inf"), ("nan", "nan"), ("0", "0.0")]


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_input_file_exits_1(self, tmp_path):
        err_path = tmp_path / "e.json"
        dump_json({"eps": 0.1, "delta": 0.1}, err_path)
        code = main([
            "restore-binary", "--in", str(tmp_path / "nope.csv"),
            "--error", str(err_path),
        ])
        assert code == 1

    def test_malformed_json_exits_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        samples = tmp_path / "s.csv"
        write_samples_csv(samples, ["x", "y", "w"], np.zeros((4, 3)), integer=True)
        code = main(["restore-binary", "--in", str(samples), "--error", str(bad)])
        assert code == 1
        # bytes that do not decode: a rate file, a CSV header and a CSV body
        bad.write_bytes(b"\xff\xfe{}")
        header = tmp_path / "header.csv"
        header.write_bytes(b"\xff\xfex,y,w\n1,2,3\n")
        body = tmp_path / "body.csv"
        body.write_bytes(b"x,y,w\n1,2,3\n1,2,\xff\n")
        for argv, path in (
            (["effect-binary", "--in", str(samples), "--error", str(bad)], bad),
            (["effect-linear", "--in", str(header), "--lambda", "0.5"], header),
            (["effect-linear", "--in", str(body), "--lambda", "0.5"], body),
        ):
            code, out, err, leaked = run_main(argv)
            assert (code, out, leaked) == (1, "", []), err
            assert err.startswith(f"effectrestore {argv[0]}: error: {path} is not "), err
            assert err.endswith(" text: invalid start byte\n"), err

    @pytest.mark.parametrize("command, doc, fault", [
        ("simulate-linear", [1], "linear-model JSON: expected an object, got list"),
        ("simulate-linear", {k: v for k, v in LINEAR_MODEL.items() if k != "c3"},
         "linear-model JSON: missing field 'c3'"),
        ("simulate-linear", {**LINEAR_MODEL, "c0": "0.5"},
         "linear-model JSON: c0 must be a number, got str"),
        ("simulate-discrete", [1], "discrete-model JSON: expected an object, got list"),
        ("simulate-discrete", {k: v for k, v in DISCRETE_MODEL.items() if k != "p_z"},
         "discrete-model JSON: missing field 'p_z'"),
        ("simulate-discrete", {**DISCRETE_MODEL, "error": [DISCRETE_MODEL["error"]]},
         "discrete-model JSON: error must be an object, got list"),
    ])
    def test_malformed_model_json_names_the_fault(self, tmp_path, command, doc, fault):
        model = tmp_path / "model.json"
        dump_json(doc, model)
        code, out, err, leaked = run_main(
            [command, "--in", str(model), "--out", str(tmp_path / "s.csv"), "--n", "5"])
        assert (code, out, leaked) == (1, "", [])
        assert err == f"effectrestore {command}: error: malformed {fault}\n"

    @pytest.mark.parametrize("flags", [["--strata", "5"], ["--smooth"], ["--smooth", "0.1"]])
    def test_restore_discrete_refuses_flags_it_cannot_use(self, tmp_path, capsys, flags):
        # --strata without --x, a nonzero --smooth on a .json table
        table = tmp_path / "table.json"
        dump_json(JointTable(np.full((2, 2, 2), 1 / 8), "W").to_json_dict(), table)
        mech = tmp_path / "mech.json"
        dump_json(ErrorMatrix.identity(2).to_json_dict(), mech)
        out = tmp_path / "out.json"
        argv = ["restore-discrete", "--in", str(table), "--error", str(mech), "--out", str(out)]
        assert main(argv + ["--smooth", "0"]) == 0
        out.unlink()
        assert main(argv + flags) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"effectrestore restore-discrete: error: {flags[0]} ")
        assert not out.exists()

    def test_binary_commands_refuse_inputs_without_rates_or_rows(self, tmp_path):
        samples_path = tmp_path / "s.csv"
        write_samples_csv(samples_path, ["x", "y", "w"], np.zeros((20, 3), dtype=int),
                          integer=True)
        # a 4x4 mechanism is no binary proxy's
        matrix_path, rates_path = tmp_path / "m.json", tmp_path / "e.json"
        dump_json(ErrorMatrix.identity(4).to_json_dict(), matrix_path)
        dump_json({"eps": 0.1, "delta": 0.1}, rates_path)
        table_path = tmp_path / "t.json"
        dump_json(JointTable(np.full((2, 2, 2), 1 / 8), "W").to_json_dict(), table_path)
        for argv, fault in (
            (["synthesize", "--in", str(samples_path), "--error", str(matrix_path),
              "--out", str(tmp_path / "z.csv")],
             "component 0 of the mechanism is 4x4, not 2x2"),
            (["effect-binary", "--in", str(samples_path), "--error", str(matrix_path)],
             f"{matrix_path}: effect-binary takes a 2x2 mechanism (one rates pair or a 2x2 "
             "matrix), got 4x4"),
            (["effect-binary", "--in", str(table_path), "--error", str(rates_path)],
             "effect-binary bootstraps sample rows; a .json table input has none"),
        ):
            code, out, err, leaked = run_main(argv)
            assert (code, out, leaked) == (1, "", [])
            assert err == f"effectrestore {argv[0]}: error: {fault}\n"

    #: every command that takes --seed, each file it names at {nope}: those that
    #: bootstrap, then synthesize and the simulators
    BOOTSTRAPS = [["effect-binary", "--in", "{nope}", "--error", "{nope}"],
                  ["effect-linear", "--in", "{nope}", "--var-ew", "0.3"],
                  ["test-dsep", "--in", "{nope}", "--method", "theorem1", "--lambda", "1"],
                  ["test-dsep", "--in", "{nope}", "--method", "tetrad"]]
    SIMULATORS = [[command, "--in", "{nope}", "--out", "{nope}"]
                  for command in ("simulate-discrete", "simulate-linear")]
    SEEDED = [*BOOTSTRAPS, ["synthesize", "--in", "{nope}", "--error", "{nope}", "--out", "{nope}"],
              *SIMULATORS]

    @pytest.mark.parametrize("argv, fault", [
        *[(["effect-linear", "--in", "{nope}", "--lambda", value],
           f"--lambda must be a finite positive real, got {got}") for value, got in LAMBDAS],
        *[(["test-dsep", "--in", "{nope}", "--method", "theorem1", "--lambda", value],
           f"--lambda must be a finite positive real, got {got}") for value, got in LAMBDAS],
        *[(["test-dsep", "--in", "{nope}", "--method", "two-stage", "--alpha-param", value],
           f"--alpha-param must be a finite positive real, got {got}") for value, got in LAMBDAS],
        *[([*argv, "--boot", "1"], "--boot must be >= 2, got 1") for argv in BOOTSTRAPS],
        *[([*argv, "--seed", "-1"],
           "--seed -1 is negative; seeds and stream indices must be >= 0") for argv in SEEDED],
        *[(["test-dsep", "--in", "{nope}", "--method", method, *flags, "--level", "2"],
           "--level must lie in (0, 1), got 2.0")
          for method, flags in (("theorem1", ["--lambda", "1"]), ("tetrad", []),
                                ("two-stage", ["--alpha-param", "1"]))],
        *[([*argv, "--n", "-1"], "--n must be >= 0, got -1") for argv in SIMULATORS],
        (["restore-discrete", "--in", "{binary}", "--error", "{rates}", "--x", "5"],
         "--x=5 out of range for card_x=2"),
        # a flag's rule goes before any file is read: --in and --error do not exist
        (["restore-discrete", "--in", "{nope}", "--error", "{nope}", "--x", "1", "--strata", "0"],
         "--strata must be >= 1, got 0"),
        (["test-dsep", "--in", "{nope}", "--method", "two-stage"],
         "--alpha-param is required for the two-stage test"),
        (["test-dsep", "--in", "{nope}", "--method", "theorem1"],
         "--lambda is required for the theorem1 test"),
        (["effect-linear", "--in", "{nope}"],
         "exactly one of --lambda, --var-ew, --two-indicator must be given"),
        (["effect-linear", "--in", "{nope}", "--lambda", "1", "--var-ew", "0.5"],
         "exactly one of --lambda, --var-ew, --two-indicator must be given"),
        (["effect-binary", "--in", "{table}", "--error", "{nope}"],
         "effect-binary bootstraps sample rows; a .json table input has none"),
        *[([*argv, "--smooth", value], f"--smooth must be a finite nonnegative real, got {got}")
          for argv in (["restore-discrete", "--in", "{nope}", "--error", "{nope}"],
                       ["restore-binary", "--in", "{nope}", "--error", "{nope}"],
                       ["effect-binary", "--in", "{nope}", "--error", "{nope}"])
          for value, got in (("-1", "-1.0"), ("nan", "nan"), ("inf", "inf"))],
        (["restore-discrete", "--in", "{table}", "--error", "{nope}", "--smooth"],
         "--smooth smooths sample counts; a .json table input has none"),
        # test-dsep judges each flag it is given, whether or not its method reads it
        *[(["test-dsep", "--in", "{nope}", "--method", "two-stage", "--alpha-param", "1", *flags],
           fault) for flags, fault in (
            (["--boot", "1"], "--boot must be >= 2, got 1"),
            (["--seed", "-1"], "--seed -1 is negative; seeds and stream indices must be >= 0"),
            (["--lambda", "inf"], "--lambda must be a finite positive real, got inf"))],
        *[(["test-dsep", "--in", "{nope}", "--method", "tetrad", *flags], fault)
          for flags, fault in (
            (["--lambda", "inf"], "--lambda must be a finite positive real, got inf"),
            (["--alpha-param", "-1"], "--alpha-param must be a finite positive real, got -1.0"))],
        (["test-dsep", "--in", "{nope}", "--method", "theorem1", "--lambda", "1",
          "--alpha-param", "nan"], "--alpha-param must be a finite positive real, got nan"),
    ])
    def test_a_bad_flag_is_refused_before_the_work(self, tmp_path, monkeypatch, argv, fault):
        # exit 1 with one error line naming the flag or its value, before any
        # restoration (and, for a flag alone, before any file is read)
        from effectrestore import cli, restore
        from effectrestore import io as samples_io

        def no_restoration(*args, **kwargs):
            raise AssertionError("restored before the flags were checked")

        def no_read(path, *args, **kwargs):
            raise AssertionError(f"read {path} before the flags were checked")

        monkeypatch.setattr(restore, "restore_joint", no_restoration)
        if not any(name in arg for arg in argv for name in ("{binary}", "{rates}")):
            for module in (cli, samples_io):
                for reader in ("read_samples_csv", "read_integer_samples", "load_json"):
                    monkeypatch.setattr(module, reader, no_read)
        paths = {"binary": tmp_path / "binary.csv", "rates": tmp_path / "rates.json",
                 "nope": tmp_path / "nope", "table": tmp_path / "nope.json"}
        write_samples_csv(paths["binary"], ["x", "y", "w"],
                          np.random.default_rng(4).integers(0, 2, size=(50, 3)), integer=True)
        dump_json({"eps": 0.1, "delta": 0.1}, paths["rates"])
        code, out, err, leaked = run_main([arg.format(**paths) for arg in argv])
        assert (code, out, leaked) == (1, "", [])
        assert err == f"effectrestore {argv[0]}: error: {fault}\n"
        assert not paths["nope"].exists()

    def test_stdout_json_when_no_out(self, tmp_path, capsys, strong_confounding_spec):
        samples_path, _ = write_binary_samples(tmp_path, strong_confounding_spec, n=1000)
        err_path = tmp_path / "e.json"
        dump_json({"eps": 0.2, "delta": 0.1}, err_path)
        assert main(["restore-binary", "--in", str(samples_path), "--error", str(err_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "restore-binary"


class TestOneMechanismGrammar:
    """Every ``--error`` is read by ``ErrorMatrix.from_json_dict``: binary
    rates are only the parameters of their mechanism, so a rates document
    and the matrix document of the same mechanism give the same output."""

    @pytest.mark.parametrize("argv", [["restore-binary"], ["effect-binary"],
                                      ["restore-discrete", "--x", "1"]])
    def test_rates_and_their_2x2_matrix_write_the_same_bytes(self, tmp_path, argv,
                                                             strong_confounding_spec):
        samples_path, _ = write_binary_samples(tmp_path, strong_confounding_spec, n=5000)
        err = BinaryErrorParams(0.2, 0.1)
        error_path = tmp_path / "error.json"  # one path, so the config echoes match
        runs = []
        for doc in (err.to_json_dict(), ErrorMatrix.from_binary(err).to_json_dict()):
            dump_json(doc, error_path)
            runs.append(run_main([*argv, "--in", str(samples_path), "--error", str(error_path)]))
        assert runs[0][0] == 0 and runs[0][2:] == ("", [])
        assert runs[1] == runs[0]

    def test_synthesize_reads_rates_and_their_factors_alike(self, tmp_path):
        model_path, rates_path = write_components_model(tmp_path, 3, 11)
        samples_path = tmp_path / "samples.csv"
        assert main(["simulate-discrete", "--in", str(model_path), "--out", str(samples_path),
                     "--n", "4000", "--seed", "11"]) == 0
        rates = [BinaryErrorParams(**r) for r in load_json(rates_path)]
        factors = {"factors": [ErrorMatrix.from_binary(r).to_json_dict() for r in rates]}
        error_path, runs = tmp_path / "error.json", []
        for doc in (load_json(rates_path), factors):
            dump_json(doc, error_path)
            out_path = tmp_path / f"synth{len(runs)}.csv"
            code, out, err, leaked = run_main(["synthesize", "--in", str(samples_path), "--error",
                                               str(error_path), "--out", str(out_path),
                                               "--seed", "4"])
            assert (code, err, leaked) == (0, "", [])
            runs.append((out.replace(out_path.name, "synth.csv"), out_path.read_bytes()))
        assert runs[1] == runs[0]
        assert read_samples_csv(tmp_path / "synth0.csv")[0] == ["x", "y", "z1", "z2", "z3"]


@st.composite
def refused_mechanisms(draw):
    """A dense mechanism JSON document that ``restore-discrete`` must refuse,
    the exit status it must give and a pattern naming the cause."""
    n = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.uniform(0.01, 1.0, (n, n))
    good = 0.7 * np.eye(n) + 0.3 * raw / raw.sum(axis=0)
    i, j = (int(v) for v in rng.integers(0, n, size=2))
    malformed = "malformed error-matrix JSON"
    kind = draw(st.sampled_from([
        "ragged", "length", "negative_side", "non_integer_side", "non_square", "non_finite",
        "non_stochastic", "empty", "singular", "ill_conditioned",
    ]))
    if kind == "ragged":
        rows = [list(col) for col in good.T]
        rows[j] = rows[j][:draw(st.integers(0, n - 1))]
        return {"n_w": n, "n_z": n, "entries": rows}, 1, malformed
    if kind == "length":
        flat = list(good.ravel(order="F"))
        cut = draw(st.integers(1, n * n))
        return {"n_w": n, "n_z": n, "entries": flat[:-cut] or [0.5]}, 1, malformed
    if kind == "negative_side":
        # a -1 side that the entries' length would otherwise fill in
        sides = draw(st.sampled_from([(-1, n), (n, -1), (-n, -n)]))
        entries = list(good.ravel(order="F"))
        return {"n_w": sides[0], "n_z": sides[1], "entries": entries}, 1, "must be nonnegative"
    if kind == "non_integer_side":
        # int() would truncate or coerce each of these to a usable side
        side = draw(st.sampled_from([n + 0.7, float(n), True, str(n), None, [n]]))
        sides = (side, n) if draw(st.booleans()) else (n, side)
        entries = list(good.ravel(order="F"))
        return ({"n_w": sides[0], "n_z": sides[1], "entries": entries}, 1,
                "n_w and n_z must be nonnegative integers")
    if kind == "non_square":
        cols = n + draw(st.integers(1, 3))
        rect = rng.uniform(0.01, 1.0, (n, cols))
        rect /= rect.sum(axis=0)
        return {"n_w": n, "n_z": cols, "entries": list(rect.ravel(order="F"))}, 1, "square"
    if kind == "non_finite":
        bad = good.copy()
        bad[i, j] = draw(st.sampled_from([float("nan"), float("inf"), float("-inf")]))
        return {"n_w": n, "n_z": n, "entries": list(bad.ravel(order="F"))}, 1, "finite"
    if kind == "non_stochastic":
        bad = good.copy()
        bad[:, j] *= 1.0 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-6, 0.5))
        return ({"n_w": n, "n_z": n, "entries": list(bad.ravel(order="F"))}, 1,
                r"columns must sum to 1|must lie in \[0, 1\]")
    if kind == "empty":
        return {"n_w": 0, "n_z": draw(st.integers(0, 3)), "entries": []}, 1, "nonempty"
    if kind == "singular":
        bad = good.copy()
        if draw(st.booleans()):
            bad[:, :] = 1.0 / n
        else:
            bad[:, (j + 1) % n] = bad[:, j]
        m = bad
    else:
        gap = 10.0 ** draw(st.floats(-12.0, -10.0))
        m = gap * np.eye(n) + (1.0 - gap) / n
    return ({"n_w": n, "n_z": n, "entries": list(m.ravel(order="F"))}, 2,
            "singular or ill-conditioned")


@pytest.fixture(scope="module")
def proxy_samples(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "samples.csv"
    rows = np.array([[x, y, w] for x in (0, 1) for y in (0, 1) for w in (0, 1)] * 3)
    write_samples_csv(path, ["x", "y", "w"], rows, integer=True)
    return path


class TestRestoreDiscreteRefusesBadMechanisms:
    """Fuzz of ``restore-discrete --error``: every broken dense mechanism,
    solved by explicit inverse or (from side 2) by LU factors, exits 1 or 2
    naming its cause, without a traceback."""

    @pytest.mark.parametrize("lu_side", [None, 2], ids=["inverse", "lu"])
    @settings(max_examples=120, deadline=None)
    @given(refused_mechanisms())
    def test_exit_status_names_the_cause(self, proxy_samples, lu_side, case):
        doc, status, cause = case
        mech_path = proxy_samples.with_name("mech.json")
        out_path = proxy_samples.with_name("out.json")
        mech_path.write_text(json.dumps(doc))
        out_path.unlink(missing_ok=True)
        err = io.StringIO()
        argv = ["restore-discrete", "--in", str(proxy_samples), "--error", str(mech_path),
                "--x", "1", "--out", str(out_path)]
        with contextlib.redirect_stderr(err), (
            lu_from(lu_side) if lu_side else contextlib.nullcontext()
        ):
            code = main(argv)
        message = err.getvalue()
        assert code == status, message
        assert "Traceback" not in message
        tag = "singular" if status == 2 else "error"
        assert message.startswith(f"effectrestore restore-discrete: {tag}: ")
        assert re.search(cause, message), message
        if status == 2:
            assert load_json(out_path)["error"] == "singular"
        else:
            assert not out_path.exists()


#: runs commands through ``cli.main``, the last one again with LU factors,
#: and records after the import and after each run whether scipy was loaded
#: and how often ``mechanism._lapack`` looked up its entry points
_SCIPY_PROBE = """
import json, sys
result = {"import": "scipy" in sys.modules}
from effectrestore import cli, mechanism
from strategies import lu_from
commands, out = json.loads(sys.argv[1]), sys.argv[2]
def run(argv):
    return [cli.main(argv), "scipy" in sys.modules, mechanism._lapack.cache_info().misses]
for name, argv in commands:
    result[name] = run(argv)
with lu_from(12):
    result["lu"] = run(commands[-1][1])
result["lapack"] = mechanism._lapack() is not None
with open(out, "w") as fh:
    json.dump(result, fh)
"""


class TestScipyStaysUnloaded:
    """The package's LAPACK calls go to the library numpy already links, so
    no command loads scipy, an LU-factorized mechanism included, and no
    start-up pays for it."""

    def test_no_path_loads_scipy(self, tmp_path):
        rng = np.random.default_rng(41)
        binary_rows = rng.integers(0, 2, size=(200, 3))
        binary_csv = tmp_path / "binary.csv"
        write_samples_csv(binary_csv, ["x", "y", "w"], binary_rows, integer=True)
        rates = tmp_path / "rates.json"
        dump_json([{"eps": 0.1, "delta": 0.2}], rates)
        wide_rows = np.column_stack([binary_rows[:, :2], rng.integers(0, 12, size=200)])
        wide_csv = tmp_path / "wide.csv"
        write_samples_csv(wide_csv, ["x", "y", "w"], wide_rows, integer=True)
        raw = rng.uniform(0.01, 1.0, (12, 12))
        mech = tmp_path / "mech.json"
        dump_json(ErrorMatrix(entries=0.7 * np.eye(12) + 0.3 * raw / raw.sum(axis=0))
                  .to_json_dict(), mech)
        commands = [
            ["effect-binary", ["effect-binary", "--in", str(binary_csv), "--error", str(rates),
                               "--boot", "20", "--out", str(tmp_path / "effect.json")]],
            ["synthesize", ["synthesize", "--in", str(binary_csv), "--error", str(rates),
                            "--out", str(tmp_path / "synth.csv")]],
            ["restore-discrete", ["restore-discrete", "--in", str(wide_csv), "--error", str(mech),
                                  "--clip", "--x", "1", "--strata", "5",
                                  "--out", str(tmp_path / "restored.json")]],
        ]
        out = tmp_path / "probe.json"
        paths = [str(Path(effectrestore.__file__).resolve().parents[1]),
                 str(Path(__file__).resolve().parent), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands), str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        assert load_json(out) == {
            "import": False,
            # below the LU side the entry points are never looked up
            "effect-binary": [0, False, 0],
            "synthesize": [0, False, 0],
            "restore-discrete": [0, False, 0],
            "lu": [0, False, 1],
            "lapack": True,
        }


def constant_proxy_csv(tmp_path, with_v=False):
    """40 float rows whose w column is constant."""
    rng = np.random.default_rng(60)
    x = rng.normal(size=40)
    cols = [x, x + rng.normal(size=40), np.full(40, 0.5)] + ([rng.normal(size=40)] * with_v)
    path = tmp_path / "constant.csv"
    write_samples_csv(path, ["x", "y", "w", "v"][: len(cols)], np.column_stack(cols))
    return path


def run_main(argv):
    """Exit status, stdout and stderr of ``cli.main``, and the warnings that
    escaped it."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as leaked, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, out.getvalue(), err.getvalue(), [str(w.message) for w in leaked]


class TestWarningsGoToTheDocument:
    """Warnings raised while a command runs are listed in its JSON document,
    never printed raw."""

    CONSTANT = "column(s) ['w'] are constant: zero variance"

    def test_effect_linear_lists_a_constant_column(self, tmp_path):
        path = constant_proxy_csv(tmp_path)
        code, out, err, leaked = run_main(
            ["effect-linear", "--in", str(path), "--lambda", "0.5", "--boot", "50"])
        assert (code, err, leaked) == (0, "", [])
        assert json.loads(out)["warnings"] == [self.CONSTANT]

    def test_exit_2_document_lists_them_too(self, tmp_path):
        path = constant_proxy_csv(tmp_path, with_v=True)
        code, out, err, leaked = run_main(
            ["test-dsep", "--in", str(path), "--method", "tetrad", "--boot", "50"])
        assert (code, leaked) == (2, [])
        doc = json.loads(out)
        assert doc["error"] == "unidentifiable" and doc["warnings"] == [self.CONSTANT]
        assert err.startswith("effectrestore test-dsep: unidentifiable: ")

    def test_usage_error_names_them_on_stderr(self, tmp_path):
        path = constant_proxy_csv(tmp_path)
        code, out, err, leaked = run_main(
            ["effect-linear", "--in", str(path), "--var-ew", "nan"])
        assert (code, out, leaked) == (1, "", [])
        assert err.splitlines() == [
            f"effectrestore effect-linear: warning: {self.CONSTANT}",
            "effectrestore effect-linear: error: var_ew must be finite, got nan",
        ]

    def test_synthesize_lists_each_empty_group(self, tmp_path):
        rows = np.array([[x, y, w] for x, y in ((0, 0), (0, 1), (1, 0)) for w in (0, 1)] * 4)
        csv_path = tmp_path / "groups.csv"
        write_samples_csv(csv_path, ["x", "y", "w"], rows, integer=True)
        rates = tmp_path / "rates.json"
        dump_json({"eps": 0.1, "delta": 0.1}, rates)
        code, out, err, leaked = run_main(["synthesize", "--in", str(csv_path), "--error",
                                           str(rates), "--out", str(tmp_path / "z.csv")])
        assert (code, err, leaked) == (0, "", [])
        assert json.loads(out)["warnings"] == [
            "no samples in group (x=1, y=1); nothing to synthesize there"]

    def test_no_key_without_a_warning(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_samples_csv(path, ["x", "y", "w"], np.random.default_rng(61).normal(size=(40, 3)))
        code, out, _, leaked = run_main(["effect-linear", "--in", str(path), "--lambda", "0.5"])
        assert (code, leaked) == (0, [])
        assert "warnings" not in json.loads(out)


@st.composite
def float_csv_bodies(draw):
    """A float sample CSV for the linear commands: short, ragged, non-finite,
    with constant columns or duplicated rows."""
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 24))
    values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
    rows = [[draw(values) for _ in range(k)] for _ in range(n)]
    for col in draw(st.sets(st.integers(0, k - 1), max_size=k)):
        for row in rows:
            row[col] = rows[0][col]
    if rows and draw(st.booleans()):
        rows += [list(r) for r in draw(st.lists(st.sampled_from(rows), max_size=12))]
    lines = [",".join(repr(v) for v in row) for row in rows]
    if lines and draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        if draw(st.booleans()):
            fields[draw(st.integers(0, k - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
        else:
            fields = fields[: draw(st.integers(0, k - 1))] or [""]
        lines[i] = ",".join(fields)
    return ",".join("xywv"[:k]) + "\n" + "".join(line + "\n" for line in lines)


class TestLinearCommandsFuzz:
    """Fuzz of the float-CSV commands: every body exits 0, 1 or 2, without a
    traceback or a raw warning."""

    @settings(max_examples=150, deadline=None)
    @given(body=float_csv_bodies(), flags=st.sampled_from([
        ["effect-linear", "--lambda", "0.5"],
        ["effect-linear", "--var-ew", "0.1"],
        ["effect-linear", "--two-indicator"],
        ["test-dsep", "--method", "tetrad"],
        ["test-dsep", "--method", "theorem1", "--lambda", "0.5"],
        ["test-dsep", "--method", "two-stage", "--alpha-param", "0.5"],
    ]))
    def test_exit_status_without_traceback(self, proxy_samples, body, flags):
        path = proxy_samples.with_name("linear.csv")
        path.write_text(body)
        code, out, err, leaked = run_main([*flags, "--in", str(path), "--boot", "20"])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err and not re.search(r"\w+Warning\b", err), err
        assert leaked == []
        if code == 1:
            assert out == ""
            assert err.splitlines()[-1].startswith(f"effectrestore {flags[0]}: error: ")
        else:
            doc = json.loads(out)
            assert doc["method"] == flags[0] and ("error" in doc) == (code == 2)


@st.composite
def discrete_csv_bodies(draw):
    """A discrete sample CSV: few rows, perhaps empty (x, y) groups, values
    that are multi-digit, negative or floats, ragged rows, and lines ending
    in a mix of CRLF and LF."""
    k = draw(st.sampled_from([3, 4]))
    n = draw(st.integers(0, 30))
    xy = draw(st.sets(st.sampled_from([(0, 0), (0, 1), (1, 0), (1, 1)]), min_size=1))
    rows = [[*draw(st.sampled_from(sorted(xy)))] + [draw(st.integers(0, 1)) for _ in range(k - 2)]
            for _ in range(n)]
    fields = [[str(v) for v in row] for row in rows]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        row = draw(st.sampled_from(fields))
        row[draw(st.integers(0, k - 1))] = draw(st.sampled_from(
            ["10", "12", "99", "007", "-1", "-0", "0.5", "1.0", "1e0", "2"]))
    if fields and draw(st.booleans()):
        row = draw(st.sampled_from(fields))
        if draw(st.booleans()):
            del row[draw(st.integers(0, len(row) - 1)):]
        else:
            row.append("1")
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in range(len(fields) + 1)]
    last = ends[-1] if draw(st.booleans()) else ""
    lines = [",".join("xyzw"[:k])] + [",".join(f) for f in fields]
    return "".join(line + end for line, end in zip(lines, ends[:-1] + [last]))


class TestDiscreteCommandsFuzz:
    """Fuzz of the discrete-CSV commands: every body exits 0, 1 or 2, without
    a traceback or a raw warning."""

    @settings(max_examples=200, deadline=None)
    @given(body=discrete_csv_bodies(), command=st.sampled_from(
        ["restore-binary", "effect-binary", "synthesize", "synthesize-2", "restore-discrete",
         "restore-discrete-2"]))
    def test_exit_status_without_traceback(self, proxy_samples, body, command):
        work = proxy_samples.parent
        path = work / "discrete.csv"
        path.write_bytes(body.encode())
        rates = work / "fuzz_rates.json"
        components = 2 if command.endswith("-2") else 1
        rates.write_text(json.dumps([{"eps": 0.1, "delta": 0.2}] * components))
        mech = work / "fuzz_mech2.json"
        mech.write_text(json.dumps(ErrorMatrix(entries=[[0.9, 0.2], [0.1, 0.8]]).to_json_dict()))
        name = command.removesuffix("-2")
        argv = [name, "--in", str(path)]
        argv += {
            "restore-binary": ["--error", str(rates)],
            "effect-binary": ["--error", str(rates), "--boot", "20"],
            "synthesize": ["--error", str(rates), "--out", str(work / "fuzz_synth.csv")],
            "restore-discrete": ["--error", str(rates if components == 2 else mech), "--x", "0"],
        }[name]
        code, out, err, leaked = run_main(argv)
        assert code in (0, 1, 2), err
        assert "Traceback" not in err and not re.search(r"\w+Warning\b", err), err
        assert leaked == []
        if code == 1:
            assert out == ""
            assert err.splitlines()[-1].startswith(f"effectrestore {name}: error: ")
        else:
            doc = json.loads(out)
            # a failed estimate of restore-discrete stands in its own place
            failed = [v for v in (doc, doc.get("effect")) if isinstance(v, dict) and "error" in v]
            assert doc["method"] == name and bool(failed) == (code == 2)


def stochastic_doc(rng, n):
    """Dense mechanism JSON for a well-conditioned n x n column-stochastic matrix."""
    raw = rng.uniform(0.01, 1.0, (n, n))
    return ErrorMatrix(entries=0.7 * np.eye(n) + 0.3 * raw / raw.sum(axis=0)).to_json_dict()


@st.composite
def restore_discrete_documents(draw):
    """A table JSON, a factored mechanism JSON (as text) and whether either
    is malformed.  The table may have ragged or short ``cells``, a wrong
    ``axis``, a NaN or a negative cell, a mass other than 1 or non-integer
    ``cards``; the mechanism's
    ``factors`` may be no list, nested (too deep to load, perhaps), or hold
    one bad factor."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sides = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    cards = [draw(st.integers(1, 3)), draw(st.integers(1, 3)), math.prod(sides)]
    table = {"cards": cards, "cells": list(rng.dirichlet(np.ones(math.prod(cards)))),
             "axis": "W"}
    table_flaw = draw(st.sampled_from(
        [None, "ragged", "short", "axis", "nan", "cards", "nesting", "mass", "negative"]))
    if table_flaw == "nesting":
        # the right size, nested in a layout other than (x, y, v)
        shape = draw(st.sampled_from([[1, *cards], cards[::-1], [cards[0], cards[1] * cards[2]]]))
        if shape == cards:
            shape = [*cards, 1]
        table["cells"] = np.reshape(table["cells"], shape).tolist()
    elif table_flaw == "ragged":
        nested = np.reshape(table["cells"], cards).tolist()
        nested[0][0].append(0.1)  # one row longer than the others, or than card_v
        table["cells"] = nested
    elif table_flaw == "short":
        table["cells"] = table["cells"][:-draw(st.integers(1, len(table["cells"])))]
    elif table_flaw == "axis":
        table["axis"] = draw(st.sampled_from(["w", "Q", "", 5, None]))
    elif table_flaw == "nan":
        table["cells"][draw(st.integers(0, len(table["cells"]) - 1))] = float("nan")
    elif table_flaw == "mass":
        scale = draw(st.sampled_from([0.0, 0.5, 1.0 + 1e-6, 2.0]))
        table["cells"] = [c * scale for c in table["cells"]]
    elif table_flaw == "negative":
        table["cells"][draw(st.integers(0, len(table["cells"]) - 1))] = -0.05
    elif table_flaw == "cards":
        table["cards"][draw(st.integers(0, 2))] = draw(st.sampled_from([1.5, 2.0, True, "2"]))
    factors = [stochastic_doc(rng, n) for n in sides]
    mech_flaw = draw(st.sampled_from([None, "nested", "deep", "not_a_list", "bad_factor"]))
    if mech_flaw == "deep":
        # beyond the recursion limit of the decoder or of the loader
        depth = draw(st.sampled_from([450, 5000]))
        mech = '{"factors": [' * depth + json.dumps({"factors": factors}) + "]}" * depth
        return table, mech, table_flaw is not None
    if mech_flaw == "nested":
        split = draw(st.integers(1, len(factors)))
        factors = [{"factors": factors[:split]}, *factors[split:]]
    elif mech_flaw == "not_a_list":
        factors = draw(st.sampled_from([5, "factors", {"n_w": 2}, True, 2.5]))
    elif mech_flaw == "bad_factor":
        bad = factors[draw(st.integers(0, len(factors) - 1))]
        flaw = draw(st.sampled_from(["nan", "non_stochastic", "side", "entries", "not_a_dict"]))
        if flaw == "nan":
            bad["entries"][0] = float("nan")
        elif flaw == "non_stochastic":
            bad["entries"][0] += 0.25
        elif flaw == "side":
            bad["n_w"] = draw(st.sampled_from([bad["n_w"] + 1, -1, 0.5, None]))
        elif flaw == "entries":
            bad["entries"] = draw(st.sampled_from(["abc", {"a": 1}, [[1.0], []], None]))
        else:
            factors[factors.index(bad)] = draw(st.sampled_from([3, "f", [1.0], None]))
    malformed = table_flaw is not None or mech_flaw not in (None, "nested")
    return table, json.dumps({"factors": factors}), malformed


class TestRestoreDiscreteJsonFuzz:
    """Fuzz of ``restore-discrete`` on a table JSON input with a factored
    mechanism JSON: every pair exits 0, 1 or 2, a malformed one exits 1,
    and none prints a traceback or a raw warning."""

    @settings(max_examples=200, deadline=None)
    @given(restore_discrete_documents(),
           st.sampled_from([[], ["--x", "0"], ["--x", "1", "--strata", "3"], ["--clip"]]))
    def test_exit_status_without_traceback(self, proxy_samples, docs, flags):
        table, mech, malformed = docs
        table_path = proxy_samples.with_name("fuzz_table.json")
        mech_path = proxy_samples.with_name("fuzz_mech.json")
        table_path.write_text(json.dumps(table))  # json writes NaN
        mech_path.write_text(mech)
        code, out, err, leaked = run_main(
            ["restore-discrete", "--in", str(table_path), "--error", str(mech_path), *flags]
        )
        assert code in (0, 1, 2), err
        assert "Traceback" not in err and not re.search(r"\w+Warning\b", err), err
        assert leaked == []
        if malformed:
            assert code == 1, out
        if code == 1:
            assert out == ""
            assert err.splitlines()[-1].startswith("effectrestore restore-discrete: error: ")
        else:
            doc = json.loads(out)
            assert doc["method"] == "restore-discrete" and ("error" in doc) == (code == 2)

    @pytest.mark.parametrize("cards, cells", [
        ([1, 1, 1], [[[[1.0]]]]),
        ([1, 2, 4], np.full((2, 2, 2), 0.125).tolist()),  # the size of cards, not its nesting
        ([274177, 67280421310721, 1], [1.0]),  # a product of cards that wraps in int64
    ])
    def test_cells_nested_otherwise_than_cards_exit_1(self, proxy_samples, cards, cells):
        table_path = proxy_samples.with_name("nested_table.json")
        mech_path = proxy_samples.with_name("identity_mech.json")
        dump_json({"cards": cards, "cells": cells, "axis": "W"}, table_path)
        dump_json(ErrorMatrix.identity(cards[2]).to_json_dict(), mech_path)
        code, out, err, leaked = run_main(
            ["restore-discrete", "--in", str(table_path), "--error", str(mech_path)])
        assert (code, out, leaked) == (1, "", [])
        assert err.startswith("effectrestore restore-discrete: error: malformed joint-table "
                              "JSON: cells must be a flat list or nested as cards")


def json_paths(doc, path=()):
    """Every path into a JSON document below its root, with the value there."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield (*path, key), value
        yield from json_paths(value, (*path, key))


@st.composite
def model_documents(draw):
    """A simulator subcommand, a model JSON document for it (as text) and
    whether the document is malformed: a list in place of the object, a
    missing field, a string, a boolean in place of a number, a NaN or an
    extra list around one value.  A huge number is not malformed in itself:
    its moments may overflow."""
    command = draw(st.sampled_from(["simulate-linear", "simulate-discrete"]))
    if command == "simulate-linear":
        doc = dict(LINEAR_MODEL)
    else:
        err = {"components": [BinaryErrorParams(0.2, 0.1).to_json_dict()]}
        doc = {**DISCRETE_MODEL, "error": draw(st.sampled_from([DISCRETE_MODEL["error"], err]))}
    doc = json.loads(json.dumps(doc))  # a deep copy
    flaw = draw(st.sampled_from(
        [None, "list", "missing", "string", "boolean", "nan", "nesting", "huge"]))
    if flaw == "list":
        return command, json.dumps(draw(st.sampled_from([[], [doc], list(doc.values())]))), True
    paths = list(json_paths(doc))
    numbers = [p for p, v in paths if isinstance(v, (int, float))]
    objects = [p for p, v in paths if isinstance(v, dict)]
    if flaw == "missing":
        # a field of the model or of one of its error components
        parent = draw(st.sampled_from([(), *objects]))
        holder = doc
        for key in parent:
            holder = holder[key]
        del holder[draw(st.sampled_from(sorted(holder)))]
        if command == "simulate-linear" and not {"c_v", "var_ev"} & set(doc):
            return command, json.dumps(doc), False  # both V fields left out: a valid model
    elif flaw is not None:
        path = draw(st.sampled_from(
            numbers if flaw in ("boolean", "nan", "huge") else [p for p, _ in paths]))
        holder = doc
        for key in path[:-1]:
            holder = holder[key]
        value = holder[path[-1]]
        holder[path[-1]] = {
            "string": draw(st.sampled_from(["0.5", "abc", ""])),
            "boolean": draw(st.booleans()),
            "nan": float("nan"),
            "nesting": [value],
            "huge": draw(st.sampled_from([1e300, -1e300, 10**400])),
        }[flaw]
    return command, json.dumps(doc), flaw not in (None, "huge")


class TestSimulateModelJsonFuzz:
    """Fuzz of the simulators' model JSON: every document exits 0, 1 or 2,
    a malformed one exits 1, and none prints a traceback or a raw warning."""

    @settings(max_examples=200, deadline=None)
    @given(model_documents())
    def test_exit_status_without_traceback(self, proxy_samples, case):
        command, text, malformed = case
        model = proxy_samples.with_name("fuzz_model.json")
        model.write_text(text)  # json writes NaN
        code, out, err, leaked = run_main(
            [command, "--in", str(model), "--out", str(proxy_samples.with_name("fuzz_sim.csv")),
             "--n", "20"])
        assert code in (0, 1, 2), err
        assert "Traceback" not in err and not re.search(r"\w+Warning\b", err), err
        assert leaked == []
        if malformed:
            assert code == 1, out
        if code == 1:
            assert out == ""
            assert err.splitlines()[-1].startswith(f"effectrestore {command}: error: ")
        else:
            assert json.loads(out)["method"] == command


#: records OPENBLAS_THREAD_TIMEOUT as numpy is first imported while an
#: entry point runs, then whether the environment and the imports changed,
#: whether the cyclic GC is on and whether any object was frozen
_POLICY_PROBE = """
import gc, importlib, json, os, runpy, sys
how, out = sys.argv[1], sys.argv[2]
seen = {}

class Watch:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and "numpy" not in seen:
            seen["numpy"] = os.environ.get("OPENBLAS_THREAD_TIMEOUT", "unset")
        return None

sys.meta_path.insert(0, Watch())
before = dict(os.environ)
sys.argv = ["effectrestore", "--help"]
code = None
if how == "import":
    import effectrestore.cli
elif how == "module":
    try:
        runpy.run_module("effectrestore.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
else:
    module, _, attr = how.partition(":")
    code = getattr(importlib.import_module(module), attr)()
with open(out, "w") as fh:
    json.dump({"numpy": seen.get("numpy"), "code": code,
               "environ_changed": dict(os.environ) != before,
               "futures": "concurrent.futures" in sys.modules,
               "gc_enabled": gc.isenabled(), "frozen": gc.get_freeze_count() > 0}, fh)
"""


def console_script_target():
    import tomllib

    pyproject = Path(effectrestore.__file__).resolve().parents[2] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]["effectrestore"]


class TestEntryPointPolicy:
    """The program entry points default OpenBLAS's idle-spin timeout before
    numpy loads, and end with the cyclic GC on and their objects frozen;
    importing the package or the CLI module sets nothing and leaves the GC
    as it was."""

    def probe(self, tmp_path, how, preset=None):
        out = tmp_path / "policy.json"
        src = str(Path(effectrestore.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        subprocess.run([sys.executable, "-c", _POLICY_PROBE, how, str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        return load_json(out)

    def test_import_leaves_the_environment_alone(self, tmp_path):
        assert self.probe(tmp_path, "import") == {
            "numpy": "unset", "code": None, "environ_changed": False, "futures": False,
            "gc_enabled": True, "frozen": False}

    def test_the_suites_policy_leaves_the_gc_alone(self, tmp_path):
        # tests/conftest.py calls _program_policy(), so the suite runs with the normal GC
        assert gc.isenabled()
        assert self.probe(tmp_path, "effectrestore:_program_policy") == {
            "numpy": None, "code": None, "environ_changed": True, "futures": False,
            "gc_enabled": True, "frozen": False}

    @pytest.mark.parametrize("how", ["module", "script"])
    def test_entry_point_sets_the_timeout_before_numpy(self, tmp_path, how):
        how = console_script_target() if how == "script" else how
        assert self.probe(tmp_path, how) == {
            "numpy": "4", "code": 0, "environ_changed": True, "futures": False,
            "gc_enabled": True, "frozen": True}

    @pytest.mark.parametrize("how", ["module", "script"])
    def test_a_preset_value_is_kept(self, tmp_path, how):
        how = console_script_target() if how == "script" else how
        assert self.probe(tmp_path, how, preset="7") == {
            "numpy": "7", "code": 0, "environ_changed": False, "futures": False,
            "gc_enabled": True, "frozen": True}


def spawn_env():
    """The environment of a spawned interpreter that imports this checkout, its
    stdout and stderr buffered as a program's are when they are pipes."""
    src = str(Path(effectrestore.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONPATH": os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))}


@pytest.fixture(scope="module")
def tiny_inputs(tmp_path_factory):
    """Small inputs on which every subcommand exits 0."""
    from effectrestore import LinearSemSpec, simulate_linear

    root = tmp_path_factory.mktemp("tiny")
    binary_rows = np.random.default_rng(71).integers(0, 2, size=(200, 3))
    write_samples_csv(root / "binary.csv", ["x", "y", "w"], binary_rows, integer=True)
    dump_json({"eps": 0.1, "delta": 0.05}, root / "rates.json")
    linear_rows, _ = simulate_linear(LinearSemSpec.from_json_dict(LINEAR_MODEL), 200, 72)
    write_samples_csv(root / "linear.csv", ["x", "y", "w", "v"], linear_rows)
    dump_json(LINEAR_MODEL, root / "linear-model.json")
    dump_json(DISCRETE_MODEL, root / "discrete-model.json")
    return root


def tiny_command(root, command):
    """The argv running ``command`` on ``tiny_inputs``."""
    binary = ["--in", str(root / "binary.csv"), "--error", str(root / "rates.json")]
    out = ["--out", str(root / f"{command}.out")]
    return [command, *{
        "restore-discrete": [*binary, "--x", "1"],
        "restore-binary": binary,
        "effect-binary": [*binary, "--boot", "20"],
        "synthesize": binary,
        "effect-linear": ["--in", str(root / "linear.csv"), "--var-ew", "0.3", "--boot", "20"],
        "test-dsep": ["--in", str(root / "linear.csv"), "--method", "tetrad", "--boot", "20"],
        "simulate-discrete": ["--in", str(root / "discrete-model.json"), "--n", "100"],
        "simulate-linear": ["--in", str(root / "linear-model.json"), "--n", "100"],
    }[command], *out]


#: imports the CLI module in a fresh interpreter, runs one command through
#: ``cli.main`` when given one, and records its exit status and the loaded
#: modules of the package
_MODULES_PROBE = """
import json, sys
argv, out = json.loads(sys.argv[1]), sys.argv[2]
from effectrestore import cli
code = None if argv is None else cli.main(argv)
with open(out, "w") as fh:
    json.dump({"code": code,
               "modules": sorted(m for m in sys.modules if m.startswith("effectrestore"))}, fh)
"""

#: the package modules each command loads besides the package, cli, errors and io
_COMMAND_MODULES = {
    None: (),
    "restore-discrete": ("mechanism", "restore", "tables"),
    "restore-binary": ("mechanism", "restore", "tables"),
    "effect-binary": ("linear", "mechanism", "restore", "rng", "tables"),
    "synthesize": ("binary", "mechanism", "restore", "rng", "tables"),
    "effect-linear": ("linear", "rng"),
    "test-dsep": ("dsep", "linear", "rng"),
    "simulate-discrete": ("linear", "mechanism", "restore", "rng", "simulate", "tables"),
    "simulate-linear": ("linear", "mechanism", "restore", "rng", "simulate", "tables"),
}


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_each_command_imports_only_the_modules_it_runs(tiny_inputs, tmp_path, command):
    # None: ``import effectrestore.cli`` alone
    argv = None if command is None else tiny_command(tiny_inputs, command)
    out = tmp_path / "modules.json"
    subprocess.run([sys.executable, "-c", _MODULES_PROBE, json.dumps(argv), str(out)],
                   env=spawn_env(), check=True, capture_output=True, timeout=120)
    modules = ("cli", "errors", "io", *_COMMAND_MODULES[command])
    assert load_json(out) == {
        "code": None if command is None else 0,
        "modules": sorted(["effectrestore", *(f"effectrestore.{m}" for m in modules)]),
    }


class TestEntryPointsPrintWhatMainPrints:
    """Each program entry point gives the exit status, stdout and stderr that
    ``cli.main`` gives in process, on every exit path: freezing the heap
    before interpreter teardown drops no buffered output."""

    @pytest.fixture(scope="class")
    def cases(self, tiny_inputs):
        contradicted, _ = write_binary_samples(tiny_inputs, binary_spec(
            0.4, [0.3, 0.7], [[0.2, 0.5], [0.4, 0.8]], BinaryErrorParams(0.1, 0.15)
        ), n=2000, seed=3)
        dump_json({"eps": 0.4, "delta": 0.4}, tiny_inputs / "contradicted.json")
        binary = str(tiny_inputs / "binary.csv")
        return {
            0: ["effect-binary", "--in", binary, "--error", str(tiny_inputs / "rates.json"),
                "--boot", "20"],
            1: ["effect-binary", "--in", binary, "--boot", "many"],
            2: ["restore-binary", "--in", str(contradicted),
                "--error", str(tiny_inputs / "contradicted.json")],
        }

    @pytest.mark.parametrize("code", [0, 1, 2])
    @pytest.mark.parametrize("entry", ["module", "script"])
    def test_same_bytes_as_in_process(self, cases, entry, code):
        argv = cases[code]
        if entry == "module":
            program = ["-m", "effectrestore.cli"]
        else:
            module, _, attr = console_script_target().partition(":")
            program = ["-c", f"import sys; from {module} import {attr}; sys.exit({attr}())"]
        spawned = subprocess.run([sys.executable, *program, *argv], env=spawn_env(),
                                 capture_output=True, text=True, timeout=120)
        assert run_main(argv) == (code, spawned.stdout, spawned.stderr, [])
        assert spawned.returncode == code
        # exit 0 and 2 write a JSON document to the buffered stdout, exit 1 only an error
        assert spawned.stdout if code != 1 else spawned.stderr


_BINARY = ["--in", "@binary.csv", "--error", "@rates.json"]
_THEOREM1 = ["test-dsep", "--in", "@linear.csv", "--method", "theorem1", "--lambda", "1.0",
             "--boot", "20"]
_TETRAD = ["test-dsep", "--in", "@linear.csv", "--method", "tetrad", "--boot", "20"]

#: (fault, argv, named): a malformed flag value on every subcommand it reaches,
#: and the text of the error line that names it.  An @name is a file of
#: ``tiny_inputs``, a %name one the command must not write
MALFORMED_FLAGS = [
    *[("seed", [*argv, "--seed", "-1"], "--seed -1 is negative") for argv in (
        ["effect-binary", *_BINARY, "--boot", "20"],
        ["synthesize", *_BINARY, "--out", "%out.csv"],
        ["effect-linear", "--in", "@linear.csv", "--var-ew", "0.3", "--boot", "20"],
        _THEOREM1,
        _TETRAD,
        ["simulate-discrete", "--in", "@discrete-model.json", "--n", "100", "--out", "%out.csv"],
        ["simulate-linear", "--in", "@linear-model.json", "--n", "100", "--out", "%out.csv"],
    )],
    *[("smooth", [*argv, "--smooth", value], named) for argv in (
        ["restore-discrete", *_BINARY, "--x", "1"],
        ["restore-binary", *_BINARY],
        ["effect-binary", *_BINARY, "--boot", "20"],
    ) for value, named in (("nan", "--smooth must be a finite nonnegative real, got nan"),
                           ("inf", "--smooth must be a finite nonnegative real, got inf"),
                           ("1e308", "smooth=1e+308 over 8 cells leaves the table's mass inf"))],
    *[("var-ew", ["effect-linear", "--in", "@linear.csv", "--boot", "20", "--var-ew", value],
       f"var_ew must be finite, got {value}") for value in ("nan", "inf")],
    *[("level", [*argv, "--level", "2"], "--level must lie in (0, 1), got 2.0")
      for argv in (_THEOREM1, _TETRAD)],
]


def malformed_flag_id(fault, argv):
    """``fault-command[-method]-value``, as ``smooth-effect-binary-nan``."""
    method = argv[argv.index("--method") + 1:][:1] if "--method" in argv else []
    return "-".join([fault, argv[0], *method, argv[-1]])


@pytest.mark.parametrize("fault, argv, named", MALFORMED_FLAGS,
                         ids=[malformed_flag_id(f, a) for f, a, _ in MALFORMED_FLAGS])
def test_a_malformed_flag_value_exits_1_naming_it(tiny_inputs, tmp_path, monkeypatch,
                                                  fault, argv, named):
    from effectrestore import linear

    def no_resample(*args, **kwargs):
        raise AssertionError("a resample was drawn before the level was checked")

    if fault == "level":
        monkeypatch.setattr(linear, "_resampled", no_resample)
    roots = {"@": tiny_inputs, "%": tmp_path}
    argv = [str(roots[a[0]] / a[1:]) if a[0] in roots else a for a in argv]
    code, out, err, leaked = run_main(argv)
    assert (code, out, leaked) == (1, "", [])
    (line,) = err.splitlines()
    assert line.startswith(f"effectrestore {argv[0]}: error: ") and named in line, line
    assert not (tmp_path / "out.csv").exists()
