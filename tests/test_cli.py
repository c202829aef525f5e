"""End-to-end CLI behavior over flat files."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
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
    empirical_joint,
)
from effectrestore.cli import main
from effectrestore.io import dump_json, load_json, read_samples_csv, write_samples_csv
from effectrestore.mechanism import ErrorMatrix

from strategies import lu_from


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
        assert header == ["x", "y", "w1"]  # one binary proxy component
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
        mech = strong_confounding_spec.mechanism()
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
        # 12 rows with each x=1 cell once: most resamples miss one of them
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
        assert "used 6/50" in doc["message"]
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

    def test_stdout_json_when_no_out(self, tmp_path, capsys, strong_confounding_spec):
        samples_path, _ = write_binary_samples(tmp_path, strong_confounding_spec, n=1000)
        err_path = tmp_path / "e.json"
        dump_json({"eps": 0.2, "delta": 0.1}, err_path)
        assert main(["restore-binary", "--in", str(samples_path), "--error", str(err_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["method"] == "restore-binary"


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
        "ragged", "length", "negative_side", "non_square", "non_finite", "non_stochastic",
        "empty", "singular", "ill_conditioned",
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


#: runs commands through ``cli.main`` and records whether scipy was loaded
#: after the import and after each command
_SCIPY_PROBE = """
import json, sys
result = {"import": "scipy" in sys.modules}
from effectrestore import cli, mechanism
commands, out = json.loads(sys.argv[1]), sys.argv[2]
for name, argv in commands:
    result[name] = [cli.main(argv), "scipy" in sys.modules]
# control: the same restoration through LU factors does load it
mechanism._LU_MIN_SIDE = 12
result["control"] = [cli.main(commands[-1][1]), "scipy" in sys.modules]
with open(out, "w") as fh:
    json.dump(result, fh)
"""


class TestScipyStaysUnloaded:
    """Only an LU-factorized mechanism needs scipy; importing the CLI and
    running commands on smaller mechanisms never loads it, so their start-up
    does not pay for it."""

    def test_no_scipy_below_the_lu_side(self, tmp_path):
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
        src = str(Path(effectrestore.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", _SCIPY_PROBE, json.dumps(commands), str(out)],
                       env=env, check=True, capture_output=True, timeout=120)
        assert load_json(out) == {
            "import": False,
            "effect-binary": [0, False],
            "synthesize": [0, False],
            "restore-discrete": [0, False],
            "control": [0, True],
        }
