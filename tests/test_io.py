"""Sample-CSV and JSON file formats: parsing, error rows, exact round trips."""

import csv
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from effectrestore import io
from effectrestore.cli import main
from effectrestore.errors import ValidationError
from effectrestore.io import (
    dump_json,
    integer_samples,
    load_json,
    read_samples_csv,
    write_samples_csv,
)


def write_text(path, text):
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return path


def read_strict(path):
    """read_samples_csv with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return read_samples_csv(path)


def reference_csv(path, header, data, integer):
    """The csv.writer loop the block writer must match byte for byte."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in np.asarray(data):
            if integer:
                writer.writerow([int(v) for v in row])
            else:
                writer.writerow([repr(float(v)) for v in row])


class TestReadErrors:
    @pytest.mark.parametrize(
        "body, row, message",
        [
            ("1,0,1\n1,0\n", 3, "expected 3 fields, got 2"),
            ("1,0,1\n1,zero,1\n", 3, "could not convert string to float: 'zero'"),
            ("1,,1\n", 2, "could not convert string to float: ''"),
            ("1,0,1,\n", 2, "expected 3 fields, got 4"),
            ("1,0,1\n\n0,1,1\n", 3, "expected 3 fields, got 0"),
            ("1,0,1\n0,1,1\n\n", 4, "expected 3 fields, got 0"),
            ("1,0,1\nnan,0,1\n", 3, "non-finite value 'nan'"),
            ("1,0,1\n1,-inf,1\n", 3, "non-finite value '-inf'"),
            ("1e999,0,1\n", 2, "non-finite value '1e999'"),
            ("1_0,0,1\n", 2, "could not convert string to float: '1_0'"),
            ('"1\n",0,1\n', 2, "quoted field spans lines"),
            ("1,0,1\n1 0,0,1\n", 3, "could not convert string to float: '1 0'"),
        ],
        ids=[
            "ragged", "non-numeric", "empty-field", "trailing-comma",
            "interior-blank", "trailing-blank", "nan", "inf", "overflow",
            "digit-separator", "quoted-newline", "inner-space",
        ],
    )
    def test_row_numbered_message(self, tmp_path, body, row, message):
        path = write_text(tmp_path / "s.csv", "x,y,w\n" + body)
        with pytest.raises(ValidationError) as exc:
            read_strict(path)
        assert str(exc.value) == f"{path} row {row}: {message}"

    def test_empty_file(self, tmp_path):
        path = write_text(tmp_path / "s.csv", "")
        with pytest.raises(ValidationError, match="is empty"):
            read_strict(path)

    def test_empty_header(self, tmp_path):
        path = write_text(tmp_path / "s.csv", "\n1,0,1\n")
        with pytest.raises(ValidationError, match="has an empty header"):
            read_strict(path)

    def test_first_bad_line_wins(self, tmp_path):
        # the blank line is skipped by the parser but still comes first
        path = write_text(tmp_path / "s.csv", "x,y,w\n1,0,1\n\n1,0\n")
        with pytest.raises(ValidationError, match=r"row 3: expected 3 fields, got 0"):
            read_strict(path)


class TestReadAccepts:
    @pytest.mark.parametrize("text", ["x,y,w", "x,y,w\n", "x,y,w\r\n"])
    def test_header_only_is_empty_matrix(self, tmp_path, text):
        header, data = read_strict(write_text(tmp_path / "s.csv", text))
        assert header == ["x", "y", "w"]
        assert data.shape == (0, 3)

    def test_crlf_lines(self, tmp_path):
        path = write_text(tmp_path / "s.csv", "x,y,w\r\n1,0,1\r\n0,1,0.5\r\n")
        header, data = read_strict(path)
        assert header == ["x", "y", "w"]
        np.testing.assert_array_equal(data, [[1, 0, 1], [0, 1, 0.5]])

    def test_quoted_fields_and_padded_header(self, tmp_path):
        path = write_text(tmp_path / "s.csv", 'x, y ,"w"\n"1",0," 2.5 "\n')
        header, data = read_strict(path)
        assert header == ["x", "y", "w"]
        np.testing.assert_array_equal(data, [[1, 0, 2.5]])

    def test_last_line_without_newline(self, tmp_path):
        _, data = read_strict(write_text(tmp_path / "s.csv", "x\n1\n2"))
        np.testing.assert_array_equal(data, [[1], [2]])

    def test_well_formed_file_skips_the_row_scan(self, tmp_path, monkeypatch):
        def fail(*args):
            raise AssertionError("row scan ran on a well-formed file")

        monkeypatch.setattr(io, "_raise_first_bad_row", fail)
        rows = np.arange(3000).reshape(1000, 3) % 2
        path = tmp_path / "s.csv"
        write_samples_csv(path, ["x", "y", "w"], rows, integer=True)
        _, data = read_strict(path)
        np.testing.assert_array_equal(data, rows)


class TestWriter:
    @pytest.mark.parametrize(
        "data, integer",
        [
            (np.random.default_rng(0).integers(0, 3, size=(70_000, 4)), True),
            (np.array([[0, 1, 2**40], [7, 0, 3]]), True),
            (np.array([[-0.0, 5e-324, 1e-05], [1e16, 9999999999999998.0, 0.1],
                       [1 / 3, -2.5e-300, 2.0**60]]), False),
            (np.random.default_rng(1).normal(size=(1000, 3)), False),
            (np.array([[1, -2, 3]]), False),
            (np.zeros((0, 3)), False),
        ],
        ids=["int-multi-block", "int-large", "float-edge", "float-normal", "int-as-float", "no-rows"],
    )
    def test_bytes_match_csv_writer(self, tmp_path, data, integer):
        header = [f"c{i}" for i in range(data.shape[1])]
        reference_csv(tmp_path / "ref.csv", header, data, integer)
        write_samples_csv(tmp_path / "new.csv", header, data, integer=integer)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
shapes = hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=12).filter(
    lambda s: s[1] > 0
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, shapes, elements=finite_floats))
    def test_floats_bit_exact(self, data):
        header = [f"c{i}" for i in range(data.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_samples_csv(path, header, data)
            got_header, got = read_strict(path)
        assert got_header == header
        assert got.shape == data.shape
        assert got.tobytes() == data.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.int64, shapes, elements=st.integers(0, 2**53)))
    def test_nonnegative_ints_exact(self, data):
        header = [f"c{i}" for i in range(data.shape[1])]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "s.csv"
            write_samples_csv(path, header, data, integer=True)
            got_header, got = read_strict(path)
            samples = integer_samples(got_header, got, path)
        assert samples.shape == data.shape
        np.testing.assert_array_equal(samples, data)


class TestIntegerSamples:
    def test_rejects_values_beyond_int64(self, tmp_path):
        path = write_text(tmp_path / "s.csv", "x,y,w\n1,0,1e300\n")
        header, data = read_strict(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="below 2\\*\\*63"):
                integer_samples(header, data, path)


class TestCliInput:
    @pytest.mark.parametrize("bad", ["nan", "inf", "1e300"])
    def test_effect_binary_bad_value_exits_1_without_warning(self, tmp_path, capsys, bad):
        samples = write_text(tmp_path / "s.csv", f"x,y,w\n1,0,1\n{bad},0,1\n")
        err = tmp_path / "err.json"
        dump_json({"eps": 0.1, "delta": 0.2}, err)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["effect-binary", "--in", str(samples), "--error", str(err), "--x", "1"])
        assert code == 1
        stderr = capsys.readouterr().err
        assert str(samples) in stderr
        assert "Warning" not in stderr


class TestJson:
    def test_booleans_round_trip_as_booleans(self, tmp_path):
        doc = {
            "clipped": True,
            "two_indicator": False,
            "flags": [np.bool_(True), np.bool_(False)],
            "n": np.int64(3),
            "x": np.float64(0.1),
        }
        path = tmp_path / "doc.json"
        text = dump_json(doc, path)
        assert '"clipped": true' in text
        assert load_json(path) == {
            "clipped": True, "two_indicator": False, "flags": [True, False], "n": 3, "x": 0.1,
        }
        assert type(load_json(path)["clipped"]) is bool
