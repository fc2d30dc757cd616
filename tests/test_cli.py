import contextlib
import csv
import hashlib
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
from hypothesis.extra import numpy as hnp

import annlogic
from annlogic import cli
from annlogic.analysis import trend_grid
from annlogic.cli import build_parser, main
from annlogic.encoding import fit_fuzzifier
from annlogic.logiccode import MAX_BCL, BitTensor, bitcode, scale_weights
from annlogic.network import save_model
from annlogic.partition import CellWeights
from conftest import REF16_WEIGHTS, TWO_ATTR_WEIGHTS, random_simple_ann, synthetic_banknote
from oracles import build_parser_parents, column_names, trend_csv_lists, weights_csv_lists


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory, banknote_csv):
    path = tmp_path_factory.mktemp("model") / "model.json"
    rc = main([
        "train", "--data", str(banknote_csv), "--label", "label",
        "--model", str(path), "--relu-nodes", "3",
        "--epochs", "2000", "--lr", "1.0", "--seed", "0",
    ])
    assert rc == 0
    return path


@pytest.fixture()
def ref16_file(tmp_path):
    p = tmp_path / "weights.txt"
    p.write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestTrain:
    def test_reports_accuracy(self, capsys, tmp_path, banknote_csv):
        model = tmp_path / "m.json"
        rc = main([
            "train", "--data", str(banknote_csv), "--model", str(model),
            "--epochs", "2000", "--lr", "1.0",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        acc = float([l for l in out.splitlines() if l.startswith("training_accuracy")][0].split("=")[1])
        assert acc >= 0.95
        assert model.exists()

    def test_missing_file(self, capsys):
        rc = main(["train", "--data", "/nonexistent.csv", "--model", "/tmp/x.json"])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_constant_attribute_warns_in_one_line(self, tmp_path, capsys):
        data = tmp_path / "const.csv"
        data.write_text("a,b,label\n0.5,1,0\n0.5,2,1\n0.5,3,1\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json"),
                   "--epochs", "10"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == "warning: attribute 1 is constant (0.5); degree fixed at 1\n"
        assert captured.out.startswith("attributes=a,b\n")

    def test_bad_label_value(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("a,label\n1.0,3\n2.0,0\n")
        rc = main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")])
        assert rc == 2
        assert "label" in capsys.readouterr().err


class TestPartition:
    def test_report(self, capsys, tmp_path, trained_model, banknote_csv):
        out_csv = tmp_path / "cells.csv"
        rc = main([
            "partition", "--model", str(trained_model),
            "--data", str(banknote_csv), "--out", str(out_csv),
        ])
        assert rc == 0
        rows = read_csv(out_csv)
        assert rows[0] == ["cell_id", "relu_bits", "count_label1", "count_label0"]
        counts = [int(r[2]) + int(r[3]) for r in rows[1:]]
        assert counts == sorted(counts, reverse=True)
        assert 2 <= len(counts) <= 8

    def test_empty_dataset(self, tmp_path, trained_model):
        data = tmp_path / "empty.csv"
        data.write_text("v,s,c,e,label\n")
        rc = main(["partition", "--model", str(trained_model), "--data", str(data)])
        assert rc == 0

    def test_wide_rows_line_up_under_the_header(self, tmp_path, capsys):
        # l = 12: 12 status bits and cell numbers of up to 4 digits
        data = tmp_path / "bank.csv"
        synthetic_banknote(data, rows=200)
        X = np.loadtxt(data, delimiter=",", skiprows=1)[:, :4]
        model = tmp_path / "model.json"
        save_model(model, random_simple_ann(np.random.default_rng(0), 4, 12), fit_fuzzifier(X))
        assert main(["partition", "--model", str(model), "--data", str(data)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split() == ["cell", "relu", "label1", "label0"]
        assert any(len(line.split()[0]) >= len("ANN_100") for line in lines[1:])

        def right_edges(line):
            return [m.end() for m in re.finditer(r"\S+", line)]

        assert {tuple(right_edges(line)) for line in lines} == {tuple(right_edges(lines[0]))}


class TestExplain:
    def test_weights_override(self, capsys, tmp_path, ref16_file):
        out_dir = tmp_path / "out"
        rc = main([
            "explain", "--weights-override", str(ref16_file),
            "--out-dir", str(out_dir), "--bcl-max", "3",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "weight_sum=9.456" in out
        assert "(58.2%)" in out
        for bcl in range(4):
            assert (out_dir / f"level_{bcl}.dot").exists()
        rows = read_csv(out_dir / "weights.csv")
        assert len(rows) == 17
        # level-0 bit column holds exactly one set bit (minterm 0)
        bit0_col = rows[0].index("bit_2^-0")
        assert [r[bit0_col] for r in rows[1:]] == ["1"] + ["0"] * 15

    def test_model_cell(self, tmp_path, trained_model, banknote_csv, capsys):
        out_dir = tmp_path / "out"
        rc = main([
            "explain", "--model", str(trained_model), "--cell", "2",
            "--data", str(banknote_csv), "--out-dir", str(out_dir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy levels 0..3" in out

    def test_unknown_cell(self, trained_model, capsys):
        rc = main(["explain", "--model", str(trained_model), "--cell", "99"])
        assert rc == 2


# sha256 of the files `explain --bcl-max 3` writes for one cell of a seeded
# random model, recorded with depth-first QLDT induction; the trees of a
# cell must come out byte for byte the same however they are grown.
EXPLAIN_SHA256 = {
    (8, 4, 11): {
        "weights.csv": "e3053bbd8aa96915450c30b55d5a63c2916e1648b40f854c8a9bee910d07c041",
        "level_0.dot": "e7e62ebfff511344f95f48c028e7dee5ef1ffc604ddfe8c1dcc4640bdd385b01",
        "level_1.dot": "710f25fe564c130691b82550756dfddae5d449189fdbf9e1d3ea5821db54c22c",
        "level_2.dot": "78808bf0c33eb90f75e1d997a62c0d74239d51ce3bce08184a7fc229638d111b",
        "level_3.dot": "51a5829ba34e3151ebbb66d3eb6c1cd846e5923925ec99e3863f2936ab9a6c1d",
    },
    (12, 3, 7): {
        "weights.csv": "20ffa75b5d643536e1686f55046da8a461aadf887d7148db7d45c06c79fa63d1",
        "level_0.dot": "20bd9fa546f2a41ac6cdabe6a745d1439559e7331649efcb58c0787ec618dabc",
        "level_1.dot": "b9413b0984d669fe802af72f7c3f195bb632f764d6a9b6ba0fc60b51029e288d",
        "level_2.dot": "0bb874ea6e5d4d6ca1b593022fa59d415a66e520d663d7aa7679e0a6cecb5585",
        "level_3.dot": "c6acf58d2c082a90a6678f313c79b1a483a076e189f5c15d0142a9248fd6e030",
    },
}


@pytest.mark.parametrize("n,relu_nodes,cell", EXPLAIN_SHA256, ids=["n8", "n12"])
def test_explain_files_golden(tmp_path, capsys, n, relu_nodes, cell):
    # the model seed is n
    model = tmp_path / "model.json"
    save_model(model, random_simple_ann(np.random.default_rng(n), n, relu_nodes))
    out_dir = tmp_path / "out"
    assert main(["explain", "--model", str(model), "--cell", str(cell),
                 "--bcl-max", "3", "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    got = {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
           for name in EXPLAIN_SHA256[n, relu_nodes, cell]}
    assert got == EXPLAIN_SHA256[n, relu_nodes, cell]


# Cells of 1 to 256 minterms whose weights and threshold span magnitudes
# from subnormal to 1e300, so their reprs take every form; weight ranges
# stay below the float64 overflow that scale_weights rejects.
MAGNITUDES = st.floats(-1e300, 1e300)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 8).flatmap(lambda n: st.tuples(
           hnp.arrays(float, 2**n, elements=MAGNITUDES), column_names(n))),
       MAGNITUDES, st.integers(0, MAX_BCL))
def test_weights_csv_equals_csv_writer_rows(tmp_path_factory, cell, threshold, bcl_max):
    weights, names = cell
    cw = CellWeights(weights)
    scaled = scale_weights(cw, threshold)
    bt = bitcode(scaled, bcl_max)
    out = tmp_path_factory.mktemp("weights")
    cli._write_weights(out / "columns.csv", names, cw, scaled, bt)
    weights_csv_lists(out / "lists.csv", names, cw, scaled, bt)
    assert (out / "columns.csv").read_bytes() == (out / "lists.csv").read_bytes()


@pytest.mark.parametrize("bcl_max", [0, 3, 20, MAX_BCL])
@settings(max_examples=25, deadline=None)
@given(cell=st.integers(0, 8).flatmap(lambda n: st.tuples(
           hnp.arrays(float, 2**n, elements=MAGNITUDES), column_names(n))),
       threshold=MAGNITUDES)
def test_weights_csv_at_bcl_max(tmp_path_factory, bcl_max, cell, threshold):
    # each distinct bit pattern's text is made once; at bcl_max 52 the
    # pattern is a 53-bit number and its reconstruction still exact
    weights, names = cell
    cw = CellWeights(weights)
    scaled = scale_weights(cw, threshold)
    bt = bitcode(scaled, bcl_max)
    out = tmp_path_factory.mktemp("weights")
    cli._write_weights(out / "columns.csv", names, cw, scaled, bt)
    weights_csv_lists(out / "lists.csv", names, cw, scaled, bt)
    assert (out / "columns.csv").read_bytes() == (out / "lists.csv").read_bytes()


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.lists(st.lists(st.integers(0, 1), min_size=2**n, max_size=2**n),
                    min_size=1, max_size=3),
           st.permutations(range(n)).flatmap(
               lambda order: st.integers(1, min(2, n)).map(lambda k: order[:k])),
           column_names(2), st.integers(2, 12))))
def test_trend_writer_equals_lists(tmp_path_factory, drawn):
    bits, vary, names, resolution = drawn
    bt = BitTensor(bits)
    levels = list(range(bt.bcl_max + 1))
    grid = trend_grid(bt, vary, {}, levels, resolution)
    varied, tag = names[:len(vary)], "+".join(map(str, levels))
    out = tmp_path_factory.mktemp("trend")
    cli._write_trend(out / "columns.csv", varied, tag, grid)
    trend_csv_lists(out / "lists.csv", varied, tag, grid)
    assert (out / "columns.csv").read_bytes() == (out / "lists.csv").read_bytes()
    stdout = []
    for write in (cli._write_trend, trend_csv_lists):
        with contextlib.redirect_stdout(io.StringIO()) as fh:
            write(None, varied, tag, grid)
        stdout.append(fh.getvalue())
    assert stdout[0] == stdout[1]


class TestShapley:
    def test_two_attribute_example(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        wfile.write_text(",".join(str(w) for w in TWO_ATTR_WEIGHTS))
        rc = main(["shapley", "--weights-override", str(wfile)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sh_a1=0.100" in out
        assert "Sh_a2=-0.200" in out


# Only explain's outputs read the classifier threshold; no other command
# takes --threshold, with or without a cell.
THRESHOLD_ARGVS = {
    "shapley": ["shapley", "--weights-override", "ref16.txt"],
    "project": ["project", "--weights-override", "ref16.txt", "--keep", "1,2"],
    "hypothesis": ["hypothesis", "--weights-override", "ref16.txt", "--hypothesis", "a1"],
    "trend": ["trend", "--weights-override", "ref16.txt", "--vary", "1"],
    "hypothesis2": ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b"],
}


@pytest.mark.parametrize("argv", THRESHOLD_ARGVS.values(), ids=THRESHOLD_ARGVS.keys())
def test_threshold_is_not_an_option(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref16.txt").write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--threshold", "0.3"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("error: unrecognized arguments: --threshold 0.3\n")


class TestProject:
    def test_projection_golden(self, ref16_file, capsys):
        rc = main([
            "project", "--weights-override", str(ref16_file), "--keep", "1,2",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "minterm 00: raw=3.357 scaled=1.000 bits=1000" in out
        assert "minterm 01: raw=2.262 scaled=0.441 bits=0100" in out
        assert "minterm 10: raw=2.440 scaled=0.532 bits=0100" in out
        assert "minterm 11: raw=1.397 scaled=0.000 bits=0000" in out


class TestHypothesis:
    def test_self_comparison(self, capsys):
        rc = main([
            "hypothesis", "--names", "v,s", "--hypothesis", "v and s",
            "--hypothesis2", "v and s",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "accuracy=1.000" in out
        assert "equivalent=True" in out

    def test_syntax_error(self, capsys):
        rc = main([
            "hypothesis", "--names", "v,s", "--hypothesis", "v and and s",
            "--hypothesis2", "v",
        ])
        assert rc == 2

    def test_against_level_expression(self, ref16_file, capsys):
        rc = main([
            "hypothesis", "--weights-override", str(ref16_file),
            "--names", "v,s,c,e", "--level", "0",
            "--hypothesis", "not v and not s and not c and not e",
        ])
        assert rc == 0
        assert "equivalent=True" in capsys.readouterr().out


class TestTrend:
    def test_grid_csv(self, tmp_path, ref16_file):
        out = tmp_path / "trend.csv"
        rc = main([
            "trend", "--weights-override", str(ref16_file),
            "--vary", "1,2", "--resolution", "5", "--out", str(out),
        ])
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["a1", "a2", "level_set", "value"]
        assert len(rows) == 26

    def test_determinism(self, tmp_path, ref16_file):
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        for out in (out1, out2):
            main([
                "trend", "--weights-override", str(ref16_file),
                "--vary", "1", "--resolution", "7", "--out", str(out),
            ])
        assert out1.read_bytes() == out2.read_bytes()

    def test_stdout_quotes_names_as_the_file(self, tmp_path, capsys, ref16_file):
        data = tmp_path / "odd.csv"
        data.write_text('"x,y","q""t",c,d,label\n0.1,0.2,0.3,0.4,0\n')
        argv = ["trend", "--weights-override", str(ref16_file), "--data", str(data),
                "--vary", "1,2", "--resolution", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.startswith('"x,y","q""t",level_set,value\n')
        assert main(argv + ["--out", str(tmp_path / "trend.csv")]) == 0
        with open(tmp_path / "trend.csv", newline="") as fh:
            assert out == fh.read().replace("\r\n", "\n")

    def test_stdout_quotes_a_lone_cr_as_the_file(self, tmp_path, capsys, ref16_file):
        data = tmp_path / "cr.csv"
        data.write_bytes(b'"cr\ronly","cr\r\nlf",c,d,label\n0.1,0.2,0.3,0.4,0\n')
        argv = ["trend", "--weights-override", str(ref16_file), "--data", str(data),
                "--vary", "1,2", "--resolution", "3"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        head = '"cr\ronly","cr\r\nlf",level_set,value\n'
        # the quoted CRLF inside a name stays; only row terminators are LF
        assert out.startswith(head) and "\r" not in out[len(head):]
        assert out.count("\n") == 1 + 1 + 9  # the name's CRLF, the header, 9 rows
        assert main(argv + ["--out", str(tmp_path / "trend.csv")]) == 0
        with open(tmp_path / "trend.csv", newline="") as fh:
            assert list(csv.reader(io.StringIO(out, newline=""))) == list(csv.reader(fh))


class TestClassify:
    def test_roundtrip_accuracy(self, capsys, trained_model, banknote_csv):
        rc = main([
            "classify", "--model", str(trained_model), "--data", str(banknote_csv),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        preds = captured.out.split()
        assert set(preds) <= {"0", "1"}
        acc = float(captured.err.split("accuracy=")[1])
        assert acc >= 0.95


def _model_doc(pre_layers, **extra):
    return {"input_size": 4, "relu_count": 1, "pre_layers": pre_layers,
            "post_layers": [[[1.0]]], "threshold": 0.5, **extra}


def _fuzzified_model(fuzzifier):
    return json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]], fuzzifier=fuzzifier))


WIDE_ROW_CSV = "a,b,label\n0.1,0.2,0\n0.3,0.4,0.5,1\n"
NAN_CSV = "a,b,label\n0.1,0.2,0\n0.3,nan,1\n"
QUOTED_TEXT_CSV = 'a,b,label\n0.1,0.2,0\n0.3,"x",0\n'
EMPTY_FIELD_CSV = "a,b,label\n0.1,0.2,0\n0.3,,0\n"
QUOTED_EMPTY_CSV = 'a,b,label\n0.1,0.2,0\n0.3,"",0\n'
# one field past the csv module's default field size limit of 131,072
LONG_HEADER_CSV = "a" * 131_073 + ",label\n0.1,0\n"
LONG_FIELD_CSV = "a,label\n0.1,0\n" + "1" * 131_073 + ",0\n"
# bytes that are not UTF-8, written as they are; the body's is at file
# offset 24,010, in the decoder's fourth 8 KiB read
NOT_UTF8_HEADER_CSV = b"a\xff,label\n0.1,0\n"
NOT_UTF8_BODY_CSV = b"a,label\n" + b"0.1,0\n" * 4000 + b"0.\xff,1\n"
L1_MODEL = json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]]))
ONE_ATTRIBUTE_MODEL = json.dumps(dict(
    _model_doc([[[0.1, 0.2]]], fuzzifier={"kind": "minmax", "lo": [0.0], "hi": [1.0]}),
    input_size=2))
NONFINITE_FUZZIFIER_MODEL = _fuzzified_model(
    {"kind": "minmax", "lo": ["LO", 0.0], "hi": ["LO", 1.0]}).replace('"LO"', "1e999")

# Model numbers must be JSON numbers: a numeric string or a bool is not one.
# Each model here is loaded by `classify` on TWO_ATTRIBUTE_CSV.
TWO_ATTRIBUTE_CSV = "a,b,label\n0.1,0.2,0\n0.9,0.8,1\n"
MINMAX_2 = {"kind": "minmax", "lo": [0.0, 0.0], "hi": [1.0, 9.0]}
NOT_JSON_NUMBERS = {
    "lo-a-string-of-digits": (
        _fuzzified_model({"kind": "minmax", "lo": "00", "hi": "19"}),
        "bad fuzzifier: fuzzifier field 'lo' must be a list of JSON numbers"),
    "lo-numeric-strings": (
        _fuzzified_model(dict(MINMAX_2, lo=["0", "0"])),
        "bad fuzzifier: fuzzifier field 'lo' must be a list of JSON numbers"),
    "hi-bools": (
        _fuzzified_model(dict(MINMAX_2, hi=[True, True])),
        "bad fuzzifier: fuzzifier field 'hi' must be a list of JSON numbers"),
    "threshold-numeric-string": (
        json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]], fuzzifier=MINMAX_2, threshold="0.05")),
        "threshold must be a JSON number"),
    "threshold-bool": (
        json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]], fuzzifier=MINMAX_2, threshold=True)),
        "threshold must be a JSON number"),
    "pre-layer-numeric-strings": (
        json.dumps(_model_doc([[["0.1", "0.2", "0.3", "0.4"]]], fuzzifier=MINMAX_2)),
        "weights must be JSON numbers"),
    "post-layer-bool": (
        json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]], fuzzifier=MINMAX_2,
                              post_layers=[[[True]]])),
        "weights must be JSON numbers"),
    "relu-count-bool": (
        json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]], fuzzifier=MINMAX_2, relu_count=True)),
        "declared sizes do not match matrix shapes"),
    "input-size-float": (
        json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]], fuzzifier=MINMAX_2, input_size=4.0)),
        "declared sizes do not match matrix shapes"),
}
CLASSIFY_ARGV = ["classify", "--model", "model.json", "--data", "d.csv"]

# A column name may occur once in a dataset header or in --names.
TRAIN_ARGV = ["train", "--data", "d.csv", "--model", "m.json", "--epochs", "5"]
REPEATED_NAMES = {
    "header-repeats-label": (
        {"d.csv": "a,label,label\n0.1,0,1\n0.9,1,0\n"}, TRAIN_ARGV,
        "dataset header repeats column 'label'"),
    "header-repeats-attribute": (
        {"d.csv": "a,a,label\n0.1,0.2,0\n0.9,0.8,1\n"}, TRAIN_ARGV,
        "dataset header repeats column 'a'"),
    "data-header-repeats-attribute": (
        {"d.csv": "a,b,c,a,label\n0.1,0.2,0.3,0.4,0\n"},
        ["hypothesis", "--weights-override", "ref16.txt", "--data", "d.csv",
         "--hypothesis", "a and not a"],
        "dataset header repeats column 'a'"),
    "names-repeat-attribute": (
        {}, ["hypothesis", "--weights-override", "ref16.txt", "--names", "a,b,c,a",
             "--hypothesis", "a and not a"],
        "--names repeats column 'a'"),
    "names-repeat-with-hypothesis2": (
        {}, ["hypothesis", "--names", "v, s ,s", "--hypothesis", "v", "--hypothesis2", "s"],
        "--names repeats column 's'"),
}

# Each case reaches a raise in cli.py or network.py that no other case in
# this file does, and pins its message: a dataset, weights or model file
# that cannot be read as one, or an option that is missing or out of range.
UNREADABLE_INPUTS = {
    "train-header-only": (
        {"d.csv": "a,label\n"}, TRAIN_ARGV, "dataset has no rows"),
    "train-empty-file": (
        {"d.csv": ""}, TRAIN_ARGV, "dataset file is empty: d.csv"),
    "train-no-label-column": (
        {"d.csv": "a,b\n0.1,0.2\n"}, TRAIN_ARGV, "label column 'label' not in header ['a', 'b']"),
    "weights-file-3-weights": (
        {"w3.txt": "0.1\n0.2\n0.3\n"}, ["shapley", "--weights-override", "w3.txt"],
        "weights file must hold a power-of-two count, got 3"),
    "weights-file-missing": (
        {}, ["shapley", "--weights-override", "missing.txt"],
        "weights file not found: missing.txt"),
    "weights-file-inf": (
        {"w.txt": "0.1\ninf\n0.2\n0.3\n"}, ["shapley", "--weights-override", "w.txt"],
        "weights must be finite"),
    "shapley-model-without-cell": (
        {"model.json": L1_MODEL}, ["shapley", "--model", "model.json"],
        "--cell is required when extracting from a model"),
    "trend-levels-not-a-number": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1", "--levels", "x"],
        "bad level set 'x'"),
    "trend-levels-past-bcl-max": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1", "--levels", "7"],
        "levels must lie in 0..3"),
    "hypothesis2-without-names-or-data": (
        {}, ["hypothesis", "--hypothesis", "a", "--hypothesis2", "b"],
        "--names or --data required with --hypothesis2"),
    **{f"model-{name}": ({"model.json": text}, ["shapley", "--model", "model.json", "--cell", "1"],
                         message) for name, text, message in [
        ("layers-do-not-chain", json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]],
                                                      post_layers=[[[1.0, 1.0]]])),
         "layer shapes do not chain: (1, 4) then (1, 2)"),
        ("last-layer-two-rows", json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]],
                                                      post_layers=[[[1.0], [1.0]]])),
         "final layer must have exactly one output row"),
        ("no-pre-layers", json.dumps(_model_doc([])),
         "need at least one layer before and after ReLU"),
        ("weight-1e999", L1_MODEL.replace("0.1,", "1e999,"), "weights must be finite"),
        ("threshold-1e999", L1_MODEL.replace('"threshold": 0.5', '"threshold": 1e999'),
         "threshold must be finite"),
    ]},
}


BAD_INPUTS = {
    "model-not-an-object": (
        {"model.json": "3"}, ["explain", "--model", "model.json", "--cell", "0"]),
    "model-layers-not-a-list": (
        {"model.json": json.dumps(_model_doc(3))},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "model-1d-matrix": (
        {"model.json": json.dumps(_model_doc([[0.1, 0.2, 0.3, 0.4]]))},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "trend-fixed-index-0": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
             "--fixed", "0=0.3"]),
    "trend-fixed-index-past-n": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
             "--fixed", "9=0.3"]),
    "explain-bcl-max-2000": (
        {}, ["explain", "--weights-override", "ref16.txt", "--bcl-max", "2000",
             "--out-dir", "out"]),
    "shapley-data-wider-than-cell": (
        {"w2.txt": "0.9,0.4,0.7,0.8"},
        ["shapley", "--weights-override", "w2.txt", "--data", "bank.csv"]),
    "explain-data-wider-than-cell": (
        {"w2.txt": "0.9,0.4,0.7,0.8"},
        ["explain", "--weights-override", "w2.txt", "--data", "bank.csv",
         "--out-dir", "out"]),
    "model-fuzzifier-not-an-object": (
        {"model.json": _fuzzified_model(3)},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "model-fuzzifier-missing-hi": (
        {"model.json": _fuzzified_model({"kind": "minmax", "lo": [0.0, 0.0]})},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "model-fuzzifier-lo-1e999": (
        {"model.json": NONFINITE_FUZZIFIER_MODEL},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    # an integer literal past the float range
    "model-threshold-10^400": (
        {"model.json": L1_MODEL.replace('"threshold": 0.5', '"threshold": 1' + "0" * 400)},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "model-weight-10^400": (
        {"model.json": L1_MODEL.replace("0.1,", "1" + "0" * 400 + ",")},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "model-fuzzifier-hi-10^400": (
        {"model.json": NONFINITE_FUZZIFIER_MODEL.replace("1e999", "1" + "0" * 400)},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "model-nested-10000-deep": (
        {"model.json": "[" * 10_000 + "]" * 10_000},
        ["explain", "--model", "model.json", "--cell", "0"]),
    "model-fuzzifier-arity-not-input-size": (
        {"model.json": _fuzzified_model(
            {"kind": "minmax", "lo": [0.0, 0.0, 0.0], "hi": [1.0, 1.0, 1.0]})},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "csv-nan-value": (
        {"bad.csv": NAN_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-quoted-text": (
        {"bad.csv": QUOTED_TEXT_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-empty-field": (
        {"bad.csv": EMPTY_FIELD_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-quoted-empty-field": (
        {"bad.csv": QUOTED_EMPTY_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-header-field-over-limit": (
        {"bad.csv": LONG_HEADER_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-row-field-over-limit": (
        {"bad.csv": LONG_FIELD_CSV, "model.json": ONE_ATTRIBUTE_MODEL},
        ["partition", "--model", "model.json", "--data", "bad.csv"]),
    "explain-data-header-only": (
        {"model.json": ONE_ATTRIBUTE_MODEL, "empty.csv": "a,label\n"},
        ["explain", "--model", "model.json", "--cell", "1", "--data", "empty.csv",
         "--out-dir", "out"]),
    "csv-row-wider-than-header": (
        {"bad.csv": WIDE_ROW_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-header-not-utf8": (
        {"bad.csv": NOT_UTF8_HEADER_CSV}, ["train", "--data", "bad.csv", "--model", "m.json"]),
    "csv-body-not-utf8": (
        {"bad.csv": NOT_UTF8_BODY_CSV, "model.json": ONE_ATTRIBUTE_MODEL},
        ["partition", "--model", "model.json", "--data", "bad.csv"]),
    "weights-file-not-utf8": (
        {"w.txt": b"0.1\n0.2\n0.3\xe9\n0.4\n"}, ["shapley", "--weights-override", "w.txt"]),
    "model-not-utf8": (
        {"model.json": b'{"input_size": 4,\n "x": "\xff"}'},
        ["shapley", "--model", "model.json", "--cell", "0"]),
    "csv-13-attributes": (
        {"bad.csv": ",".join(f"a{j}" for j in range(13)) + ",label\n" + "0," * 13 + "1\n"},
        ["train", "--data", "bad.csv", "--model", "m.json"]),
    "weights-file-2^13-lines": (
        {"w13.txt": "0.5\n" * 2**13},
        ["shapley", "--weights-override", "w13.txt"]),
    "model-input-size-2^13": (
        {"model.json": json.dumps(dict(_model_doc([[[0.0] * 2**13]]), input_size=2**13))},
        ["shapley", "--model", "model.json", "--cell", "1"]),
    "hypothesis-13-names": (
        {}, ["hypothesis", "--names", ",".join(f"a{j}" for j in range(13)),
             "--hypothesis", "a0", "--hypothesis2", "a1"]),
    "hypothesis-nested-400-deep": (
        {}, ["hypothesis", "--names", "a,b", "--hypothesis", "(" * 400 + "a" + ")" * 400,
             "--hypothesis2", "a"]),
    "trend-fixed-degree-above-1": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
             "--fixed", "2=1.5"]),
    # one past each size bound, rejected before the grid or a layer is allocated
    "trend-resolution-1002": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1,2",
             "--resolution", "1002"]),
    "train-relu-nodes-0": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--relu-nodes", "0"]),
    "train-relu-nodes-1025": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--relu-nodes", "1025"]),
    "train-epochs-1000001": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--epochs", "1000001"]),
    "train-seed-negative": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--seed", "-1"]),
    # a trend option that would be dropped, or an empty level set
    "trend-fixed-varied-attribute": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1", "--fixed", "1=0.9"]),
    "trend-fixed-twice": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
             "--fixed", "2=0.3,2=0.9"]),
    "trend-levels-comma": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1", "--levels", ","]),
    "trend-levels-empty": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1", "--levels", ""]),
    # non-finite numbers
    "explain-threshold-nan": (
        {}, ["explain", "--weights-override", "ref16.txt", "--threshold", "nan",
             "--out-dir", "out"]),
    "explain-threshold-inf": (
        {}, ["explain", "--weights-override", "ref16.txt", "--threshold", "inf",
             "--out-dir", "out"]),
    "train-lr-inf": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "inf"]),
    # the last update overflows: the loss after the loop is not finite
    "train-lr-1e300-one-epoch": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "1e300",
             "--epochs", "1"]),
    "train-lr-1e150-one-epoch": (
        {}, ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "1e150",
             "--epochs", "1"]),
    # a cell option with --hypothesis2, which reads no cell
    "hypothesis2-with-model": (
        {}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
             "--model", "missing.json"]),
    "hypothesis2-with-cell": (
        {}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
             "--cell", "99"]),
    "hypothesis2-with-weights-override": (
        {}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
             "--weights-override", "ref16.txt"]),
    "hypothesis2-with-level": (
        {}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
             "--level", "9"]),
    "hypothesis2-with-bcl-max": (
        {}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
             "--bcl-max", "99"]),
    "trend-fixed-degree-not-a-number": (
        {}, ["trend", "--weights-override", "ref16.txt", "--vary", "1", "--fixed", "a2=x"]),
    # finite weights whose differences or sums overflow float64
    "shapley-weights-span-overflows": (
        {"w.txt": "-1e308\n1e308\n-1e308\n1e308\n"},
        ["shapley", "--weights-override", "w.txt"]),
    "explain-weights-span-overflows": (
        {"w.txt": "1e308\n-1e308\n0\n1\n"},
        ["explain", "--weights-override", "w.txt", "--out-dir", "out"]),
    "project-weights-sum-overflows": (
        {"w.txt": "1e308\n1e308\n0\n1\n"},
        ["project", "--weights-override", "w.txt", "--keep", "1"]),
    "model-fuzzifier-kind-a-list": (
        {"model.json": _fuzzified_model(dict(MINMAX_2, kind=["minmax"])),
         "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV),
    "model-fuzzifier-lo-above-hi": (
        {"model.json": _fuzzified_model(dict(MINMAX_2, lo=[0.0, 10.0])),
         "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV),
    "model-fuzzifier-unread-key": (
        {"model.json": _fuzzified_model(dict(MINMAX_2, midpoint=[5.0, 5.0])),
         "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV),
    **{f"model-{name}": ({"model.json": text, "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV)
       for name, (text, _) in NOT_JSON_NUMBERS.items()},
    **{name: (files, argv) for name, (files, argv, _) in REPEATED_NAMES.items()},
    **{name: (files, argv) for name, (files, argv, _) in UNREADABLE_INPUTS.items()},
}


def write_input(path, text):
    """Write an input file given as text, or as bytes."""
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)


@pytest.mark.parametrize("files,argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys,
                                               files, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref16.txt").write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    synthetic_banknote(tmp_path / "bank.csv", rows=20)
    for name, text in files.items():
        write_input(tmp_path / name, text)
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("text,message", [
    (NAN_CSV, "row 3 holds a value that is not finite"),
    (WIDE_ROW_CSV, "row 3 has a column count other than the header's 3"),
    ("a,label\n\n0.1,0\n0.2,2\n", "row 4 has a label other than 0 or 1"),
    ("a,label\n0.1,0\n0.2,x\n", "row 3: could not convert string to float: 'x'"),
    (QUOTED_TEXT_CSV, "row 3: could not convert string to float: 'x'"),
    (EMPTY_FIELD_CSV, "row 3: could not convert string to float: ''"),
    (QUOTED_EMPTY_CSV, "row 3: could not convert string to float: ''"),
    pytest.param(LONG_HEADER_CSV, "row 1: field larger than field limit (131072)",
                 id="header-field-over-limit"),
    pytest.param(LONG_FIELD_CSV, "row 3: field larger than field limit (131072)",
                 id="row-field-over-limit"),
    pytest.param(NOT_UTF8_HEADER_CSV, "row 1: byte 0xff is not UTF-8 (invalid start byte)",
                 id="not-utf8-header"),
    pytest.param(NOT_UTF8_BODY_CSV, "row 4002: byte 0xff is not UTF-8 (invalid start byte)",
                 id="not-utf8-body"),
    pytest.param(b"a,label\r0.1,0\r\n0.2,1\r\xe9\n",
                 "row 4: byte 0xe9 is not UTF-8 (invalid continuation byte)",
                 id="not-utf8-after-cr-line-ends"),
    pytest.param(b"a,label\n0.1,0\n\xe2\x82",
                 "row 3: byte 0xe2 is not UTF-8 (unexpected end of data)",
                 id="not-utf8-cut-short"),
    # the quote sends the body to the csv reader before the byte is decoded
    pytest.param(b'a,label\n"0.1",0\n' + b"0.1,0\n" * 20_000 + b"\xff,1\n",
                 "row 20003: byte 0xff is not UTF-8 (invalid start byte)",
                 id="not-utf8-csv-reader"),
])
def test_bad_csv_names_the_row(tmp_path, capsys, text, message):
    data = tmp_path / "bad.csv"
    write_input(data, text)
    assert main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


WEIGHTS_ARGV = ["shapley", "--weights-override", "in.txt"]
MODEL_ARGV = ["shapley", "--model", "in.txt", "--cell", "1"]


@pytest.mark.parametrize("argv,text,message", [
    pytest.param(WEIGHTS_ARGV, b"0.1\n0.2\n0.3\xe9\n0.4\n",
                 "row 3: byte 0xe9 is not UTF-8 (invalid continuation byte)", id="weights-lf"),
    pytest.param(WEIGHTS_ARGV, b"0.1\r0.2\r\xff\r0.4\r",
                 "row 3: byte 0xff is not UTF-8 (invalid start byte)", id="weights-cr-only"),
    pytest.param(WEIGHTS_ARGV, b"0.1,0.2\r\n0.3,\xe2\x82",
                 "row 2: byte 0xe2 is not UTF-8 (unexpected end of data)", id="weights-cut-short"),
    pytest.param(MODEL_ARGV, b'{"input_size": 4,\n "x": "\xff"}',
                 "row 2: byte 0xff is not UTF-8 (invalid start byte)", id="model-lf"),
    pytest.param(MODEL_ARGV, b'{\r"input_size": 4,\r"x": "\xe9"}',
                 "row 3: byte 0xe9 is not UTF-8 (invalid continuation byte)", id="model-cr-only"),
    pytest.param(MODEL_ARGV, b'{"input_size": 4,\r\n"x": "\xe2\x82',
                 "row 2: byte 0xe2 is not UTF-8 (unexpected end of data)", id="model-cut-short"),
])
def test_bad_weights_or_model_file_names_the_row(tmp_path, monkeypatch, capsys,
                                                 argv, text, message):
    # a row is a file line, as in a dataset, and a byte-order mark is on row 1
    monkeypatch.chdir(tmp_path)
    for prefix in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "in.txt").write_bytes(prefix + text)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_a_decode_error_the_file_does_not_hold_passes_unchanged(tmp_path):
    (tmp_path / "w.txt").write_text("0.5\n")
    raised = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")
    with pytest.raises(UnicodeDecodeError) as caught, cli._input(tmp_path / "w.txt", "weights"):
        raise raised
    assert caught.value is raised


@pytest.mark.parametrize("argv,text", [(WEIGHTS_ARGV, "\n".join(map(repr, REF16_WEIGHTS))),
                                       (MODEL_ARGV, L1_MODEL)], ids=["weights", "model"])
def test_a_weights_or_model_file_with_a_byte_order_mark_loads(tmp_path, monkeypatch, capsys,
                                                               argv, text):
    monkeypatch.chdir(tmp_path)
    printed = []
    for prefix in (b"", b"\xef\xbb\xbf"):
        (tmp_path / "in.txt").write_bytes(prefix + text.encode())
        assert main(argv) == 0
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1] and printed[0].out and not printed[0].err


@pytest.mark.parametrize("argv,what", [
    (["train", "--data", "in.txt", "--model", "m.json"], "dataset"), (MODEL_ARGV, "model"),
    (["classify", "--model", "in.txt", "--data", "d.csv"], "model"),
])
def test_a_missing_input_file_is_named(tmp_path, monkeypatch, capsys, argv, what):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {what} file not found: in.txt\n"


@pytest.mark.parametrize("files,argv,message", [
    pytest.param({"model.json": L1_MODEL},
                 ["shapley", "--model", "model.json", "--cell", "2"],
                 "cell number 2 out of range for l=1", id="cell-out-of-range"),
    pytest.param({}, ["project", "--weights-override", "ref16.txt", "--keep", "1,1"],
                 "keep must be distinct attribute indices below n", id="keep-repeated"),
    pytest.param({}, ["hypothesis", "--names", "v,s", "--hypothesis", "v and and s",
                      "--hypothesis2", "v"],
                 "unexpected token 'and' (at token 3)", id="formula-syntax"),
    pytest.param({}, ["hypothesis", "--names", "v,s", "--hypothesis", "v and x",
                      "--hypothesis2", "v"],
                 "unknown attribute 'x'; known: v, s", id="formula-unknown-attribute"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--resolution", "1"],
                 "resolution must be at least 2", id="trend-resolution-1"),
    pytest.param({"model.json": '{"input_size": 4'},
                 ["explain", "--model", "model.json", "--cell", "0"],
                 "malformed model file: Expecting ',' delimiter: line 1 column 17 (char 16)",
                 id="model-malformed"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--fixed", "1=0.9"],
                 "attribute 'a1' is both varied and fixed", id="trend-fixed-varied"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--fixed", "2=0.3,2=0.9"],
                 "attribute 'a2' is fixed twice", id="trend-fixed-twice"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--levels", ","],
                 "level set is empty", id="trend-levels-empty"),
    # a cell-source option the chosen source would not read
    pytest.param({}, ["shapley", "--weights-override", "ref16.txt", "--model", "missing.json"],
                 "--weights-override cannot be combined with --model or --cell",
                 id="weights-override-and-model"),
    pytest.param({}, ["explain", "--weights-override", "ref16.txt", "--cell", "3"],
                 "--weights-override cannot be combined with --model or --cell",
                 id="weights-override-and-cell"),
    pytest.param({"model.json": L1_MODEL},
                 ["explain", "--model", "model.json", "--cell", "1", "--threshold", "0.3"],
                 "--threshold applies only to --weights-override", id="threshold-with-model"),
    pytest.param({"model.json": NONFINITE_FUZZIFIER_MODEL},
                 ["shapley", "--model", "model.json", "--cell", "1"],
                 "bad fuzzifier: fuzzifier fields must be finite", id="fuzzifier-1e999"),
    pytest.param({}, ["explain", "--weights-override", "ref16.txt", "--threshold", "nan"],
                 "threshold must be finite", id="threshold-nan"),
    pytest.param({"bank.csv": "a,label\n0.1,0\n0.9,1\n"},
                 ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "inf"],
                 "learning rate must be finite", id="train-lr-inf"),
    pytest.param({"bank.csv": "a,label\n0.1,0\n0.9,1\n"},
                 ["train", "--data", "bank.csv", "--model", "m.json", "--seed", "-1"],
                 "seed must be a non-negative integer", id="train-seed-negative"),
    pytest.param({"d.csv": "label\n0\n1\n"}, ["train", "--data", "d.csv", "--model", "m.json"],
                 "cannot fit a fuzzifier on zero attributes", id="train-label-column-only"),
    pytest.param({"bank.csv": "a,label\n0.1,0\n0.9,1\n"},
                 ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "1e300",
                      "--epochs", "1"],
                 "training diverged (non-finite loss); lower the learning rate",
                 id="train-lr-1e300-one-epoch"),
    pytest.param({"bank.csv": "a,label\n0.1,0\n0.9,1\n"},
                 ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "1e150",
                      "--epochs", "1"],
                 "training diverged (non-finite loss); lower the learning rate",
                 id="train-lr-1e150-one-epoch"),
    pytest.param({"model.json": json.dumps(dict(_model_doc([[[0.1, 0.2, 0.3]]]),
                                                input_size=3))},
                 ["shapley", "--model", "model.json", "--cell", "1"],
                 "input size 3 is not a power of two", id="model-input-size-3"),
    pytest.param({"w.txt": "-1e308\n1e308\n-1e308\n1e308\n"},
                 ["shapley", "--weights-override", "w.txt"],
                 "Shapley values overflow float64", id="shapley-weights-span-overflows"),
    pytest.param({"w.txt": "1e308\n1e308\n0\n1\n"},
                 ["project", "--weights-override", "w.txt", "--keep", "1"],
                 "projected weights overflow float64", id="project-weights-sum-overflows"),
    # --names with --data: the dataset's header names the attributes
    pytest.param({"w.txt": "0.9,0.4,0.7,0.8", "d.csv": "a,b,label\n0.1,0.2,0\n"},
                 ["hypothesis", "--weights-override", "w.txt", "--data", "d.csv",
                  "--names", "x,y", "--hypothesis", "x and y"],
                 "--names cannot be combined with --data", id="names-with-data"),
    pytest.param({"d.csv": "a,b,label\n0.1,0.2,0\n"},
                 ["hypothesis", "--data", "d.csv", "--names", "a,b", "--hypothesis", "a",
                  "--hypothesis2", "b"],
                 "--names cannot be combined with --data", id="names-with-data-hypothesis2"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--fixed", "a2"],
                 "--fixed entry 'a2' is not of the form name=degree",
                 id="trend-fixed-without-equals"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--fixed", "a2="],
                 "--fixed entry 'a2=' is not of the form name=degree",
                 id="trend-fixed-empty-degree"),
    pytest.param({}, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                      "--fixed", "a2=x"],
                 "--fixed entry 'a2=x' is not of the form name=degree",
                 id="trend-fixed-degree-not-a-number"),
    # --hypothesis2 reads no cell, so no cell option applies
    pytest.param({}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
                      "--model", "missing.json", "--cell", "99"],
                 "--model cannot be combined with --hypothesis2", id="hypothesis2-with-model"),
    pytest.param({}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
                      "--level", "9", "--bcl-max", "99"],
                 "--bcl-max cannot be combined with --hypothesis2",
                 id="hypothesis2-with-level-and-bcl-max"),
    pytest.param({}, ["hypothesis", "--names", "a,b", "--hypothesis", "a", "--hypothesis2", "b",
                      "--level", "0"],
                 "--level cannot be combined with --hypothesis2", id="hypothesis2-with-level"),
    pytest.param({"model.json": _fuzzified_model(dict(MINMAX_2, lo=[0.0, 10.0])),
                  "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV,
                 "bad fuzzifier: lo must not exceed hi", id="fuzzifier-lo-above-hi"),
    pytest.param({"model.json": _fuzzified_model(dict(MINMAX_2, midpoint=[5.0, 5.0])),
                  "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV,
                 "bad fuzzifier: fuzzifier kind 'minmax' takes no field 'midpoint'",
                 id="fuzzifier-unread-key"),
    *[pytest.param({"model.json": text, "d.csv": TWO_ATTRIBUTE_CSV}, CLASSIFY_ARGV, message,
                   id=f"model-{name}") for name, (text, message) in NOT_JSON_NUMBERS.items()],
    *[pytest.param(files, argv, message, id=name)
      for name, (files, argv, message) in [*REPEATED_NAMES.items(), *UNREADABLE_INPUTS.items()]],
])
def test_error_message_is_printed_as_raised(tmp_path, monkeypatch, capsys,
                                            files, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref16.txt").write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


NUMPY_ALLOCATION = "Unable to allocate 625. MiB for an array with shape (20000, 4096) and data type float64"


@pytest.mark.parametrize("raised,message", [(NUMPY_ALLOCATION, NUMPY_ALLOCATION),
                                            ("", "out of memory")],
                         ids=["numpy-message", "empty-message"])
def test_allocation_failure_is_an_error_not_a_traceback(monkeypatch, capsys, trained_model,
                                                        banknote_csv, raised, message):
    def fail(degrees):
        raise MemoryError(raised)

    monkeypatch.setattr(cli, "minterm_transform", fail)
    rc = main(["classify", "--model", str(trained_model), "--data", str(banknote_csv)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# Per subcommand, a small call; none may import numpy.ma, which costs every
# process ~19 ms and ~1,500 live objects (a plain np.unique imports it), or
# dataclasses, which costs ~1 ms plus ~0.5 ms of generated code per class.
SMALL_CALLS = {
    "train": ["train", "--data", "bank.csv", "--model", "m.json", "--epochs", "5"],
    "partition": ["partition", "--model", "model.json", "--data", "bank.csv"],
    "explain": ["explain", "--model", "model.json", "--cell", "5", "--data", "bank.csv",
                "--out-dir", "out"],
    "shapley": ["shapley", "--model", "model.json", "--cell", "5"],
    "project": ["project", "--weights-override", "ref16.txt", "--keep", "1,3"],
    "hypothesis": ["hypothesis", "--weights-override", "ref16.txt", "--hypothesis", "a1"],
    "trend": ["trend", "--weights-override", "ref16.txt", "--vary", "1,2",
              "--resolution", "5"],
    "classify": ["classify", "--model", "model.json", "--data", "bank.csv"],
}


@pytest.mark.parametrize("argv", SMALL_CALLS.values(), ids=SMALL_CALLS.keys())
def test_command_does_not_import_numpy_ma(tmp_path, argv):
    synthetic_banknote(tmp_path / "bank.csv", rows=20)
    X = np.loadtxt(tmp_path / "bank.csv", delimiter=",", skiprows=1)[:, :4]
    save_model(tmp_path / "model.json",
               random_simple_ann(np.random.default_rng(0), 4, 3), fit_fuzzifier(X))
    (tmp_path / "ref16.txt").write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    code = (f"import sys; from annlogic.cli import main; rc = main({argv!r}); "
            "print(rc, 'numpy.ma' in sys.modules, 'dataclasses' in sys.modules)")
    assert _fresh_interpreter(code, tmp_path) == "0 False False"


def test_import_does_not_import_dataclasses(tmp_path):
    code = "import sys, annlogic.cli; print('dataclasses' in sys.modules)"
    assert _fresh_interpreter(code, tmp_path) == "False"


def _fresh_interpreter(code, cwd):
    """The last stdout line of `code` run by a fresh interpreter on this src/."""
    src = Path(annlogic.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


@pytest.mark.parametrize("sep", ["\n", "\r\n", ","], ids=["lf", "crlf", "comma"])
def test_a_weights_file_with_a_byte_order_mark(tmp_path, sep):
    text = sep.join(map(repr, REF16_WEIGHTS)) + "\n"
    (tmp_path / "plain.txt").write_bytes(text.encode())
    (tmp_path / "bom.txt").write_bytes(b"\xef\xbb\xbf" + text.encode())
    want = cli.load_weights_file(tmp_path / "plain.txt").weights
    assert np.array_equal(cli.load_weights_file(tmp_path / "bom.txt").weights, want)
    assert np.array_equal(want, REF16_WEIGHTS)


def test_output_files_are_utf8_under_any_locale(tmp_path):
    # the same calls in UTF-8 mode and under the C locale write the same bytes
    lines = ["\u00e9t\u00e9,b,c,label",
             *(",".join([*map(repr, r[:3]), str(int(r[3] > 0.5))])
               for r in np.random.default_rng(3).uniform(0, 1, (20, 4)).tolist())]
    (tmp_path / "d.csv").write_bytes("\n".join(lines).encode() + b"\n")
    _, X, _ = cli.load_dataset(tmp_path / "d.csv", "label")
    save_model(tmp_path / "m.json", random_simple_ann(np.random.default_rng(3), 3, 2),
               fit_fuzzifier(X))
    calls = [["explain", "--model", "../m.json", "--cell", "1", "--data", "../d.csv",
              "--out-dir", "out"],
             ["trend", "--model", "../m.json", "--cell", "1", "--data", "../d.csv",
              "--vary", "1,2", "--resolution", "3", "--out", "trend.csv"]]
    code = f"import sys; from annlogic.cli import main; sys.exit(any(map(main, {calls!r})))"
    env = {"PATH": os.environ.get("PATH", ""), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(annlogic.__file__).resolve().parents[1])}
    written = []
    for mode in ("utf8=1", "utf8=0"):
        (tmp_path / mode).mkdir()
        done = subprocess.run([sys.executable, "-X", mode, "-c", code], cwd=tmp_path / mode,
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        written.append({p.relative_to(tmp_path / mode): p.read_bytes()
                        for p in sorted((tmp_path / mode).rglob("*")) if p.is_file()})
    assert written[0] == written[1]
    assert "\u00e9t\u00e9".encode() in written[0][Path("trend.csv")]
    assert "\u00e9t\u00e9".encode() in written[0][Path("out", "weights.csv")]


# argv on which the parser of the named subcommand alone must act as the
# parser of all: no argv, an unknown command, help at both levels, an
# unrecognized option or argument, a missing required option, a bad type=
# value, and one valid call per subcommand.
SUBCOMMANDS = ["train", "partition", "explain", "shapley", "project", "hypothesis",
               "trend", "classify"]
PARSER_ARGVS = {
    "none": [],
    "unknown-command": ["frobnicate", "--cell", "1"],
    "help": ["--help"],
    **{f"{c}-help": [c, "--help"] for c in SUBCOMMANDS},
    "unrecognized-option": ["shapley", "--weights-override", "w.txt", "--bogus"],
    "unrecognized-argument": ["classify", "--model", "m.json", "--data", "d.csv", "extra"],
    "missing-required": ["project", "--weights-override", "w.txt"],
    "bad-int": ["explain", "--model", "m.json", "--cell", "x"],
    "bad-choice": ["train", "--data", "d.csv", "--model", "m.json", "--fuzzifier", "gauss"],
    "valid-train": ["train", "--data", "d.csv", "--model", "m.json", "--lr", "0.1",
                    "--fuzzifier", "logistic"],
    "valid-partition": ["partition", "--model", "m.json", "--data", "d.csv", "--out", "c.csv"],
    "valid-explain": ["explain", "--weights-override", "w.txt", "--bcl-max", "5",
                      "--threshold", "0.2", "--out-dir", "out"],
    "valid-shapley": ["shapley", "--model", "m.json", "--cell", "3", "--label", "y"],
    "valid-project": ["project", "--model", "m.json", "--cell", "1", "--keep", "1,2"],
    "valid-hypothesis": ["hypothesis", "--names", "a,b", "--hypothesis", "a",
                         "--hypothesis2", "b"],
    "valid-trend": ["trend", "--weights-override", "w.txt", "--vary", "1,2",
                    "--fixed", "3=0.5", "--resolution", "5", "--out", "t.csv"],
    "valid-classify": ["classify", "--model", "m.json", "--data", "d.csv"],
}


def parsed(parser, argv, capsys):
    """(exit status or None, stdout, stderr, Namespace or None) of parse_args."""
    try:
        args, status = parser.parse_args(argv), None
    except SystemExit as exc:
        args, status = None, exc.code
    return (status, *capsys.readouterr(), args)


@pytest.mark.parametrize("columns", ["80", "30"])
@pytest.mark.parametrize("name,argv", PARSER_ARGVS.items(), ids=PARSER_ARGVS.keys())
def test_subcommand_parser_acts_as_the_full_one(monkeypatch, capsys, columns, name, argv):
    monkeypatch.setenv("COLUMNS", columns)
    alone = parsed(build_parser(argv[0] if argv else None), argv, capsys)
    assert alone == parsed(build_parser(), argv, capsys)
    assert alone == parsed(build_parser_parents(), argv, capsys)
    assert (alone[0] is None) == name.startswith("valid-")
