import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import annlogic
from annlogic.cli import main
from annlogic.encoding import fit_fuzzifier
from annlogic.network import save_model
from conftest import REF16_WEIGHTS, TWO_ATTR_WEIGHTS, random_simple_ann, synthetic_banknote


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


class TestShapley:
    def test_two_attribute_example(self, tmp_path, capsys):
        wfile = tmp_path / "w.txt"
        wfile.write_text(",".join(str(w) for w in TWO_ATTR_WEIGHTS))
        rc = main(["shapley", "--weights-override", str(wfile)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Sh_a1=0.100" in out
        assert "Sh_a2=-0.200" in out

    def test_threshold_is_not_an_option(self, ref16_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["shapley", "--weights-override", str(ref16_file), "--threshold", "0.3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threshold 0.3" in capsys.readouterr().err


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
L1_MODEL = json.dumps(_model_doc([[[0.1, 0.2, 0.3, 0.4]]]))
ONE_ATTRIBUTE_MODEL = json.dumps(dict(
    _model_doc([[[0.1, 0.2]]], fuzzifier={"kind": "minmax", "lo": [0.0], "hi": [1.0]}),
    input_size=2))
NONFINITE_FUZZIFIER_MODEL = _fuzzified_model(
    {"kind": "minmax", "lo": ["LO", 0.0], "hi": ["LO", 1.0]}).replace('"LO"', "1e999")


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
    # finite weights whose differences or sums overflow float64
    "shapley-weights-span-overflows": (
        {"w.txt": "1e308\n-1e308\n0\n1\n"}, ["shapley", "--weights-override", "w.txt"]),
    "explain-weights-span-overflows": (
        {"w.txt": "1e308\n-1e308\n0\n1\n"},
        ["explain", "--weights-override", "w.txt", "--out-dir", "out"]),
    "project-weights-sum-overflows": (
        {"w.txt": "1e308\n1e308\n0\n1\n"},
        ["project", "--weights-override", "w.txt", "--keep", "1"]),
}


@pytest.mark.parametrize("files,argv", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_is_an_error_not_a_traceback(tmp_path, monkeypatch, capsys,
                                               files, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref16.txt").write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    synthetic_banknote(tmp_path / "bank.csv", rows=20)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
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
])
def test_bad_csv_names_the_row(tmp_path, capsys, text, message):
    data = tmp_path / "bad.csv"
    data.write_text(text)
    assert main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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
                 ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "1e300",
                      "--epochs", "1"],
                 "training diverged (non-finite loss); lower the learning rate",
                 id="train-lr-1e300-one-epoch"),
    pytest.param({"bank.csv": "a,label\n0.1,0\n0.9,1\n"},
                 ["train", "--data", "bank.csv", "--model", "m.json", "--lr", "1e150",
                      "--epochs", "1"],
                 "training diverged (non-finite loss); lower the learning rate",
                 id="train-lr-1e150-one-epoch"),
])
def test_error_message_is_printed_as_raised(tmp_path, monkeypatch, capsys,
                                            files, argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ref16.txt").write_text("\n".join(str(w) for w in REF16_WEIGHTS))
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# Per subcommand, a small call; none may import numpy.ma, which costs every
# process ~19 ms and ~1,500 live objects (a plain np.unique imports it).
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
    code = ("import sys; from annlogic.cli import main; "
            f"rc = main({argv!r}); print(rc, 'numpy.ma' in sys.modules)")
    src = Path(annlogic.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr
