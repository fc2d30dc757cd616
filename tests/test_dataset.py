"""cli.load_dataset against the csv-reader oracle: the same (names, X, y)
bit for bit, or the same error text, on any CSV text."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import annlogic
from annlogic import cli
from annlogic.cli import load_dataset
from conftest import synthetic_banknote
from oracles import dataset_texts, load_dataset_csv


def outcome(load, path):
    """What a reader makes of the file: its result as bytes, or its error."""
    try:
        names, X, y = load(path, "label")
    except Exception as exc:
        return type(exc), str(exc)
    return names, X.shape, X.dtype, X.tobytes(), y.dtype, y.tobytes()


def assert_reads_as_oracle(path, text):
    path.write_text(text, newline="")
    assert outcome(load_dataset, path) == outcome(load_dataset_csv, path)


def rows(k, width=3, seed=0):
    """k valid rows of `width` columns, the label last."""
    rng = np.random.default_rng(seed)
    return [",".join([*map(repr, rng.uniform(-5, 5, width - 1).tolist()), str(b)])
            for b in rng.integers(0, 2, k).tolist()]


@settings(max_examples=150, deadline=None)
@given(dataset_texts())
def test_reads_as_the_csv_reader(tmp_path_factory, text):
    assert_reads_as_oracle(tmp_path_factory.mktemp("csv") / "d.csv", text)


LONG = "\n".join(rows(1500)) + "\n"
CASES = {
    "lf": "a,b,label\n" + LONG,
    "crlf": "a,b,label\r\n" + LONG.replace("\n", "\r\n"),
    "crlf-with-an-lf-line": "a,b,label\r\n0.1,0.2,0\n0.3,0.4,1\r\n",
    "no-final-newline": "a,b,label\n" + LONG.rstrip("\n"),
    "header-only": "a,b,label\n",
    "blank-lines-only": "a,b,label\n\n\n",
    "blank-block": "a,b,label\n" + "\n" * 1100 + "0.1,0.2,1\n",
    "blank-lines-then-bad-label": "a,b,label\n\n\n0.1,0.2,2\n",
    "bad-label-in-second-block": "a,b,label\n\n" + LONG + "0.1,0.2,2\n",
    "nan-in-second-block": "a,b,label\n" + LONG + "\n0.1,nan,1\n",
    "overflow-in-second-block": "a,b,label\n" + LONG + "0.1,1e400,1\n",
    "every-row-too-narrow": "a,b,label\n0.1,0\n0.2,1\n0.3,0\n",
    "every-row-too-wide": "a,b,label\n0.1,0.2,0.3,0\n",
    "ragged-rows": "a,b,label\n0.1,0.2,0\n0.1,0,0.2,1\n0.1,0\n",
    "quoted-number": 'a,b,label\n0.1,"0.2",0\n',
    "quoted-newline": 'a,b,label\n0.1,"0.\n2",0\n',
    "lone-cr": "a,b,label\r0.1,0.2,0\r0.3,0.4,1\r",
    "lone-cr-then-comma": "a,label\n1\r,0\n",
    "whitespace-only-line": "a,b,label\n0.1,0.2,0\n  \n",
    "field-with-separator-char": "a,b,label\n\x1c0.1,0.2,0\n",
    "underscore": "a,b,label\n1_0,0.2,0\n",
    "unicode-digit": "a,b,label\n١,0.2,0\n",
    "number-over-field-limit": "a,label\n" + "0" * 131_072 + "1,0\n",
    "number-at-field-limit": "a,label\n" + "0" * 131_071 + "1,0\n",
    "quoted-header": '"a,1",b,label\n0.1,0.2,0\n',
    "header-over-two-lines": 'a,"b\nc",label\n0.1,0.2,0\n\n0.3,0.4,2\n',
    "record-over-two-lines": 'a,label\n"0.5\n",0\n0.2,2\n',
}


@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_reads_as_the_csv_reader_on(tmp_path, text):
    assert_reads_as_oracle(tmp_path / "d.csv", text)


def test_row_numbers_count_blank_lines_across_blocks(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("a,b,label\n\n" + LONG + "\n\n0.1,0.2,2\n")
    assert cli.main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == "error: row 1505 has a label other than 0 or 1\n"


@pytest.mark.parametrize("text,message", [
    pytest.param(b'a,"b\nc",label\n0.1,0.2,0\n0.1,x,1\n',
                 "row 4: could not convert string to float: 'x'", id="csv-reader"),
    pytest.param(b'a,"b\nc",label\n0.1,0.2,2\n', "row 3 has a label other than 0 or 1",
                 id="plain"),
    pytest.param(b'a,"b\nc",label\n0.1,0.2,0\n0.1,\xff,1\n',
                 "row 4: byte 0xff is not UTF-8 (invalid start byte)", id="not-utf8"),
    pytest.param(b'a,label\n"0.5\n",0\n0.2,2\n', "row 4 has a label other than 0 or 1",
                 id="after-a-record-over-two-lines"),
])
def test_rows_are_numbered_by_the_line_they_start_on(tmp_path, capsys, text, message):
    data = tmp_path / "d.csv"
    data.write_bytes(text)
    assert cli.main(["train", "--data", str(data), "--model", str(tmp_path / "m.json")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("text,plain", [
    ("", True),
    ("0.5,1\n", True),
    ("-1.5e-3,+2E+07,.5,5.\n\n", True),
    ('"0.5",1\n', False),
    ("0.5,1\r", False),
    ("0.5,1\r\n", False),
    (" 1,0\n", False),
    ("1\t,0\n", False),
    ("nan,0\n", False),
    ("1_0,0\n", False),
    ("١,0\n", False),
    ("\x1c1,0\n", False),
    ("1#,0\n", False),
])
def test_only_number_characters_commas_and_lf_are_plain(text, plain):
    assert cli._is_plain(text) is plain


def tall_text(n_rows):
    """A CSV as the benchmark's tall-n8 workload writes it: 8 repr floats and
    a 0/1 label a row, LF line ends."""
    return (",".join(f"x{j}" for j in range(8)) + ",label\n"
            + "\n".join(rows(n_rows, width=9)) + "\n")


@pytest.mark.parametrize("n_rows", [3000, 50_000])
def test_peak_memory_is_no_higher_than_the_csv_reader(tmp_path, n_rows):
    data = tmp_path / "d.csv"
    data.write_text(tall_text(n_rows))
    peaks = []
    for load in (load_dataset_csv, load_dataset):
        tracemalloc.start()
        try:
            load(data, "label")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]


# Chunk sizes, in characters, at which the reader runs again besides its
# default: between them they split a CRLF across two reads, read a line
# longer than a chunk and a chunk of blank lines only (see below).
SMALL_CHUNKS = (1, 2, 7, 64)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
def test_reads_as_the_csv_reader_in_chunks_of(tmp_path, monkeypatch, text, chunk):
    monkeypatch.setattr(cli, "_CHUNK_CHARS", chunk)
    assert_reads_as_oracle(tmp_path / "d.csv", text)


@settings(max_examples=150, deadline=None)
@given(dataset_texts(), st.sampled_from(SMALL_CHUNKS))
def test_reads_as_the_csv_reader_in_small_chunks(tmp_path_factory, text, chunk):
    with mock.patch.object(cli, "_CHUNK_CHARS", chunk):
        assert_reads_as_oracle(tmp_path_factory.mktemp("csv") / "d.csv", text)


def test_the_small_chunks_cross_every_kind_of_boundary():
    """Some case's body, read in one of SMALL_CHUNKS, has a CRLF split across
    two reads, a read inside one line, a read of blank lines only and a
    last line without an LF."""
    reads = [[body[i:i + chunk] for i in range(0, len(body), chunk)]
             for body in (text.partition("\n")[2] for text in CASES.values()) if body
             for chunk in SMALL_CHUNKS]
    kinds = {
        "crlf-split": lambda r: any(a[-1] == "\r" and b[0] == "\n" for a, b in zip(r, r[1:])),
        "inside-a-line": lambda r: any("\n" not in a for a in r[:-1]),
        "blank-lines-only": lambda r: any(set(a) == {"\n"} for a in r),
        "last-line-without-lf": lambda r: r[-1][-1] != "\n",
    }
    for kind, seen in kinds.items():
        assert any(map(seen, reads)), kind


def _not_the_csv_reader(fh, width):
    raise AssertionError("the csv reader ran")


@pytest.mark.parametrize("chunk", [7, 64, cli._CHUNK_CHARS])
@pytest.mark.parametrize("kind", ["tall-lf", "banknote-crlf"])
def test_a_plain_file_is_read_without_the_csv_reader(tmp_path, monkeypatch, kind, chunk):
    path = tmp_path / "d.csv"
    if kind == "tall-lf":
        path.write_text(tall_text(3000))
    else:
        synthetic_banknote(path)
    want = outcome(load_dataset_csv, path)
    monkeypatch.setattr(cli, "_CHUNK_CHARS", chunk)
    monkeypatch.setattr(cli, "_csv_body", _not_the_csv_reader)
    assert outcome(load_dataset, path) == want


def test_a_dataset_is_read_as_utf8_under_any_locale(tmp_path):
    path = tmp_path / "d.csv"
    path.write_bytes("\u00e9,label\n0.5,1\n".encode())
    code = ("import locale; from annlogic.cli import load_dataset; "
            f"names, X, y = load_dataset({str(path)!r}, 'label'); "
            "print(locale.getpreferredencoding(False), ascii(names))")
    env = {"PATH": os.environ.get("PATH", ""), "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": str(Path(annlogic.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ANSI_X3.4-1968", "['\\xe9']"]


# body rows of attributes a1, a2 and a 0/1 label, the label placed last
BOM_BODIES = {
    "plain": [b"0.5,-1.25,1", b"2.5,3,0"],
    "quoted": [b'"0.5",-1.25,1', b"2.5,3,0"],  # read by the csv reader, after seek(0)
    "bad-label": [b"0.5,-1.25,1", b"2.5,3,2"],
    "not-utf8": [b"0.5,-1.25,1", b"2.5,3\xff,0"],
}


@pytest.mark.parametrize("end", [b"\n", b"\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("label_first", [False, True], ids=["label-last", "label-first"])
@pytest.mark.parametrize("body", BOM_BODIES)
def test_a_byte_order_mark_is_skipped(tmp_path, end, label_first, body):
    # Excel's "CSV UTF-8" files start with a BOM; it is not part of the first name
    lines = [b"a1,a2,label", *BOM_BODIES[body]]
    if label_first:
        lines = [b",".join([line.split(b",")[-1], *line.split(b",")[:-1]]) for line in lines]
    (tmp_path / "plain.csv").write_bytes(end.join(lines) + end)
    (tmp_path / "bom.csv").write_bytes(b"\xef\xbb\xbf" + end.join(lines) + end)
    want = outcome(load_dataset, tmp_path / "plain.csv")
    assert outcome(load_dataset, tmp_path / "bom.csv") == want
    if body in ("plain", "quoted"):
        assert want[0] == ["a1", "a2"]
    else:
        assert want[0] is ValueError and want[1].startswith("row 3")
