"""Differential corpus: a fixed list of CLI calls and, in corpus.json, the
exit status and the sha256 of the stdout, the stderr and every file of each
call.  A change that must keep the program's outputs byte for byte keeps
the manifest as it is; `tests/test_corpus.py` replays the calls and names
each one that differs.

    python3 tests/corpus.py            # replay; print the calls that differ
    python3 tests/corpus.py --update   # rewrite tests/corpus.json

Every input is generated from a seed: the synthetic banknote CSV of
conftest.py, a 3,000-row CSV of 8 uniform attributes, a 400-row CSV of 3,
seeded random models over 4, 8 and 12 attributes and one over 3 attributes
with 70 ReLU nodes, whose cell numbers pass 2^64, the reference weights,
the BAD_INPUTS files of test_cli.py, and headers whose names hold a quote,
a backslash, line ends and a comma.  Each call runs in-process through `annlogic.cli.main`, in a
directory of its own that holds only its inputs, with relative paths, at
80 columns, and with every warning an error, as under pytest.  A file the
call leaves there that is not one of its inputs, or an input whose bytes
it changed, is one of the files it writes.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "corpus.json"

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))

from annlogic import cli  # noqa: E402
from annlogic.encoding import FuzzifierSpec  # noqa: E402
from annlogic.network import save_model  # noqa: E402
from conftest import REF16_WEIGHTS, random_simple_ann, synthetic_banknote  # noqa: E402
from test_cli import BAD_INPUTS, write_input  # noqa: E402

# Header names that a csv writer must quote or that a DOT label must escape.
ODD_NAMES = (['q"t', "back\\slash", "line\r\nend", "x,y"],
             ["cr\ronly", "lf\nonly", '"', "\\"])


def _csv_text(names, rows):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(names)
    writer.writerows(rows)
    return buf.getvalue()


# The most populated cell that `partition-rows3-l70` reports: above 2^64.
CELL_L70 = "434301208780819349502"


def _model_text(n, relu, fuzzifier):
    """A random model whose seed is n, as in test_cli's EXPLAIN_SHA256."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "model.json"
        save_model(path, random_simple_ann(np.random.default_rng(n), n, relu), fuzzifier)
        return path.read_text()


def inputs():
    """Every input file of the corpus calls, by name, as text."""
    with tempfile.TemporaryDirectory() as d:
        bank = synthetic_banknote(Path(d) / "bank.csv").read_text()
        bank20 = synthetic_banknote(Path(d) / "bank20.csv", rows=20).read_text()
    X = np.loadtxt(io.StringIO(bank), delimiter=",", skiprows=1)[:, :4]
    rng = np.random.default_rng([19, 8])
    X8 = rng.uniform(-5.0, 5.0, size=(3000, 8))
    y8 = rng.integers(0, 2, size=3000)
    tall8 = _csv_text([f"x{j + 1}" for j in range(8)] + ["label"],
                      [[*map(repr, row), label] for row, label in zip(X8.tolist(), y8.tolist())])
    rng = np.random.default_rng([21, 70])
    X3 = rng.uniform(0.0, 1.0, size=(400, 3))
    y3 = rng.integers(0, 2, size=400)
    rows3 = _csv_text(["x1", "x2", "x3", "label"],
                      [[*map(repr, row), label] for row, label in zip(X3.tolist(), y3.tolist())])
    files = {
        "bank.csv": bank,
        "bank20.csv": bank20,
        "tall8.csv": tall8,
        "const.csv": "a,b,label\n0.5,1,0\n0.5,2,1\n0.5,3,1\n",
        "ref16.txt": "\n".join(map(str, REF16_WEIGHTS)),
        "zeros16.txt": "0\n" * 16,
        "m4.json": _model_text(4, 3, FuzzifierSpec(
            "minmax", (tuple(X.min(axis=0)), tuple(X.max(axis=0))))),
        "m8.json": _model_text(8, 4, FuzzifierSpec(
            "logistic", (tuple(X8.mean(axis=0)), tuple(1.0 / X8.std(axis=0))))),
        "m12.json": _model_text(12, 3, None),
        "rows3.csv": rows3,
        "m3x70.json": _model_text(3, 70, FuzzifierSpec("minmax", ((0.0,) * 3, (1.0,) * 3))),
    }
    for i, names in enumerate(ODD_NAMES):
        files[f"odd{i}.csv"] = _csv_text(names + ["label"], [[0.1, 0.2, 0.3, 0.4, 0],
                                                             [0.9, 0.8, 0.7, 0.6, 1]])
    return files


def calls(texts):
    """(name, {file name: text}, argv) of every call, in a fixed order, on the
    input texts of `inputs()`."""
    def pick(*names):
        return {name: texts[name] for name in names}

    bank, ref16, m12 = pick("bank.csv"), pick("ref16.txt"), pick("m12.json")
    m4, m8 = pick("m4.json", "bank.csv"), pick("m8.json", "tall8.csv")
    m70 = pick("m3x70.json", "rows3.csv")
    train = ["train", "--model", "model.json"]
    out = ["--out-dir", "out"]
    rows = [
        ("train-bank-minmax", bank, train + ["--data", "bank.csv", "--relu-nodes", "3",
                                             "--epochs", "2000", "--lr", "1.0"]),
        ("train-bank-logistic", bank, train + ["--data", "bank.csv", "--fuzzifier", "logistic",
                                               "--relu-nodes", "4", "--epochs", "300",
                                               "--seed", "1"]),
        ("train-tall8-minmax", pick("tall8.csv"),
         train + ["--data", "tall8.csv", "--relu-nodes", "4", "--epochs", "40", "--seed", "2"]),
        ("train-bank-diverges", bank, train + ["--data", "bank.csv", "--lr", "1e300",
                                               "--epochs", "2"]),
        ("train-constant-attribute", pick("const.csv"),
         train + ["--data", "const.csv", "--epochs", "10"]),
        ("partition-bank-n4", m4, ["partition", "--model", "m4.json", "--data", "bank.csv",
                                   "--out", "cells.csv"]),
        ("partition-tall8-n8", m8, ["partition", "--model", "m8.json", "--data", "tall8.csv",
                                    "--out", "cells.csv"]),
        ("partition-rows3-l70", m70, ["partition", "--model", "m3x70.json",
                                      "--data", "rows3.csv", "--out", "cells.csv"]),
        ("classify-bank-n4", m4, ["classify", "--model", "m4.json", "--data", "bank.csv"]),
        ("classify-tall8-n8", m8, ["classify", "--model", "m8.json", "--data", "tall8.csv"]),
    ]
    for cell in range(8):
        rows.append((f"explain-n4-cell{cell}", m4, ["explain", "--model", "m4.json", "--cell",
                                                    str(cell), "--data", "bank.csv", *out]))
    for bcl in (0, 5, 52):
        rows.append((f"explain-n4-cell5-bcl{bcl}", m4,
                     ["explain", "--model", "m4.json", "--cell", "5", "--data", "bank.csv",
                      "--bcl-max", str(bcl), *out]))
    for cell in (0, 3, 9, 15):
        rows.append((f"explain-n8-cell{cell}", m8, ["explain", "--model", "m8.json", "--cell",
                                                    str(cell), "--data", "tall8.csv", *out]))
    rows += [
        ("explain-n8-cell9-bcl52", m8, ["explain", "--model", "m8.json", "--cell", "9",
                                        "--bcl-max", "52", *out]),
        ("explain-n12-cell7-bcl3", m12, ["explain", "--model", "m12.json", "--cell", "7", *out]),
        ("explain-n12-cell7-bcl5", m12, ["explain", "--model", "m12.json", "--cell", "7",
                                         "--bcl-max", "5", *out]),
        # 53 trees of up to ~5,000 nodes: the most text that explain renders
        ("explain-n12-cell7-bcl52", m12, ["explain", "--model", "m12.json", "--cell", "7",
                                          "--bcl-max", "52", *out]),
        ("explain-n12-cell0", m12, ["explain", "--model", "m12.json", "--cell", "0", *out]),
        ("explain-l70-big-cell", m70, ["explain", "--model", "m3x70.json", "--cell", CELL_L70,
                                       "--data", "rows3.csv", *out]),
        ("explain-ref16", ref16, ["explain", "--weights-override", "ref16.txt", *out]),
        ("explain-ref16-threshold-bcl5", ref16, ["explain", "--weights-override", "ref16.txt",
                                                 "--threshold", "0.7", "--bcl-max", "5", *out]),
        ("explain-zero-weights", pick("zeros16.txt"),
         ["explain", "--weights-override", "zeros16.txt", *out]),
        ("shapley-ref16", ref16, ["shapley", "--weights-override", "ref16.txt"]),
        ("shapley-n8-cell3", m8, ["shapley", "--model", "m8.json", "--cell", "3",
                                  "--data", "tall8.csv", "--out", "shapley.csv"]),
        ("shapley-n12-cell7", m12, ["shapley", "--model", "m12.json", "--cell", "7"]),
        ("shapley-l70-big-cell", m70, ["shapley", "--model", "m3x70.json",
                                       "--cell", CELL_L70]),
        ("project-ref16", ref16, ["project", "--weights-override", "ref16.txt", "--keep", "1,2"]),
        ("project-n8-cell9", m8, ["project", "--model", "m8.json", "--cell", "9",
                                  "--data", "tall8.csv", "--keep", "x1,x3,5"]),
        ("project-n12-cell7", m12, ["project", "--model", "m12.json", "--cell", "7",
                                    "--keep", "1,2,3", "--bcl-max", "5"]),
        ("hypothesis-ref16-level0", ref16,
         ["hypothesis", "--weights-override", "ref16.txt", "--names", "v,s,c,e",
          "--hypothesis", "not v and not s and not c and not e"]),
        ("hypothesis-ref16-level2", ref16,
         ["hypothesis", "--weights-override", "ref16.txt", "--level", "2", "--bcl-max", "4",
          "--hypothesis", "a1 xor (a2 | !a3) & ~a4"]),
        ("hypothesis-two-formulas", {}, ["hypothesis", "--names", "v,s,c", "--hypothesis",
                                         "v and s or c", "--hypothesis2", "v and (s or c)"]),
        ("hypothesis-n12-cell7", m12,
         ["hypothesis", "--model", "m12.json", "--cell", "7", "--hypothesis",
          "(a1 and not a2) or (a3 xor a4) | !(a5 & a6) and ~a7 "
          "xor (a8 or a9) & (a10 or not a11) and a12"]),
        ("trend-ref16-stdout", ref16, ["trend", "--weights-override", "ref16.txt",
                                       "--vary", "1,2", "--resolution", "5"]),
        ("trend-ref16-out", ref16, ["trend", "--weights-override", "ref16.txt", "--vary", "1",
                                    "--fixed", "a2=0.3,4=0.9", "--levels", "0,2",
                                    "--resolution", "7", "--out", "trend.csv"]),
        ("trend-n12-cell7", m12, ["trend", "--model", "m12.json", "--cell", "7",
                                  "--vary", "1,2", "--out", "trend.csv"]),
    ]
    for i, names in enumerate(ODD_NAMES):
        odd = pick("ref16.txt", f"odd{i}.csv")
        data = ["--weights-override", "ref16.txt", "--data", f"odd{i}.csv"]
        rows += [
            (f"explain-odd{i}", odd, ["explain", *data, *out]),
            (f"explain-odd{i}-model", pick("m4.json", f"odd{i}.csv"),
             ["explain", "--model", "m4.json", "--cell", "5", "--data", f"odd{i}.csv", *out]),
            (f"shapley-odd{i}", odd, ["shapley", *data, "--out", "shapley.csv"]),
            (f"project-odd{i}", odd, ["project", *data, "--keep", "1,4"]),
            (f"trend-odd{i}-stdout", odd, ["trend", *data, "--vary", "4,1", "--resolution", "3"]),
            (f"trend-odd{i}-out", odd, ["trend", *data, "--vary", "2", "--resolution", "3",
                                        "--out", "trend.csv"]),
        ]
    rows += [
        ("help-no-arguments", {}, []),
        ("help", {}, ["--help"]),
        ("help-explain", {}, ["explain", "--help"]),
        ("help-trend", {}, ["trend", "--help"]),
        ("unknown-command", {}, ["explian"]),
        ("partition-missing-model", bank, ["partition", "--data", "bank.csv"]),
        # an option that only explain takes: a usage error, status 2
        ("bad-hypothesis2-with-threshold", {}, ["hypothesis", "--names", "a,b", "--hypothesis",
                                                "a", "--hypothesis2", "b", "--threshold", "7"]),
    ]
    # as test_cli.py runs them: next to ref16.txt and a 20-row banknote CSV
    for name, (files, argv) in BAD_INPUTS.items():
        rows.append((f"bad-{name}", {**ref16, "bank.csv": texts["bank20.csv"], **files}, argv))
    return rows


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def run_call(cwd, files, argv):
    """{status, stdout, stderr, files} of one call in the empty directory
    `cwd`, after writing its input `files` there."""
    written = {}
    for name, text in files.items():
        write_input(cwd / name, text)
        written[name] = (cwd / name).read_bytes()
    stdout, stderr = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(cwd)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            warnings.simplefilter("error")
            status = cli.main(list(argv))
    except SystemExit as exc:
        status = exc.code
    finally:
        os.chdir(home)
    out_files = {}
    for path in sorted(cwd.rglob("*")):
        rel = path.relative_to(cwd).as_posix()
        if path.is_file() and written.get(rel) != (data := path.read_bytes()):
            out_files[rel] = _sha(data)
    return {"status": status, "stdout": _sha(stdout.getvalue().encode()),
            "stderr": _sha(stderr.getvalue().encode()), "files": out_files}


def run(work):
    """{call name: record} of every call, each in a new directory under `work`."""
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"  # argparse wraps help at the terminal width
    try:
        records = {}
        for i, (name, files, argv) in enumerate(calls(inputs())):
            cwd = Path(work) / str(i)
            cwd.mkdir()
            records[name] = run_call(cwd, files, argv)
        return records
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def differences(got, want):
    """One line per call whose record differs, naming the parts that do."""
    lines = []
    for name in sorted(got.keys() | want.keys()):
        a, b = got.get(name), want.get(name)
        if a == b:
            continue
        if a is None or b is None:
            lines.append(f"{name}: {'not in the manifest' if b is None else 'not run'}")
            continue
        parts = [k for k in ("status", "stdout", "stderr") if a[k] != b[k]]
        parts += [f"file {f}" for f in sorted(a["files"].keys() | b["files"].keys())
                  if a["files"].get(f) != b["files"].get(f)]
        lines.append(f"{name}: {', '.join(parts)}")
    return lines


def main(argv):
    with tempfile.TemporaryDirectory(prefix="annlogic-corpus-") as d:
        got = run(d)
    if argv == ["--update"]:
        MANIFEST.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        print(f"wrote {len(got)} calls to {MANIFEST}")
        return 0
    if argv:
        print(__doc__)
        return 2
    lines = differences(got, json.loads(MANIFEST.read_text()))
    print("\n".join(lines) or f"all {len(got)} calls match the manifest")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
