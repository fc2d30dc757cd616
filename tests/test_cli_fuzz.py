"""Fuzz every subcommand's options: whatever the values, the CLI exits
with status 0 or 2 and never lets an exception or a traceback out.

Inputs stay at n <= 4 attributes.  Epochs, ReLU nodes and grid
resolution are bounded by the CLI (`MAX_EPOCHS`, `MAX_RELU_NODES`,
`MAX_RESOLUTION`), but even those bounds allow long runs, so they are
drawn from small ranges and no example starts a large allocation or a long
run.  Output paths are drawn from a fixed set inside a temporary
directory."""

import contextlib
import io
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from annlogic.cli import main
from annlogic.encoding import fit_fuzzifier
from annlogic.network import save_model
from conftest import REF16_WEIGHTS, random_simple_ann, synthetic_banknote

MAX_EXAMPLES = 25


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    synthetic_banknote(d / "bank.csv", rows=20)
    X = np.loadtxt(d / "bank.csv", delimiter=",", skiprows=1)[:, :4]
    rng = np.random.default_rng(0)
    save_model(d / "model.json", random_simple_ann(rng, 4, 3), fit_fuzzifier(X))
    save_model(d / "deep.json",
               random_simple_ann(rng, 4, 2, extra_pre=True, extra_post=True),
               fit_fuzzifier(X))
    save_model(d / "bare.json", random_simple_ann(rng, 2, 2))
    (d / "ref16.txt").write_text("\n".join(map(str, REF16_WEIGHTS)))
    (d / "w2.txt").write_text("0.9,0.4,0.7,0.8")
    (d / "w1.txt").write_text("0.5")
    (d / "junk.txt").write_text("not, a, number\n")
    (d / "junk.json").write_text('{"input_size": 4')
    (d / "junk.csv").write_text('v,s,label\n0.1,"x",0\n0.2\n')
    (d / "outdir").mkdir()
    return d


junk = st.text(max_size=10)


def mostly(good, bad=junk):
    """`good` seven times in eight, else `bad`."""
    return st.integers(0, 7).flatmap(lambda i: bad if i == 0 else good)


def joined(items, max_size=4):
    return st.lists(items, max_size=max_size).map(",".join)


def ints(lo, hi):
    return mostly(st.integers(lo, hi).map(str))


floats = mostly(st.floats(-3, 3).map(repr), st.floats().map(repr) | junk)
models = mostly(st.sampled_from(["model.json", "deep.json", "bare.json"]),
                st.sampled_from(["junk.json", "missing.json", "outdir"]) | junk)
weights = mostly(st.sampled_from(["ref16.txt", "w2.txt", "w1.txt"]),
                 st.sampled_from(["junk.txt", "missing.txt"]) | junk)
datasets = mostly(st.just("bank.csv"),
                  st.sampled_from(["junk.csv", "missing.csv", "outdir"]) | junk)
labels = mostly(st.just("label"), st.just("v") | junk)
out_files = st.sampled_from(["out.csv", "out.csv", "outdir", "nodir/out.csv"])
out_dirs = st.sampled_from(["ex", "ex", "bank.csv"])
names = mostly(st.sampled_from(["1", "2", "3", "4", "1", "2", "v", "s", "c", "e", "a1", "a2"]),
               st.sampled_from(["0", "5", "-1", "17"]) | junk)
name_lists = mostly(st.lists(names, min_size=1, max_size=3, unique=True).map(",".join))
formulas = mostly(
    st.recursive(
        names,
        lambda sub: sub.map("not {}".format) | st.tuples(
            sub, st.sampled_from(["and", "or", "xor", "&", "|", "!"]), sub
        ).map("({0[0]} {0[1]} {0[2]})".format),
        max_leaves=6),
    st.lists(names | st.sampled_from(["and", "or", "not", "(", ")", "~"]), max_size=8)
    .map(" ".join) | junk)
level_sets = mostly(joined(ints(-1, 5)))
fixed = mostly(joined(st.tuples(names, floats | st.floats(0, 1).map(repr)).map("=".join)))



@st.composite
def cell_sources(draw):
    """A model and a cell, a weights file, both or neither, then maybe a
    dataset and a label column."""
    kind = draw(st.sampled_from(["model", "model", "weights", "weights", "both", "none"]))
    argv = []
    if kind in ("model", "both"):
        argv += ["--model=" + draw(models), "--cell=" + draw(ints(-1, 8))]
    if kind in ("weights", "both"):
        argv += ["--weights-override=" + draw(weights)]
    for option, values in {"--data": datasets, "--label": labels}.items():
        if draw(st.booleans()):
            argv.append(f"{option}={draw(values)}")
    return argv


# Per subcommand: options it always gets, options it gets half of the
# time, and whether it reads a cell.
OPTIONS = {
    "train": ({"--data": datasets, "--model": out_files},
              {"--label": labels, "--relu-nodes": ints(-1, 5), "--epochs": ints(-1, 30),
               "--lr": floats, "--seed": ints(-2, 2**40),
               "--fuzzifier": mostly(st.sampled_from(["minmax", "logistic"]))}, False),
    "partition": ({"--model": models, "--data": datasets},
                  {"--label": labels, "--out": out_files}, False),
    "explain": ({}, {"--threshold": floats, "--bcl-max": ints(-1, 60),
                     "--out-dir": out_dirs}, True),
    "shapley": ({}, {"--out": out_files}, True),
    "project": ({"--keep": name_lists}, {"--bcl-max": ints(-1, 60)}, True),
    "hypothesis": ({"--hypothesis": formulas},
                   {"--bcl-max": ints(-1, 60), "--level": ints(-1, 5),
                    "--hypothesis2": formulas, "--names": name_lists}, True),
    "trend": ({"--vary": name_lists},
              {"--bcl-max": ints(-1, 8), "--fixed": fixed,
               "--levels": level_sets, "--resolution": ints(-1, 12), "--out": out_files},
              True),
    "classify": ({"--model": models, "--data": datasets}, {"--label": labels}, False),
}


@st.composite
def argvs(draw, command):
    required, optional, reads_cell = OPTIONS[command]
    argv = [command] + (draw(cell_sources()) if reads_cell else [])
    for option, values in required.items():
        argv.append(f"{option}={draw(values)}")
    for option, values in optional.items():
        if draw(st.booleans()):
            argv.append(f"{option}={draw(values)}")
    return argv


@pytest.mark.parametrize("command", OPTIONS)
def test_exit_status_is_0_or_2(workdir, command):
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    @given(argvs(command))
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the option syntax
                rc = exc.code
        assert rc in (0, 2), (argv, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue()

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        run()
    finally:
        os.chdir(cwd)
