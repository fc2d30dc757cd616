"""annlogic benchmark: seeded CLI workloads run in-process through
`annlogic.cli.main(argv)`, as one closed-loop client (each call starts
when the previous one has returned), with every output checked.

Run from the repository root:

    python3 perfbench/run.py --workload tall-n8 --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced
and traced passes, and prints the per-layer metrics.  The gated timings
are normalized by a fixed reference kernel timed next to the program's
work (see reference.py), so a shared machine's changing speed cancels out
of them.  The last line of
standard output is one JSON object; the lines before it give every metric
with its unit, the stamp of the code and machine, and any failed check.
Inputs, outputs and traces go to perfbench/out/.
"""

from __future__ import annotations

import os

# Pinned before numpy loads; fresh subprocesses inherit them.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import tracing  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 15
TAIL_BEYOND = 10
REF_REPEATS = 3  # reference kernels timed between calls; their median is used
# A fresh interpreter times its own import of annlogic.cli, then the
# reference kernel.
SETUP_CHILD = ("import time; t0 = time.perf_counter(); import annlogic.cli; "
               "t1 = time.perf_counter(); import reference; print(t1 - t0, reference.median(7))")


# ------------------------------------------------------------- workloads


@dataclass
class Step:
    name: str  # the command; its metric is f"{name}_s"
    argv: Callable[[], list]
    outputs: tuple  # paths the call writes: removed before it, sized after it
    check: Callable[[str, str], list]  # (stdout, stderr) -> problems


class RowsWorkload:
    """Partition, classify and explain-with-data over a CSV and a model."""

    bcl_max = 3

    def __init__(self, work: Path):
        self.data_csv = work / "data.csv"
        self.model_json = work / "model.json"
        self.partition_csv = work / "partition.csv"
        self.explain_dir = work / "explain"
        self.model = None  # reference reading of the current model file
        self.cell = None  # most populated cell under the current model

    def load_reference(self):
        self.model = checks.Model(self.model_json)
        self.cell = checks.most_populated_cell(self.model, self.data)

    def cell_rows(self):
        if self.model is None:
            return 0
        p, _ = self.model.cells(self.data.minterms(self.model))
        return int(np.count_nonzero(p == self.cell))

    def partition_step(self):
        return Step(
            "partition",
            lambda: ["partition", "--model", str(self.model_json), "--data", str(self.data_csv),
                     "--out", str(self.partition_csv)],
            (self.partition_csv,),
            lambda out, err: self._with_model(
                checks.check_partition, self.partition_csv, self.model, self.data),
        )

    def classify_step(self):
        return Step(
            "classify",
            lambda: ["classify", "--model", str(self.model_json), "--data", str(self.data_csv)],
            (),
            lambda out, err: self._with_model(checks.check_classify, out, self.model, self.data),
        )

    def explain_step(self):
        return Step(
            "explain",
            lambda: ["explain", "--model", str(self.model_json), "--cell", str(self.cell),
                     "--data", str(self.data_csv), "--bcl-max", str(self.bcl_max),
                     "--out-dir", str(self.explain_dir)],
            (self.explain_dir,),
            self._check_explain,
        )

    def _with_model(self, check, *args):
        return ["no reference model"] if self.model is None else check(*args)

    def _check_explain(self, out, err):
        if self.model is None:
            return ["no reference model"]
        w = self.model.cell_weights(self.cell)
        s, s_threshold = checks.scale(w, self.model.threshold)
        bits, _ = checks.quantize(s, self.bcl_max)
        accuracy = checks.level_accuracies(self.model, self.data, s_threshold, bits)
        return checks.check_explain(self.explain_dir, out, w, self.model.threshold,
                                    self.data.names, self.bcl_max, accuracy)


class BanknoteN4(RowsWorkload):
    """The paper's case: the synthetic banknote CSV from tests/conftest.py,
    trained in every pass, then partition -> explain -> classify."""

    name = "banknote-n4"
    relu = 3

    def __init__(self, work, seed, rows=1220, epochs=2000):
        super().__init__(work)
        self.epochs = epochs
        spec = importlib.util.spec_from_file_location(
            "_annlogic_conftest", ROOT / "tests" / "conftest.py")
        conftest = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(conftest)
        conftest.synthetic_banknote(self.data_csv, rows=rows, seed=seed)
        self.data = checks.Data(self.data_csv)

    def steps(self):
        train = Step(
            "train",
            lambda: ["train", "--data", str(self.data_csv), "--model", str(self.model_json),
                     "--relu-nodes", str(self.relu), "--epochs", str(self.epochs), "--lr", "1.0"],
            (self.model_json,),
            self._check_train,
        )
        return [train, self.partition_step(), self.explain_step(), self.classify_step()]

    def _check_train(self, out, err):
        problems = checks.check_train(self.model_json, self.data, self.relu, out)
        try:
            self.load_reference()
        except (OSError, ValueError, KeyError) as exc:
            self.model = self.cell = None
            problems.append(f"train: model file unreadable ({exc})")
        return problems


class TallN8(RowsWorkload):
    """The read path with N >> 2^n: a fixed random model over 8 attributes."""

    name = "tall-n8"
    relu = 4

    def __init__(self, work, seed, rows=3000):
        super().__init__(work)
        n = 8
        rng = np.random.default_rng([seed, n])
        X = rng.uniform(-5.0, 5.0, size=(rows, n))
        y = rng.integers(0, 2, size=rows)
        with open(self.data_csv, "w") as fh:
            fh.write(",".join([f"x{j + 1}" for j in range(n)] + ["label"]) + "\n")
            for r, label in zip(X, y):
                fh.write(",".join([repr(float(v)) for v in r] + [str(int(label))]) + "\n")
        self.data = checks.Data(self.data_csv)
        write_model(self.model_json, rng, n, self.relu, self.data.X)
        self.load_reference()

    def steps(self):
        return [self.partition_step(), self.classify_step(), self.explain_step()]


class WideN12:
    """All the work on (2,)^12 tensors of one cell; no rows at all."""

    name = "wide-n12"
    n, relu, cell, bcl_max, keep, vary = 12, 3, 7, 3, (0, 1, 2), (0, 1)
    # Uses and, or, xor, not and the aliases &, |, !, ~.  By the grammar
    # (or and xor bind alike, left to right, below and; not binds tightest)
    # it reads ((T1 | T2) | T3) ^ T4, as `truth` spells out with numpy.
    FORMULA = ("(a1 and not a2) or (a3 xor a4) | !(a5 & a6) and ~a7 "
               "xor (a8 or a9) & (a10 or not a11) and a12")

    @staticmethod
    def truth(K):
        a = [None] + [K[:, j].astype(bool) for j in range(K.shape[1])]
        t1 = a[1] & ~a[2]
        t2 = a[3] ^ a[4]
        t3 = ~(a[5] & a[6]) & ~a[7]
        t4 = (a[8] | a[9]) & (a[10] | ~a[11]) & a[12]
        return ((t1 | t2) | t3) ^ t4

    def __init__(self, work, seed, resolution=21):
        self.resolution = resolution
        self.seed = seed
        self.model_json = work / "model.json"
        self.explain_dir = work / "explain"
        self.shapley_csv = work / "shapley.csv"
        self.trend_csv = work / "trend.csv"
        rng = np.random.default_rng([seed, self.n])
        write_model(self.model_json, rng, self.n, self.relu, None)
        model = checks.Model(self.model_json)
        self.weights = model.cell_weights(self.cell)
        self.threshold = model.threshold
        self.names = [f"a{j + 1}" for j in range(self.n)]
        self.hypothesis = self.truth(checks.index_bits(self.n))

    def cell_rows(self):
        return 0

    def steps(self):
        m, c = str(self.model_json), str(self.cell)
        keep = ",".join(str(j + 1) for j in self.keep)
        vary = ",".join(str(j + 1) for j in self.vary)
        w, thr, names, b = self.weights, self.threshold, self.names, self.bcl_max
        rng = np.random.default_rng([self.seed, self.n, 1])
        return [
            Step("explain", lambda: ["explain", "--model", m, "--cell", c, "--bcl-max", str(b),
                                     "--out-dir", str(self.explain_dir)],
                 (self.explain_dir,),
                 lambda out, err: checks.check_explain(self.explain_dir, out, w, thr, names, b)),
            Step("shapley", lambda: ["shapley", "--model", m, "--cell", c,
                                     "--out", str(self.shapley_csv)],
                 (self.shapley_csv,),
                 lambda out, err: checks.check_shapley(self.shapley_csv, w, names)),
            Step("project", lambda: ["project", "--model", m, "--cell", c, "--keep", keep],
                 (),
                 lambda out, err: checks.check_project(out, w, thr, names, self.keep, b)),
            Step("hypothesis", lambda: ["hypothesis", "--model", m, "--cell", c, "--level", "0",
                                        "--hypothesis", self.FORMULA],
                 (),
                 lambda out, err: checks.check_hypothesis(out, w, thr, 0, b, self.hypothesis)),
            Step("trend", lambda: ["trend", "--model", m, "--cell", c, "--vary", vary,
                                   "--resolution", str(self.resolution),
                                   "--out", str(self.trend_csv)],
                 (self.trend_csv,),
                 lambda out, err: checks.check_trend(self.trend_csv, w, thr, names,
                                                     list(self.vary), self.resolution, b, rng)),
        ]


WORKLOADS = {w.name: w for w in (BanknoteN4, TallN8, WideN12)}


def write_model(path, rng, n, relu, X):
    """A bias-free model with normal weights, in the program's JSON format,
    with a min-max fuzzifier fitted on X when there are rows."""
    pre = rng.normal(size=(relu, 2**n))
    post = rng.normal(size=(1, relu))
    doc = {
        "input_size": 2**n, "relu_count": relu,
        "pre_layers": [pre.tolist()], "post_layers": [post.tolist()],
        "threshold": float(rng.normal()),
        "fuzzifier": None if X is None else
        {"kind": "minmax", "lo": X.min(axis=0).tolist(), "hi": X.max(axis=0).tolist()},
    }
    Path(path).write_text(json.dumps(doc))


# --------------------------------------------------------------- session


def _remove(path):
    path = Path(path)
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def _size(path):
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size if path.exists() else 0


def invoke(cli, argv):
    """(exit status, stdout, stderr) of one cli.main call; a raised
    exception becomes a non-zero status, so the run goes on."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(argv)
    except SystemExit as exc:
        status = exc.code
    except Exception as exc:
        status = f"{type(exc).__name__}: {exc}"
    return status, out.getvalue(), err.getvalue()


class Session:
    """One workload's chain, run pass after pass against one cli module."""

    def __init__(self, workload, cli):
        self.workload = workload
        self.steps = workload.steps()
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.argvs = []  # argv of every call in the last pass

    def run_pass(self):
        """{command: seconds} plus 'chain', 'norm' (the chain with each call
        normalized by the reference kernel timed just before and just after
        it), 'refs' and 'bytes' for one pass."""
        gc.collect()
        times = {}
        written = 0
        refs = [reference.median(REF_REPEATS)]
        self.argvs = []
        for step in self.steps:
            argv = [str(a) for a in step.argv()]
            self.argvs.append(argv)
            for p in step.outputs:
                _remove(p)
            t0 = time.perf_counter()
            status, out, err = invoke(self.cli, argv)
            times[step.name] = time.perf_counter() - t0
            refs.append(reference.median(REF_REPEATS))
            self.attempted += 1
            if status == 0:
                problems = step.check(out, err)
            else:
                last = (err.strip().splitlines() or [""])[-1]
                problems = [f"{step.name}: exit status {status!r} {last}"]
            if problems:
                self.failed += 1
                self.problems.extend(problems)
            written += sum(_size(p) for p in step.outputs)
        times["chain"] = sum(times[s.name] for s in self.steps)
        times["bytes"] = written
        times["norm"] = sum(reference.normalize(times[step.name], (refs[i] + refs[i + 1]) / 2)
                            for i, step in enumerate(self.steps))
        times["refs"] = refs
        return times

    def run_for(self, seconds):
        """Passes until `seconds` have elapsed (at least one)."""
        passes = []
        deadline = time.perf_counter() + seconds
        while True:
            passes.append(self.run_pass())
            if time.perf_counter() >= deadline:
                return passes


def traced_and_untraced(session, tracer, seconds):
    """Alternate untraced and traced passes for `seconds`, so that a drift
    in machine speed falls on both sides of the tracing overhead."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        untraced.append(session.run_pass())
        tracer.install()
        try:
            traced.append(session.run_pass())
        finally:
            tracer.uninstall()
        if time.perf_counter() >= deadline:
            return untraced, traced


# ----------------------------------------------------------- environment


def load_cli():
    sys.path.insert(0, str(SRC))
    import annlogic
    import annlogic.cli

    if Path(annlogic.__file__).resolve().parent != (SRC / "annlogic").resolve():
        raise SystemExit(f"error: imported annlogic from {annlogic.__file__}, not {SRC}")
    return annlogic, annlogic.cli


def child_env():
    env = dict(os.environ, **BLAS_ENV)
    paths = [str(SRC), str(Path(__file__).resolve().parent)]
    paths += [env["PYTHONPATH"]] if env.get("PYTHONPATH") else []
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def measure_setup():
    """[(wall, import, reference) seconds] of fresh interpreters that each
    import annlogic.cli, time the reference kernel and exit."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=child_env(), cwd=ROOT,
                              check=True, capture_output=True, text=True)
        wall = time.perf_counter() - t0
        samples.append((wall, *map(float, proc.stdout.split())))
    return samples


def measure_peak_rss(argvs, work):
    """ru_maxrss of a fresh process that runs one pass of these calls."""
    plan = work / "rss_pass.json"
    plan.write_text(json.dumps(argvs))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--rss-child", str(plan)],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"peak-RSS pass failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def rss_child(plan):
    _, cli = load_cli()
    statuses = [invoke(cli, argv)[0] for argv in json.loads(Path(plan).read_text())]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    print(json.dumps({"peak_rss_mb": peak, "statuses": statuses}))
    return 0


def blas_threads():
    """Threads OpenBLAS reports, read from numpy's bundled library."""
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(handle, sym):
                return int(getattr(handle, sym)())
    return None


def stamp(args):
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    sha = None
    if shutil.which("git"):
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        out = top.stdout.split()
        if top.returncode == 0 and len(out) == 2 and Path(out[0]).resolve() == ROOT.resolve():
            sha = out[1]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": digest.hexdigest()[:16], "src_lines": lines,
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(), "blas_env": BLAS_ENV,
        "client": "closed loop, 1 client, in-process cli.main",
    }


# --------------------------------------------------------------- metrics


def tail(values):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, or None when there are too few samples."""
    xs = sorted(values)
    rank = len(xs) - TAIL_BEYOND
    return (xs[rank - 1], 100.0 * rank / len(xs)) if rank >= 1 else None


def end_to_end(session, passes, setup, rss):
    m = {}
    chain = [p["chain"] for p in passes]
    m["chain_s"] = (statistics.median(chain), "s", f"wall, median of {len(chain)} passes")
    m["chain_norm_s"] = (
        statistics.median(p["norm"] for p in passes), "s",
        f"each call normalized by the reference kernel timed around it, median of "
        f"{len(chain)} passes")
    m["ref_s"] = (statistics.median(r for p in passes for r in p["refs"]), "s",
                  f"reference kernel, {reference.NOMINAL_S} s when normalized")
    if tail(chain) is None:
        m["chain_s.tail"] = (
            None, "s", f"n/a: needs {TAIL_BEYOND + 1} passes, the run made {len(chain)}")
    else:
        value, pct = tail(chain)
        m["chain_s.tail"] = (
            value, "s", f"p{pct:.0f} of {len(chain)} passes, {TAIL_BEYOND} beyond it")
    for step in session.steps:
        m[f"{step.name}_s"] = (statistics.median(p[step.name] for p in passes), "s", "median")
    wall = statistics.median(w for w, _, _ in setup)
    m["setup_s"] = (
        statistics.median(reference.normalize(t, r) for _, t, r in setup), "s",
        f"import of annlogic.cli in a fresh interpreter, normalized, median of {len(setup)}; "
        f"whole interpreter {wall:.4f} s wall")
    m["peak_rss_mb"] = (rss["peak_rss_mb"], "MB", "ru_maxrss of a fresh process running one pass")
    return m


def per_layer(tracer, traced, untraced, cell_rows):
    """Per-pass layer metrics from the traced passes."""
    k = len(traced)
    m = {}
    for layer, (self_s, calls) in tracer.layer_totals().items():
        m[f"{layer}.self_s"] = (self_s / k, "s", "span time minus child spans, per pass")
        m[f"{layer}.calls"] = (calls / k, "count", "calls into public functions, per pass")

    def rate(counter):
        value, seconds = tracer.counter(counter)
        return value / seconds if seconds > 0 else 0.0

    def seconds(qualified):
        return tracer.seconds_in(qualified) / k, "s", f"in {qualified}, per pass"

    vectors, _ = tracer.counter("encoding.vectors")
    values, _ = tracer.counter("encoding.values")
    acc_rows, _ = tracer.counter("logiccode.accuracy_rows")
    acc_calls = tracer.calls_of("logiccode.level_accuracy")
    nodes, _ = tracer.counter("qldt.nodes")
    expansions = tracer.calls_with_parent_layer("encoding", "analysis")
    m["encoding.vectors_per_s"] = (
        rate("encoding.vectors"), "1/s", f"{vectors / k:.0f} minterm vectors per pass")
    m["encoding.values_out"] = (
        values / k, "count", "minterm values produced per pass; x8 bytes computed")
    m["network.train_epochs_per_s"] = (rate("network.epochs"), "1/s", "epochs over train time")
    m["network.rows_per_s"] = (
        rate("network.rows"), "1/s", "rows through forward, classify, relu_status")
    m["partition.rows_per_s"] = (
        rate("partition.rows"), "1/s", "rows through partition_dataset")
    m["partition.shapley_s"] = seconds("partition.shapley")
    m["logiccode.level_evals"] = (
        tracer.calls_of("logiccode.eval_expression") / k, "count", "eval_expression calls per pass")
    m["logiccode.accuracy_s"] = seconds("logiccode.level_accuracy")
    m["logiccode.cell_row_share"] = (
        cell_rows * acc_calls / acc_rows if acc_rows else 0.0, "ratio",
        f"rows of the explained cell ({cell_rows}) over rows level_accuracy evaluates per call")
    m["qldt.nodes"] = (nodes / k, "count", "tree nodes built per pass")
    m["qldt.build_s"] = seconds("qldt.build_qldt")
    m["analysis.grid_points_per_s"] = (
        rate("analysis.grid_points"), "1/s", "trend grid points over trend_grid time")
    m["analysis.minterm_expansions"] = (
        expansions / k, "count", "encoding calls made by analysis, per pass")
    m["analysis.truth_table_s"] = seconds("analysis.ast_to_minterms")
    m["cli.bytes_written"] = (
        statistics.median(p["bytes"] for p in traced), "B",
        "bytes of files the calls wrote, per pass")
    traced_s = statistics.median(p["norm"] for p in traced)
    untraced_s = statistics.median(p["norm"] for p in untraced)
    m["trace_overhead_s"] = (traced_s - untraced_s, "s",
                             f"traced chain_norm_s {traced_s:.4f} minus untraced "
                             f"{untraced_s:.4f}; machine noise can make it negative")
    totals = tracer.layer_totals()
    traced_total = sum(p["chain"] for p in traced)
    covered = sum(self_s for self_s, _ in totals.values())
    return m, (covered / traced_total, totals["cli"][0] / traced_total)


# ------------------------------------------------------------------ main


def report(metrics, names, session, extra):
    for name, (value, unit, note) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"{name:28s} {shown:>14s} {unit:6s} {note}")
    rate = session.failed / session.attempted
    print(f"{'fail_rate':28s} {rate:14.6f} {'ratio':6s} "
          f"{session.failed} of {session.attempted} calls failed")
    for line in extra:
        print(line)
    for problem in session.problems[:20]:
        print(f"FAILED CHECK: {problem}")
    return {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }


def benchmark_names():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]]


def layer_run(session, annlogic, workload, args):
    """Warm-up, then alternating untraced and traced passes."""
    session.run_pass()  # warm-up, untimed
    tracer = tracing.Tracer(annlogic)
    untraced, traced = traced_and_untraced(session, tracer, args.seconds)
    metrics, coverage = per_layer(tracer, traced, untraced, workload.cell_rows())
    spans = OUT / "results" / f"{args.workload}-seed{args.seed}-spans.npz"
    spans.parent.mkdir(parents=True, exist_ok=True)
    tracer.save(spans)
    extra = [f"layer self times cover {coverage[0]:.4f} of the traced pass time, "
             f"cli's own self time {coverage[1]:.4f} of it "
             f"({len(traced)} traced, {len(untraced)} untraced passes; "
             f"{len(tracer.start)} spans in {spans.relative_to(ROOT)})"]
    return metrics, extra, {"untraced": untraced, "traced": traced}


def end_to_end_run(session, work, args):
    """Set-up probes, warm-up, the peak-RSS pass, then timed passes."""
    setup = measure_setup()
    session.run_pass()  # warm-up, untimed
    rss = measure_peak_rss(session.argvs, work)
    session.attempted += len(rss["statuses"])
    bad = [s for s in rss["statuses"] if s != 0]
    session.failed += len(bad)
    session.problems += [f"peak-RSS pass: exit status {s!r}" for s in bad]
    passes = session.run_for(args.seconds)
    return end_to_end(session, passes, setup, rss), [], {"passes": passes, "setup": setup}


def run(args, sizes=None):
    """Run one workload; returns the result object printed last."""
    annlogic, cli = load_cli()
    e2e_names, layer_names = benchmark_names()
    work = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    _remove(work)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[args.workload](work, args.seed, **(sizes or {}))
        session = Session(workload, cli)
        info = stamp(args)
        print(f"annlogic benchmark: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace}")
        print("stamp " + json.dumps(info))
        if args.trace:
            metrics, extra, info["samples"] = layer_run(session, annlogic, workload, args)
        else:
            metrics, extra, info["samples"] = end_to_end_run(session, work, args)
        result = report(metrics, layer_names if args.trace else e2e_names, session, extra)
        saved = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        saved.parent.mkdir(parents=True, exist_ok=True)
        saved.write_text(json.dumps({
            "stamp": info, "result": result, "problems": session.problems,
            "all_metrics": {n: {"value": v, "unit": u, "note": note}
                            for n, (v, u, note) in metrics.items()},
        }, indent=1))
        return result
    finally:
        _remove(work)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-child", metavar="PLAN", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    needed = (SRC / "annlogic" / "cli.py", ROOT / "tests" / "conftest.py", ROOT / "BENCHMARK.json")
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from the repository root; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    if args.rss_child:
        return rss_child(args.rss_child)
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
