"""Self-test of the benchmark at reduced size.  Run from the repository root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric it names, with its unit,
fails no call, and traces every layer its chain goes through; that a tracer
missing the by-name bindings is caught; that a corrupted output is caught
and counted while the pass goes on; and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

SMALL = {
    "banknote-n4": {"rows": 200, "epochs": 50},
    "tall-n8": {"rows": 200},
    "wide-n12": {"resolution": 5},
}

# The commands each workload's chain runs, each with a `<command>_s` metric
# that is printed though BENCHMARK.json does not list it.
CHAINS = {
    "banknote-n4": ("train", "partition", "explain", "classify"),
    "tall-n8": ("partition", "classify", "explain"),
    "wide-n12": ("explain", "shapley", "project", "hypothesis", "trend"),
}

# Layers each chain goes through.  A wrapper missing from a namespace that
# binds a function by name leaves that layer at 0 calls, its time counted
# as the caller's self time.
REACHED = {
    "banknote-n4": ("encoding", "network", "partition", "logiccode", "qldt", "cli"),
    "tall-n8": ("encoding", "network", "partition", "logiccode", "qldt", "cli"),
    "wide-n12": ("encoding", "partition", "logiccode", "qldt", "analysis", "cli"),
}


def expect(cond, message):
    if not cond:
        raise AssertionError(message)


def check_metrics_printed():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for name in SMALL:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            args = argparse.Namespace(workload=name, seed=3, seconds=0, trace=trace)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                result = run.run(args, sizes=SMALL[name])
            text = buf.getvalue()
            where = f"{name} trace={trace}"
            expect(result["failed"] == 0, f"{where}: {result['failed']} calls failed\n{text}")
            expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            got = result["metrics"]
            expect(list(got) == [m["name"] for m in listed], f"{where}: metric names {list(got)}")
            for m in listed:
                expect(got[m["name"]]["unit"] == m["unit"], f"{name}: unit of {m['name']}")
            printed = {}
            for line in text.splitlines():
                words = line.split()
                if len(words) >= 3 and not line.startswith("stamp"):
                    printed[words[0]] = words[2]
            wanted = {m["name"]: m["unit"] for m in listed}
            if trace == 0:
                wanted.update({f"{command}_s": "s" for command in CHAINS[name]})
                wanted.update({"chain_s": "s", "chain_s.tail": "s", "ref_s": "s"})
            wanted["fail_rate"] = "ratio"
            for metric, unit in wanted.items():
                expect(printed.get(metric) == unit,
                       f"{where}: {metric} not printed with unit {unit}")
            if trace == 1:
                problems = layer_problems(name, got)
                expect(not problems, f"{where}: {problems}")
            print(f"ok  {where}: {len(wanted)} metrics printed, "
                  f"0 of {result['attempted']} calls failed")


def layer_problems(name, metrics):
    """Layers the traced run missed on this workload's chain."""
    problems = [f"{layer}.calls is 0" for layer in REACHED[name]
                if metrics[f"{layer}.calls"]["value"] == 0]
    if name == "wide-n12":
        grid = SMALL[name]["resolution"] ** 2
        got = metrics["analysis.minterm_expansions"]["value"]
        if got != grid:
            problems.append(f"analysis.minterm_expansions is {got}, not {grid}")
    return problems


class ModuleOnlyTracer(run.tracing.Tracer):
    """Wraps functions only where they are defined, not where other
    modules import them by name."""

    def __init__(self, package):
        super().__init__(package)
        self._bindings = [(ns, attr, fn, wrapper) for ns, attr, fn, wrapper in self._bindings
                          if ns.__name__ == fn.__module__]


def check_partial_tracer_caught():
    complete = run.tracing.Tracer
    run.tracing.Tracer = ModuleOnlyTracer
    try:
        args = argparse.Namespace(workload="wide-n12", seed=3, seconds=0, trace=1)
        with contextlib.redirect_stdout(io.StringIO()):
            result = run.run(args, sizes=SMALL["wide-n12"])
    finally:
        run.tracing.Tracer = complete
    problems = layer_problems("wide-n12", result["metrics"])
    expect(problems, "a tracer missing the by-name bindings went unnoticed")
    print(f"ok  tracer missing the by-name bindings caught: {'; '.join(problems)}")


class CorruptingCli:
    """Runs the real cli.main, then damages one output of one command."""

    def __init__(self, cli, command, damage):
        self.cli, self.command, self.damage = cli, command, damage

    def main(self, argv):
        status = self.cli.main(argv)
        if argv[0] == self.command:
            self.damage(argv)
        return status


def flip_bit(weights_csv, row, bcl):
    """Flip one bit of a weights.csv in place."""
    with open(weights_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(f"bit_2^-{bcl}")
    rows[row][col] = str(1 - int(rows[row][col]))
    with open(weights_csv, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def swap_partition_counts(argv):
    path = Path(argv[argv.index("--out") + 1])
    lines = path.read_text().splitlines()
    cells = lines[1].split(",")
    cells[2], cells[3] = cells[3], cells[2]
    lines[1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def check_corruption_caught():
    _, cli = run.load_cli()
    damages = {
        "explain": lambda argv: flip_bit(
            Path(argv[argv.index("--out-dir") + 1]) / "weights.csv", row=5, bcl=3),
        "partition": swap_partition_counts,
    }
    for command, damage in damages.items():
        work = run.OUT / f"selftest-{command}"
        run._remove(work)
        work.mkdir(parents=True)
        try:
            workload = run.BanknoteN4(work, 3, **SMALL["banknote-n4"])
            session = run.Session(workload, CorruptingCli(cli, command, damage))
            session.run_pass()
            expect(session.failed == 1, f"damaged {command} output: {session.failed} failed calls")
            expect(session.attempted == 4, f"the pass stopped after the damaged {command}")
            expect(all(p.startswith(command) for p in session.problems),
                   f"problems {session.problems}")
            print(f"ok  damaged {command} output caught: {session.problems[0]}")
        finally:
            run._remove(work)


def check_refuses_without_program():
    bare = run.OUT / "selftest-bare"
    run._remove(bare)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    for f in Path(__file__).parent.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        argv = [sys.executable, "perfbench/run.py", "--workload", "wide-n12",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
        expect(proc.returncode != 0, "ran without the program")
        expect(not proc.stdout.strip(), f"printed a result without the program: {proc.stdout!r}")
        print(f"ok  refuses to run without the program: {proc.stderr.strip()}")
    finally:
        run._remove(bare)


if __name__ == "__main__":
    check_refuses_without_program()
    check_corruption_caught()
    check_partial_tracer_caught()
    check_metrics_printed()
    print("selftest passed")
