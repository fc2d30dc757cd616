"""Mutation check: every mutant below breaks one rule the package states,
and the test files named with it must fail on it.

    python3 tests/mutants.py [NAME ...]

The script copies src/, tests/ and pyproject.toml to a temporary
directory (a copy of src/ alone would not do: the ini's `pythonpath` puts
the checkout's own src/ first).  It first runs the named test files on
the unchanged copy, which must pass.  Then it applies each mutant in turn,
runs its test files with `-x -q -p no:cacheprovider --hypothesis-seed=0`
and restores the file.  It prints one line per mutant, then the mutants
that survived, and exits 1 if any survived or an old text was not found
exactly once.  With NAMEs it runs only those mutants.  Pytest does not
collect this file, and tier-1 does not run it.  No test file here needs
perfbench/, so test_tracing.py is named for no mutant.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

# (name, file under src/annlogic/, exact old text, new text, test files that must kill it)
MUTANTS = [
    ("bitcode-ties-to-even", "logiccode.py",
     "np.floor(sw.weights * 2**bcl_max + 0.5)", "np.round(sw.weights * 2**bcl_max)",
     ["test_logiccode.py"]),
    ("relu-status-zero-inactive", "network.py",
     "(_pre_activations(ann, mt) >= 0.0)", "(_pre_activations(ann, mt) > 0.0)",
     ["test_network.py", "test_partition.py"]),
    ("qldt-tie-to-last-axis", "qldt.py",
     "upd = gain[:, a] > best + 1e-12", "upd = gain[:, a] >= best - 1e-12",
     ["test_qldt.py"]),
    ("qldt-no-collapse", "qldt.py",
     "level[i] = low if low is high else Split(a, low, high)",
     "level[i] = Split(a, low, high)",
     ["test_qldt.py"]),
    ("minterm-drops-partial-last-block", "encoding.py",
     "for start in range(0, len(rows), step):",
     "for start in range(0, len(rows) - len(rows) % step, step):",
     ["test_encoding.py"]),
    ("partition-key-first-8-bits", "partition.py",
     "key = np.packbits(status, axis=1)", "key = np.packbits(status[:, :8], axis=1)",
     ["test_partition.py"]),
    ("threshold-last-maximum", "network.py",
     "i = splits[np.argmax(correct[splits])]",
     "i = splits[len(splits) - 1 - np.argmax(correct[splits][::-1])]",
     ["test_network.py"]),
    ("shapley-no-division-by-size", "partition.py",
     "share = np.divide(m, size, out=np.zeros_like(m), where=size > 0)",
     "share = m",
     ["test_partition.py"]),
    ("project-sums-kept-axes", "logiccode.py",
     "dropped = tuple(j for j in range(n) if j not in keep)",
     "dropped = tuple(j for j in range(n) if j in keep)",
     ["test_logiccode.py"]),
    ("trend-fixed-index-n-allowed", "analysis.py",
     "if any(not 0 <= j < n for j in fixed):", "if any(not 0 <= j <= n for j in fixed):",
     ["test_analysis.py", "test_cli.py"]),
    ("compare-v10-v01-swapped", "analysis.py",
     "(ea & ha, ea & ~ha, ~ea & ha, ~(ea | ha))", "(ea & ha, ~ea & ha, ea & ~ha, ~(ea | ha))",
     ["test_analysis.py"]),
    ("energy-over-bitcode-sum", "logiccode.py",
     "absolute / weight_sum * 100.0", "absolute / float(bt.reconstruction().sum()) * 100.0",
     ["test_logiccode.py", "test_acceptance.py"]),
    ("cell-status-bits-reversed", "partition.py",
     "np.asarray(cell.bits, dtype=float)", "np.asarray(cell.bits[::-1], dtype=float)",
     ["test_partition.py"]),
    ("train-no-loss-check-after-last-update", "network.py",
     "for epoch in range(cfg.epochs + 1):", "for epoch in range(cfg.epochs):",
     ["test_network.py"]),
    # the shared shape rule of the minterm value types, one clause at a time
    ("shape-rule-any-ndim", "partition.py",
     "if a.ndim != ndim or 0 in a.shape or", "if 0 in a.shape or",
     ["test_logiccode.py"]),
    ("shape-rule-empty-axis", "partition.py",
     "if a.ndim != ndim or 0 in a.shape or", "if a.ndim != ndim or",
     ["test_logiccode.py"]),
    ("shape-rule-any-length", "partition.py",
     "or 0 in a.shape or a.shape[-1] & (a.shape[-1] - 1):", "or 0 in a.shape:",
     ["test_logiccode.py"]),
    ("arity-off-by-one", "partition.py",
     "return a.shape[-1].bit_length() - 1", "return a.shape[-1].bit_length()",
     ["test_logiccode.py", "test_partition.py"]),
    ("render-edge-styles-swapped", "qldt.py",
     '[style=dashed];")\n            lines.append(f"  n{nid} -> n{high_id} [style=solid];")',
     '[style=solid];")\n            lines.append(f"  n{nid} -> n{high_id} [style=dashed];")',
     ["test_qldt.py", "test_cli.py"]),
    # overflow checks on finite weights
    ("scale-no-span-check", "logiccode.py",
     "if not np.isfinite(hi - lo):", "if False:",
     ["test_cli.py"]),
    ("shapley-warns-on-overflow", "partition.py",
     'with np.errstate(over="ignore", invalid="ignore"):', "if True:",
     ["test_cli.py"]),
    ("shapley-no-finite-check", "partition.py",
     "if not np.isfinite(values).all():", "if False:",
     ["test_cli.py"]),
    ("project-warns-on-overflow", "logiccode.py",
     'with np.errstate(over="ignore"):', "if True:",
     ["test_cli.py"]),
    ("train-warning-not-recorded", "cli.py",
     'warnings.simplefilter("always", UserWarning)', "pass",
     ["test_cli.py"]),
]


def _pytest(tmp: Path, files) -> tuple[bool, str]:
    """Run the test files in the copy; (passed, last output line)."""
    shutil.rmtree(tmp / ".hypothesis", ignore_errors=True)  # no replay across mutants
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--hypothesis-seed=0", *(f"tests/{f}" for f in files)]
    # no bytecode: a mutant and its restored file may share size and mtime
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run(cmd, cwd=tmp, env=env, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return False, f"timed out after {TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines() or ["(no output)"]
    return proc.returncode == 0, lines[-1]


def main(argv) -> int:
    chosen = [m for m in MUTANTS if not argv or m[0] in argv]
    if argv and len(chosen) != len(set(argv)):
        known = {m[0] for m in MUTANTS}
        print(f"unknown mutants: {', '.join(sorted(set(argv) - known))}")
        return 2
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="annlogic-mutants-") as d:
        tmp = Path(d)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        shutil.copytree(ROOT / "src", tmp / "src", ignore=ignore)
        shutil.copytree(ROOT / "tests", tmp / "tests", ignore=ignore)
        shutil.copy(ROOT / "pyproject.toml", tmp)
        files = sorted({f for m in chosen for f in m[4]})
        passed, last = _pytest(tmp, files)
        if not passed:
            print(f"the unchanged copy fails its tests: {last}")
            return 2
        survivors = []
        for name, source, old, new, tests in chosen:
            path = tmp / "src" / "annlogic" / source
            text = path.read_text()
            if text.count(old) != 1:
                print(f"{name}: old text found {text.count(old)} times in {source}")
                survivors.append(name)
                continue
            path.write_text(text.replace(old, new))
            try:
                passed, last = _pytest(tmp, tests)
            finally:
                path.write_text(text)
            print(f"{name}: {'SURVIVED' if passed else 'killed'} ({last})")
            if passed:
                survivors.append(name)
    elapsed = time.perf_counter() - start
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed in {elapsed:.0f} s")
    if survivors:
        print("survivors: " + ", ".join(survivors))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
