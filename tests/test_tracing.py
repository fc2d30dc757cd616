"""The benchmark tracer in perfbench/tracing.py reads some arguments of the
package's functions by name (`mt`, `cfg`, `samples`).  Building it checks
those names; nothing is installed or timed here."""

import importlib.util
from pathlib import Path

import annlogic


def load_tracing():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_counted_function_and_parameter():
    tracing = load_tracing()
    tracer = tracing.Tracer(annlogic)  # raises if a counted parameter is renamed
    assert set(tracing.COUNTERS) <= set(tracer.names)
