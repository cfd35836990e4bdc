"""The benchmark tracer patches ``nfg`` by name; every name it lists must
resolve, so renaming or deleting a traced function fails here, in seconds,
instead of in a benchmark run."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_binding_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    for mod_name, attr, _, _ in tracing.TRACED:
        owner = importlib.import_module(f"nfg.{mod_name}")
        for part in attr.split("."):
            owner = getattr(owner, part)
        assert callable(owner), f"nfg.{mod_name}.{attr}"
    assert importlib.import_module("nfg.suites").SUITES
