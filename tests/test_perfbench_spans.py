"""The names the benchmark's span tracer wraps, resolved as it resolves them.

``perfbench/spans.py`` patches pcac functions at the names their callers
look up.  A rename or an inlined layer leaves a span row empty or stops the
tracer at install, so every target must still resolve to a function that
the owner holds itself (``Patches.replace`` reads ``vars(owner)``).
"""
import importlib.util
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = load_spans()


@pytest.mark.parametrize(
    "module, attr",
    [(module, attr) for module, attr, _ in spans.SPANS] + [("pcac.rls", "compute_beta")],
    ids=[name for _, _, name in spans.SPANS] + ["rls.forgetting_steps"])
def test_target_resolves_to_a_function_its_owner_holds(module, attr):
    owner, name = spans.resolve(module, attr)
    assert callable(vars(owner)[name])


def test_controller_layers_are_traced_under_their_span_names():
    traced = {attr: name for module, attr, name in spans.SPANS
              if module == "pcac.controller"}
    assert traced["riccati_backward"] == "riccati.sweep"
    assert traced["control_gain"] == "riccati.gain"
