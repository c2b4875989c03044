"""The names the benchmark's tracer binds in tglink still exist where it looks.

`perfbench/tracing.py` patches tglink functions and methods by module and
attribute path, and reads two arguments by position to label its spans. A
refactor that moves one of them breaks `perfbench/run.py --trace 1`; these
checks catch it here.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from tglink import transfer

TRACING_PY = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves(tracing):
    for module_name, path, _, _ in tracing.SPECS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            assert attr in vars(getattr(module, cls_name)), f"{module_name}.{path}"
        else:
            assert callable(getattr(module, path, None)), f"{module_name}.{path}"
    with tracing.Tracer():
        pass
    tracing.assert_clean()


def test_span_labels_read_the_right_positions():
    # `_label` reads evaluate_stream's record at index 6 and run_transfer's scenario at index 2.
    assert list(inspect.signature(transfer.evaluate_stream).parameters)[6] == "record"
    assert list(inspect.signature(transfer.run_transfer).parameters)[2] == "scenario"
