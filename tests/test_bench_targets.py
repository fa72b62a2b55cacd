"""The benchmark tracer's wrap list names only attributes that exist.

``perfbench/spans.py`` swaps each ``(module, attr)`` in ``TARGETS`` for a
timing wrapper, so renaming or deleting one of those library names breaks
``perfbench/run.py --trace 1``; this test makes it break the suite too.
"""

import importlib.util
import os

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "perfbench", "spans.py")


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", load_targets(), ids=lambda t: f"{t[0].__name__}.{t[1]}")
def test_target_resolves(target):
    module, attr = target[:2]
    assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} is gone"
