"""Every name the benchmark's span recorder wraps still exists in klproj.

``perfbench/spans.py`` calls ``getattr`` on each name when a traced run
starts, so a refactor that drops one would crash ``--trace 1``; this test
fails first.  It reads ``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_defined():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    layer = lambda name: importlib.import_module(f"klproj.{name}")
    missing = [f"{home}.{name}" for home, names in spans.TRACED.items() for name in names
               if not callable(getattr(layer(home), name, None))]
    # install() patches the class's own attribute, so it must be defined there
    missing += [f"{home}.{cls}.{method}" for home, cls, method, _ in spans.TRACED_METHODS
                if method not in vars(getattr(layer(home), cls, object))]
    assert missing == []
