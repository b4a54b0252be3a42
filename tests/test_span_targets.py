"""The benchmark's span targets resolve on the package.

``perfbench/spans.py`` wraps each ``(module, function)`` of its ``TARGETS``
wherever a ``repolens`` module holds that function by name. A target the
package no longer has would stop every traced run at install time, and a
whole-file parse called through a name the spans do not wrap would go
uncounted in ``syntax.parse.calls`` and ``*.parses``.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from repolens import projdeps, retrieval, syntax

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets(monkeypatch) -> list[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return [(module_name, function) for module_name, function, *_ in module.TARGETS]


def test_every_span_target_resolves_on_the_package(monkeypatch):
    targets = _targets(monkeypatch)
    assert ("syntax", "parse") in targets
    missing = [
        (module_name, function)
        for module_name, function in targets
        if not callable(getattr(importlib.import_module(f"repolens.{module_name}"), function, None))
    ]
    assert missing == []
    # the modules that parse whole files call ``parse`` by the name the spans wrap
    assert retrieval.parse is syntax.parse and projdeps.parse is syntax.parse
