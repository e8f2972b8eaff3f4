"""The functions the benchmark's tracer wraps exist under the names it uses.

bench/run.py --trace 1 wraps each layer's public functions by owner and
attribute name (install_patches), so renaming one of them breaks the traced
run with an AttributeError, and nothing else would notice.
"""

import importlib
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_trace_patches_install_and_come_off(monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    run, spans = importlib.import_module("run"), importlib.import_module("spans")
    mods = run.Modules()
    job, parse_doc = mods.translate.translate_query_job, mods.th0.parse_doc
    with spans.Tracer().patched(run.install_patches(mods)):
        assert mods.translate.translate_query_job is not job
        assert mods.th0.parse_doc is not parse_doc
    assert mods.translate.translate_query_job is job
    assert mods.th0.parse_doc is parse_doc
