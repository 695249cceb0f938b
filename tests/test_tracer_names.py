"""The names the benchmark's tracer reads from flowtree still exist.

``perfbench/tracing.py`` wraps named methods (``TreeWindow.lca``, the
``NcPolynomial`` operations, the ``QSurd`` arithmetic) by looking them up in
the class dicts, and its Riesz hook imports ``analysis.QuadratureSpec``.  A
change that drops one of them makes every traced benchmark pass fail, so
this test installs the tracer in-process, makes one small traced
``riesz_kernel_values`` call and uninstalls it again.  It reads perfbench's
source and writes nothing there.
"""

import pathlib
import types

import numpy as np

from flowtree import analysis, trees

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing_module():
    module = types.ModuleType("tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"),
         module.__dict__)
    return module


def test_traced_riesz_call_finds_every_name_it_reads():
    pairs_of = lambda w, c: [(x, c) for x in sorted(w.vertices) if x != c][:4]
    w, m, c = trees.ball_window(2, 2)
    want = analysis.riesz_kernel_values(w, m, pairs_of(w, c))

    tracer = _tracing_module().Tracer()
    tracer.install()
    try:
        w, m, c = trees.ball_window(2, 2)
        got = analysis.riesz_kernel_values(w, m, pairs_of(w, c))
    finally:
        tracer.uninstall()

    assert all(np.array_equal(g, v) for g, v in zip(got, want))
    calls = tracer.summary()["calls"]
    assert calls["analysis.riesz_kernel_values"] == 1
    assert calls["trees.ball_window"] == 1
    assert not hasattr(analysis.riesz_kernel_values, "__wrapped__")
