"""The benchmark's tracer patches names that still exist.

``perfbench/workloads.py`` wraps library functions by name when a run is
traced (``--trace 1``).  A renamed or deleted function would only show
there; this test patches and restores every hook on each tier-1 run.
"""

import importlib
from pathlib import Path

import numpy as np

from qgka import adversary, protocol, qka

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_churn_hooks_exist_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracing").Tracer()

    def hooked():
        channel = adversary.AdversarialChannel
        return protocol.run_session, qka.decoy_measure, channel.transmit

    originals = hooked()
    try:
        workloads._trace_churn(tracer)
        assert hooked()[0] is not originals[0]
    finally:
        tracer.restore()
    assert hooked() == originals


def test_trace_detect_hook_exists_and_restores(monkeypatch):
    # the patch a traced detect run makes (perfbench/workloads.py:run_detect)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracing").Tracer()
    original = adversary.detection_experiment
    try:
        tracer.patch(adversary, "detection_experiment", "adversary.detect")
        strategy = adversary.EveStrategy("intercept_resend")
        adversary.detection_experiment(strategy, 2, 3, np.random.default_rng(0))
        assert tracer.calls["adversary.detect"] == 1
    finally:
        tracer.restore()
    assert adversary.detection_experiment is original
