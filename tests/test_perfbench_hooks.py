"""The benchmark's traced pass wraps package functions and methods by name
from outside the package (`perfbench/layers.py`), so deleting or renaming one
of them crashes the benchmark. Install every hook, then take them off."""

import importlib
import pathlib

import sparsepose.nn as nn
import sparsepose.pipeline as pipeline


def test_every_wrapped_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    tracer = importlib.import_module("tracer").Tracer()
    forward, conv_pairs = pipeline.staged_forward, nn.ConvPairs.__dict__["__init__"]
    try:
        layers.install(tracer)
        assert pipeline.staged_forward is not forward
        assert nn.ConvPairs.__dict__["__init__"] is not conv_pairs
    finally:
        tracer.unpatch()
    assert pipeline.staged_forward is forward
    assert nn.ConvPairs.__dict__["__init__"] is conv_pairs
