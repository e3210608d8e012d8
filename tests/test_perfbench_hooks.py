"""The benchmark calls the package from outside it: its workloads call the
pipeline (`perfbench/workloads.py`) and its traced pass wraps package
functions and methods by name (`perfbench/layers.py`). Deleting or renaming
one of them, or changing a signature they call, crashes the benchmark."""

import importlib
import pathlib

import numpy as np
import pytest

import sparsepose.nn as nn
import sparsepose.pipeline as pipeline

_PERFBENCH = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")


def test_every_wrapped_name_exists(monkeypatch):
    # install every hook, then take them off
    monkeypatch.syspath_prepend(_PERFBENCH)
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


_WORKLOADS = ["train_toy", "oracle_estimate", "fuse_tsdf"]


@pytest.mark.parametrize("name", _WORKLOADS)
def test_workload_entry_points_run(monkeypatch, small_bundle_dir, tmp_path, name):
    # set-up and warm-up of every workload, on one small bundle
    monkeypatch.syspath_prepend(_PERFBENCH)
    workloads = importlib.import_module("workloads")
    assert sorted(workloads.WORKLOADS) == sorted(_WORKLOADS)
    work = workloads.WORKLOADS[name]([str(small_bundle_dir)], str(tmp_path))
    work.setup()
    work.warmup()
    assert work.failed == 0, work.failures


def _traced_oracle_warmup(monkeypatch, bundle_dir, work_dir):
    """The oracle workload's warm-up estimate under every hook: (tracer, work)."""
    monkeypatch.syspath_prepend(_PERFBENCH)
    layers = importlib.import_module("layers")
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracer").Tracer()
    work = workloads.WORKLOADS["oracle_estimate"]([str(bundle_dir)], str(work_dir))
    work.setup()
    layers.install(tracer)
    try:
        work.warmup()
    finally:
        tracer.unpatch()
    return tracer, work


def test_traced_oracle_estimate_probes_icp(monkeypatch, small_bundle_dir, tmp_path):
    # the ICP probe reads the call's positional arguments: a signature it
    # cannot read fails here rather than in the traced benchmark run
    tracer, _ = _traced_oracle_warmup(monkeypatch, small_bundle_dir, tmp_path)
    spans = tracer.by_name().get("voting.icp_refine", [])
    assert spans
    for span in spans:
        assert {"iters", "refined", "full_cloud"} <= set(span.info)


def test_traced_dbscan_counts_every_vote(monkeypatch, small_bundle_dir, tmp_path):
    # dbscan clusters the distinct vote positions internally; its probe
    # still reads the vote count from the call's first argument
    tracer, work = _traced_oracle_warmup(monkeypatch, small_bundle_dir, tmp_path)
    fine, _, _ = pipeline.build_input_grid(work.bundles[0], work.cfg, "cloud")
    votes = pipeline.oracle_votes(fine, work.bundles[0].gt)
    distinct = len(np.unique(votes.predicted_centers(), axis=0))
    spans = tracer.by_name().get("voting.dbscan", [])
    assert [span.info["points"] for span in spans] == [len(votes)]
    assert distinct < len(votes)
