"""Degenerate but finite checkpoints: each network's parameters scaled by a
huge factor, and each head's bias pushed far out. `estimate` must drop the
votes such a model spoils, not fail the scene: every run ends in exit 0, or
in exit 3 with one line on stderr, and no numpy warning escapes.
"""

import warnings

import pytest

from sparsepose.cli import main
from sparsepose.config import PipelineConfig
from sparsepose.pipeline import load_model, save_model
from sparsepose.voting import read_pose_json

_NETWORKS = ["roi", "obj", "pose"]
_HEAD_BIASES = ["roi.head.bias", "obj.obj_head.bias", "obj.cls_out.bias", "pose.t_head.bias",
                "pose.r_head.bias"]
_CASES = ([(f"{net}.*", f"x1e{k}") for net in _NETWORKS for k in (2, 10, 100, 300)]
          + [(bias, value) for bias in _HEAD_BIASES for value in ("800", "-800", "1e200")])


def run(args):
    return main([str(a) for a in args])


@pytest.fixture(scope="module")
def trained_checkpoint(tiny_bundle_dir, tmp_path_factory):
    ckpt = tmp_path_factory.mktemp("degenerate") / "toy.ckpt"
    assert run(["train-toy", tiny_bundle_dir, "--steps", 6, "--theta-mm", 4, "--seed", 0, "--out", ckpt]) == 0
    return ckpt


@pytest.mark.parametrize("target, edit", _CASES, ids=[f"{t}-{e}" for t, e in _CASES])
def test_degenerate_checkpoint_costs_votes(target, edit, trained_checkpoint, tiny_bundle_dir, tmp_path,
                                           capsys):
    model = load_model(trained_checkpoint, PipelineConfig())
    for name, param in model.parameters().items():
        if edit.startswith("x") and name.startswith(target[:-1]):
            param.data = param.data * float(edit[1:])
        elif name == target:
            param.data[...] = float(edit)
    ckpt = tmp_path / "edited.ckpt"
    save_model(ckpt, model)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["estimate", tiny_bundle_dir, "--checkpoint", ckpt, "--theta-mm", 4,
                    "--out", tmp_path / "poses"])
    err = capsys.readouterr().err
    assert code == 0 or (code == 3 and len(err.strip().splitlines()) == 1), (code, err)
    if code == 0:
        assert err == ""


@pytest.mark.parametrize("offset", [800.0, 1e30])
def test_far_vote_offsets_cost_every_vote(offset, trained_checkpoint, tiny_bundle_dir, tmp_path, capsys):
    # every predicted center lands far outside the bundle's workspace (1e30 m
    # is finite in float32 too): every vote is dropped, the scene is not
    model = load_model(trained_checkpoint, PipelineConfig())
    model.pose.t_head.bias.data[...] = offset
    ckpt = tmp_path / "edited.ckpt"
    save_model(ckpt, model)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(["estimate", tiny_bundle_dir, "--checkpoint", ckpt, "--theta-mm", 4,
                    "--out", tmp_path / "poses"])
    assert (code, capsys.readouterr().err) == (0, "")
    assert read_pose_json(tmp_path / "poses.json") == []
