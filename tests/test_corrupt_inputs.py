"""Fail-closed reading: a missing, truncated or corrupted input file either
loads or ends the command with exit code 2, 3 or 4 and one line on stderr,
never with a traceback."""

import json
import shutil
import struct
import warnings
import zlib

import numpy as np
import pytest

from sparsepose.cli import main


def run(args):
    return main([str(a) for a in args])


def copy_bundle(src, tmp_path):
    bundle = tmp_path / "bundle"
    shutil.copytree(src, bundle)
    return bundle


def ply_layout(blob):
    """(offset of the first face record, vertex count) of a mesh PLY."""
    end = blob.index(b"end_header\n") + len(b"end_header\n")
    header = blob[:end].decode("ascii")
    n_vert = int(header.split("element vertex ")[1].split()[0])
    return end + 12 * n_vert, n_vert


def png_chunk(tag, payload):
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", zlib.crc32(tag + payload))


def flip_idat_bit(path):
    blob = bytearray(path.read_bytes())
    start = blob.index(b"IDAT") + 4
    length = struct.unpack(">I", blob[start - 8 : start - 4])[0]
    blob[start + length // 2] ^= 0x10
    path.write_bytes(bytes(blob))


def shorten_ihdr(path):
    blob = path.read_bytes()
    ihdr = blob[16:29]
    path.write_bytes(blob[:8] + png_chunk(b"IHDR", ihdr[:12]) + blob[33:])


def cut_ply_in_faces(path):
    blob = path.read_bytes()
    faces, _ = ply_layout(blob)
    path.write_bytes(blob[: faces + 13 * 5 + 6])


def set_face_index(value):
    def corrupt(path):
        blob = bytearray(path.read_bytes())
        faces, n_vert = ply_layout(blob)
        blob[faces + 1 : faces + 5] = struct.pack("<i", n_vert if value == "n_vert" else value)
        path.write_bytes(bytes(blob))
    return corrupt


def non_utf8(path):
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] = 0xFF
    path.write_bytes(bytes(blob))


def first_model(bundle):
    return sorted((bundle / "models").iterdir())[0]


BUNDLE_CASES = {
    "idat_bit_flip": (lambda b: b / "depth_01.png", flip_idat_bit),
    "short_ihdr": (lambda b: b / "depth_00.png", shorten_ihdr),
    "missing_depth": (lambda b: b / "depth_02.png", lambda p: p.unlink()),
    "missing_model": (first_model, lambda p: p.unlink()),
    "ply_cut_in_faces": (first_model, cut_ply_in_faces),
    "ply_face_index_at_vertex_count": (first_model, set_face_index("n_vert")),
    "ply_face_index_negative": (first_model, set_face_index(-1)),
    "scene_json_not_utf8": (lambda b: b / "scene.json", non_utf8),
}


@pytest.mark.parametrize("case", list(BUNDLE_CASES))
def test_corrupt_bundle_file_exits_3(tiny_bundle_dir, tmp_path, capsys, case):
    target, corrupt = BUNDLE_CASES[case]
    bundle = copy_bundle(tiny_bundle_dir, tmp_path)
    corrupt(target(bundle))
    capsys.readouterr()
    out = tmp_path / "poses"
    assert run(["estimate", bundle, "--oracle", "--out", out, "--theta-mm", 4.0]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and len(err.strip().splitlines()) == 1
    assert not out.with_suffix(".json").exists()


def test_pose_json_not_utf8_exits_3(tiny_bundle_dir, tmp_path, capsys):
    poses = tmp_path / "poses"
    assert run(["estimate", tiny_bundle_dir, "--oracle", "--out", poses, "--theta-mm", 4.0]) == 0
    non_utf8(poses.with_suffix(".json"))
    capsys.readouterr()
    metrics = tmp_path / "metrics"
    assert run(["eval", tiny_bundle_dir, poses.with_suffix(".json"), "--out", metrics]) == 3
    err = capsys.readouterr().err
    assert err.startswith("data error:") and len(err.strip().splitlines()) == 1
    assert not metrics.with_suffix(".json").exists()


def test_config_not_utf8_exits_2(tiny_bundle_dir, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"[grid]\ntheta = 0.004\n# \xff\n")
    capsys.readouterr()
    out = tmp_path / "poses"
    assert run(["estimate", tiny_bundle_dir, "--oracle", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and len(err.strip().splitlines()) == 1
    assert not out.with_suffix(".json").exists()


@pytest.mark.parametrize("theta", ["-4", "0", "nan"])
def test_stats_rejects_bad_theta(tiny_bundle_dir, tmp_path, capsys, theta):
    out = tmp_path / "occupancy.csv"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the check
        assert run(["stats", tiny_bundle_dir, "--thetas", 4.0, theta, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --thetas") and len(err.strip().splitlines()) == 1
    assert not out.exists()


# gt.json rotations that are not rotations, as flat row-major lists
BAD_GT_ROTATIONS = {
    "skewed": lambda r: [r[0] + 0.5] + r[1:],
    "reflected": lambda r: [-x for x in r],
    "nan": lambda r: [float("nan")] * 9,
}


@pytest.mark.parametrize("command", ["estimate --oracle", "eval"])
@pytest.mark.parametrize("case", list(BAD_GT_ROTATIONS))
def test_gt_rotation_not_a_rotation_exits_3(tiny_bundle_dir, tmp_path, capsys, case, command):
    poses = tmp_path / "poses"
    assert run(["estimate", tiny_bundle_dir, "--oracle", "--out", poses]) == 0
    bundle = copy_bundle(tiny_bundle_dir, tmp_path)
    doc = json.loads((bundle / "gt.json").read_text())
    doc["objects"][0]["rotation"] = BAD_GT_ROTATIONS[case](doc["objects"][0]["rotation"])
    (bundle / "gt.json").write_text(json.dumps(doc))
    out = tmp_path / "out"
    args = {"estimate --oracle": ["estimate", bundle, "--oracle", "--out", out],
            "eval": ["eval", bundle, poses.with_suffix(".json"), "--out", out]}[command]
    capsys.readouterr()
    assert run(args) == 3
    err = capsys.readouterr().err
    assert "gt.json: object 0 rotation is not a rotation" in err and len(err.strip().splitlines()) == 1
    assert not out.with_suffix(".json").exists()


# ---------------------------------------------------------------------------
# Seeded corruption sweep: every file one estimate or eval run reads, each
# truncated, bit-flipped or deleted, through every command that reads it
# ---------------------------------------------------------------------------

MUTATIONS = ("half", "ten_bytes", "empty", "flip_middle", "flip_at_40", "delete")
BUNDLE_FILES = ("scene.json", "gt.json", "cam_00.json", "cam_01.json", "cam_02.json",
                "depth_00.png", "depth_01.png", "depth_02.png", "model.ply")


def mutate(path, mutation, rng):
    """Apply one mutation; a flipped byte is XORed with a seeded nonzero mask."""
    if mutation == "delete":
        path.unlink()
        return
    blob = bytearray(path.read_bytes())
    if mutation == "half":
        blob = blob[: len(blob) // 2]
    elif mutation == "ten_bytes":
        blob = blob[:10]
    elif mutation == "empty":
        blob = bytearray()
    else:
        offset = len(blob) // 2 if mutation == "flip_middle" else 40
        blob[offset] ^= int(rng.integers(1, 256))
    path.write_bytes(bytes(blob))


@pytest.fixture(scope="module")
def sweep_inputs(tiny_bundle_dir, tmp_path_factory):
    """The bundle, an initialization checkpoint with its sidecar and the
    oracle pose JSON, all written by the CLI."""
    root = tmp_path_factory.mktemp("sweep")
    bundle = copy_bundle(tiny_bundle_dir, root)
    assert run(["train-toy", bundle, "--steps", 0, "--out", root / "toy.ckpt", "--theta-mm", 4.0]) == 0
    assert run(["estimate", bundle, "--oracle", "--out", root / "poses", "--theta-mm", 4.0]) == 0
    return root


def commands(root, out):
    bundle = root / "bundle"
    return {
        "fuse": ["fuse", bundle, "--out", out / "fused.ply"],
        "estimate --oracle": ["estimate", bundle, "--oracle", "--out", out / "oracle", "--theta-mm", 4.0],
        "estimate --checkpoint": ["estimate", bundle, "--checkpoint", root / "toy.ckpt",
                                  "--out", out / "net", "--theta-mm", 4.0],
        "eval": ["eval", bundle, root / "poses.json", "--out", out / "metrics"],
    }


# file -> the commands that read it
SWEEP = {**{f: ("fuse", "estimate --oracle", "estimate --checkpoint", "eval") for f in BUNDLE_FILES},
         "toy.ckpt": ("estimate --checkpoint",), "toy.ckpt.json": ("estimate --checkpoint",),
         "poses.json": ("eval",)}


@pytest.mark.parametrize("name", list(SWEEP))
def test_corruption_sweep(sweep_inputs, tmp_path, capsys, name):
    rng = np.random.default_rng(sum(name.encode()))
    for mutation in MUTATIONS:
        root = tmp_path / mutation
        shutil.copytree(sweep_inputs, root)
        if name == "model.ply":
            path = first_model(root / "bundle")
        elif name in BUNDLE_FILES:
            path = root / "bundle" / name
        else:
            path = root / name
        mutate(path, mutation, rng)
        out = root / "out"
        out.mkdir()
        for command in SWEEP[name]:
            capsys.readouterr()
            code = run(commands(root, out)[command])
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (mutation, command, code)
            if code:
                assert len(err.strip().splitlines()) == 1, (mutation, command, err)
