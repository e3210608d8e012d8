"""Edge values of every numeric config key: each bound of its range, 0 and a
huge value (1e300, or 10**300 for an integer key). `dump-config` only
validates, so it takes every key; the commands that do work take the keys
they read, on a two-object bundle. Every run ends in exit code 0, 2, 3 or 4
with at most one line on stderr, and no exception or numpy warning escapes.
"""

import warnings

import pytest

from conftest import small_scene_spec
from sparsepose.cli import main
from sparsepose.config import _RANGES, _SECTIONS, PipelineConfig
from sparsepose.synthetic import export_scene_bundle

_DEFAULT = PipelineConfig()
_SECTION_OF = {key: section for section, keys in _SECTIONS.items() for key in keys}
_NUMERIC = list(_RANGES)

# The commands take the keys they read. topk_max, which has no finite upper
# bound, and tsdf_voxels_per_side stay at their defaults, so no run allocates
# arrays of a bound's size; the network widths and the chamfer size
# train_chamfer_points, bounded at 256, run in train-toy at every edge value.
# train-toy's --steps and --theta-mm override steps and theta.
_ORACLE_KEYS = ["theta", "near", "far", "dbscan_eps_mult", "dbscan_min_pts", "vote_top_fraction",
                "icp_iters", "icp_corr_mult", "icp_tol", "seed"]
_COMMAND_KEYS = {
    "estimate-cloud": _ORACLE_KEYS,
    "estimate-tsdf": _ORACLE_KEYS + ["tsdf_truncation_mult"],
    "targets": ["theta", "near", "far", "coarse_factor", "sigma_c", "sigma_b", "suppress_beta",
                "suppress_epsilon", "suppress_kappa", "seed"],
    "train-toy": ["near", "far", "coarse_factor", "sigma_c", "sigma_b", "suppress_beta",
                  "suppress_epsilon", "suppress_kappa", "width", "roi_width", "heads", "window_small",
                  "window_medium", "seed", "warmup_fraction", "lr", "momentum", "train_chamfer_points"],
}
_COMMAND_CASES = [(command, key) for command, keys in _COMMAND_KEYS.items() for key in keys]


def edge_values(key):
    """The finite bounds of the key's range, 0 and a huge value, in the key's type."""
    kind = type(getattr(_DEFAULT, key))
    bounds = [float(b) for b in _RANGES[key][1:-1].split(",") if float(b) != float("inf")]
    return [kind(v) for v in dict.fromkeys(bounds + [0.0])] + [10**300 if kind is int else 1e300]


def write_config(path, values):
    sections = {}
    for key, value in values.items():
        sections.setdefault(_SECTION_OF[key], []).append(f"{key} = {value!r}")
    path.write_text("".join(f"[{s}]\n" + "\n".join(lines) + "\n" for s, lines in sections.items()))
    return path


def run_fails_closed(args, capsys):
    """Run one command with numpy warnings raised as errors; return its exit
    code and stderr after checking both."""
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in args])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4), (args, code, err)
    assert len(err.strip().splitlines()) <= 1, (args, err)
    return code, err


@pytest.fixture(scope="module")
def two_object_bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("edge_scene") / "scene"
    spec, lib = small_scene_spec(seed=7, n_objects=2, width=80, height=60, focal=76.0)
    export_scene_bundle(spec, lib, out)
    return out


@pytest.mark.parametrize("key", _NUMERIC)
def test_dump_config_validates_edge_values(key, tmp_path, capsys):
    for value in edge_values(key):
        cfg = write_config(tmp_path / "edge.cfg", {key: value})
        run_fails_closed(["dump-config", "--config", cfg, "--out", tmp_path / "dump.cfg"], capsys)


@pytest.mark.parametrize("command, key", _COMMAND_CASES, ids=[f"{c}-{k}" for c, k in _COMMAND_CASES])
def test_command_fails_closed_on_edge_values(command, key, two_object_bundle_dir, tmp_path, capsys):
    out = tmp_path / "out"
    args = {
        "estimate-cloud": ["estimate", two_object_bundle_dir, "--oracle", "--out", out],
        "estimate-tsdf": ["estimate", two_object_bundle_dir, "--oracle", "--repr", "tsdf", "--out", out],
        "targets": ["targets", two_object_bundle_dir, "--out", out],
        "train-toy": ["train-toy", two_object_bundle_dir, "--steps", 2, "--theta-mm", 4,
                      "--out", tmp_path / "toy.ckpt"],
    }[command]
    for value in edge_values(key):
        # 4 mm voxels keep each run cheap unless theta is the key under test
        cfg = write_config(tmp_path / "edge.cfg", {"theta": 0.004, key: value})
        run_fails_closed(args + ["--config", cfg], capsys)


# Values a probe once saw end in a traceback or print a numpy warning.
_REGRESSIONS = [
    # "array is too big" in the TSDF allocation
    ("tsdf_voxels_per_side", 10000000, "fuse", 2),
    ("tsdf_voxels_per_side", 10000000, "estimate-tsdf", 2),
    # OverflowError squaring the spread
    ("sigma_b", 1e300, "targets", 2),
    ("sigma_b", 1e300, "train-toy", 2),
    ("sigma_c", 1e300, "targets", 2),
    ("sigma_c", 1e300, "train-toy", 2),
    # divide-by-zero warning from the squared spread
    ("sigma_c", 1e-300, "targets", 2),
    # invalid-cast warning quantizing the points, then a data error
    ("theta", 1e-300, "estimate-cloud", 3),
    ("theta", 1e-300, "estimate-tsdf", 3),
    # overflow warning in the voxel centers, then exit 0
    ("theta", 1e300, "estimate-cloud", 2),
    # 10**300 once made train-toy's (V, n, n) chamfer array exhaust memory;
    # both edges must exit before any work
    ("train_chamfer_points", 0, "train-toy", 2),
    ("train_chamfer_points", 10**300, "train-toy", 2),
    # "Maximum allowed dimension exceeded" drawing the initial weights
    ("width", 10**300, "train-toy", 2),
    ("roi_width", 10**300, "train-toy", 2),
]


@pytest.mark.parametrize("key, value, command, code", _REGRESSIONS,
                         ids=[f"{c}-{k}={'10**300' if v == 10**300 else v}" for k, v, c, _ in _REGRESSIONS])
def test_edge_value_ends_in_one_line(key, value, command, code, two_object_bundle_dir, tmp_path, capsys):
    out = tmp_path / "out"
    args = {
        "fuse": ["fuse", two_object_bundle_dir, "--repr", "tsdf", "--out", out],
        "estimate-cloud": ["estimate", two_object_bundle_dir, "--oracle", "--out", out],
        "estimate-tsdf": ["estimate", two_object_bundle_dir, "--oracle", "--repr", "tsdf", "--out", out],
        "targets": ["targets", two_object_bundle_dir, "--out", out],
        "train-toy": ["train-toy", two_object_bundle_dir, "--steps", 2, "--theta-mm", 4, "--out", out],
    }[command]
    cfg = write_config(tmp_path / "edge.cfg", {key: value})
    got, err = run_fails_closed(args + ["--config", cfg], capsys)
    assert got == code, err
    prefix = {2: f"config error: {key} must lie in ", 3: "data error:"}[code]
    assert err.startswith(prefix), err
    assert not any(tmp_path.glob("out*"))
