"""scipy's spatial and sparse packages load on first use, never at package
import, so the commands that never cluster, refine or score start without
them; concurrent.futures, too, loads only when a TSDF view is integrated.
Each check runs in a fresh interpreter: in this process the test modules
have long since imported scipy themselves."""

import os
import pathlib
import subprocess
import sys

import pytest

import sparsepose

SRC = pathlib.Path(sparsepose.__file__).resolve().parents[1]

# prints the scipy.spatial / scipy.sparse modules loaded so far
_LOADED = ("print(sorted(m for m in sys.modules "
           "if m.split('.')[:2] in (['scipy', 'spatial'], ['scipy', 'sparse'])))")


def run_fresh(code, tmp_path):
    """Run `code` in a new interpreter on the package; its stdout lines."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_light_commands_never_load_scipy_spatial_or_sparse(tiny_bundle_dir, tmp_path):
    code = "\n".join([
        "import sys",
        "import sparsepose, sparsepose.cli, sparsepose.pipeline, sparsepose.synthetic, sparsepose.metrics",
        _LOADED,
        "print('concurrent.futures' in sys.modules)",
        "from sparsepose.cli import main",
        f"scene = {str(tiny_bundle_dir)!r}",
        "assert main(['fuse', scene, '--repr', 'tsdf', '--out', 'fused.tsdf', '--theta-mm', '4']) == 0",
        "assert main(['fuse', scene, '--repr', 'cloud', '--out', 'fused.ply', '--theta-mm', '4']) == 0",
        "assert main(['stats', scene, '--thetas', '8', '4', '--out', 'occupancy.csv']) == 0",
        "assert main(['dump-config', '--out', 'default.cfg']) == 0",
        _LOADED,
    ])
    lines = run_fresh(code, tmp_path)
    assert lines[0] == "[]", "a module top imports scipy.spatial or scipy.sparse"
    assert lines[1] == "False", "a module top imports concurrent.futures"
    assert lines[-1] == "[]", "fuse, stats or dump-config loaded scipy.spatial or scipy.sparse"
    assert (tmp_path / "fused.tsdf").exists() and (tmp_path / "fused.ply").exists()


# each site's code and the start of the line it prints
_COLD_CALLS = {
    "dbscan": ("""
from sparsepose.voting import dbscan
pts = np.concatenate([np.zeros((5, 3)), np.full((5, 3), 1.0), [[5.0, 5.0, 5.0]]])
print(dbscan(pts, 0.1, 3).tolist())
""", "[0, 0, 0, 0, 0, 1, 1, 1, 1, 1, -1]"),
    "icp_refine": ("""
from sparsepose.voting import Pose, icp_refine
cloud = np.random.default_rng(0).uniform(-0.02, 0.02, (300, 3))
pose = Pose(np.eye(3), np.array([0.001, 0.0, 0.0]), 1)
from scipy.spatial import cKDTree
out, trace = icp_refine(pose, cKDTree(cloud), cKDTree(cloud), corr_dist=0.01)
print(out.refined, len(trace) > 0)
""", "True True"),
    "roi_target": ("""
from sparsepose.grid import voxelize
from sparsepose.heatmap import SceneGroundTruth, roi_target
pts = np.random.default_rng(0).uniform(0.0, 0.05, (200, 3))
grid = voxelize(pts, 0.01, np.zeros(3))
gt = SceneGroundTruth(np.array([[0.025, 0.025, 0.025]]), [pts], [1], np.eye(3)[None], np.zeros((1, 3)))
print(roi_target(grid, gt, 6.0, 4.0).shape == (len(grid),))
""", "True"),
    "add_s": ("""
from sparsepose.metrics import add_s
pts = np.random.default_rng(0).normal(size=(50, 3))
print(add_s(np.eye(3), np.zeros(3), np.eye(3), np.zeros(3), pts))
""", "0.0"),
    "estimate_oracle": ("""
from sparsepose.cli import main
assert main(['estimate', SCENE, '--oracle', '--out', 'poses']) == 0
""", "1 poses from "),
}


@pytest.mark.parametrize("site", sorted(_COLD_CALLS))
def test_deferred_site_runs_from_cold_start(site, tiny_bundle_dir, tmp_path):
    call, printed = _COLD_CALLS[site]
    code = "\n".join(["import sys", "import numpy as np", "import sparsepose.cli",
                      f"SCENE = {str(tiny_bundle_dir)!r}", _LOADED, call, _LOADED])
    lines = run_fresh(code, tmp_path)
    assert lines[0] == "[]"
    assert lines[1].startswith(printed)
    assert "'scipy.spatial'" in lines[-1]
