import numpy as np
import pytest

from sparsepose.grid import STENCIL
from sparsepose.heatmap import SceneGroundTruth
from sparsepose.synthetic import default_camera_ring, default_intrinsics, export_scene_bundle, load_scene_bundle, make_primitives, sample_scene


def small_scene_spec(seed=21, n_objects=3, bin_half=0.07, bin_height=0.05,
                     width=200, height=150, focal=190.0, noise_sigma=0.0, dropout=0.0):
    """A compact 3-view scene that keeps test runtimes low."""
    lib = make_primitives()
    intr = default_intrinsics(width=width, height=height, focal=focal)
    cams = default_camera_ring((-bin_half, -bin_half, 0.0), (bin_half, bin_half, bin_height),
                               n_views=3, distance=0.38, intr=intr)
    spec = sample_scene(lib, (-bin_half, -bin_half, 0.0), (bin_half, bin_half, bin_height),
                        n_objects=n_objects, seed=seed, cameras=cams,
                        noise_sigma=noise_sigma, dropout=dropout)
    return spec, lib


def scene_gt(centroids, clouds, class_ids, rotations=None):
    """Ground truth whose objects are translated to their centroids, with
    identity rotations unless `rotations` is given."""
    c = np.asarray(centroids, dtype=np.float64).reshape(-1, 3)
    return SceneGroundTruth(c, clouds, class_ids,
                            np.tile(np.eye(3), (len(c), 1, 1)) if rotations is None else rotations, c)


def dict_neighbor_rows(indices):
    """Oracle of grid.neighbor_rows: a dict lookup of every stencil offset,
    n where the neighbour is absent."""
    idx_map = {tuple(v): i for i, v in enumerate(indices)}
    return np.array([[idx_map.get(tuple(v + off), len(indices)) for off in STENCIL] for v in indices],
                    dtype=np.int64).reshape(len(indices), 27)


@pytest.fixture(scope="session")
def small_bundle(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_scene")
    spec, lib = small_scene_spec()
    export_scene_bundle(spec, lib, out)
    return load_scene_bundle(out)


@pytest.fixture(scope="session")
def small_bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("small_scene_dir")
    spec, lib = small_scene_spec(seed=22)
    export_scene_bundle(spec, lib, out)
    return out


@pytest.fixture(scope="session")
def tiny_bundle_dir(tmp_path_factory):
    """A one-object bundle of three 80x60 views: cheap enough to run every
    command on many corrupted copies."""
    out = tmp_path_factory.mktemp("tiny_scene") / "scene"
    spec, lib = small_scene_spec(seed=5, n_objects=1, width=80, height=60, focal=76.0)
    export_scene_bundle(spec, lib, out)
    return out
