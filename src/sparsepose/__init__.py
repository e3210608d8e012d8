"""sparsepose: depth-only multi-view 6D object pose estimation on sparse
voxel grids.

The pipeline fuses multi-view depth into a point cloud or a hash-blocked
sparse TSDF, selects foreground through two staged heatmaps, runs a
dual-branch sparse window-attention network and recovers poses by per-voxel
voting with DBSCAN clustering and per-cluster ICP refinement.
"""

from .camera import CameraExtrinsics, CameraIntrinsics, DepthImage, backproject, project
from .config import PipelineConfig, load_config
from .fusion import Workspace, fuse_views
from .grid import SparseVoxelGrid, coarsen, voxelize
from .heatmap import SceneGroundTruth
from .synthetic import make_primitives, sample_scene
from .tsdf import SparseTsdf, TsdfConfig
from .voting import Pose, VoteSet, dbscan, rot6d_to_matrix

__version__ = "0.1.0"

__all__ = [
    "CameraExtrinsics",
    "CameraIntrinsics",
    "DepthImage",
    "PipelineConfig",
    "Pose",
    "SceneGroundTruth",
    "SparseTsdf",
    "SparseVoxelGrid",
    "TsdfConfig",
    "VoteSet",
    "Workspace",
    "backproject",
    "coarsen",
    "dbscan",
    "fuse_views",
    "load_config",
    "make_primitives",
    "project",
    "rot6d_to_matrix",
    "sample_scene",
    "voxelize",
]
