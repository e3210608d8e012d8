import numpy as np

from sparsepose.config import PipelineConfig
from sparsepose.metrics import add_s
from sparsepose.pipeline import build_input_grid, estimate_poses, oracle_votes, votes_to_poses
from sparsepose.tsdf import SparseTsdf


def test_icp_against_tsdf_band(small_bundle, monkeypatch):
    """The icp_use_pbar flag swaps the ICP target for near-zero-crossing
    TSDF voxels; oracle poses stay accurate."""
    cfg = PipelineConfig(theta=0.002, icp_use_pbar=True)
    calls = []
    extract = SparseTsdf.extract_pbar
    monkeypatch.setattr(SparseTsdf, "extract_pbar", lambda self: calls.append(1) or extract(self))
    poses, n_votes = estimate_poses(small_bundle, cfg, oracle=True, representation="tsdf")
    assert len(calls) == 1, "the band points are extracted once, for ICP; the grid needs none"
    assert n_votes > 0
    assert len(poses) >= small_bundle.gt.n_objects
    for inst in small_bundle.instances:
        model = small_bundle.models[inst.class_id]
        cands = [p for p in poses if p.class_id == inst.class_id]
        assert cands
        best = min(
            add_s(p.rotation, p.translation, inst.rotation, inst.translation, model.cloud)
            for p in cands
        )
        assert best < 0.003, f"{model.name}: ADD-S {best*1000:.2f} mm against the TSDF band"

    # the same poses as voxelizing the band and refining against its
    # near-zero rows taken from a second extraction
    fine, _, tsdf = build_input_grid(small_bundle, cfg, "tsdf")
    rotations = np.asarray([inst.rotation for inst in small_bundle.instances])
    band = extract(tsdf)
    near = band[np.abs(band[:, 3]) < 0.25][:, :3]
    assert len(near) >= 100
    expected = votes_to_poses(oracle_votes(fine, small_bundle.gt, rotations), near,
                              small_bundle.models, cfg, origin=small_bundle.workspace.min_corner)
    assert len(poses) == len(expected)
    for p, q in zip(poses, expected):
        assert np.array_equal(p.rotation, q.rotation)
        assert np.array_equal(p.translation, q.translation)
        assert p.refined == q.refined
