import hashlib
import json
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from conftest import small_scene_spec
from sparsepose import synthetic
from sparsepose.camera import CameraExtrinsics, CameraIntrinsics, backproject
from sparsepose.errors import DataError
from sparsepose.fusion import Workspace, fuse_views
from sparsepose.grid import occupancy_stats
from sparsepose.synthetic import (
    Mesh,
    SceneSpec,
    aabb_gap,
    default_camera_ring,
    default_intrinsics,
    export_scene_bundle,
    load_scene_bundle,
    look_at_extrinsics,
    make_box_mesh,
    make_l_bracket_mesh,
    make_notched_cylinder_mesh,
    make_primitives,
    make_tube_mesh,
    rasterize_depth,
    render_depth,
    sample_scene,
    sample_surface,
    scene_ground_truth,
    scene_triangles,
)


class TestPrimitives:
    def test_box_mesh_counts(self):
        mesh = make_box_mesh((0.04, 0.03, 0.02))
        assert mesh.vertices.shape == (8, 3)
        assert mesh.faces.shape == (12, 3)
        lo, hi = mesh.aabb()
        assert np.allclose(hi - lo, [0.04, 0.03, 0.02])

    def test_box_area_exact(self):
        mesh = make_box_mesh((0.04, 0.03, 0.02))
        expected = 2 * (0.04 * 0.03 + 0.04 * 0.02 + 0.03 * 0.02)
        assert mesh.areas().sum() == pytest.approx(expected, rel=1e-12)

    def test_cylinder_symmetry_set_size(self):
        lib = make_primitives()
        assert len(lib["notched_cylinder"].symmetries) == 36
        assert len(lib["tube"].symmetries) == 36

    def test_box_symmetry_four_element_group(self):
        lib = make_primitives()
        syms = lib["box"].symmetries
        assert len(syms) == 4
        # all are z-rotations by k*90 degrees mapping the square footprint to itself
        verts = lib["box"].mesh.vertices
        tree = cKDTree(verts)
        for s in syms:
            d, _ = tree.query(verts @ s.T)
            assert d.max() < 1e-12

    def test_l_bracket_identity_only(self):
        lib = make_primitives()
        assert len(lib["l_bracket"].symmetries) == 1
        assert np.allclose(lib["l_bracket"].symmetries[0], np.eye(3))

    def test_canonical_clouds_on_surface(self):
        lib = make_primitives()
        for model in lib.values():
            assert len(model.cloud) >= 2000
            # every sampled point lies on some triangle plane within 1e-9
            tris = model.mesh.triangles()
            n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
            norms = np.linalg.norm(n, axis=1)
            keep = norms > 1e-15
            n = n[keep] / norms[keep][:, None]
            d = np.einsum("tj,tj->t", n, tris[keep, 0])
            dist = np.abs(model.cloud @ n.T - d[None, :])
            assert dist.min(axis=1).max() < 1e-9

    def test_diameters_positive_and_sane(self):
        lib = make_primitives()
        for model in lib.values():
            assert 0.01 < model.diameter < 0.1

    def test_diameter_is_largest_vertex_distance(self):
        for model in make_primitives().values():
            v = model.mesh.vertices
            brute = max(float(np.linalg.norm(a - b)) for a in v for b in v)
            assert model.diameter == pytest.approx(brute, rel=1e-12)
            assert "diameter" in vars(model)  # computed once, then read back
            assert model.diameter is model.diameter

    def test_class_ids_unique(self):
        lib = make_primitives()
        ids = [m.class_id for m in lib.values()]
        assert sorted(ids) == [1, 2, 3, 4]

    def test_notched_cylinder_has_notch(self):
        mesh = make_notched_cylinder_mesh(radius=0.012, notch_depth=0.004)
        # some top-band vertices sit at the recessed radius
        top = mesh.vertices[np.abs(mesh.vertices[:, 2] - 0.018) < 1e-9]
        radii = np.linalg.norm(top[:, :2], axis=1)
        assert np.any(np.abs(radii - 0.008) < 1e-9)
        assert np.any(np.abs(radii - 0.012) < 1e-9)

    def test_tube_is_hollow(self):
        mesh = make_tube_mesh(r_out=0.01, r_in=0.006, height=0.03)
        radii = np.linalg.norm(mesh.vertices[:, :2], axis=1)
        assert np.isclose(radii.min(), 0.006)
        assert np.isclose(radii.max(), 0.01)


class TestSampleSurface:
    def test_deterministic(self):
        mesh = make_box_mesh((0.02, 0.02, 0.02))
        a = sample_surface(mesh, 500, seed=3)
        b = sample_surface(mesh, 500, seed=3)
        assert np.array_equal(a, b)

    def test_area_weighting(self):
        # a slab: the two big faces carry most of the area
        mesh = make_box_mesh((0.1, 0.1, 0.002))
        pts = sample_surface(mesh, 4000, seed=4)
        on_big_faces = np.abs(np.abs(pts[:, 2]) - 0.001) < 1e-12
        assert on_big_faces.mean() > 0.9


class TestSampleScene:
    def test_single_object_inside_bin(self):
        lib = make_primitives()
        spec = sample_scene(lib, (-0.1, -0.1, 0.0), (0.1, 0.1, 0.06), n_objects=1, seed=5)
        assert len(spec.instances) == 1
        inst = spec.instances[0]
        verts = lib[inst.name].mesh.vertices @ inst.rotation.T + inst.translation
        assert np.all(verts.min(axis=0) >= spec.bin_min - 1e-12)
        assert np.all(verts.max(axis=0) <= spec.bin_max + 1e-12)

    def test_deterministic_per_seed(self):
        lib = make_primitives()
        a = sample_scene(lib, (-0.1, -0.1, 0.0), (0.1, 0.1, 0.06), n_objects=4, seed=6)
        b = sample_scene(lib, (-0.1, -0.1, 0.0), (0.1, 0.1, 0.06), n_objects=4, seed=6)
        for ia, ib in zip(a.instances, b.instances):
            assert ia.name == ib.name
            assert np.array_equal(ia.rotation, ib.rotation)
            assert np.array_equal(ia.translation, ib.translation)

    def test_pairwise_aabb_gaps(self):
        lib = make_primitives()
        spec = sample_scene(lib, (-0.15, -0.15, 0.0), (0.15, 0.15, 0.08), n_objects=10, seed=7)
        boxes = []
        for inst in spec.instances:
            verts = lib[inst.name].mesh.vertices @ inst.rotation.T + inst.translation
            boxes.append((verts.min(axis=0), verts.max(axis=0)))
        for i in range(len(boxes)):
            for j in range(i + 1, len(boxes)):
                assert aabb_gap(*boxes[i], *boxes[j]) >= 0.0  # no interpenetration

    def test_impossible_bin_raises(self):
        lib = make_primitives()
        with pytest.raises(DataError):
            sample_scene(lib, (0.0, 0.0, 0.0), (0.02, 0.02, 0.01), n_objects=3, seed=8,
                         max_trials=200)


# The rasterizer's reference oracle: a tessellated sphere and its analytic depth.


def make_uv_sphere_mesh(radius: float, rings: int = 24, segments: int = 48) -> Mesh:
    """Tessellated sphere for the analytic ray-cast oracle."""
    verts = [[0.0, 0.0, radius]]
    for i in range(1, rings):
        phi = np.pi * i / rings
        for j in range(segments):
            theta = 2.0 * np.pi * j / segments
            verts.append([
                radius * np.sin(phi) * np.cos(theta),
                radius * np.sin(phi) * np.sin(theta),
                radius * np.cos(phi),
            ])
    verts.append([0.0, 0.0, -radius])
    south = len(verts) - 1
    faces = []
    for j in range(segments):
        faces.append([0, 1 + j, 1 + (j + 1) % segments])
    for i in range(rings - 2):
        row0 = 1 + i * segments
        row1 = row0 + segments
        for j in range(segments):
            j2 = (j + 1) % segments
            faces += [[row0 + j, row1 + j, row1 + j2], [row0 + j, row1 + j2, row0 + j2]]
    row = 1 + (rings - 2) * segments
    for j in range(segments):
        faces.append([south, row + (j + 1) % segments, row + j])
    return Mesh(np.asarray(verts), np.asarray(faces, dtype=np.int64))


def ray_sphere_depth(intr: CameraIntrinsics, extr: CameraExtrinsics, center, radius: float) -> np.ndarray:
    """Analytic per-pixel depth of a sphere (oracle for the rasterizer)."""
    gu, gv = np.meshgrid(np.arange(intr.width), np.arange(intr.height))
    dirs = np.stack([(gu - intr.cx) / intr.fx, (gv - intr.cy) / intr.fy, np.ones_like(gu, dtype=np.float64)], axis=-1)
    c_cam = (np.asarray(center, dtype=np.float64) - extr.translation) @ extr.rotation
    a = np.sum(dirs * dirs, axis=-1)
    b = -2.0 * dirs @ c_cam
    c = float(c_cam @ c_cam) - radius * radius
    disc = b * b - 4 * a * c
    depth = np.zeros((intr.height, intr.width))
    hit = disc >= 0
    lam = (-b[hit] - np.sqrt(disc[hit])) / (2 * a[hit])
    lam[lam <= 0] = 0.0
    depth[hit] = lam
    return depth


def loop_rasterize_depth(triangles, intr, extr):
    """rasterize_depth as a loop over triangles with a per-triangle z-buffer
    test and BLAS dot products: the reference for the one-pass rasterizer."""
    zbuf = np.full((intr.height, intr.width), np.inf)
    cam = ((triangles.reshape(-1, 3) - extr.translation) @ extr.rotation).reshape(-1, 3, 3)
    for tri in cam:
        z = tri[:, 2]
        if np.any(z <= 1e-9):
            continue
        u = intr.fx * tri[:, 0] / z + intr.cx
        v = intr.fy * tri[:, 1] / z + intr.cy
        u0, u1 = max(0, int(np.ceil(u.min()))), min(intr.width - 1, int(np.floor(u.max())))
        v0, v1 = max(0, int(np.ceil(v.min()))), min(intr.height - 1, int(np.floor(v.max())))
        if u0 > u1 or v0 > v1:
            continue
        gu, gv = np.meshgrid(np.arange(u0, u1 + 1), np.arange(v0, v1 + 1))
        e0 = (u[1] - u[0]) * (gv - v[0]) - (v[1] - v[0]) * (gu - u[0])
        e1 = (u[2] - u[1]) * (gv - v[1]) - (v[2] - v[1]) * (gu - u[1])
        e2 = (u[0] - u[2]) * (gv - v[2]) - (v[0] - v[2]) * (gu - u[2])
        inside = ((e0 >= 0) & (e1 >= 0) & (e2 >= 0)) | ((e0 <= 0) & (e1 <= 0) & (e2 <= 0))
        n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
        gu, gv = gu[inside], gv[inside]
        denom = np.column_stack([(gu - intr.cx) / intr.fx, (gv - intr.cy) / intr.fy, np.ones(len(gu))]) @ n
        lam = np.full(len(gu), np.inf)
        good = np.abs(denom) > 1e-15
        lam[good] = float(n @ tri[0]) / denom[good]
        lam[lam <= 0] = np.inf
        better = lam < zbuf[gv, gu]
        zbuf[gv[better], gu[better]] = lam[better]
    zbuf[~np.isfinite(zbuf)] = 0.0
    return zbuf


def rasterizer_edge_scene():
    """A small scene's triangles plus a triangle reaching behind the camera,
    a degenerate one, one seen edge-on and one off the image, with its views."""
    spec, lib = small_scene_spec(seed=5, n_objects=3, width=120, height=90, focal=110.0)
    intr, extr = spec.cameras[0]
    eye, ahead, right = extr.translation, extr.rotation[:, 2], extr.rotation[:, 0]
    extra = np.array([
        [eye - 0.05 * ahead, eye + 0.3 * ahead + 0.02 * right, eye + 0.3 * ahead - 0.02 * right],
        [eye + 0.3 * ahead, eye + 0.3 * ahead, eye + 0.31 * ahead],
        [eye + 0.2 * ahead, eye + 0.4 * ahead, eye + 0.3 * ahead + 1e-9 * right],
        [eye + 0.3 * ahead + 5 * right, eye + 0.3 * ahead + 6 * right, eye + 0.4 * ahead + 5 * right],
    ])
    return np.concatenate([scene_triangles(spec, lib), extra]), spec.cameras


class TestRasterizer:
    def test_empty_scene_all_invalid(self):
        intr = default_intrinsics(width=64, height=48, focal=60.0)
        extr = look_at_extrinsics((0.0, 0.0, 0.5), (0.0, 0.0, 0.0))
        depth = rasterize_depth(np.zeros((0, 3, 3)), intr, extr)
        assert np.all(depth == 0.0)

    def test_matches_per_triangle_loop(self):
        # the same edge tests and depth formula; only the dot products sum in
        # another order than BLAS, so depths agree to rounding, masks exactly
        tris, cams = rasterizer_edge_scene()
        for intr, extr in cams:
            depth, ref = rasterize_depth(tris, intr, extr), loop_rasterize_depth(tris, intr, extr)
            assert np.array_equal(depth > 0, ref > 0)
            assert np.allclose(depth, ref, rtol=1e-12, atol=0.0)

    def test_chunk_size_does_not_change_depth(self, monkeypatch):
        tris, cams = rasterizer_edge_scene()
        whole = [rasterize_depth(tris, intr, extr) for intr, extr in cams]
        monkeypatch.setattr(synthetic, "_CHUNK_PIXELS", 50)  # below most triangles' boxes
        for (intr, extr), ref in zip(cams, whole):
            assert np.array_equal(rasterize_depth(tris, intr, extr), ref)

    def test_frontal_plane_constant_depth(self):
        # a large quad facing the camera at z = 1: every covered pixel reads 1
        intr = CameraIntrinsics(fx=60.0, fy=60.0, cx=31.5, cy=23.5, width=64, height=48)
        extr = look_at_extrinsics((0.0, 0.0, -1.0), (0.0, 0.0, 1.0), up_hint=(0.0, 1.0, 0.0))
        quad = np.array(
            [
                [[-1, -1, 0], [1, -1, 0], [1, 1, 0]],
                [[-1, -1, 0], [1, 1, 0], [-1, 1, 0]],
            ],
            dtype=np.float64,
        )
        depth = rasterize_depth(quad, intr, extr)
        covered = depth > 0
        assert covered.mean() > 0.9
        assert np.max(np.abs(depth[covered] - 1.0)) < 1e-12

    def test_matches_ray_triangle_oracle(self):
        # rasterized depth equals brute-force ray casting against the same
        # triangles (0.5 px silhouette band excluded)
        rng = np.random.default_rng(9)
        tris = make_l_bracket_mesh().triangles() + np.array([0.0, 0.0, 0.02])
        intr = default_intrinsics(width=80, height=60, focal=80.0)
        extr = look_at_extrinsics((0.08, 0.05, 0.2), (0.0, 0.0, 0.02))
        depth = rasterize_depth(tris, intr, extr)

        cam_tris = (tris.reshape(-1, 3) - extr.translation) @ extr.rotation
        cam_tris = cam_tris.reshape(-1, 3, 3)

        def ray_cast(u, v):
            d = np.array([(u - intr.cx) / intr.fx, (v - intr.cy) / intr.fy, 1.0])
            best = np.inf
            for tri in cam_tris:
                n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
                denom = n @ d
                if abs(denom) < 1e-14:
                    continue
                lam = (n @ tri[0]) / denom
                if lam <= 0:
                    continue
                p = lam * d
                # inside test via barycentric signs
                e0 = np.cross(tri[1] - tri[0], p - tri[0]) @ n
                e1 = np.cross(tri[2] - tri[1], p - tri[1]) @ n
                e2 = np.cross(tri[0] - tri[2], p - tri[2]) @ n
                if (e0 >= 0 and e1 >= 0 and e2 >= 0) or (e0 <= 0 and e1 <= 0 and e2 <= 0):
                    best = min(best, lam)
            return best if np.isfinite(best) else 0.0

        valid = np.argwhere(depth > 0)
        sample = valid[rng.choice(len(valid), size=min(120, len(valid)), replace=False)]
        for v, u in sample:
            # skip the silhouette band: any neighbor differs by invalidity
            patch = depth[max(0, v - 1) : v + 2, max(0, u - 1) : u + 2]
            if np.any(patch == 0):
                continue
            assert depth[v, u] == pytest.approx(ray_cast(u, v), abs=1e-9)

    def test_sphere_analytic_bounds(self):
        # tessellated sphere: chordal surface sits behind the true sphere by
        # at most the sagitta, so raster depth is bracketed analytically
        radius = 0.05
        rings, segments = 32, 64
        mesh = make_uv_sphere_mesh(radius, rings=rings, segments=segments)
        center = np.array([0.0, 0.0, 0.3])
        intr = default_intrinsics(width=96, height=96, focal=120.0)
        extr = look_at_extrinsics((0.0, 0.0, 0.0), (0.0, 0.0, 1.0), up_hint=(0.0, 1.0, 0.0))
        depth = rasterize_depth(mesh.triangles() + center, intr, extr)
        analytic = ray_sphere_depth(intr, extr, center, radius)
        sagitta = radius * (1.0 - np.cos(np.pi / min(rings, segments)))
        both = (depth > 0) & (analytic > 0)
        # exclude the 0.5 px silhouette band (any 8-neighbor invalid)
        interior = both.copy()
        for dv in (-1, 0, 1):
            for du in (-1, 0, 1):
                interior &= np.roll(np.roll(both, dv, axis=0), du, axis=1)
        d, a = depth[interior], analytic[interior]
        assert np.all(d >= a - 1e-9)
        assert np.all(d <= a + sagitta * 2.5 + 1e-9)

    def test_backprojected_surface_distance(self):
        # noiseless render, back-projected, lies on the scene surface within
        # 1e-6 m (silhouette band excluded)
        lib = make_primitives()
        spec = sample_scene(lib, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=2, seed=10)
        intr, extr = spec.cameras[0]
        depth = render_depth(spec, lib, 0)
        values = depth.values.copy()
        valid = values > 0
        interior = valid.copy()
        for dv in (-1, 0, 1):
            for du in (-1, 0, 1):
                interior &= np.roll(np.roll(valid, dv, axis=0), du, axis=1)
        values[~interior] = 0.0
        from sparsepose.camera import DepthImage

        pts = backproject(DepthImage(values), intr, extr, near=0.05, far=5.0)
        tris = scene_triangles(spec, lib)
        # distance to the nearest triangle plane restricted to the triangle
        # (dense sampling of the surface stands in for exact point-triangle)
        rng = np.random.default_rng(0)
        areas = 0.5 * np.linalg.norm(np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0]), axis=1)
        probs = areas / areas.sum()
        chosen = rng.choice(len(tris), size=200000, p=probs)
        r1 = np.sqrt(rng.random(200000))
        r2 = rng.random(200000)
        surf = ((1 - r1)[:, None] * tris[chosen, 0]
                + (r1 * (1 - r2))[:, None] * tris[chosen, 1]
                + (r1 * r2)[:, None] * tris[chosen, 2])
        d, _ = cKDTree(surf).query(pts[rng.choice(len(pts), size=min(2000, len(pts)), replace=False)])
        # surface sampling spacing dominates this bound; plane-exactness is
        # checked separately in the ray-triangle oracle
        assert d.max() < 2e-3
        # and exact plane membership for a strict subset: distances to the
        # closest plane among all triangles
        sub = pts[rng.choice(len(pts), size=min(500, len(pts)), replace=False)]
        n = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        norms = np.linalg.norm(n, axis=1)
        keep = norms > 1e-15
        n = n[keep] / norms[keep][:, None]
        dplane = np.abs(sub @ n.T - np.einsum("tj,tj->t", n, tris[keep, 0])[None, :])
        assert dplane.min(axis=1).max() < 1e-6

    def test_noise_and_dropout_deterministic(self):
        lib = make_primitives()
        spec = sample_scene(lib, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=1, seed=11,
                            noise_sigma=0.001, dropout=0.05)
        a = render_depth(spec, lib, 0)
        b = render_depth(spec, lib, 0)
        assert np.array_equal(a.values, b.values)
        clean_spec = sample_scene(lib, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=1, seed=11)
        clean = render_depth(clean_spec, lib, 0)
        assert not np.array_equal(a.values, clean.values)
        dropped = (clean.values > 0) & (a.values == 0)
        assert 0.01 < dropped.mean() / max(1e-9, (clean.values > 0).mean()) < 0.12


class TestGroundTruthExport:
    def test_identity_pose_world_cloud_is_canonical(self):
        lib = make_primitives()
        from sparsepose.synthetic import Instance

        inst = Instance(1, "box", np.eye(3), np.zeros(3))
        spec = SceneSpec(
            bin_min=np.array([-0.1, -0.1, -0.1]),
            bin_max=np.array([0.1, 0.1, 0.1]),
            workspace=Workspace((-0.12, -0.12, -0.12), (0.12, 0.12, 0.12)),
            instances=[inst],
            cameras=default_camera_ring((-0.1, -0.1, -0.1), (0.1, 0.1, 0.1)),
        )
        gt = scene_ground_truth(spec, lib)
        assert np.allclose(gt.object_clouds[0], lib["box"].cloud)
        assert np.allclose(gt.centroids[0], lib["box"].mesh.surface_centroid(), atol=1e-12)

    def test_pure_translation_shifts_centroid(self):
        lib = make_primitives()
        from sparsepose.synthetic import Instance

        t = np.array([0.03, -0.02, 0.05])
        inst = Instance(1, "box", np.eye(3), t)
        spec = SceneSpec(
            bin_min=np.array([-0.1, -0.1, -0.1]),
            bin_max=np.array([0.1, 0.1, 0.1]),
            workspace=Workspace((-0.12, -0.12, -0.12), (0.12, 0.12, 0.12)),
            instances=[inst],
            cameras=default_camera_ring((-0.1, -0.1, -0.1), (0.1, 0.1, 0.1)),
        )
        gt = scene_ground_truth(spec, lib)
        base = lib["box"].mesh.surface_centroid()
        assert np.allclose(gt.centroids[0], base + t, atol=1e-12)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scene")
    lib = make_primitives()
    intr = default_intrinsics(width=160, height=120, focal=150.0)
    cams = default_camera_ring((-0.08, -0.08, 0.0), (0.08, 0.08, 0.05),
                               n_views=3, distance=0.4, intr=intr)
    spec = sample_scene(lib, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=2, seed=12,
                        cameras=cams)
    export_scene_bundle(spec, lib, out)
    return out


class TestSceneBundle:
    def test_layout(self, bundle_dir):
        names = {p.name for p in bundle_dir.iterdir()}
        assert "scene.json" in names and "gt.json" in names and "models" in names
        assert "cam_00.json" in names and "depth_00.png" in names
        assert "cam_02.json" in names and "depth_02.png" in names

    def test_reload_matches(self, bundle_dir):
        bundle = load_scene_bundle(bundle_dir)
        assert len(bundle.depths) == 3
        assert bundle.gt.n_objects == 2
        assert bundle.seed == 12
        # world clouds are within PLY float32 quantization of exact transforms
        lib = make_primitives()
        scene_doc = json.loads((bundle_dir / "scene.json").read_text())
        for i, inst in enumerate(scene_doc["instances"]):
            R = np.asarray(inst["rotation"]).reshape(3, 3)
            t = np.asarray(inst["translation"])
            exact = lib[inst["name"]].cloud @ R.T + t
            assert np.max(np.abs(bundle.gt.object_clouds[i] - exact)) < 1e-5

    def test_reexport_bit_identical(self, bundle_dir, tmp_path):
        # write the same spec again and compare every file byte for byte
        lib = make_primitives()
        intr = default_intrinsics(width=160, height=120, focal=150.0)
        cams = default_camera_ring((-0.08, -0.08, 0.0), (0.08, 0.08, 0.05),
                                   n_views=3, distance=0.4, intr=intr)
        spec = sample_scene(lib, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=2, seed=12,
                            cameras=cams)
        again = tmp_path / "again"
        export_scene_bundle(spec, lib, again)
        for p in sorted(bundle_dir.rglob("*")):
            if p.is_file():
                twin = again / p.relative_to(bundle_dir)
                assert twin.read_bytes() == p.read_bytes(), p.name

    def test_bundle_bytes_pinned(self, bundle_dir):
        expected = {
            "cam_00.json": "bc8225ea994f4c7efad1125a02d3e00e4861e8eba32585707705818bbb5124af",
            "cam_01.json": "e6834806b8f1d12cbdcf39df27f0537a8f05103b7b7f4826f3f66aedcb7723a3",
            "cam_02.json": "efdb0a9dc5dbf170269950bb7017e39ab8410ec8da74a98a833ceaa6f150a886",
            "depth_00.png": "35b23e057b09fc74f2e99ce7b27ac8bd522046d5c64c3f85bd7500514ddcd7bf",
            "depth_01.png": "16ce90b9355252ae388cfe8811b3c8d1bcd0e9c84d1c94abdba1b6f9565f0da0",
            "depth_02.png": "75c48b970b4b2b0d1e574acb5f54952358e72fd556e26f66be5eacd16e99e56e",
            "gt.json": "3862fc55668d89e80f3a1ccd710eeff46f122dbc67eeabb785fd0f5fcd7136fc",
            "models/l_bracket.ply": "b4927b82ad4036b24c315b9a0cebfe36ed57334fffa13fa394cb4d5dcf2b23eb",
            "models/notched_cylinder.ply":
                "c5630d569fb29be5a0eedaf4f0b5e739f94d4e31e91b269352e2d40c20047bd0",
            "scene.json": "48b5056e237ff30ed4c8050c8ddab88d327fee57d94e75ba00fcb434915b5dce",
        }
        written = {p.relative_to(bundle_dir).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in bundle_dir.rglob("*") if p.is_file()}
        assert written == expected
        umask = os.umask(0)
        os.umask(umask)
        for name in expected:
            assert (bundle_dir / name).stat().st_mode & 0o777 == 0o666 & ~umask, name

    def test_failed_export_leaves_no_partial_file(self, tmp_path, monkeypatch):
        lib = make_primitives()
        intr = default_intrinsics(width=40, height=30, focal=40.0)
        cams = default_camera_ring((-0.08, -0.08, 0.0), (0.08, 0.08, 0.05),
                                   n_views=1, distance=0.4, intr=intr)
        spec = sample_scene(lib, (-0.08, -0.08, 0.0), (0.08, 0.08, 0.05), n_objects=1, seed=12,
                            cameras=cams)
        replace = os.replace
        for name in ("scene.json", "gt.json", "cam_00.json", "depth_00.png"):
            out = tmp_path / name.replace(".", "_")

            def failing_replace(src, dst, name=name):
                if os.path.basename(dst) == name:
                    raise OSError("disk full")
                return replace(src, dst)

            monkeypatch.setattr(os, "replace", failing_replace)
            with pytest.raises(OSError, match="disk full"):
                export_scene_bundle(spec, lib, out)
            monkeypatch.setattr(os, "replace", replace)
            left = [p.name for p in out.rglob("*")]
            assert name not in left
            assert not [n for n in left if n.startswith(".tmp_")], left

    def test_depth_png_quantization_roundtrip(self, bundle_dir, tmp_path):
        from sparsepose.camera import save_depth_png

        bundle = load_scene_bundle(bundle_dir)
        path = bundle_dir / "depth_00.png"
        resaved = tmp_path / "resaved.png"
        save_depth_png(resaved, bundle.depths[0], bundle.depth_scale)
        assert resaved.read_bytes() == path.read_bytes()

    def test_missing_bundle_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_scene_bundle(tmp_path / "nope")


class TestOccupancySparsity:
    def test_rendered_scene_is_sparse_at_8mm(self):
        lib = make_primitives()
        spec = sample_scene(lib, (-0.2, -0.2, 0.0), (0.2, 0.2, 0.2), n_objects=10, seed=13)
        depths = [render_depth(spec, lib, i) for i in range(len(spec.cameras))]
        cloud = fuse_views(depths, spec.cameras, spec.workspace)
        rows = occupancy_stats(cloud - spec.workspace.min_corner,
                               spec.workspace.extent, [0.008])
        assert rows[0]["ratio"] < 0.10
