import numpy as np
import pytest

from sparsepose import pipeline
from sparsepose.config import PipelineConfig
from sparsepose.errors import DataError
from conftest import dict_neighbor_rows
from sparsepose.grid import (
    SparseVoxelGrid,
    coarsen,
    find_rows,
    group_rows,
    neighbor_rows,
    occupancy_stats,
    pack_index,
    partition_indices,
    run_rows,
    unpack_index,
    voxelize,
)
from oracles import loglog_slope, occupancy_csv


def brute_force_voxel_set(points, theta, origin):
    out = set()
    for p in np.atleast_2d(points):
        out.add(tuple(int(np.floor((p[k] - origin[k]) / theta)) for k in range(3)))
    return out


# Key arrays for group_rows / find_rows: empty, one key, all keys equal,
# packed negative voxel indices with repeats, and random repeats.
KEY_CASES = {
    "empty": np.zeros(0, dtype=np.int64),
    "one": np.array([7], dtype=np.int64),
    "all_equal": np.full(6, -3, dtype=np.int64),
    "negative_indices": pack_index(np.array([[-1, -1, -1], [0, 0, 0], [-1, -1, -1], [-5, 3, -2],
                                             [-(1 << 20), 0, (1 << 20) - 1], [0, 0, 0], [-5, 3, -2]])),
    "random": np.random.default_rng(4).integers(-50, 50, size=300).astype(np.int64),
}


class TestGroupRows:
    @pytest.mark.parametrize("name", sorted(KEY_CASES))
    def test_matches_unique(self, name):
        keys = KEY_CASES[name]
        order, starts, counts = group_rows(keys)
        uniq, first, inverse, n = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
        assert order.dtype == starts.dtype == counts.dtype == np.int64
        assert np.array_equal(keys[order[starts]], uniq)
        assert np.array_equal(order[starts], first)
        assert np.array_equal(counts, n)
        assert counts.sum() == len(keys) and np.array_equal(np.sort(order), np.arange(len(keys)))
        for r in range(len(uniq)):  # each run: the rows of that key, ascending
            run = order[starts[r] : starts[r] + counts[r]]
            assert np.array_equal(run, np.flatnonzero(inverse.reshape(-1) == r))


class TestFindRows:
    @pytest.mark.parametrize("name", sorted(KEY_CASES))
    def test_matches_dict_lookup(self, name):
        sorted_keys = np.unique(KEY_CASES[name])
        table = {int(k): i for i, k in enumerate(sorted_keys)}
        # present keys, their neighbours (absent unless another key), far below
        # the first key and far above the last
        query = np.concatenate([sorted_keys, sorted_keys - 1, sorted_keys + 1,
                                [-(1 << 62), 1 << 62, 0, -51, 51]]).astype(np.int64)
        got = find_rows(sorted_keys, query)
        assert got.dtype == np.int64
        assert got.tolist() == [table.get(int(q), -1) for q in query]

    @pytest.mark.parametrize("name", sorted(KEY_CASES))
    def test_empty_query(self, name):
        got = find_rows(np.unique(KEY_CASES[name]), np.zeros(0, dtype=np.int64))
        assert got.shape == (0,) and got.dtype == np.int64

    def test_row_lookup_of_empty_grid(self):
        grid = SparseVoxelGrid(0.01, np.zeros(3), np.zeros((0, 3), dtype=np.int64), np.zeros((0, 4)))
        assert grid.row_lookup(np.array([[0, 0, 0], [-3, 1, 2]])).tolist() == [-1, -1]


class TestPackIndex:
    def test_roundtrip_random(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(-100000, 100000, size=(1000, 3))
        assert np.array_equal(unpack_index(pack_index(idx)), idx)

    def test_order_matches_lexicographic(self):
        rng = np.random.default_rng(1)
        idx = rng.integers(-50, 50, size=(500, 3))
        keys = pack_index(idx)
        by_key = np.argsort(keys)
        by_lex = np.lexsort((idx[:, 2], idx[:, 1], idx[:, 0]))
        assert np.array_equal(idx[by_key], idx[by_lex])

    def test_out_of_range_rejected(self):
        with pytest.raises(DataError):
            pack_index(np.array([[2**21, 0, 0]]))


class TestVoxelize:
    def test_single_point(self):
        g = voxelize(np.array([[0.001, 0.001, 0.001]]), 0.002, np.zeros(3))
        assert np.array_equal(g.indices, [[0, 0, 0]])
        assert g.channels == 4

    def test_boundary_point_lower_inclusive(self):
        g = voxelize(np.array([[0.002, 0.0005, 0.0005]]), 0.002, np.zeros(3))
        assert np.array_equal(g.indices, [[1, 0, 0]])

    def test_two_points_one_voxel_count_feature(self):
        pts = np.array([[0.0005, 0.0005, 0.0005], [0.0015, 0.0005, 0.0005]])
        g = voxelize(pts, 0.002, np.zeros(3))
        assert len(g) == 1
        assert g.features[0, 3] == pytest.approx(np.log(3.0))  # log(1 + 2)

    def test_mean_offset_feature(self):
        # one point at the voxel center: offset feature is exactly zero
        g = voxelize(np.array([[0.001, 0.001, 0.001]]), 0.002, np.zeros(3))
        assert np.allclose(g.features[0, :3], 0.0, atol=1e-12)

    def test_extra_channel_mean(self):
        pts = np.array([[0.0005, 0.0005, 0.0005, 1.0], [0.0015, 0.0005, 0.0005, 0.0]])
        g = voxelize(pts, 0.002, np.zeros(3))
        assert g.channels == 5
        assert g.features[0, 4] == pytest.approx(0.5)

    def test_empty_input(self):
        g = voxelize(np.zeros((0, 3)), 0.002, np.zeros(3))
        assert len(g) == 0

    def test_matches_brute_force_set(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-0.05, 0.05, size=(500, 3))
        origin = np.array([-0.06, -0.06, -0.06])
        g = voxelize(pts, 0.004, origin)
        assert {tuple(v) for v in g.indices} == brute_force_voxel_set(pts, 0.004, origin)

    def test_indices_sorted_unique(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.05, 0.05, size=(300, 3))
        g = voxelize(pts, 0.004, np.array([-0.06] * 3))
        keys = pack_index(g.indices)
        assert np.all(np.diff(keys) > 0)

    def test_idempotent_on_centers(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.05, 0.05, size=(400, 3))
        g = voxelize(pts, 0.004, np.array([-0.06] * 3))
        g2 = voxelize(g.centers(), 0.004, np.array([-0.06] * 3))
        assert np.array_equal(g.indices, g2.indices)


class TestCoarsen:
    def test_ten_fine_to_one_coarse(self):
        idx = np.array([[i, 0, 0] for i in range(10)])
        g = SparseVoxelGrid(0.002, np.zeros(3), idx, np.ones((10, 1)))
        coarse, parent = coarsen(g, 10)
        assert np.array_equal(coarse.indices, [[0, 0, 0]])
        assert np.array_equal(parent, np.zeros(10))

    def test_boundary_index(self):
        g = SparseVoxelGrid(0.002, np.zeros(3), np.array([[10, 0, 0]]), np.ones((1, 1)))
        coarse, _ = coarsen(g, 10)
        assert np.array_equal(coarse.indices, [[1, 0, 0]])

    def test_negative_indices_floor(self):
        g = SparseVoxelGrid(0.002, np.zeros(3), np.array([[-1, 0, 0]]), np.ones((1, 1)))
        coarse, _ = coarsen(g, 10)
        assert np.array_equal(coarse.indices, [[-1, 0, 0]])

    def test_count_matches_brute_force(self):
        rng = np.random.default_rng(5)
        idx = rng.integers(-30, 30, size=(400, 3))
        idx = np.unique(idx, axis=0)
        g = SparseVoxelGrid(0.002, np.zeros(3), idx, np.ones((len(idx), 1)))
        coarse, parent = coarsen(g, 10)
        expected = {tuple(v // 10) for v in idx}
        assert {tuple(v) for v in coarse.indices} == expected
        # parent map consistency
        assert np.array_equal(coarse.indices[parent], np.floor_divide(g.indices, 10))

    def test_factor_two_pooling_matches_floor_division(self):
        # the U-Net pooling: parents lex-sorted and unique, parent_row exact
        rng = np.random.default_rng(44)
        idx = np.unique(rng.integers(-9, 9, size=(300, 3)), axis=0)
        idx = idx[rng.permutation(len(idx))]
        g = SparseVoxelGrid(0.008, np.zeros(3), idx, np.ones((len(idx), 1)))
        coarse, parent = coarsen(g, 2)
        floor = [tuple(int(c) // 2 for c in v) for v in idx]
        expected = sorted(set(floor))
        assert [tuple(v) for v in coarse.indices] == expected
        row_of = {v: i for i, v in enumerate(expected)}
        assert parent.tolist() == [row_of[v] for v in floor]

    def test_mean_feature(self):
        idx = np.array([[0, 0, 0], [1, 0, 0]])
        feats = np.array([[1.0, 2.0], [3.0, 4.0]])
        g = SparseVoxelGrid(0.002, np.zeros(3), idx, feats)
        coarse, _ = coarsen(g, 10)
        assert np.allclose(coarse.features, [[2.0, 3.0]])

    def test_bad_factor_rejected(self):
        g = SparseVoxelGrid(0.002, np.zeros(3), np.array([[0, 0, 0]]), np.ones((1, 1)))
        with pytest.raises(DataError):
            coarsen(g, 1)


class TestLiftAndFilter:
    """The lifting inside staged_forward: the fine voxels whose coarse parent
    survived suppression, widened with the parent's RoI trunk features."""

    cfg = PipelineConfig(theta=0.002, width=8, roi_width=4, heads=2, topk_max=64)

    def make_fine(self, n=200, seed=6):
        rng = np.random.default_rng(seed)
        idx = np.unique(rng.integers(-25, 25, size=(n, 3)), axis=0)
        feats = rng.normal(size=(len(idx), 4))
        return SparseVoxelGrid(0.002, np.zeros(3), idx, feats)

    def lift(self, monkeypatch, fine, kept):
        """staged_forward with suppression keeping the coarse rows `kept`;
        returns the output and the features fed to the objectness net."""
        monkeypatch.setattr(pipeline, "soft_suppress",
                            lambda scores, *gate: (np.zeros(len(scores)), np.asarray(kept, dtype=np.int64)))
        model = pipeline.build_model(self.cfg, "cloud", seed=0)
        seen = {}
        roi, obj = model.roi, model.obj

        def roi_spy(features, *structure):
            scores, trunk = roi(features, *structure)
            seen["trunk"] = trunk.data
            return scores, trunk

        def obj_spy(pairs, feats):
            seen["feats"] = feats.data
            return obj(pairs, feats)

        model.roi, model.obj = roi_spy, obj_spy
        out = pipeline.staged_forward(model, fine, self.cfg)
        return out, seen

    def test_keep_all_preserves_index_set(self, monkeypatch):
        fine = self.make_fine()
        coarse, _ = coarsen(fine, 10)
        out, _ = self.lift(monkeypatch, fine, np.arange(len(coarse)))
        assert np.array_equal(out.lifted_fine_rows, np.arange(len(fine)))
        assert np.array_equal(out.lifted_grid.indices, fine.indices)

    def test_keep_none_falls_back_to_all_rows(self, monkeypatch):
        fine = self.make_fine()
        out, _ = self.lift(monkeypatch, fine, [])
        assert len(out.kept_coarse_rows) == 0
        assert np.array_equal(out.lifted_fine_rows, np.arange(len(fine)))

    def test_random_keep_matches_brute_force(self, monkeypatch):
        fine = self.make_fine()
        coarse, _ = coarsen(fine, 10)
        rng = np.random.default_rng(7)
        kept = np.nonzero(rng.random(len(coarse)) < 0.5)[0]
        out, _ = self.lift(monkeypatch, fine, kept)
        kept_set = {tuple(v) for v in out.coarse.indices[out.kept_coarse_rows]}
        expected_rows = [i for i, v in enumerate(fine.indices) if tuple(v // 10) in kept_set]
        assert 0 < len(expected_rows) < len(fine)
        assert np.array_equal(out.lifted_fine_rows, expected_rows)
        assert np.array_equal(out.lifted_grid.indices, fine.indices[expected_rows])

    def test_enrichment_features_match_parent(self, monkeypatch):
        fine = self.make_fine()
        coarse, parent = coarsen(fine, 10)
        kept = np.arange(0, len(coarse), 2)
        out, seen = self.lift(monkeypatch, fine, kept)
        rows = out.lifted_fine_rows
        # the networks see the fine features cast to their compute dtype
        assert np.array_equal(seen["feats"][:, :4], fine.features[rows].astype(pipeline.NET_DTYPE))
        assert np.array_equal(seen["feats"][:, 4:], seen["trunk"][parent[rows]])


class TestPartitionWindows:
    def test_window_one_isolates_voxels(self):
        g = SparseVoxelGrid(0.002, np.zeros(3), np.array([[0, 0, 0], [1, 0, 0]]), np.ones((2, 1)))
        parts = partition_indices(g.indices, 1)
        assert len(parts) == 1
        assert np.array_equal(parts[0], [[0], [1]])

    def test_same_window(self):
        g = SparseVoxelGrid(0.002, np.zeros(3), np.array([[0, 0, 0], [3, 3, 3]]), np.ones((2, 1)))
        parts = partition_indices(g.indices, 4)
        assert len(parts) == 1
        assert np.array_equal(parts[0], [[0, 1]])

    def test_is_partition(self):
        rng = np.random.default_rng(8)
        idx = np.unique(rng.integers(-20, 20, size=(300, 3)), axis=0)
        g = SparseVoxelGrid(0.002, np.zeros(3), idx, np.ones((len(idx), 1)))
        parts = partition_indices(g.indices, 4)
        all_rows = np.concatenate([table.reshape(-1) for table in parts])
        assert len(all_rows) == len(g)
        assert len(np.unique(all_rows)) == len(g)

    def test_membership_matches_floor_division(self):
        # each window is one floor(v / 5) cell, whole; tables come in ascending
        # population, windows in lexicographic order, rows ascending
        rng = np.random.default_rng(9)
        idx = np.unique(rng.integers(-20, 20, size=(200, 3)), axis=0)
        idx = idx[rng.permutation(len(idx))]
        parts = partition_indices(idx, 5)
        cell = np.floor_divide(idx, 5)
        assert [t.shape[1] for t in parts] == sorted({t.shape[1] for t in parts})
        for table in parts:
            wids = [tuple(cell[rows[0]]) for rows in table]
            assert wids == sorted(wids)
            for rows, wid in zip(table, wids):
                assert np.all(np.diff(rows) > 0)
                assert np.array_equal(rows, np.flatnonzero((cell == wid).all(axis=1)))

    def test_empty(self):
        assert partition_indices(np.zeros((0, 3), dtype=np.int64), 4) == []


class TestNeighborRows:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dict_lookup(self, seed):
        rng = np.random.default_rng(seed)
        idx = np.unique(rng.integers(-4, 3, size=(120, 3)), axis=0)
        idx = idx[rng.permutation(len(idx))]
        got = neighbor_rows(idx)
        assert got.dtype == np.int64
        assert np.array_equal(got, dict_neighbor_rows(idx))

    def test_empty(self):
        got = neighbor_rows(np.zeros((0, 3), dtype=np.int64))
        assert got.shape == (0, 27)


class TestRunRows:
    @pytest.mark.parametrize("name", sorted(KEY_CASES))
    def test_matches_concatenated_slices(self, name):
        order, starts, counts = group_rows(KEY_CASES[name])
        rng = np.random.default_rng(5)
        picks = [np.zeros(0, dtype=np.int64)]
        if len(starts):
            picks += [rng.permutation(len(starts))[: rng.integers(1, len(starts) + 1)] for _ in range(3)]
            picks += [np.array([len(starts) - 1, 0, len(starts) - 1])]  # a run chosen twice
        for runs in picks:
            expected = np.concatenate([order[starts[r]:starts[r] + counts[r]] for r in runs]
                                      + [np.zeros(0, dtype=np.int64)])
            got = run_rows(order, starts, counts, runs)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)


class TestOccupancyStats:
    def test_single_point(self):
        rows = occupancy_stats(np.array([[0.001, 0.001, 0.001]]), (0.1, 0.1, 0.1), [0.002, 0.004])
        assert all(r["sparse"] == 1 for r in rows)

    def test_dense_cubic(self):
        rows = occupancy_stats(np.zeros((1, 3)), (0.064, 0.064, 0.064), [0.002, 0.001])
        assert rows[1]["dense"] == 8 * rows[0]["dense"]

    def test_plane_slope_near_two(self):
        # a planar sheet of points: sparse count should scale ~ (1/theta)^2
        rng = np.random.default_rng(10)
        pts = np.column_stack([rng.uniform(0, 0.256, size=40000),
                               rng.uniform(0, 0.256, size=40000),
                               np.full(40000, 0.01)])
        thetas = [0.008, 0.004, 0.002]
        rows = occupancy_stats(pts, (0.256, 0.256, 0.064), thetas)
        slope = loglog_slope([1.0 / t for t in thetas], [r["sparse"] for r in rows])
        assert 1.6 <= slope <= 2.4
        dense_slope = loglog_slope([1.0 / t for t in thetas], [r["dense"] for r in rows])
        assert dense_slope == pytest.approx(3.0, abs=1e-9)

    def test_csv_format(self):
        rows = occupancy_stats(np.array([[0.001, 0.001, 0.001]]), (0.1, 0.1, 0.1), [0.002])
        text = occupancy_csv(rows)
        assert text.splitlines()[0] == "theta_mm,sparse,dense,ratio"
        assert text.splitlines()[1].startswith("2,1,")
