import pytest

from sparsepose.config import PipelineConfig, dump_config, load_config, parse_config, save_config
from sparsepose.errors import ConfigError


class TestDefaults:
    def test_paper_constants(self):
        cfg = PipelineConfig()
        assert cfg.coarse_factor == 10
        assert cfg.tsdf_truncation_mult == 8.0
        assert cfg.sigma_c == 6.0
        assert cfg.sigma_b == 4.0
        assert cfg.loss_weights == (1.0, 3.0, 2.0, 3.0, 1.0)

    def test_derived_quantities(self):
        cfg = PipelineConfig(theta=0.002)
        assert cfg.dbscan_eps == pytest.approx(cfg.dbscan_eps_mult * 0.002)
        assert cfg.icp_corr_dist == pytest.approx(4 * 0.002)


class TestValidation:
    def test_bad_theta(self):
        with pytest.raises(ConfigError):
            PipelineConfig(theta=-1.0)

    def test_bad_kappa(self):
        with pytest.raises(ConfigError):
            PipelineConfig(suppress_kappa=1.5)

    def test_window_ordering(self):
        with pytest.raises(ConfigError):
            PipelineConfig(window_small=8, window_medium=4)

    def test_width_heads_divisibility(self):
        with pytest.raises(ConfigError):
            PipelineConfig(width=30, heads=4)

    @pytest.mark.parametrize("overrides", [
        {"heads": 0},
        {"theta": float("nan")},
        {"lr": float("nan")},
        {"steps": -5},
    ])
    def test_out_of_range_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**overrides)


class TestRoundTrip:
    def test_dump_load_dump_byte_identical(self):
        cfg = PipelineConfig(theta=0.00125, lr=0.007, topk_ratio=0.33)
        text = dump_config(cfg)
        again = dump_config(parse_config(text))
        assert text == again

    def test_file_roundtrip(self, tmp_path):
        cfg = PipelineConfig(seed=99, steps=7)
        path = tmp_path / "pipeline.cfg"
        save_config(cfg, path)
        loaded = load_config(path)
        assert loaded == cfg
        save_config(loaded, tmp_path / "again.cfg")
        assert (tmp_path / "again.cfg").read_bytes() == path.read_bytes()

    def test_values_survive(self):
        cfg = PipelineConfig(workspace_min=(-0.3, -0.25, 0.0), scaled_attention=False,
                             train_keep_union_gt=False)
        loaded = parse_config(dump_config(cfg))
        assert loaded.workspace_min == (-0.3, -0.25, 0.0)
        assert loaded.scaled_attention is False
        assert loaded.train_keep_union_gt is False


class TestParsing:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\nfoo = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\ntheta = 0.002\nbogus = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\ntheta = banana\n")

    def test_partial_config_keeps_defaults(self):
        cfg = parse_config("[heatmap]\nsigma_c = 7.5\n")
        assert cfg.sigma_c == 7.5
        assert cfg.sigma_b == 4.0

    def test_overrides_win(self):
        cfg = parse_config("[grid]\ntheta = 0.004\n", overrides={"theta": 0.001})
        assert cfg.theta == 0.001

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("", overrides={"not_a_key": 1})

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "absent.cfg")

    def test_invalid_combination_from_text(self):
        with pytest.raises(ConfigError):
            parse_config("[network]\nwindow_small = 9\nwindow_medium = 4\n")
