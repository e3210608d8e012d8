import pathlib
import re
from dataclasses import fields

import pytest

import sparsepose
from sparsepose import pipeline
from sparsepose.cli import main
from sparsepose.config import _SECTIONS, PipelineConfig, _in_range, dump_config, load_config, parse_config
from sparsepose.errors import ConfigError

_RANGED = [(key, interval) for keys in _SECTIONS.values() for key, interval in keys.items()]


def _outside(key, interval):
    """Values just outside each finite bound of `interval`, of the key's type."""
    kind = type(getattr(PipelineConfig(), key))
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    values = [lo if interval[0] == "(" else lo - 1]
    if hi != float("inf"):
        values.append(hi if interval[-1] == ")" else hi + (1 if kind is int else 0.5))
    return [kind(v) for v in values]


class TestDefaults:
    def test_paper_constants(self):
        cfg = PipelineConfig()
        assert cfg.coarse_factor == 10
        assert cfg.tsdf_truncation_mult == 8.0
        assert cfg.sigma_c == 6.0
        assert cfg.sigma_b == 4.0
        assert pipeline.LOSS_WEIGHTS == (1.0, 3.0, 2.0, 3.0, 1.0)

    def test_every_key_is_read_outside_config(self):
        # a key that no module reads changes nothing a run does
        text = "".join(path.read_text() for path in pathlib.Path(sparsepose.__file__).parent.glob("*.py")
                       if path.name != "config.py")
        read_as = {"dbscan_eps_mult": "dbscan_eps", "icp_corr_mult": "icp_corr_dist"}
        unread = [f.name for f in fields(PipelineConfig)
                  if not re.search(rf"\bcfg\.{read_as.get(f.name, f.name)}\b", text)]
        assert unread == []

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

    def test_section_table_is_complete(self):
        placed = [key for keys in _SECTIONS.values() for key in keys]
        assert sorted(placed) == sorted(f.name for f in fields(PipelineConfig))
        default = PipelineConfig()
        for key, interval in _RANGED:
            assert _in_range(getattr(default, key), interval), key

    @pytest.mark.parametrize("key, interval", _RANGED, ids=[key for key, _ in _RANGED])
    def test_each_range_rejects_values_outside(self, key, interval):
        for value in _outside(key, interval):
            with pytest.raises(ConfigError, match=f"^{key} must lie in "):
                PipelineConfig(**{key: value})

    @pytest.mark.parametrize("overrides", [
        {"heads": 0},
        {"theta": float("nan")},
        {"lr": float("nan")},
        {"steps": -5},
        {"tsdf_voxels_per_side": 0},
        {"tsdf_truncation_mult": 0.0},
        {"tsdf_truncation_mult": -1.0},
    ])
    def test_out_of_range_values_rejected(self, overrides):
        with pytest.raises(ConfigError):
            PipelineConfig(**overrides)


class TestRoundTrip:
    def test_dump_load_dump_byte_identical(self):
        cfg = PipelineConfig(theta=0.00125, lr=0.007, vote_top_fraction=0.33)
        text = dump_config(cfg)
        again = dump_config(parse_config(text))
        assert text == again

    def test_file_roundtrip(self, tmp_path):
        cfg = PipelineConfig(seed=99, steps=7)
        partial = tmp_path / "partial.cfg"
        partial.write_text("[train]\nseed = 99\nsteps = 7\n")
        path = tmp_path / "pipeline.cfg"
        assert main(["dump-config", "--config", str(partial), "--out", str(path)]) == 0
        loaded = load_config(path)
        assert loaded == cfg
        assert main(["dump-config", "--config", str(path), "--out", str(tmp_path / "again.cfg")]) == 0
        assert (tmp_path / "again.cfg").read_bytes() == path.read_bytes()

    def test_values_survive(self):
        cfg = PipelineConfig(sigma_c=5.25, window_medium=12, icp_tol=1e-7)
        loaded = parse_config(dump_config(cfg))
        assert loaded.sigma_c == 5.25
        assert loaded.window_medium == 12
        assert loaded.icp_tol == 1e-7


class TestParsing:
    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[nonsense]\nfoo = 1\n")

    def test_key_of_unknown_section_named_first(self):
        # [loss] is gone with its keys; a file naming one reads as that key's error
        with pytest.raises(ConfigError, match=r"^unknown config key 'lambda_roi' in section \[loss\]$"):
            parse_config("[loss]\nlambda_roi = 1.0\n")
        with pytest.raises(ConfigError, match=r"^unknown config section \[loss\]$"):
            parse_config("[loss]\n")

    @pytest.mark.parametrize("text", ["[DEFAULT]\ntheta = 0.5\n",
                                      "[DEFAULT]\ntheta = 0.5\n[grid]\n",
                                      "[DEFAULT]\ntheta = 0.5\n[camera]\n"])
    def test_default_section_rejected(self, text, tmp_path, capsys):
        # configparser would merge [DEFAULT] into every section: ignored alone,
        # setting theta beside [grid], an unknown key beside [camera]
        with pytest.raises(ConfigError, match=r"\[DEFAULT\]"):
            parse_config(text)
        path = tmp_path / "default.cfg"
        path.write_text(text)
        capsys.readouterr()
        assert main(["dump-config", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1 and "[DEFAULT]" in err, err

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[grid]\ntheta = 0.002\nbogus = 3\n")

    def test_workspace_section_gone(self):
        # the crop always comes from the scene bundle, so the config has no [workspace]
        assert "[workspace]" not in dump_config(PipelineConfig())
        with pytest.raises(ConfigError):
            parse_config("[workspace]\nworkspace_min = -0.2 -0.2 -0.02\n")

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
