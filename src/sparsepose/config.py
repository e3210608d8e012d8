"""Pipeline configuration: every tunable default in one place, loadable from
a plain-text key-value file with sections. Unknown keys are rejected and a
dump -> load -> dump round trip is byte-identical.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .ioutil import atomic_write_text

_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}


@dataclass
class PipelineConfig:
    # [grid]
    theta: float = 0.002            # pipeline voxel size, meters
    coarse_factor: int = 10

    # [camera]
    near: float = 0.05
    far: float = 5.0

    # [tsdf]
    tsdf_voxels_per_side: int = 16
    tsdf_truncation_mult: float = 8.0
    tsdf_weight_cap: float = 64.0

    # [heatmap]
    sigma_c: float = 6.0
    sigma_b: float = 4.0
    focal_alpha: float = 4.0
    focal_gamma: float = 2.0
    suppress_beta: float = 10.0
    suppress_epsilon: float = 0.3
    suppress_kappa: float = 0.5
    attention_reweight: bool = False

    # [objectness]
    obj_gamma: float = 2.0
    obj_alpha: float = 0.25
    topk_ratio: float = 0.5
    topk_min: int = 32
    topk_max: int = 512

    # [network]
    width: int = 32
    roi_width: int = 16
    heads: int = 4
    window_small: int = 4
    window_medium: int = 8
    scaled_attention: bool = True

    # [loss]
    lambda_roi: float = 1.0
    lambda_obj: float = 3.0
    lambda_cls: float = 2.0
    lambda_t: float = 3.0
    lambda_rot: float = 1.0
    smooth_l1_delta: float = 0.01
    chamfer_points: int = 256

    # [voting]
    dbscan_eps_mult: float = 2.5     # times theta
    dbscan_min_pts: int = 5
    vote_top_fraction: float = 0.5

    # [icp]
    icp_iters: int = 30
    icp_corr_mult: float = 4.0       # times theta
    icp_tol: float = 1e-5
    icp_trim: float = 1.0
    icp_reciprocal: bool = True
    icp_use_pbar: bool = False

    # [train]
    seed: int = 0
    steps: int = 500
    warmup_fraction: float = 0.15
    lr: float = 0.003
    momentum: float = 0.9
    train_chamfer_points: int = 24
    train_keep_union_gt: bool = True
    train_topk_union_gt: bool = True
    train_rot_lr_mult: float = 30.0
    train_clip_norm: float = 10.0

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        if self.theta <= 0:
            raise ConfigError(f"theta must be positive, got {self.theta}")
        if self.coarse_factor < 2:
            raise ConfigError("coarse_factor must be >= 2")
        if self.tsdf_voxels_per_side < 1:
            raise ConfigError(f"tsdf_voxels_per_side must be >= 1, got {self.tsdf_voxels_per_side}")
        if self.tsdf_truncation_mult <= 0 or self.tsdf_weight_cap <= 0:
            raise ConfigError("tsdf_truncation_mult and tsdf_weight_cap must be positive")
        if not (0 < self.topk_ratio <= 1):
            raise ConfigError("topk_ratio must lie in (0, 1]")
        if not (0 < self.suppress_kappa < 1):
            raise ConfigError("suppress_kappa must lie in (0, 1)")
        if self.window_small >= self.window_medium:
            raise ConfigError("window_small must be smaller than window_medium")
        if self.heads < 1:
            raise ConfigError(f"heads must be >= 1, got {self.heads}")
        if self.width % self.heads != 0:
            raise ConfigError("width must be divisible by heads")
        if not (0 <= self.warmup_fraction <= 1):
            raise ConfigError("warmup_fraction must lie in [0, 1]")
        if any(v <= 0 for v in (self.sigma_c, self.sigma_b, self.lr)):
            raise ConfigError("sigma_c, sigma_b and lr must be positive")
        if self.steps < 0:
            raise ConfigError(f"steps must be >= 0, got {self.steps}")
        for name in ("icp_trim", "vote_top_fraction"):
            if not (0 < getattr(self, name) <= 1):
                raise ConfigError(f"{name} must lie in (0, 1], got {getattr(self, name)}")
        if self.dbscan_min_pts < 1:
            raise ConfigError(f"dbscan_min_pts must be >= 1, got {self.dbscan_min_pts}")
        for name in ("dbscan_eps_mult", "icp_corr_mult"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("icp_iters", "icp_tol"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def loss_weights(self) -> tuple:
        return (self.lambda_roi, self.lambda_obj, self.lambda_cls, self.lambda_t, self.lambda_rot)

    @property
    def dbscan_eps(self) -> float:
        return self.dbscan_eps_mult * self.theta

    @property
    def icp_corr_dist(self) -> float:
        return self.icp_corr_mult * self.theta


_SECTIONS = {
    "grid": ("theta", "coarse_factor"),
    "camera": ("near", "far"),
    "tsdf": ("tsdf_voxels_per_side", "tsdf_truncation_mult", "tsdf_weight_cap"),
    "heatmap": ("sigma_c", "sigma_b", "focal_alpha", "focal_gamma",
                "suppress_beta", "suppress_epsilon", "suppress_kappa", "attention_reweight"),
    "objectness": ("obj_gamma", "obj_alpha", "topk_ratio", "topk_min", "topk_max"),
    "network": ("width", "roi_width", "heads", "window_small", "window_medium", "scaled_attention"),
    "loss": ("lambda_roi", "lambda_obj", "lambda_cls", "lambda_t", "lambda_rot",
             "smooth_l1_delta", "chamfer_points"),
    "voting": ("dbscan_eps_mult", "dbscan_min_pts", "vote_top_fraction"),
    "icp": ("icp_iters", "icp_corr_mult", "icp_tol", "icp_trim", "icp_reciprocal",
            "icp_use_pbar"),
    "train": ("seed", "steps", "warmup_fraction", "lr", "momentum", "train_chamfer_points",
              "train_keep_union_gt", "train_topk_union_gt", "train_rot_lr_mult",
              "train_clip_norm"),
}

_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    try:
        if kind == "bool":
            key = raw.strip().lower()
            if key not in _BOOLS:
                raise ValueError(f"not a boolean: {raw!r}")
            return _BOOLS[key]
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{name}': {exc}") from exc
    raise ConfigError(f"unhandled config field type {kind} for '{name}'")


def dump_config(cfg: PipelineConfig) -> str:
    """Canonical text form: fixed section and key order."""
    out = io.StringIO()
    for section, keys in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for key in keys:
            out.write(f"{key} = {_format_value(getattr(cfg, key))}\n")
        out.write("\n")
    return out.getvalue()


def parse_config(text: str, overrides: dict | None = None) -> PipelineConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    values = {}
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
        allowed = set(_SECTIONS[section])
        for key, raw in parser[section].items():
            if key not in allowed:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            values[key] = _parse_value(key, raw)
    if overrides:
        for key, value in overrides.items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config override '{key}'")
            if value is not None:
                values[key] = value
    try:
        return PipelineConfig(**values)
    except TypeError as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    if path is None:
        return parse_config("", overrides)
    try:
        with open(path) as f:
            text = f.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config(text, overrides)


def save_config(cfg: PipelineConfig, path) -> None:
    atomic_write_text(path, dump_config(cfg))
