"""Pipeline configuration: every setting a run may tune, in one place, loadable
from a plain-text key-value file with sections. Unknown keys and out-of-range
values are rejected and a dump -> load -> dump round trip is byte-identical.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass, fields

from .errors import ConfigError
from .ioutil import read_file

@dataclass
class PipelineConfig:
    # [grid]
    theta: float = 0.002            # pipeline voxel size, meters

    # [camera]
    near: float = 0.05
    far: float = 5.0

    # [heatmap]
    sigma_c: float = 6.0
    sigma_b: float = 4.0
    suppress_beta: float = 10.0
    suppress_epsilon: float = 0.3
    suppress_kappa: float = 0.5

    # [objectness]
    topk_max: int = 512             # pose rows, the best at or above the objectness floor

    # [voting]
    dbscan_eps_mult: float = 2.5     # times theta
    dbscan_min_pts: int = 5
    vote_top_fraction: float = 0.5

    # [icp]
    icp_iters: int = 30
    icp_corr_mult: float = 4.0       # times theta
    icp_tol: float = 1e-3

    # [train]
    seed: int = 0
    steps: int = 500
    warmup_fraction: float = 0.15
    lr: float = 0.003
    momentum: float = 0.9
    train_chamfer_points: int = 24

    def __post_init__(self):
        self.validate()

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for key, interval in _RANGES.items():
            value = getattr(self, key)
            if not _in_range(value, interval):
                raise ConfigError(f"{key} must lie in {interval}, got {value}")
        if self.near >= self.far:
            raise ConfigError(f"near must be smaller than far, got {self.near} and {self.far}")

    @property
    def dbscan_eps(self) -> float:
        return self.dbscan_eps_mult * self.theta

    @property
    def icp_corr_dist(self) -> float:
        return self.icp_corr_mult * self.theta


# Every key once: its section, its place in the dump and its valid range as an
# interval, where a parenthesis excludes the bound and a bracket includes it.
# Lengths and spreads have finite upper bounds: past them an index or a square
# overflows, or the (V, n, n) chamfer fills memory.
_SECTIONS = {
    "grid": {"theta": "(0, 1]"},
    "camera": {"near": "[0, inf)", "far": "(0, inf)"},
    "heatmap": {"sigma_c": "[0.1, 1000]", "sigma_b": "[0.1, 1000]", "suppress_beta": "(0, inf)",
                "suppress_epsilon": "[0, 1]", "suppress_kappa": "(0, 1)"},
    "objectness": {"topk_max": "[1, inf)"},
    "voting": {"dbscan_eps_mult": "(0, inf)", "dbscan_min_pts": "[1, inf)",
               "vote_top_fraction": "(0, 1]"},
    "icp": {"icp_iters": "[0, inf)", "icp_corr_mult": "(0, inf)", "icp_tol": "[0, inf)"},
    "train": {"seed": "[0, inf)", "steps": "[0, inf)", "warmup_fraction": "[0, 1]",
              "lr": "(0, inf)", "momentum": "[0, 1)", "train_chamfer_points": "[1, 256]"},
}

_RANGES = {key: interval for keys in _SECTIONS.values() for key, interval in keys.items()}


def _in_range(value, interval: str) -> bool:
    lo, hi = (float(bound) for bound in interval[1:-1].split(","))
    above = value > lo if interval[0] == "(" else value >= lo
    below = value < hi if interval[-1] == ")" else value <= hi
    return above and below


_FIELD_TYPES = {f.name: f.type for f in fields(PipelineConfig)}


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(name: str, raw: str):
    try:
        return int(raw) if _FIELD_TYPES[name] == "int" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key '{name}': {exc}") from exc


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
    # No header can hold a newline, so [DEFAULT] reads as a plain section
    # instead of being merged silently into every other one.
    parser = configparser.ConfigParser(default_section="\n")
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    values = {}
    for section in parser.sections():
        # A key in an unknown section is named first: a removed key reads the same in any section.
        allowed = _SECTIONS.get(section, {})
        for key, raw in parser[section].items():
            if key not in allowed:
                raise ConfigError(f"unknown config key '{key}' in section [{section}]")
            values[key] = _parse_value(key, raw)
        if section not in _SECTIONS:
            raise ConfigError(f"unknown config section [{section}]")
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
    text = read_file(path, "config file", lambda blob: blob.decode("utf-8"), ConfigError)
    return parse_config(text, overrides)
