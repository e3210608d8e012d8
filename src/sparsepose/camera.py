"""Pinhole camera models, depth image I/O and exact back-/forward-projection.

Conventions:
    - Depth images are metric (meters); a value of 0 marks an invalid pixel.
    - Integer pixel coordinates (u, v) address the pixel center, no half-pixel
      offset, so project/backproject round trips are exact.
    - Extrinsics are camera-to-world transforms.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .ioutil import atomic_write_bytes, json_document, read_file, write_json

# Default depth validity range in meters.
DEFAULT_NEAR = 0.05
DEFAULT_FAR = 5.0


def check_rotation(R, what: str) -> np.ndarray:
    """`R` as a (3, 3) float64 array if it is a rotation: finite, orthonormal
    within 1e-9 and det +1 (right-handed). Anything else raises DataError
    naming `what`."""
    R = np.asarray(R, dtype=np.float64).reshape(3, 3)
    if not (np.isfinite(R).all() and np.max(np.abs(R.T @ R - np.eye(3))) <= 1e-9
            and abs(np.linalg.det(R) - 1.0) <= 1e-9):
        raise DataError(f"{what} is not a rotation (finite, orthonormal within 1e-9, det +1)")
    return R


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics: focal lengths, principal point, image size (pixels)."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (self.fx > 0 and self.fy > 0):
            raise DataError(f"focal lengths must be positive, got fx={self.fx}, fy={self.fy}")
        if not (0 <= self.cx < self.width and 0 <= self.cy < self.height):
            raise DataError(f"principal point ({self.cx}, {self.cy}) outside image {self.width}x{self.height}")


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera-to-world rigid transform (rotation 3x3, translation meters)."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        object.__setattr__(self, "rotation", check_rotation(self.rotation, "extrinsic rotation"))
        object.__setattr__(self, "translation", t)

    def matrix(self) -> np.ndarray:
        """4x4 camera-to-world matrix."""
        T = np.eye(4)
        T[:3, :3] = self.rotation
        T[:3, 3] = self.translation
        return T

    @staticmethod
    def from_matrix(T) -> "CameraExtrinsics":
        T = np.asarray(T, dtype=np.float64).reshape(4, 4)
        return CameraExtrinsics(T[:3, :3], T[:3, 3])


@dataclass(frozen=True)
class DepthImage:
    """Metric depth map; 0 marks invalid pixels, all values finite and >= 0."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2:
            raise DataError(f"depth image must be 2D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise DataError("depth image contains non-finite values")
        if np.any(v < 0):
            raise DataError("depth image contains negative values")
        object.__setattr__(self, "values", v)


def backproject(
    depth: DepthImage,
    intr: CameraIntrinsics,
    extr: CameraExtrinsics,
    near: float = DEFAULT_NEAR,
    far: float = DEFAULT_FAR,
) -> np.ndarray:
    """Lift every valid pixel to a world-frame 3D point.

    A pixel (u, v) with depth d maps to T @ (K^-1 [u v 1]^T d). Pixels with
    d <= 0 or d outside [near, far] are skipped. Points come out in row-major
    pixel order, one per valid pixel.
    """
    if depth.values.shape != (intr.height, intr.width):
        raise DataError(
            f"depth shape {depth.values.shape} does not match intrinsics "
            f"({intr.height}, {intr.width})"
        )
    d = depth.values
    valid = (d > 0) & (d >= near) & (d <= far)
    vs, us = np.nonzero(valid)
    dv = d[vs, us]
    x = (us - intr.cx) / intr.fx * dv
    y = (vs - intr.cy) / intr.fy * dv
    pts_cam = np.stack([x, y, dv], axis=1)
    return pts_cam @ extr.rotation.T + extr.translation


def project(
    points: np.ndarray,
    intr: CameraIntrinsics,
    extr: CameraExtrinsics,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Project world points into the camera.

    Returns (pixels (N,2), z (N,), in_front (N,) bool). z is camera-frame
    depth; points with z <= 0 are behind the camera and flagged, their pixel
    coordinates are not meaningful.
    """
    p = np.asarray(points, dtype=np.float64)
    single = p.ndim == 1
    p = np.atleast_2d(p)
    pts_cam = (p - extr.translation) @ extr.rotation
    z = pts_cam[:, 2]
    in_front = z > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        u = intr.fx * pts_cam[:, 0] / z + intr.cx
        v = intr.fy * pts_cam[:, 1] / z + intr.cy
    pix = np.stack([u, v], axis=1)
    if single:
        return pix[0], z[0], in_front[0]
    return pix, z, in_front


# ---------------------------------------------------------------------------
# 16-bit depth PNG I/O (grayscale, hand-rolled on zlib for exact round trips)
# ---------------------------------------------------------------------------

_PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _png_chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def save_depth_png(path, depth: DepthImage, scale: float) -> None:
    """Write depth as 16-bit grayscale PNG; raw value = round(meters / scale).

    `scale` is meters-per-unit. Values must quantize into [0, 65535]; invalid
    pixels (depth 0) map to raw 0.
    """
    if scale <= 0:
        raise DataError(f"depth scale must be positive, got {scale}")
    raw = np.round(depth.values / scale)
    if np.any(raw > 65535):
        raise DataError("depth values exceed 16-bit range at this scale")
    raw = raw.astype(">u2")
    h, w = raw.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 16, 0, 0, 0, 0)  # bit depth 16, grayscale
    rows = b"".join(b"\x00" + raw[r].tobytes() for r in range(h))
    data = (
        _PNG_SIGNATURE
        + _png_chunk(b"IHDR", ihdr)
        + _png_chunk(b"IDAT", zlib.compress(rows, 9))
        + _png_chunk(b"IEND", b"")
    )
    atomic_write_bytes(path, data)


def _unfilter_scanlines(raw: bytes, width: int, height: int, bpp: int) -> bytearray:
    stride = width * bpp
    out = bytearray(height * stride)
    prev = bytearray(stride)
    pos = 0
    for r in range(height):
        ftype = raw[pos]
        pos += 1
        line = bytearray(raw[pos : pos + stride])
        pos += stride
        if ftype == 1:  # Sub
            for i in range(bpp, stride):
                line[i] = (line[i] + line[i - bpp]) & 0xFF
        elif ftype == 2:  # Up
            for i in range(stride):
                line[i] = (line[i] + prev[i]) & 0xFF
        elif ftype == 3:  # Average
            for i in range(stride):
                a = line[i - bpp] if i >= bpp else 0
                line[i] = (line[i] + ((a + prev[i]) >> 1)) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                a = line[i - bpp] if i >= bpp else 0
                b = prev[i]
                c = prev[i - bpp] if i >= bpp else 0
                pp = a + b - c
                pa, pb, pc = abs(pp - a), abs(pp - b), abs(pp - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                line[i] = (line[i] + pred) & 0xFF
        elif ftype != 0:
            raise DataError(f"unsupported PNG filter type {ftype}")
        out[r * stride : (r + 1) * stride] = line
        prev = line
    return out


def load_depth_png(path, scale: float) -> DepthImage:
    """Read a 16-bit grayscale PNG into a DepthImage (meters = raw * scale)."""
    if scale <= 0:
        raise DataError(f"depth scale must be positive, got {scale}")
    return read_file(path, "depth PNG", lambda blob: DepthImage(_decode_png(path, blob) * scale))


def _decode_png(path, blob: bytes) -> np.ndarray:
    """Raw 16-bit values of a grayscale PNG as float64."""
    if blob[:8] != _PNG_SIGNATURE:
        raise DataError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    idat = b""
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise DataError(f"{path}: truncated PNG chunk header")
        (length,) = struct.unpack(">I", blob[pos : pos + 4])
        tag = blob[pos + 4 : pos + 8]
        payload = blob[pos + 8 : pos + 8 + length]
        if len(payload) != length:
            raise DataError(f"{path}: truncated PNG chunk payload")
        if tag == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: IHDR chunk of {length} bytes, expected 13")
            width, height, bitdepth, colortype, _, _, interlace = struct.unpack(">IIBBBBB", payload)
            if bitdepth != 16:
                raise DataError(f"{path}: expected 16-bit PNG, got bit depth {bitdepth}")
            if colortype != 0:
                raise DataError(f"{path}: expected grayscale PNG, got color type {colortype}")
            if interlace != 0:
                raise DataError(f"{path}: interlaced PNG not supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
        pos += 12 + length
    if width is None:
        raise DataError(f"{path}: missing IHDR chunk")
    decompressed = zlib.decompress(idat)
    expected = height * (1 + width * 2)
    if len(decompressed) != expected:
        raise DataError(f"{path}: PNG payload size mismatch")
    pixels = _unfilter_scanlines(decompressed, width, height, bpp=2)
    return np.frombuffer(bytes(pixels), dtype=">u2").reshape(height, width).astype(np.float64)


# ---------------------------------------------------------------------------
# Camera JSON files: one document per view with intrinsics + 4x4 extrinsics
# ---------------------------------------------------------------------------


def save_camera_json(path, intr: CameraIntrinsics, extr: CameraExtrinsics, depth_scale: float) -> None:
    doc = {
        "fx": intr.fx,
        "fy": intr.fy,
        "cx": intr.cx,
        "cy": intr.cy,
        "width": intr.width,
        "height": intr.height,
        "cam_to_world": [float(x) for x in extr.matrix().reshape(-1)],
        "depth_scale": depth_scale,
    }
    write_json(path, doc)


def load_camera_json(path) -> tuple[CameraIntrinsics, CameraExtrinsics, float]:
    return read_file(path, "camera JSON", _camera_from_blob)


def _camera_from_blob(blob: bytes) -> tuple[CameraIntrinsics, CameraExtrinsics, float]:
    doc = json_document(blob)
    intr = CameraIntrinsics(
        fx=float(doc["fx"]),
        fy=float(doc["fy"]),
        cx=float(doc["cx"]),
        cy=float(doc["cy"]),
        width=int(doc["width"]),
        height=int(doc["height"]),
    )
    extr = CameraExtrinsics.from_matrix(np.asarray(doc["cam_to_world"], dtype=np.float64).reshape(4, 4))
    return intr, extr, float(doc["depth_scale"])
