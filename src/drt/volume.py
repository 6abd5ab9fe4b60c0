"""Dense 3D volume container and RAW + JSON sidecar I/O.

A volume is an immutable dense scalar grid with isotropic voxel spacing.
Voxel (x, y, z) lives at flat index ``x + nx*(y + ny*z)`` (x fastest);
in memory the data array is shaped (nz, ny, nx) in C order, which realizes
exactly that flattening. All downstream modules assume this layout.

The on-disk format is a headerless packed RAW blob next to a JSON sidecar
describing dims, voxel size, value kind, element encoding, and byte order.
The declared element encoding is the storage format; computed volumes
(distances, thicknesses) may carry wider in-memory dtypes and are cast on
save. The cast to f32 rounds; u8 and u16 refuse values they cannot hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import BadHeader, BadParams, IoFailure, SizeMismatch
from .fileio import json_array, json_typed, read_json, write_json

VALUE_KINDS = ("grayscale", "label", "distance", "throat_size")
ENCODINGS = ("u8", "u16", "f32")
BYTE_ORDERS = ("little", "big")

_ENCODING_NUMPY = {
    ("u8", "little"): "u1",
    ("u8", "big"): "u1",
    ("u16", "little"): "<u2",
    ("u16", "big"): ">u2",
    ("f32", "little"): "<f4",
    ("f32", "big"): ">f4",
}

# the one budget of every pass that runs in pieces, so that its temporaries
# do not grow with the volume: voxels of a smoothing or EDT pass, rows of
# the forest, scatter entries of the painting. No output depends on it
PIECE = 1 << 16


def pieces(n: int, width: int = 1):
    """Yield (a, b) ranges covering range(n) in order, each max(1, PIECE //
    width) long but the last, width being what one unit costs in PIECE's
    units. PIECE is read at each call, so setting it reaches every pass."""
    step = max(1, PIECE // width)
    for a in range(0, n, step):
        yield a, min(n, a + step)


@dataclass(frozen=True)
class VolumeHeader:
    """Metadata sidecar: grid shape, voxel size, and storage format."""

    dims: tuple[int, int, int]  # (nx, ny, nz)
    voxel_size_um: float
    value_kind: str = "grayscale"
    element_encoding: str = "f32"
    byte_order: str = "little"

    def __post_init__(self):
        nx, ny, nz = self.dims
        if not (nx >= 1 and ny >= 1 and nz >= 1):
            raise BadHeader(f"dims must all be >= 1, got {self.dims}")
        if not self.voxel_size_um > 0:
            raise BadHeader(f"voxel_size_um must be > 0, got {self.voxel_size_um}")
        if self.value_kind not in VALUE_KINDS:
            raise BadHeader(f"unknown value_kind {self.value_kind!r}")
        if self.element_encoding not in ENCODINGS:
            raise BadHeader(f"unknown element_encoding {self.element_encoding!r}")
        if self.byte_order not in BYTE_ORDERS:
            raise BadHeader(f"unknown byte_order {self.byte_order!r}")

    @property
    def n_elements(self) -> int:
        nx, ny, nz = self.dims
        return nx * ny * nz

    @property
    def storage_dtype(self) -> np.dtype:
        return np.dtype(_ENCODING_NUMPY[(self.element_encoding, self.byte_order)])

    def to_json_dict(self) -> dict:
        return {
            "dims": list(self.dims),
            "voxel_size_um": self.voxel_size_um,
            "value_kind": self.value_kind,
            "element_encoding": self.element_encoding,
            "byte_order": self.byte_order,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "VolumeHeader":
        required = ("dims", "voxel_size_um", "value_kind", "element_encoding", "byte_order")
        for key in required:
            if key not in d:
                raise BadHeader(f"sidecar missing field {key!r}")
        try:
            dims = json_array(d["dims"], int, "dims")
            # anisotropic spacing (a list) is refused here by design
            voxel = float(json_typed(d["voxel_size_um"], float, "voxel_size_um"))
        except TypeError as exc:
            raise BadHeader(f"bad sidecar value: {exc}") from exc
        if len(dims) != 3:
            raise BadHeader(f"dims must be a list of 3 integers, got {dims!r}")
        return cls(
            dims=tuple(dims),
            voxel_size_um=voxel,
            value_kind=d["value_kind"],
            element_encoding=d["element_encoding"],
            byte_order=d["byte_order"],
        )


@dataclass(frozen=True)
class Volume:
    """Immutable 3D scalar grid. ``data`` is shaped (nz, ny, nx)."""

    header: VolumeHeader
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        nx, ny, nz = self.header.dims
        arr = np.asarray(self.data)
        if arr.ndim == 1:
            if arr.size != self.header.n_elements:
                raise SizeMismatch(
                    f"data length {arr.size} != header element count {self.header.n_elements}")
            arr = arr.reshape(nz, ny, nx)
        elif arr.shape != (nz, ny, nx):
            raise SizeMismatch(
                f"data shape {arr.shape} != expected {(nz, ny, nx)} for dims {self.header.dims}")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.header.dims

    @property
    def voxel_size_um(self) -> float:
        return self.header.voxel_size_um

    @property
    def flat(self) -> np.ndarray:
        """Read-only x-fastest flat view of the data."""
        return self.data.reshape(-1)

    def at(self, x: int, y: int, z: int):
        return self.data[z, y, x]

    def with_data(self, data: np.ndarray, value_kind: str | None = None,
                  element_encoding: str | None = None) -> "Volume":
        """New volume sharing this header geometry with different scalars."""
        header = self.header
        if value_kind is not None or element_encoding is not None:
            header = replace(
                header,
                value_kind=value_kind or header.value_kind,
                element_encoding=element_encoding or header.element_encoding,
            )
        return Volume(header, data)


def load_volume(raw_path: str | Path) -> Volume:
    """Read a RAW blob plus its JSON sidecar into a Volume.

    The sidecar is the raw path with a .json suffix. Raises BadHeader for
    sidecar problems, SizeMismatch when the raw byte count disagrees
    with dims times element width, and BadParams for a raw path ending in
    .json.
    """
    raw_path = Path(raw_path)
    header = VolumeHeader.from_json_dict(
        read_json(sidecar_path(raw_path), BadHeader, dict))

    try:
        blob = raw_path.read_bytes()
    except OSError as exc:
        raise IoFailure(f"cannot read raw file {raw_path}: {exc}") from exc

    dtype = header.storage_dtype
    expected = header.n_elements * dtype.itemsize
    if len(blob) != expected:
        raise SizeMismatch(
            f"raw file {raw_path} holds {len(blob)} bytes, header expects {expected}")
    data = np.frombuffer(blob, dtype=dtype)
    # native-order copy so downstream math never sees a foreign byte order
    data = data.astype(dtype.newbyteorder("="), copy=True)
    return Volume(header, data)


def _check_storable(volume: Volume, raw_path: Path) -> None:
    """Raise BadParams unless a u8 or u16 encoding holds every value exactly.

    f32 is a documented lossy cast; a safe cast (uint8 into u16) needs no scan.
    """
    data, encoding = volume.data, volume.header.element_encoding
    storage = volume.header.storage_dtype
    if encoding == "f32" or np.can_cast(data.dtype, storage, "safe"):
        return
    top = np.iinfo(storage).max
    lo, hi = data.min(), data.max()
    if not 0 <= lo <= hi <= top:  # NaN fails too
        raise BadParams(f"cannot save {raw_path}: values {lo}..{hi} do not "
                        f"fit the {encoding} encoding (0..{top})")
    if data.dtype.kind == "f" and (data != np.trunc(data)).any():
        raise BadParams(f"cannot save {raw_path}: the {encoding} encoding "
                        f"holds whole numbers, but the data has fractions")


def save_volume(volume: Volume, raw_path: str | Path) -> None:
    """Write the RAW blob and JSON sidecar; load_volume reproduces the volume.

    Data that a u8 or u16 encoding cannot hold exactly (negative, too large
    or not whole), or a raw path ending in .json, raises BadParams before
    anything is written.
    """
    raw_path = Path(raw_path)
    header_path = sidecar_path(raw_path)
    _check_storable(volume, raw_path)
    dtype = volume.header.storage_dtype
    data = np.ascontiguousarray(volume.data, dtype=dtype)
    try:
        raw_path.write_bytes(data)
    except OSError as exc:
        raise IoFailure(f"cannot write volume to {raw_path}: {exc}") from exc
    write_json(header_path, volume.header.to_json_dict())


def sidecar_path(raw_path: str | Path) -> Path:
    """Conventional sidecar location: the raw path with a .json suffix.

    A raw path ending in .json (in any case) would be its own sidecar, the
    header overwriting the blob, so it raises BadParams.
    """
    raw_path = Path(raw_path)
    if raw_path.suffix.lower() == ".json":
        raise BadParams(f"raw volume path {raw_path} ends in .json, "
                        f"the suffix of its sidecar")
    return raw_path.with_suffix(".json")
