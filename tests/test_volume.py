"""Volume container and RAW+JSON sidecar round trips."""

import json
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from drt import (
    BadHeader,
    BadParams,
    connected_components,
    IoFailure,
    SizeMismatch,
    Volume,
    VolumeHeader,
    load_volume,
    save_volume,
    sidecar_path,
)
from drt.volume import volume_writer


def make_volume(dims=(4, 3, 2), value_kind="grayscale", encoding="f32",
                voxel_size=1.5):
    nx, ny, nz = dims
    header = VolumeHeader(dims=dims, voxel_size_um=voxel_size,
                          value_kind=value_kind, element_encoding=encoding)
    data = np.arange(nx * ny * nz, dtype=np.float64)
    return Volume(header=header, data=data)


class TestVolumeHeader:
    def test_valid_header(self):
        h = VolumeHeader(dims=(4, 3, 2), voxel_size_um=2.0)
        assert h.n_elements == 24
        assert h.storage_dtype == np.dtype("<f4")

    def test_rejects_nonpositive_dims(self):
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(0, 3, 2), voxel_size_um=1.0)
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(4, -1, 2), voxel_size_um=1.0)

    def test_rejects_nonpositive_voxel_size(self):
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(2, 2, 2), voxel_size_um=0.0)
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(2, 2, 2), voxel_size_um=-1.0)

    def test_rejects_unknown_value_kind(self):
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0, value_kind="velocity")

    def test_rejects_unknown_encoding(self):
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0, element_encoding="f64")

    def test_rejects_unknown_byte_order(self):
        with pytest.raises(BadHeader):
            VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0, byte_order="middle")

    def test_accepts_all_value_kinds(self):
        for kind in ("grayscale", "label", "distance", "throat_size"):
            VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0, value_kind=kind)

    def test_json_round_trip(self):
        h = VolumeHeader(dims=(5, 4, 3), voxel_size_um=0.75, value_kind="label",
                         element_encoding="u16", byte_order="big")
        assert VolumeHeader.from_json_dict(h.to_json_dict()) == h

    def test_from_json_requires_all_keys(self):
        base = VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0).to_json_dict()
        for key in list(base):
            partial = {k: v for k, v in base.items() if k != key}
            with pytest.raises(BadHeader):
                VolumeHeader.from_json_dict(partial)


class TestVolume:
    def test_flat_data_reshapes_to_zyx(self):
        v = make_volume(dims=(4, 3, 2))
        assert v.data.shape == (2, 3, 4)
        assert v.dims == (4, 3, 2)

    def test_flat_order_is_x_fastest(self):
        # flat index x + nx*(y + ny*z) must invert through at()
        v = make_volume(dims=(4, 3, 2))
        nx, ny, nz = v.dims
        for z in range(nz):
            for y in range(ny):
                for x in range(nx):
                    assert v.at(x, y, z) == x + nx * (y + ny * z)

    def test_flat_property_round_trips(self):
        v = make_volume(dims=(3, 2, 2))
        np.testing.assert_array_equal(v.flat, np.arange(12))

    def test_rejects_wrong_flat_length(self):
        header = VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0)
        with pytest.raises(SizeMismatch):
            Volume(header=header, data=np.zeros(7))

    def test_rejects_wrong_3d_shape(self):
        header = VolumeHeader(dims=(4, 3, 2), voxel_size_um=1.0)
        with pytest.raises(SizeMismatch):
            Volume(header=header, data=np.zeros((4, 3, 2)))

    def test_accepts_matching_3d_shape(self):
        header = VolumeHeader(dims=(4, 3, 2), voxel_size_um=1.0)
        v = Volume(header=header, data=np.zeros((2, 3, 4)))
        assert v.data.shape == (2, 3, 4)

    def test_data_is_read_only(self):
        v = make_volume()
        with pytest.raises(ValueError):
            v.data[0, 0, 0] = 99.0

    def test_with_data_keeps_geometry(self):
        v = make_volume(dims=(3, 3, 3))
        w = v.with_data(np.ones((3, 3, 3), dtype=np.uint8), value_kind="label",
                        element_encoding="u8")
        assert w.dims == v.dims
        assert w.voxel_size_um == v.voxel_size_um
        assert w.header.value_kind == "label"
        assert w.header.element_encoding == "u8"


class TestVolumeIo:
    def test_round_trip_f32(self, tmp_path):
        v = make_volume(dims=(4, 3, 2))
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        loaded = load_volume(path)
        assert loaded.header == v.header
        np.testing.assert_allclose(loaded.data, v.data)

    def test_round_trip_u16_big_endian(self, tmp_path):
        header = VolumeHeader(dims=(3, 2, 2), voxel_size_um=1.0,
                              value_kind="label", element_encoding="u16",
                              byte_order="big")
        v = Volume(header=header, data=np.arange(12, dtype=np.uint16))
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        blob = path.read_bytes()
        # big-endian u16: value 1 serializes as 0x00 0x01
        assert blob[2:4] == b"\x00\x01"
        loaded = load_volume(path)
        np.testing.assert_array_equal(loaded.flat, np.arange(12))

    def test_save_casts_to_storage_dtype(self, tmp_path):
        header = VolumeHeader(dims=(2, 2, 1), voxel_size_um=1.0,
                              value_kind="label", element_encoding="u8")
        v = Volume(header=header, data=np.array([0.0, 1.0, 2.0, 3.0]))
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        assert path.read_bytes() == bytes([0, 1, 2, 3])

    def test_sidecar_written_next_to_blob(self, tmp_path):
        v = make_volume()
        path = tmp_path / "sample.raw"
        save_volume(v, path)
        side = sidecar_path(path)
        assert side == tmp_path / "sample.json"
        parsed = json.loads(side.read_text())
        assert parsed == v.header.to_json_dict()

    def test_sidecar_is_stable_text(self, tmp_path):
        # sorted keys, two-space indent, trailing newline
        v = make_volume()
        save_volume(v, tmp_path / "a.raw")
        text = (tmp_path / "a.json").read_text()
        assert text.endswith("\n")
        assert text == json.dumps(v.header.to_json_dict(), indent=2,
                                  sort_keys=True) + "\n"

    def test_load_rejects_truncated_blob(self, tmp_path):
        v = make_volume()
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(SizeMismatch):
            load_volume(path)

    def test_load_rejects_bad_sidecar_json(self, tmp_path):
        v = make_volume()
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        sidecar_path(path).write_text("{not json")
        with pytest.raises(BadHeader):
            load_volume(path)

    @pytest.mark.parametrize("name", ["vol.json", "vol.JSON"])
    def test_raw_path_ending_in_json_is_refused(self, tmp_path, name):
        # the sidecar would overwrite the blob it describes
        with pytest.raises(BadParams, match="ends in .json"):
            save_volume(make_volume(), tmp_path / name)
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(BadParams, match="ends in .json"):
            load_volume(tmp_path / name)

    def test_save_holds_no_second_copy(self, tmp_path):
        # a volume already in its storage type is written from its own array
        v = Volume(VolumeHeader((64, 64, 64), 1.0),
                   np.arange(64 ** 3, dtype=np.float32))
        path = tmp_path / "vol.raw"
        tracemalloc.start()
        try:
            save_volume(v, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.25 * v.data.nbytes
        np.testing.assert_array_equal(load_volume(path).data, v.data)

    @pytest.mark.parametrize("byte_order", ["little", "big"])
    def test_load_holds_one_copy(self, tmp_path, byte_order):
        # the blob is read into the volume's own array, and a foreign byte
        # order is swapped in place: reading it as bytes and copying them
        # into an array held the volume twice
        header = VolumeHeader((64, 64, 64), 1.0, byte_order=byte_order)
        v = Volume(header, np.arange(64 ** 3, dtype=np.float32))
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        tracemalloc.start()
        try:
            loaded = load_volume(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * v.data.nbytes
        assert loaded.data.dtype.isnative
        np.testing.assert_array_equal(loaded.data, v.data)

    @pytest.mark.parametrize("is_dir", [False, True])
    def test_unreadable_raw_raises_io_failure(self, tmp_path, is_dir):
        # a missing raw file, or a directory in its place, is unreadable,
        # whatever size the directory reports
        path = tmp_path / "vol.raw"
        save_volume(make_volume(), path)
        path.unlink()
        if is_dir:
            path.mkdir()
        with pytest.raises(IoFailure, match="cannot read raw file .*"
                           + ("Is a directory" if is_dir else "No such file")):
            load_volume(path)

    def test_threads_write_planes_at_their_offsets(self, tmp_path):
        # 8 threads, more than the cores, write one plane each in a shuffled
        # order under a short switch interval: a seek of one thread and a
        # write of another, interleaved, would put a plane at a wrong offset
        header = VolumeHeader((16, 8, 512), 1.0, byte_order="big")
        data = np.arange(16 * 8 * 512, dtype=np.float32).reshape(512, 8, 16)
        rng = np.random.default_rng(0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(4):
                with volume_writer(header, tmp_path / "vol.raw") as write:
                    with ThreadPoolExecutor(max_workers=8) as pool:
                        done = [pool.submit(write, z, data[z:z + 1])
                                for z in rng.permutation(512).tolist()]
                        for future in done:
                            future.result(timeout=60)
                assert (tmp_path / "vol.raw").read_bytes() == \
                    data.astype(">f4").tobytes()
        finally:
            sys.setswitchinterval(interval)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vol.json", "vol.raw"]

    @pytest.mark.parametrize("z0, shape", [(-1, (1, 8, 16)), (63, (2, 8, 16)),
                                           (0, (1, 8, 17)), (0, (1, 16, 8))])
    def test_planes_outside_the_volume_raise(self, tmp_path, z0, shape):
        header = VolumeHeader((16, 8, 64), 1.0)
        with pytest.raises(SizeMismatch):
            with volume_writer(header, tmp_path / "vol.raw") as write:
                write(z0, np.zeros(shape, dtype=np.float32))
        assert list(tmp_path.iterdir()) == []

    def test_loaded_data_is_native_order(self, tmp_path):
        header = VolumeHeader(dims=(2, 2, 2), voxel_size_um=1.0, byte_order="big")
        v = Volume(header=header, data=np.arange(8, dtype=np.float32))
        path = tmp_path / "vol.raw"
        save_volume(v, path)
        assert path.read_bytes() == np.arange(8, dtype=">f4").tobytes()
        loaded = load_volume(path)
        assert loaded.data.dtype.isnative


class TestStorableRange:
    """u8 and u16 saves hold every value exactly or raise; f32 casts."""

    @pytest.mark.parametrize("encoding, top", [("u8", 255), ("u16", 65535)])
    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_largest_value_round_trips(self, tmp_path, encoding, top, dtype):
        v = make_volume(dims=(3, 1, 1), value_kind="label", encoding=encoding)
        v = v.with_data(np.array([0, 7, top], dtype=dtype))
        save_volume(v, tmp_path / "v.raw")
        np.testing.assert_array_equal(load_volume(tmp_path / "v.raw").flat,
                                      [0, 7, top])

    @pytest.mark.parametrize("encoding, values, match", [
        ("u8", np.array([0, 256]), r"0\.\.256 do not fit the u8"),
        ("u16", np.array([0, 65536]), r"0\.\.65536 do not fit the u16"),
        ("u16", np.array([-1, 3], dtype=np.int16), r"-1\.\.3 do not fit"),
        ("u8", np.array([0.0, np.nan]), "do not fit the u8"),
        ("u16", np.array([0.0, 2.5]), "has fractions"),
    ])
    def test_values_the_encoding_cannot_hold_raise(self, tmp_path, encoding,
                                                   values, match):
        v = make_volume(dims=(2, 1, 1), value_kind="label", encoding=encoding)
        with pytest.raises(BadParams, match=match):
            save_volume(v.with_data(values), tmp_path / "v.raw")
        assert not (tmp_path / "v.raw").exists()

    def test_component_ids_beyond_u16_raise(self, tmp_path):
        # isolated voxels on every second lattice point: 41^3 = 68,921
        # components under 6-connectivity, more than u16 holds
        data = np.ones((81, 81, 81), dtype=np.uint8)
        data[::2, ::2, ::2] = 0
        mask = Volume(VolumeHeader((81, 81, 81), 1.0, "label", "u8"), data == 0)
        comp = connected_components(mask, connectivity=6)
        assert comp.n_components == 41 ** 3
        with pytest.raises(BadParams, match="68921 do not fit the u16"):
            save_volume(comp.volume, tmp_path / "comp.raw")

    def test_float64_distances_still_cast_to_f32(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.uniform(0.0, 1e6, 24) * rng.choice([1.0, -1.0], 24)
        v = make_volume(dims=(4, 3, 2), value_kind="distance").with_data(data)
        save_volume(v, tmp_path / "d.raw")
        assert (tmp_path / "d.raw").read_bytes() == data.astype("<f4").tobytes()
