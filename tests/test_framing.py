import numpy as np
import pytest

from capradon.forward import SensorGeometry, SinogramSet, save_sinogram
from capradon.framing import atomic_write, pack_samples
from capradon.phantom import VoxelGrid, save_voxels
from capradon.recon import save_layer
from capradon.weights import WeightGrid, save_weight


def test_atomic_write_replaces_the_target_whole(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with atomic_write(path) as fh:
        fh.write(b"new")
        # the target keeps its old bytes until the block ends
        assert path.read_bytes() == b"old"
    assert path.read_bytes() == b"new"
    with atomic_write(tmp_path / "out.txt", "w", encoding="utf-8") as fh:
        fh.write("text\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin",
                                                          "out.txt"]


def test_failed_write_leaves_the_old_bytes_and_no_stray_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"old")
    with pytest.raises(OSError, match="disk full"):
        with atomic_write(path) as fh:
            fh.write(b"half of the new")
            raise OSError("disk full")
    assert path.read_bytes() == b"old"
    assert list(tmp_path.iterdir()) == [path]
    # a first write that fails leaves no file at all
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(tmp_path / "new.bin") as fh:
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == [path]


BAD_SAMPLES = [np.nan, np.inf, -np.inf, 1e39]


@pytest.mark.parametrize("bad", BAD_SAMPLES)
def test_pack_samples_refuses_what_the_loaders_refuse(bad):
    # 1e39 is finite, but past float32's range; its cast does not warn
    with pytest.raises(ValueError, match="not finite as float32"):
        pack_samples(np.array([1.0, bad]))


def _weight(bad):
    grid = WeightGrid(gap=1, dx=0.5, dz=0.5, x_origin=0.0, z_origin=0.0,
                      values=np.array([[1.0, 0.5], [0.25, -1.0]]))
    grid.values[0, 1] = bad
    return lambda path: save_weight(grid, path)


def _voxels(bad):
    grid = VoxelGrid(values=np.ones((2, 2, 2)), spacing=(1, 1, 1),
                     origin=(0, 0, 0))
    grid.values[1, 0, 1] = bad
    return lambda path: save_voxels(grid, path)


def _sinogram(bad):
    geom = SensorGeometry(n=4, n_angles=3, gaps=(1, 2))
    sino = SinogramSet(geometry=geom, data={
        k: np.zeros((3, geom.detector_count(k))) for k in geom.gaps})
    sino.data[2][1, 3] = bad
    return lambda path: save_sinogram(sino, path)


def _layer(bad):
    return lambda path: save_layer(np.full((2, 2), bad), 1, 2.5, path)


@pytest.mark.parametrize("bad", BAD_SAMPLES)
@pytest.mark.parametrize("saver", [_weight, _voxels, _sinogram, _layer])
def test_savers_refuse_samples_that_are_not_finite_as_f4(tmp_path, saver,
                                                         bad):
    kept = tmp_path / "kept"
    kept.write_bytes(b"kept")
    save = saver(bad)
    for target in (tmp_path / "new", kept):
        with pytest.raises(ValueError):
            save(target)
    assert list(tmp_path.iterdir()) == [kept]
    assert kept.read_bytes() == b"kept"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_voxel_grid_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        VoxelGrid(values=np.full((1, 1, 1), bad), spacing=(1, 1, 1),
                  origin=(0, 0, 0))
