"""Eigensystem cache files: roundtrips, key checks, corruption handling."""

from __future__ import annotations

import multiprocessing
import struct
from pathlib import Path

import numpy as np
import pytest

from su2eth.basis import SectorLabel, enumerate_sector_basis
from su2eth.cache import (
    CacheMismatch,
    build_fingerprint,
    cache_dir,
    load_spectrum,
    save_spectrum,
    spectrum_path,
)
from su2eth.operators import CouplingSpec, build_hamiltonian, build_total_spin_squared
from su2eth.spectral import SpinResolvedSpectrum, diagonalize_block, resolve_spins


def _make_spectrum(lab, lam):
    basis = enumerate_sector_basis(lab)
    H = build_hamiltonian(basis, CouplingSpec(lam))
    return resolve_spins(*diagonalize_block(H), build_total_spin_squared(basis))


@pytest.mark.parametrize("lam", [0.0, 3.0, 0.7])
def test_roundtrip_preserves_everything(tmp_path, lam):
    # 0.7 is not dyadic: the coupling must survive the header exactly
    lab = SectorLabel(8, 0, 1, -1)
    spec = _make_spectrum(lab, lam)
    save_spectrum(tmp_path, lam, spec)
    back = load_spectrum(tmp_path, lab, lam)
    assert back.sector == lab
    assert np.array_equal(back.energies, spec.energies)
    assert np.array_equal(back.vectors, spec.vectors)
    assert np.array_equal(back.spins, spec.spins)
    assert np.array_equal(back.spin_residuals, spec.spin_residuals)


def test_path_naming_scheme(tmp_path):
    p = spectrum_path(tmp_path, SectorLabel(8, 0, -2, 1), 3.0)
    assert p.name == "L8_M0_k-2_zp1_lam3.eig"
    p = spectrum_path(tmp_path, SectorLabel(8, 1, 2), 0.5)
    assert p.name == "L8_M1_k2_zna_lam0.5.eig"


def test_missing_file_raises(tmp_path):
    with pytest.raises(CacheMismatch, match="no cached spectrum"):
        load_spectrum(tmp_path, SectorLabel(6, 0, 1, 1), 3.0)


def test_wrong_coupling_is_a_miss(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    with pytest.raises(CacheMismatch):
        load_spectrum(tmp_path, lab, 2.0)


def test_truncated_file_rejected(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CacheMismatch, match="bytes|truncated"):
        load_spectrum(tmp_path, lab, 3.0)


def test_header_only_file_rejected(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(CacheMismatch, match="truncated"):
        load_spectrum(tmp_path, lab, 3.0)


def test_foreign_magic_rejected(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    data = bytearray(path.read_bytes())
    data[:8] = b"NOTMINE!"
    path.write_bytes(bytes(data))
    with pytest.raises(CacheMismatch, match="magic or version"):
        load_spectrum(tmp_path, lab, 3.0)


def test_stale_build_fingerprint_rejected(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    data = bytearray(path.read_bytes())
    # fingerprint sits after the 8-byte magic and 4-byte version
    fp = struct.unpack_from("<Q", data, 12)[0]
    struct.pack_into("<Q", data, 12, fp ^ 0xDEADBEEF)
    path.write_bytes(bytes(data))
    with pytest.raises(CacheMismatch, match="different build"):
        load_spectrum(tmp_path, lab, 3.0)


def test_renamed_file_fails_key_check(tmp_path):
    # a file moved onto the wrong sector name must not silently load
    lab = SectorLabel(6, 0, 1, 1)
    other = SectorLabel(6, 0, 2, 1)
    src = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    dst = spectrum_path(tmp_path, other, 3.0)
    dst.write_bytes(src.read_bytes())
    with pytest.raises(CacheMismatch, match="different sector or coupling"):
        load_spectrum(tmp_path, other, 3.0)


def test_build_fingerprint_is_stable():
    assert build_fingerprint() == build_fingerprint()
    assert isinstance(build_fingerprint(), int)


def test_cache_dir_resolution(tmp_path, monkeypatch):
    explicit = cache_dir(tmp_path / "sub")
    assert explicit.is_dir()
    monkeypatch.setenv("SU2ETH_CACHE_DIR", str(tmp_path / "env"))
    assert cache_dir() == tmp_path / "env"
    monkeypatch.delenv("SU2ETH_CACHE_DIR")
    with pytest.raises(ValueError, match="SU2ETH_CACHE_DIR"):
        cache_dir()


def _synthetic_spectrum():
    # built directly: the writers race on the file, not on the eigensolver
    dim = 256
    return SpinResolvedSpectrum(SectorLabel(8, 0, 1, 1), np.arange(dim, dtype=np.float64),
                                np.eye(dim, dtype=np.complex128),
                                np.zeros(dim, dtype=np.int16), np.zeros(dim))


def _save_repeatedly(root, start, times):
    spectrum = _synthetic_spectrum()
    start.wait()
    for _ in range(times):
        save_spectrum(Path(root), 3.0, spectrum)


def test_concurrent_writers_do_not_collide(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    start = ctx.Barrier(2, timeout=60)
    writers = [ctx.Process(target=_save_repeatedly, args=(str(tmp_path), start, 30))
               for _ in range(2)]
    for w in writers:
        w.start()
    try:
        for w in writers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in writers)
    finally:
        for w in writers:
            if w.is_alive():
                w.kill()
                w.join(timeout=10)
    assert [w.exitcode for w in writers] == [0, 0]
    assert not list(tmp_path.glob("*.tmp"))
    expected = _synthetic_spectrum()
    back = load_spectrum(tmp_path, expected.sector, 3.0)
    assert np.array_equal(back.energies, expected.energies)
    assert np.array_equal(back.vectors, expected.vectors)
