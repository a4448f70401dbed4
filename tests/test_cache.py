"""Eigensystem cache files: roundtrips, key checks, corruption handling."""

from __future__ import annotations

import multiprocessing
import struct
import zlib
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from su2eth import cache
from su2eth.basis import SectorLabel, enumerate_sector_basis
from su2eth.cache import (
    CacheMismatch,
    build_fingerprint,
    cache_dir,
    load_spectrum,
    save_spectrum,
    spectrum_path,
)
from su2eth.operators import CouplingSpec, build_hamiltonian, build_spin_ladder
from su2eth.pipeline import ensure_spectrum
from su2eth.spectral import SpinResolvedSpectrum, diagonalize_block, resolve_spins


def _make_spectrum(lab, lam):
    basis = enumerate_sector_basis(lab)
    H = build_hamiltonian(basis, CouplingSpec(lam))
    return resolve_spins(*diagonalize_block(H), build_spin_ladder(basis, 1))


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


def _as_v2(data: bytes, dim: int) -> bytes:
    # the layout before v3: version 2, and a spin residual (f8) per state after the energies
    head = cache._HEADER.size + 8 * dim
    old = bytearray(data[:head] + bytes(8 * dim) + data[head:])
    struct.pack_into("<I", old, 8, 2)
    struct.pack_into("<I", old, 40, zlib.crc32(old[cache._HEADER.size:]))
    return bytes(old)


def test_foreign_magic_rejected(tmp_path):
    lab = SectorLabel(8, 0, 1, -1)
    spec = _make_spectrum(lab, 3.0)
    path = save_spectrum(tmp_path, 3.0, spec)
    good = path.read_bytes()
    data = bytearray(good)
    data[:8] = b"NOTMINE!"
    path.write_bytes(bytes(data))
    with pytest.raises(CacheMismatch, match="magic or version"):
        load_spectrum(tmp_path, lab, 3.0)
    # a file of the v2 layout, with this build's fingerprint and a valid checksum
    path.write_bytes(_as_v2(good, spec.dim))
    with pytest.raises(CacheMismatch, match=f"{path.name} has wrong magic or version"):
        load_spectrum(tmp_path, lab, 3.0)
    with pytest.warns(UserWarning, match=f"rebuilding stale cache entry: {path}"):
        _, hit = ensure_spectrum(lab, 3.0, tmp_path)
    assert not hit
    assert path.read_bytes() == good


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


def test_parity_halves_are_named_and_keyed_apart(tmp_path):
    assert spectrum_path(tmp_path, SectorLabel(16, 0, 0, 1, 1), 3.0).name == "L16_M0_k0_zp1_Pp1_lam3.eig"
    assert spectrum_path(tmp_path, SectorLabel(16, 0, 8, -1, -1), 3.0).name == "L16_M0_k8_zm1_Pm1_lam3.eig"
    assert spectrum_path(tmp_path, SectorLabel(8, 1, 4, None, 1), 0.5).name == "L8_M1_k4_zna_Pp1_lam0.5.eig"
    # the parity sits in the header's last four bytes, 0 for a whole sector
    for lab, flag in ((SectorLabel(10, 0, 0, 1, -1), -1), (SectorLabel(10, 0, 5, -1, 1), 1),
                      (SectorLabel(10, 0, 0, 1), 0), (SectorLabel(10, 0, 2, 1), 0)):
        path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
        assert struct.unpack_from("<i", path.read_bytes(), 52)[0] == flag, lab
        assert load_spectrum(tmp_path, lab, 3.0).sector == lab


def test_half_copied_over_its_sibling_fails_key_check(tmp_path):
    lab = SectorLabel(10, 0, 0, 1, 1)
    sibling = replace(lab, parity=-1)
    src = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    spectrum_path(tmp_path, sibling, 3.0).write_bytes(src.read_bytes())
    with pytest.raises(CacheMismatch, match="holds a different sector"):
        load_spectrum(tmp_path, sibling, 3.0)


def test_build_fingerprint_is_stable():
    assert build_fingerprint() == build_fingerprint()
    assert isinstance(build_fingerprint(), int)


def test_build_fingerprint_covers_the_numerical_stack():
    # eigenvector signs depend on the library, not only on this source
    stack = cache._numerical_stack()
    for part in (f"numpy {np.__version__}", f"scipy {scipy.__version__}", "eigh evd", "blas", "lapack"):
        assert part in stack


def test_vectors_are_stored_as_float64(tmp_path):
    lab = SectorLabel(8, 0, 1, -1)
    spec = _make_spectrum(lab, 3.0)
    path = save_spectrum(tmp_path, 3.0, spec)
    assert path.stat().st_size == 56 + spec.dim * (8 + 8 * spec.dim + 2)
    back = load_spectrum(tmp_path, lab, 3.0)
    assert back.vectors.dtype == np.float64 and back.spins.dtype == np.int16


def test_flipped_payload_bit_fails_the_checksum(tmp_path):
    lab = SectorLabel(8, 0, 1, -1)
    path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    data = bytearray(path.read_bytes())
    data[-1] ^= 0x01  # the last spin label
    path.write_bytes(bytes(data))
    with pytest.raises(CacheMismatch, match=f"{path.name} fails its payload checksum"):
        load_spectrum(tmp_path, lab, 3.0)


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_every_flipped_header_bit_fails_the_load_and_names_the_file(tmp_path, lam):
    lab = SectorLabel(6, 0, 1, 1)
    spec = _make_spectrum(lab, lam)
    path = save_spectrum(tmp_path, lam, spec)
    data = path.read_bytes()
    assert cache._HEADER.size == 56
    # lambda's f8 sits at bytes 44-51; its sign bit turns 0.0 into -0.0, which
    # equals 0.0 and is the same coupling, so that one flip loads at lam = 0
    sign_of_lam = 51 * 8 + 7
    passed = []
    for bit in range(8 * cache._HEADER.size):
        flipped = bytearray(data)
        flipped[bit // 8] ^= 1 << (bit % 8)
        path.write_bytes(bytes(flipped))
        try:
            back = load_spectrum(tmp_path, lab, lam)
        except CacheMismatch as exc:
            assert path.name in str(exc), (bit, exc)
            continue
        passed.append(bit)
        assert np.array_equal(back.vectors, spec.vectors)
    assert passed == ([sign_of_lam] if lam == 0.0 else [])


# the header's fields in order, each with its struct code
_HEADER_FIELDS = {"magic": "8s", "version": "I", "fingerprint": "Q", "L": "i", "M": "i", "k": "i",
                  "z": "i", "dim": "i", "crc": "I", "lambda": "d", "parity": "i"}
# deterministic examples and no example database, so the suite stays repeatable and writes nothing
_EXAMPLES = settings(derandomize=True, database=None, deadline=None)


def _assert_corruption_fails(tmp_path, lab, lam, path, stored, corrupted: bytes) -> None:
    # a header equal to the stored one field by field (-0.0 == 0.0) is the same key
    assume(cache._HEADER.unpack_from(corrupted) != stored)
    path.write_bytes(corrupted)
    with pytest.raises(CacheMismatch) as exc:
        load_spectrum(tmp_path, lab, lam)
    assert path.name in str(exc.value), exc.value


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_corrupted_headers_fail_the_load_and_name_the_file(tmp_path, lam):
    # beyond single bits: several flipped bits anywhere, or a whole field
    # overwritten with any value of its width
    assert "<" + "".join(_HEADER_FIELDS.values()) == cache._HEADER.format
    lab = SectorLabel(6, 0, 1, 1)
    path = save_spectrum(tmp_path, lam, _make_spectrum(lab, lam))
    data = path.read_bytes()
    stored = cache._HEADER.unpack_from(data)
    codes = list(_HEADER_FIELDS.values())
    spans = {name: (struct.calcsize("<" + "".join(codes[:i])), struct.calcsize("<" + code))
             for i, (name, code) in enumerate(_HEADER_FIELDS.items())}

    @_EXAMPLES
    @given(st.sets(st.integers(0, 8 * cache._HEADER.size - 1), min_size=2, max_size=8))
    def flipped_bits(bits):
        corrupted = bytearray(data)
        for bit in bits:
            corrupted[bit // 8] ^= 1 << (bit % 8)
        _assert_corruption_fails(tmp_path, lab, lam, path, stored, bytes(corrupted))

    @_EXAMPLES
    @given(st.sampled_from(sorted(spans)).flatmap(
        lambda name: st.tuples(st.just(name), st.binary(min_size=spans[name][1],
                                                        max_size=spans[name][1]))))
    def overwritten_field(field):
        name, value = field
        offset, width = spans[name]
        corrupted = data[:offset] + value + data[offset + width:]
        _assert_corruption_fails(tmp_path, lab, lam, path, stored, corrupted)

    # hypothesis caches the constants it reads from local modules in its home directory
    set_hypothesis_home_dir(tmp_path / "hypothesis")
    try:
        flipped_bits()
        overwritten_field()
    finally:
        set_hypothesis_home_dir(None)


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
                                np.eye(dim), np.zeros(dim, dtype=np.int16))


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
