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
    HEADER_SIZE,
    CacheMismatch,
    build_fingerprint,
    cache_dir,
    load_head,
    load_spectrum,
    save_spectrum,
    spectrum_path,
)
from su2eth.operators import CouplingSpec, build_hamiltonian, build_observable, build_spin_ladder
from su2eth.pipeline import ensure_spectrum
from su2eth.spectral import SpinResolvedSpectrum, diagonalize_block, expectations, resolve_spins


def _make_spectrum(lab, lam):
    basis = enumerate_sector_basis(lab)
    H = build_hamiltonian(basis, CouplingSpec(lam))
    spec = resolve_spins(*diagonalize_block(H), build_spin_ladder(basis, 1))
    return replace(spec, diagonals={tag: expectations(build_observable(basis, tag), spec.vectors)
                                    for tag in ("A", "C")})


def _head_size(dim: int) -> int:
    # energies, A and C (f8) and spins (i2), zero-padded to a multiple of 8 bytes
    return (26 * dim + 7) // 8 * 8


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
    head = load_head(tmp_path, lab, lam)
    assert head.vectors is None
    for read in (back, head):
        assert list(read.diagonals) == ["A", "C"]
        for tag in ("A", "C"):
            assert read.diagonals[tag].tobytes() == spec.diagonals[tag].tobytes()
        assert read.energies.tobytes() == spec.energies.tobytes()
        assert read.spins.tobytes() == spec.spins.tobytes()


def test_a_spectrum_without_its_diagonals_is_not_saved(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    with pytest.raises(ValueError, match="saved with its A and C diagonals"):
        save_spectrum(tmp_path, 3.0, replace(_make_spectrum(lab, 3.0), diagonals=None))
    assert not list(tmp_path.iterdir())


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
    # the head reader checks the file's size too, though it reads no vector byte
    path.write_bytes(data[:-8])
    for read in (load_spectrum, load_head):
        with pytest.raises(CacheMismatch, match="bytes, expected"):
            read(tmp_path, lab, 3.0)


def test_header_only_file_rejected(tmp_path):
    lab = SectorLabel(6, 0, 1, 1)
    path = save_spectrum(tmp_path, 3.0, _make_spectrum(lab, 3.0))
    path.write_bytes(path.read_bytes()[:20])
    with pytest.raises(CacheMismatch, match="truncated"):
        load_spectrum(tmp_path, lab, 3.0)


def _as_v3(data: bytes, dim: int) -> bytes:
    # the layout before v4: version 3, one crc32 over energies, vectors and spins, no diagonals
    energies = data[HEADER_SIZE:HEADER_SIZE + 8 * dim]
    spins = data[HEADER_SIZE + 24 * dim:HEADER_SIZE + 26 * dim]
    payload = energies + data[HEADER_SIZE + _head_size(dim):] + spins
    header = bytearray(data[:44] + data[48:HEADER_SIZE])
    struct.pack_into("<I", header, 8, 3)
    struct.pack_into("<I", header, 40, zlib.crc32(payload))
    return bytes(header) + payload


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
    # a file of the v3 layout, with this build's fingerprint and a valid checksum
    path.write_bytes(_as_v3(good, spec.dim))
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
        assert struct.unpack_from("<i", path.read_bytes(), HEADER_SIZE - 4)[0] == flag, lab
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
    assert path.stat().st_size == HEADER_SIZE + _head_size(spec.dim) + 8 * spec.dim ** 2
    back = load_spectrum(tmp_path, lab, 3.0)
    assert back.vectors.dtype == np.float64 and back.spins.dtype == np.int16
    assert all(d.dtype == np.float64 for d in back.diagonals.values())
    # the vectors view starts 8-byte aligned, so GEMMs take it as it is
    assert back.vectors.flags.aligned and back.vectors.flags.c_contiguous


def test_flipped_payload_bit_fails_the_checksum(tmp_path):
    # each section has its own checksum; the head reader sees no fault in the vectors
    lab = SectorLabel(8, 0, 1, -1)
    spec = _make_spectrum(lab, 3.0)
    path = save_spectrum(tmp_path, 3.0, spec)
    good = path.read_bytes()
    dim = spec.dim
    head = {"energy": HEADER_SIZE, "A": HEADER_SIZE + 8 * dim, "C": HEADER_SIZE + 16 * dim,
            "spin": HEADER_SIZE + 24 * dim, "padding": HEADER_SIZE + _head_size(dim) - 1}
    assert _head_size(dim) > 26 * dim  # this block's head is padded
    for where, offset in {**head, "vector": len(good) - 1}.items():
        data = bytearray(good)
        data[offset] ^= 0x01
        path.write_bytes(bytes(data))
        section = "vectors" if where == "vector" else "head"
        with pytest.raises(CacheMismatch, match=f"{path.name} fails its {section} checksum"):
            load_spectrum(tmp_path, lab, 3.0)
        if where != "vector":
            with pytest.raises(CacheMismatch, match=f"{path.name} fails its head checksum"):
                load_head(tmp_path, lab, 3.0)
    assert load_head(tmp_path, lab, 3.0).spins.tobytes() == spec.spins.tobytes()


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_every_flipped_header_bit_fails_the_load_and_names_the_file(tmp_path, lam):
    lab = SectorLabel(6, 0, 1, 1)
    spec = _make_spectrum(lab, lam)
    path = save_spectrum(tmp_path, lam, spec)
    data = path.read_bytes()
    assert HEADER_SIZE == 60
    # lambda's f8 sits at bytes 48-55; its sign bit turns 0.0 into -0.0, which
    # equals 0.0 and is the same coupling, so that one flip loads at lam = 0
    sign_of_lam = 55 * 8 + 7
    # the head reader checks no vector byte, so neither does it check their crc32, at bytes 44-47
    vectors_crc = list(range(44 * 8, 48 * 8))
    for read in (load_spectrum, load_head):
        passed = []
        for bit in range(8 * HEADER_SIZE):
            flipped = bytearray(data)
            flipped[bit // 8] ^= 1 << (bit % 8)
            path.write_bytes(bytes(flipped))
            try:
                back = read(tmp_path, lab, lam)
            except CacheMismatch as exc:
                assert path.name in str(exc), (bit, exc)
                continue
            passed.append(bit)
            assert np.array_equal(back.vectors if read is load_spectrum else back.spins,
                                  spec.vectors if read is load_spectrum else spec.spins)
        unread = vectors_crc if read is load_head else []
        assert passed == unread + ([sign_of_lam] if lam == 0.0 else []), read


# the header's fields in order, each with its struct code
_HEADER_FIELDS = {"magic": "8s", "version": "I", "fingerprint": "Q", "L": "i", "M": "i", "k": "i",
                  "z": "i", "dim": "i", "head_crc": "I", "vectors_crc": "I", "lambda": "d",
                  "parity": "i"}
# deterministic examples and no example database, so the suite stays repeatable and writes nothing
_EXAMPLES = settings(derandomize=True, database=None, deadline=None)


def _assert_corruption_fails(tmp_path, lab, lam, path, stored, corrupted: bytes) -> None:
    # a header equal to the stored one field by field (-0.0 == 0.0) is the same key
    fields = cache._HEADER.unpack_from(corrupted)
    assume(fields != stored)
    path.write_bytes(corrupted)
    # the head reader checks every field but the vectors' crc32
    unread = list(_HEADER_FIELDS).index("vectors_crc")
    seen = [i for i in range(len(fields)) if i != unread]
    head_read = [fields[i] for i in seen] != [stored[i] for i in seen]
    for read in (load_spectrum, load_head) if head_read else (load_spectrum,):
        with pytest.raises(CacheMismatch) as exc:
            read(tmp_path, lab, lam)
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
                                np.eye(dim), np.zeros(dim, dtype=np.int16),
                                {"A": np.ones(dim), "C": np.zeros(dim)})


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
