"""On-disk cache for spin-resolved block spectra.

Flat little-endian binary per sector (format v4), in three sections:

- a fixed header carrying a build fingerprint, the sector key (L, M, k, z
  and, in its last four bytes, the reflection parity of a k = 0 or pi
  parity half, 0 for a whole sector), a zlib.crc32 of each section below
  and the coupling;
- the head: energies, each state's <A> and <C> (f8 each) and spin labels
  (i2), zero-padded to a multiple of 8 bytes so that the vectors that
  follow are 8-byte aligned;
- the vectors: real eigenvectors (f8, row-major).

load_spectrum reads and checks every section; load_head reads the header
and the head only, so diag-eth never touches a vector byte. A parity half's
file name carries its parity after the z tag, as in
L16_M0_k0_zp1_Pm1_lam3.eig. The fingerprint covers the numerical core's
source, the numpy, scipy and BLAS/LAPACK versions and the LAPACK eigh
driver, since eigenvector signs depend on the library: eigh is
numpy.linalg.eigh, ?syevd on numpy's OpenBLAS, and scipy serves only
scipy.sparse. A missing, stale, truncated or corrupted file raises
CacheMismatch naming the file, and so the sector: spectrum rebuilds it, the
analyses stop. A load copies the head's arrays and views vectors in the
file's bytes. Each writer writes its own temporary file and renames it over
the entry, so concurrent writers of one sector do not collide.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import scipy

from .basis import SectorLabel
from .spectral import EIGH_DRIVER, SpinResolvedSpectrum

__all__ = [
    "CacheMismatch",
    "HEADER_SIZE",
    "build_fingerprint",
    "cache_dir",
    "spectrum_path",
    "save_spectrum",
    "load_spectrum",
    "load_head",
    "sections",
]

_MAGIC = b"SU2ETHEV"
_VERSION = 4
# magic, version, build id, L, M, k_index, z2 flag, dim, head crc32, vectors crc32, lambda,
# reflection parity flag (0 for a whole sector)
_HEADER = struct.Struct("<8sIQiiiiiIIdi")
HEADER_SIZE = _HEADER.size

# the head's arrays in file order, one entry per state each
_HEAD = (("energies", "<f8"), ("A", "<f8"), ("C", "<f8"), ("spins", "<i2"))

_ENV_VAR = "SU2ETH_CACHE_DIR"


class CacheMismatch(Exception):
    """Cached file exists but does not match the requested build or sector."""


def _numerical_stack() -> str:
    """numpy and scipy versions, the BLAS/LAPACK each was built with, and the LAPACK eigh driver."""
    parts = [f"numpy {np.__version__}", f"scipy {scipy.__version__}", f"eigh {EIGH_DRIVER}"]
    for module in (np, scipy):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            parts += [f"{lib} {deps[lib]['name']} {deps[lib]['version']}" for lib in ("blas", "lapack")]
        except (TypeError, KeyError):  # an older build without the dict form
            parts.append(f"{module.__name__} build unknown")
    return "; ".join(parts)


def _source_digest() -> int:
    here = Path(__file__).parent
    sha = hashlib.sha256(_numerical_stack().encode())
    for name in ("basis.py", "operators.py", "spectral.py", "cache.py"):
        sha.update((here / name).read_bytes())
    return int.from_bytes(sha.digest()[:8], "little")


_FINGERPRINT = _source_digest()


def build_fingerprint() -> int:
    """64-bit digest of the numerical core and stack; stamps every cache file."""
    return _FINGERPRINT


def cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Resolve the cache directory: explicit arg, then $SU2ETH_CACHE_DIR."""
    root = explicit if explicit is not None else os.environ.get(_ENV_VAR)
    if root is None:
        raise ValueError(f"no cache directory given and {_ENV_VAR} is unset")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _tag(parity: int | None) -> str:
    if parity is None:
        return "na"
    return "p1" if parity == 1 else "m1"


def _key(sector: SectorLabel) -> tuple[int, int, int, int, int]:
    """The header's sector key; 0 stands for a missing z2 parity or reflection parity."""
    return (sector.L, sector.M, sector.k_index, sector.z2_parity or 0, sector.parity or 0)


def _head_size(dim: int) -> int:
    """Bytes of the head of a file of dim states, padded to a multiple of 8."""
    return (26 * dim + 7) // 8 * 8


def spectrum_path(root: Path, sector: SectorLabel, lam: float) -> Path:
    parity = "" if sector.parity is None else f"_P{_tag(sector.parity)}"
    name = (
        f"L{sector.L}_M{sector.M}_k{sector.k_index}"
        f"_z{_tag(sector.z2_parity)}{parity}_lam{lam:.17g}.eig"
    )
    return root / name


def save_spectrum(root: Path, lam: float, spectrum: SpinResolvedSpectrum) -> Path:
    """Write one spectrum, which must carry its A and C diagonals, over its cache entry."""
    if spectrum.diagonals is None:
        raise ValueError(f"the spectrum of {spectrum.sector} is saved with its A and C diagonals")
    sector = spectrum.sector
    path = spectrum_path(root, sector, lam)
    L, M, k, z2, parity = _key(sector)
    arrays = {"energies": spectrum.energies, "spins": spectrum.spins, **spectrum.diagonals}
    head = b"".join(np.asarray(arrays[name], dtype=dtype).tobytes() for name, dtype in _HEAD)
    head += bytes(_head_size(spectrum.dim) - len(head))
    vectors = np.ascontiguousarray(spectrum.vectors, dtype="<f8")
    header = _HEADER.pack(_MAGIC, _VERSION, build_fingerprint(), L, M, k, z2, spectrum.dim,
                          zlib.crc32(head), zlib.crc32(vectors), lam, parity)
    fd, tmp = tempfile.mkstemp(dir=root, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(head)
            fh.write(vectors.data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_spectrum(root: Path, sector: SectorLabel, lam: float) -> SpinResolvedSpectrum:
    """Read one cached spectrum; CacheMismatch if absent, incompatible or corrupted.

    Each section is checked against its crc32 in the header. The head's
    arrays are copies, vectors a read-only view of the file's bytes, so only
    vectors keep them alive.
    """
    return _read(root, sector, lam, vectors=True)


def load_head(root: Path, sector: SectorLabel, lam: float) -> SpinResolvedSpectrum:
    """One cached spectrum's energies, spins and A and C diagonals, without its vectors (None).

    Reads the header and the head only and checks the head's crc32, so a
    fault in the vectors is not seen; every other check is load_spectrum's.
    """
    return _read(root, sector, lam, vectors=False)


def _read(root: Path, sector: SectorLabel, lam: float, vectors: bool) -> SpinResolvedSpectrum:
    path = spectrum_path(root, sector, lam)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise CacheMismatch(f"no cached spectrum at {path}") from None
    with fh:
        header = fh.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise CacheMismatch(f"{path} is truncated")
        (magic, version, fingerprint, L, M, k, z2, dim, head_crc, vectors_crc, file_lam,
         parity) = _HEADER.unpack(header)
        if magic != _MAGIC or version != _VERSION:
            raise CacheMismatch(f"{path} has wrong magic or version")
        if fingerprint != build_fingerprint():
            raise CacheMismatch(f"{path} was written by a different build")
        if (L, M, k, z2, parity) != _key(sector) or file_lam != lam:
            raise CacheMismatch(f"{path} holds a different sector or coupling")
        head = _head_size(dim)
        expect = _HEADER.size + head + 8 * dim * dim
        size = os.fstat(fh.fileno()).st_size
        if dim < 0 or size != expect:
            raise CacheMismatch(f"{path} has {size} bytes, expected {expect}")
        raw = fh.read() if vectors else fh.read(head)
    if zlib.crc32(memoryview(raw)[:head]) != head_crc:
        raise CacheMismatch(f"{path} fails its head checksum")
    if vectors and zlib.crc32(memoryview(raw)[head:]) != vectors_crc:
        raise CacheMismatch(f"{path} fails its vectors checksum")
    arrays, offset = {}, 0
    for name, dtype in _HEAD:
        arrays[name] = np.frombuffer(raw, dtype=dtype, count=dim, offset=offset).copy()
        offset += arrays[name].nbytes
    view = (np.frombuffer(raw, dtype="<f8", count=dim * dim, offset=head).reshape(dim, dim)
            if vectors else None)
    return SpinResolvedSpectrum(sector, arrays.pop("energies"), view, arrays.pop("spins"), arrays)


def sections(data: bytes) -> dict[str, bytes]:
    """The head and the vectors of a cache file's bytes, split where its header's dim puts them;
    both are empty in a file too short for a header."""
    dim = _HEADER.unpack_from(data)[7] if len(data) >= _HEADER.size else 0
    end = _HEADER.size + _head_size(dim)
    return {"head": data[_HEADER.size:end], "vectors": data[end:]}
