"""On-disk cache for spin-resolved block spectra.

Flat little-endian binary per sector (format v3): a fixed header carrying a
build fingerprint, the sector key (L, M, k, z and, in its last four bytes, the
reflection parity of a k = 0 or pi parity half, 0 for a whole sector) and a
zlib.crc32 of the payload, followed by energies (f8), real eigenvectors (f8,
row-major) and spin labels (i2). A parity half's file name carries its parity
after the z tag, as in L16_M0_k0_zp1_Pm1_lam3.eig. The fingerprint covers the
numerical core's source, the numpy, scipy and BLAS/LAPACK versions and the
LAPACK eigh driver, since eigenvector signs depend on the library. A missing,
stale, truncated or corrupted file raises CacheMismatch naming the file, and
so the sector: spectrum rebuilds it, the analyses stop. A load copies energies
and spins and views vectors in the file's bytes. Each writer writes its own
temporary file and renames it over the entry, so concurrent writers of one
sector do not collide.
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
]

_MAGIC = b"SU2ETHEV"
_VERSION = 3
# magic, version, build id, L, M, k_index, z2 flag, dim, payload crc32, lambda,
# reflection parity flag (0 for a whole sector)
_HEADER = struct.Struct("<8sIQiiiiiIdi")
HEADER_SIZE = _HEADER.size

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


def spectrum_path(root: Path, sector: SectorLabel, lam: float) -> Path:
    parity = "" if sector.parity is None else f"_P{_tag(sector.parity)}"
    name = (
        f"L{sector.L}_M{sector.M}_k{sector.k_index}"
        f"_z{_tag(sector.z2_parity)}{parity}_lam{lam:.17g}.eig"
    )
    return root / name


def save_spectrum(root: Path, lam: float, spectrum: SpinResolvedSpectrum) -> Path:
    sector = spectrum.sector
    path = spectrum_path(root, sector, lam)
    L, M, k, z2, parity = _key(sector)
    payload = [np.ascontiguousarray(spectrum.energies, dtype="<f8"),
               np.ascontiguousarray(spectrum.vectors, dtype="<f8"),
               np.ascontiguousarray(spectrum.spins, dtype="<i2")]
    crc = 0
    for part in payload:
        crc = zlib.crc32(part, crc)
    header = _HEADER.pack(
        _MAGIC, _VERSION, build_fingerprint(), L, M, k, z2, spectrum.dim, crc, lam, parity,
    )
    fd, tmp = tempfile.mkstemp(dir=root, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            for part in payload:
                fh.write(part.data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_spectrum(root: Path, sector: SectorLabel, lam: float) -> SpinResolvedSpectrum:
    """Read one cached spectrum; CacheMismatch if absent, incompatible or corrupted.

    Checked against the header's crc32 first. energies and spins are copies,
    vectors a read-only view of the file's bytes, so only vectors keep it alive.
    """
    path = spectrum_path(root, sector, lam)
    if not path.exists():
        raise CacheMismatch(f"no cached spectrum at {path}")
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise CacheMismatch(f"{path} is truncated")
    magic, version, fingerprint, L, M, k, z2, dim, crc, file_lam, parity = _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _VERSION:
        raise CacheMismatch(f"{path} has wrong magic or version")
    if fingerprint != build_fingerprint():
        raise CacheMismatch(f"{path} was written by a different build")
    if (L, M, k, z2, parity) != _key(sector) or file_lam != lam:
        raise CacheMismatch(f"{path} holds a different sector or coupling")
    expect = _HEADER.size + dim * (8 + 8 * dim + 2)
    if len(raw) != expect:
        raise CacheMismatch(f"{path} has {len(raw)} bytes, expected {expect}")
    if zlib.crc32(memoryview(raw)[_HEADER.size:]) != crc:
        raise CacheMismatch(f"{path} fails its payload checksum")
    off = _HEADER.size
    energies = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).copy()
    vectors = np.frombuffer(raw, dtype="<f8", count=dim * dim, offset=off + 8 * dim)
    spins = np.frombuffer(raw, dtype="<i2", count=dim, offset=off + (8 + 8 * dim) * dim).copy()
    return SpinResolvedSpectrum(sector, energies, vectors.reshape(dim, dim), spins)
