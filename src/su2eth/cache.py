"""On-disk cache for spin-resolved block spectra.

Flat little-endian binary per sector: a fixed header carrying a build
fingerprint and the sector key, followed by energies, spin labels, spin
residuals and eigenvectors. A fingerprint or key mismatch raises
CacheMismatch so callers rebuild instead of trusting stale files. The
payload itself is not checksummed: only the oracle check audits loaded
eigendata (residuals per block, L <= 10), while the diag-eth and offdiag-eth
analyses read payloads unchecked. Each writer writes its own temporary file
and renames it over the entry, so concurrent writers of one sector do not
collide.
"""

from __future__ import annotations

import hashlib
import os
import struct
import tempfile
from pathlib import Path

import numpy as np

from .basis import SectorLabel
from .spectral import SpinResolvedSpectrum

__all__ = [
    "CacheMismatch",
    "build_fingerprint",
    "cache_dir",
    "spectrum_path",
    "save_spectrum",
    "load_spectrum",
]

_MAGIC = b"SU2ETHEV"
_VERSION = 1
# magic, version, build id, L, M, k_index, z2 flag, dim, pad, lambda
_HEADER = struct.Struct("<8sIQiiiiiid4x")

_ENV_VAR = "SU2ETH_CACHE_DIR"


class CacheMismatch(Exception):
    """Cached file exists but does not match the requested build or sector."""


def _source_digest() -> int:
    here = Path(__file__).parent
    sha = hashlib.sha256()
    for name in ("basis.py", "operators.py", "spectral.py", "cache.py"):
        sha.update((here / name).read_bytes())
    return int.from_bytes(sha.digest()[:8], "little")


_FINGERPRINT: int | None = None


def build_fingerprint() -> int:
    """64-bit digest of the numerical core; stamps every cache file."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        _FINGERPRINT = _source_digest()
    return _FINGERPRINT


def cache_dir(explicit: str | os.PathLike | None = None) -> Path:
    """Resolve the cache directory: explicit arg, then $SU2ETH_CACHE_DIR."""
    root = explicit if explicit is not None else os.environ.get(_ENV_VAR)
    if root is None:
        raise ValueError(f"no cache directory given and {_ENV_VAR} is unset")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _z2_tag(sector: SectorLabel) -> str:
    if sector.z2_parity is None:
        return "na"
    return "p1" if sector.z2_parity == 1 else "m1"


def spectrum_path(root: Path, sector: SectorLabel, lam: float) -> Path:
    name = (
        f"L{sector.L}_M{sector.M}_k{sector.k_index}"
        f"_z{_z2_tag(sector)}_lam{lam:.17g}.eig"
    )
    return root / name


def save_spectrum(root: Path, lam: float, spectrum: SpinResolvedSpectrum) -> Path:
    sector = spectrum.sector
    path = spectrum_path(root, sector, lam)
    z2 = 0 if sector.z2_parity is None else sector.z2_parity
    header = _HEADER.pack(
        _MAGIC, _VERSION, build_fingerprint(),
        sector.L, sector.M, sector.k_index, z2,
        spectrum.dim, 0, lam,
    )
    fd, tmp = tempfile.mkstemp(dir=root, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)
            fh.write(np.ascontiguousarray(spectrum.energies, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(spectrum.spins, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(spectrum.spin_residuals, dtype="<f8").tobytes())
            fh.write(np.ascontiguousarray(spectrum.vectors, dtype="<c16").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return path


def load_spectrum(root: Path, sector: SectorLabel, lam: float) -> SpinResolvedSpectrum:
    """Read one cached spectrum; CacheMismatch if absent or incompatible."""
    path = spectrum_path(root, sector, lam)
    if not path.exists():
        raise CacheMismatch(f"no cached spectrum at {path}")
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise CacheMismatch(f"{path} is truncated")
    magic, version, fingerprint, L, M, k, z2, dim, _, file_lam = _HEADER.unpack_from(raw)
    if magic != _MAGIC or version != _VERSION:
        raise CacheMismatch(f"{path} has wrong magic or version")
    if fingerprint != build_fingerprint():
        raise CacheMismatch(f"{path} was written by a different build")
    key = (sector.L, sector.M, sector.k_index,
           0 if sector.z2_parity is None else sector.z2_parity)
    if (L, M, k, z2) != key or file_lam != lam:
        raise CacheMismatch(f"{path} holds a different sector or coupling")
    expect = _HEADER.size + dim * 8 * 3 + dim * dim * 16
    if len(raw) != expect:
        raise CacheMismatch(f"{path} has {len(raw)} bytes, expected {expect}")
    off = _HEADER.size
    energies = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).copy()
    off += dim * 8
    spins = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).astype(np.int16)
    off += dim * 8
    residuals = np.frombuffer(raw, dtype="<f8", count=dim, offset=off).copy()
    off += dim * 8
    vectors = np.frombuffer(raw, dtype="<c16", count=dim * dim, offset=off).copy()
    return SpinResolvedSpectrum(sector, energies, vectors.reshape(dim, dim), spins, residuals)
