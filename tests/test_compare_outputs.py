"""The output comparator in tools/: equal trees pass, and it names each file's first difference
and counts its differing rows or values."""

from __future__ import annotations

import importlib.util
import json
import shutil
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)

_DIAG = """# config 0123456789abcdef
E_over_L,S,O_diag,L,lambda,observable
-0.40000000000000002,1,0.012345678901234568,10,3,B
-0.39000000000000001,1,-0.023456789012345678,10,3,B
"""
_GAMMA = """# config 0123456789abcdef
omega,Gamma,count,L,S_a,S_b,lambda,observable,flagged
0.025000000000000001,0.63661977236758138,120,10,1,1,3,B,False
0.050000000000000003,nan,4,10,1,1,3,B,True
"""


def _tree(root: Path, diag=_DIAG, gamma=_GAMMA, seconds=0.5, slope=-1.2345678901234567) -> Path:
    root.mkdir()
    (root / "diag.csv").write_text(diag)
    (root / "gamma.csv").write_text(gamma)
    (root / "spectrum_summary.json").write_text(json.dumps(
        {"sizes": {"10": {"blocks": 24, "built": 24, "seconds": seconds}}, "failures": []}))
    (root / "fits.json").write_text(json.dumps({"fits": {"variance[B,1,1]": {"params": [0.5, slope]}}}))
    (root / "manifest.jsonl").write_text(json.dumps({"ts": str(seconds)}) + "\n")
    return root


def _run(tmp_path, capsys, **changes):
    code = compare_outputs.main([str(_tree(tmp_path / "a")), str(_tree(tmp_path / "b", **changes))])
    return code, capsys.readouterr().out


def test_identical_trees_agree(tmp_path, capsys):
    code, out = _run(tmp_path, capsys)
    assert code == 0 and out == "4 files agree, 4 byte for byte\n"


def test_masked_run_times_agree_but_not_byte_for_byte(tmp_path, capsys):
    code, out = _run(tmp_path, capsys, seconds=9.75)  # run times and the manifest are masked
    assert code == 0 and out == "4 files agree, 3 byte for byte\n"


def test_numbers_within_their_bounds_agree(tmp_path, capsys):
    diag = _DIAG.replace("0.012345678901234568", "0.012345678901235")  # 4e-16 absolute
    gamma = _GAMMA.replace("0.63661977236758138", "0.6366197723680")  # 4e-13 relative
    code, out = _run(tmp_path, capsys, diag=diag, gamma=gamma, slope=-1.2345678901234)
    assert code == 0 and out == "4 files agree, 1 byte for byte\n", out


@pytest.mark.parametrize("changes, named", [
    ({"diag": _DIAG.replace("0.012345678901234568", "-0.012345678901234568")},
     "diag.csv: row 1, column O_diag: 0.012345678901234568 against -0.012345678901234568"),
    ({"diag": _DIAG.replace("-0.39000000000000001", "-0.390000000002")},
     "diag.csv: row 2, column E_over_L"),
    ({"gamma": _GAMMA.replace("0.63661977236758138", "0.63661978")},
     "gamma.csv: row 1, column Gamma"),
    ({"gamma": _GAMMA.replace(",120,", ",121,")}, "gamma.csv: row 1, column count: 120 against 121"),
    ({"gamma": _GAMMA.replace("False", "True")}, "gamma.csv: row 1, column flagged"),
    ({"gamma": _GAMMA.replace(",nan,", ",0.5,")}, "gamma.csv: row 2, column Gamma: nan against 0.5"),
    ({"gamma": "".join(_GAMMA.splitlines(keepends=True)[:3])}, "gamma.csv: 2 rows against 1"),
    ({"gamma": _GAMMA.replace("# config 0123", "# config 9123")}, "gamma.csv: config line or header"),
    ({"slope": 1.2345678901234567}, "fits.json: /fits/variance[B,1,1]/params[1]"),
], ids=["flipped sign", "energy", "binned value", "count", "flag", "nan", "missing row",
        "config line", "fit"])
def test_a_difference_fails_and_is_named(tmp_path, capsys, changes, named):
    code, out = _run(tmp_path, capsys, **changes)
    assert code == 1
    assert out.startswith(named), out
    assert len(out.splitlines()) == 1, out


def test_a_missing_file_fails_and_every_differing_file_is_named(tmp_path, capsys):
    a = _tree(tmp_path / "a")
    b = tmp_path / "b"
    shutil.copytree(a, b)
    (b / "fits.json").unlink()
    (b / "diag.csv").write_text(_DIAG.replace(",1,", ",2,", 1))
    assert compare_outputs.main([str(a), str(b)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "diag.csv: row 1, column S: 1 against 2; 1 of 2 rows differ"
    assert lines[1] == f"fits.json: only under {a}"
    assert len(lines) == 2


def test_every_differing_row_and_value_is_counted(tmp_path, capsys):
    # both diag rows move; the first is named and both are counted, as are both fit parameters
    diag = _DIAG.replace("0.012345678901234568", "0.0125").replace("-0.023456789012345678", "-0.0235")
    a = _tree(tmp_path / "a")
    b = _tree(tmp_path / "b", diag=diag)
    (b / "fits.json").write_text(json.dumps({"fits": {"variance[B,1,1]": {"params": [0.6, 1.0]}}}))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "diag.csv: row 1, column O_diag: 0.012345678901234568 against 0.0125; 2 of 2 rows differ",
        "fits.json: /fits/variance[B,1,1]/params[0]: 0.5 against 0.6; 2 values differ",
    ]


_ORACLE = {
    "rows": [{"L": 10, "S": 1, "moment": "E0", "abs_diff": 0.0, "pass": True}],
    # oracle-check holds this row's orthonormality to 10 * dim * eps = 3.1e-14 and its
    # eigen residual to 1e-8 * scale = 1.5e-8
    "block_audits": [{"sector": "L10_M0_k1_zp1_lam3", "eigen_residual": 2.1e-14,
                      "orthonormality": 1.3e-15, "spin_residual": 4.0e-14, "dim": 14,
                      "scale": 1.5}],
    "failures": [],
    "pass": True,
}


def _oracle_trees(tmp_path, where, field, value):
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    (a / "oracle_check.json").write_text(json.dumps(_ORACLE))
    changed = json.loads(json.dumps(_ORACLE))
    changed[where][0][field] = value
    (b / "oracle_check.json").write_text(json.dumps(changed))
    return a, b


@pytest.mark.parametrize("where, field, value", [
    ("rows", "abs_diff", 2.8e-14),
    ("rows", "abs_diff", 9e-11),
    ("block_audits", "eigen_residual", 3.5e-9),
    ("block_audits", "orthonormality", 3.0e-14),
    ("block_audits", "spin_residual", 8e-7),
    ("block_audits", "eigen_residual", 1.2e-8),  # above 1e-8, the bound at scale 1
], ids=["abs_diff round-off", "abs_diff near bound", "eigen_residual", "orthonormality",
        "spin_residual", "eigen_residual above 1e-8"])
def test_residuals_below_their_oracle_check_bound_agree(tmp_path, capsys, where, field, value):
    a, b = _oracle_trees(tmp_path, where, field, value)
    assert compare_outputs.main([str(a), str(b)]) == 0, capsys.readouterr().out


@pytest.mark.parametrize("where, field, value", [
    ("rows", "abs_diff", 1e-10),
    ("block_audits", "eigen_residual", 2e-8),
    ("block_audits", "orthonormality", 6e-13),
    ("block_audits", "spin_residual", 1e-6),
    ("block_audits", "spin_residual", float("nan")),
    ("block_audits", "orthonormality", 1e-13),  # below 10 * C(10, 5) * eps = 5.6e-13
], ids=["abs_diff", "eigen_residual", "orthonormality", "spin_residual", "nan",
        "orthonormality below the largest block's bound"])
def test_a_residual_at_or_above_its_bound_fails_and_is_named(tmp_path, capsys, where, field, value):
    a, b = _oracle_trees(tmp_path, where, field, value)
    assert compare_outputs.main([str(a), str(b)]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"oracle_check.json: /{where}[0]/{field}: "), out
    assert "not both below" in out


def _cache_trees(tmp_path):
    # one cache file per tree under cache/: a header of HEADER_SIZE bytes, then the payload
    a, b = _tree(tmp_path / "a"), _tree(tmp_path / "b")
    for root in (a, b):
        (root / "cache").mkdir()
        (root / "cache" / "L6_M0_k1_zp1_lam3.eig").write_bytes(
            bytes(compare_outputs.HEADER_SIZE) + bytes(range(64)))
    return a, b


def test_cache_payloads_agree_whatever_their_fingerprints(tmp_path, capsys):
    a, b = _cache_trees(tmp_path)
    path = b / "cache" / "L6_M0_k1_zp1_lam3.eig"
    data = bytearray(path.read_bytes())
    data[12] ^= 0x01  # a byte of the build fingerprint
    path.write_bytes(bytes(data))
    assert compare_outputs.main([str(a), str(b)]) == 0
    assert capsys.readouterr().out == "4 files agree, 4 byte for byte\n1 cache payloads agree\n"


def test_a_flipped_payload_byte_fails_and_names_the_file(tmp_path, capsys):
    a, b = _cache_trees(tmp_path)
    path = b / "cache" / "L6_M0_k1_zp1_lam3.eig"
    data = bytearray(path.read_bytes())
    data[compare_outputs.HEADER_SIZE + 10] ^= 0x01
    path.write_bytes(bytes(data))
    assert compare_outputs.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out == (
        "cache/L6_M0_k1_zp1_lam3.eig: cache payload differs; 1 of 1 differ\n")
