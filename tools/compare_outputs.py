"""Compare two su2eth output trees: the same files and rows, numbers within bounds.

    python tools/compare_outputs.py <reference dir> <candidate dir>

Every *.csv, *.json and manifest.jsonl file under either directory is
compared with the one at the same relative path under the other. A CSV's
`# config` line and header must be equal and its rows are compared in
order, so a missing or extra row is a difference. Two cells agree when
their text is equal or both are numbers within bounds:

- whole numbers (integer columns) and text (flags, names) only when equal;
- energies and diagonal elements (the columns in ABSOLUTE) within 1e-12;
- every other number (binned values, fits, moments) within 1e-9 relative
  or 1e-14 absolute.

JSON files are compared key by key and item by item under the same rules,
with the run times (`seconds`) masked. Each manifest.jsonl journal is
compared row by row as JSON, with the row times (`ts`), the run times and
the build fingerprint masked too, so its skipped fits, empty pairs and
`elements`/`kept` counts are outputs as well; the journals are not counted
among the files that agree. The round-off fields of `oracle_check.json`
are not held to any value: two of them agree when they are equal or both
lie below the bound `oracle-check` holds that field to, read from
`su2eth.pipeline.audit_bound`:

- `abs_diff` (closed-form moment against trace) below 1e-10;
- `spin_residual` below 1e-6;
- `eigen_residual` below 1e-8 * scale, with its block-audit row's `scale`
  (max(1, max |E|));
- `orthonormality` below 10 * dim * eps, with its block-audit row's `dim`.

A block-audit row without `dim` or `scale` (written before they were
recorded) holds that field to the ordinary bounds.

A cache file (*.eig) that both trees hold at the same relative path is
compared by its payload, the bytes after its header: the header carries the
build fingerprint, which changes with any edit to the fingerprinted sources.
The payload's two sections, the head (energies, A and C diagonals, spins)
and the vectors, are compared in that order, and the first that differs is
named.

Exits 0 when the trees agree, saying how many files agree and how many of
those byte for byte, and, when the trees share cache files, how many
payloads agree, as in

    34 files agree, 32 byte for byte
    160 cache payloads agree

and 1 naming, for every differing file in path order, its first difference
and how many rows (CSV) or values (JSON) differ, as in

    diag.csv: row 3, column O_diag: 0.25 against 0.26; 2 of 120 rows differ

A CSV or journal whose config line, header or row count differs is named by
that alone, and the cache files by the first whose payload differs, with
its first differing section, as in

    cache/L14_M0_k3_zp1_lam3.eig: cache payload differs in its vectors; 2 of 204 differ
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from su2eth.cache import sections  # noqa: E402
from su2eth.pipeline import audit_bound  # noqa: E402

ABSOLUTE = frozenset({"E_over_L", "O_diag", "E0"})
ABSOLUTE_BOUND = 1e-12
RELATIVE_BOUND = 1e-9
FLOOR = 1e-14
MASKED = frozenset({"seconds", "ts", "fingerprint"})


def close(name: str, x: float, y: float) -> bool:
    """Whether two numbers of the column or key name agree within its bound."""
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if x == y:
        return True
    if name in ABSOLUTE:
        return abs(x - y) <= ABSOLUTE_BOUND
    return abs(x - y) <= max(RELATIVE_BOUND * max(abs(x), abs(y)), FLOOR)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _whole(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _cells_agree(name: str, a: str, b: str) -> bool:
    if a == b:
        return True
    x, y = _number(a), _number(b)
    if x is None or y is None or (_whole(a) and _whole(b)):
        return False
    return close(name, x, y)


def compare_csv(a: Path, b: Path) -> str | None:
    """The first difference between two CSV files and the count of differing rows, or None."""
    rows_a, rows_b = a.read_text().splitlines(), b.read_text().splitlines()
    if rows_a[:2] != rows_b[:2]:
        return f"config line or header differs: {rows_a[:2]} against {rows_b[:2]}"
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a) - 2} rows against {len(rows_b) - 2}"
    columns = rows_a[1].split(",") if len(rows_a) > 1 else []
    found = [f"row {i}, {diff}" for i, (row_a, row_b) in enumerate(zip(rows_a[2:], rows_b[2:]), 1)
             if (diff := _row_difference(columns, row_a.split(","), row_b.split(",")))]
    return f"{found[0]}; {len(found)} of {len(rows_a) - 2} rows differ" if found else None


def _row_difference(columns, cells_a, cells_b) -> str | None:
    if len(cells_a) != len(cells_b):
        return f"{len(cells_a)} cells against {len(cells_b)}"
    for name, x, y in zip(columns, cells_a, cells_b):
        if not _cells_agree(name, x, y):
            return f"column {name}: {x} against {y}"
    return None


def compare_json(a, b) -> str | None:
    """The first difference between two parsed JSON values and the count of differing ones, or None."""
    found = list(_json_differences(a, b))
    if not found:
        return None
    return f"{found[0]}; {len(found)} value{'s differ' if len(found) > 1 else ' differs'}"


def _json_differences(a, b, where: str = "", key: str = ""):
    """Every difference between two parsed JSON values, in key and item order."""
    if isinstance(a, dict) and isinstance(b, dict):
        keys_a, keys_b = set(a) - MASKED, set(b) - MASKED
        if keys_a != keys_b:
            yield f"{where or '/'}: keys {sorted(keys_a ^ keys_b)} in one tree only"
        for k in sorted(keys_a & keys_b):
            bounds = audit_bound(k, a), audit_bound(k, b)
            if None not in bounds and _numeric(a[k], b[k]):
                if not (a[k] == b[k] or (a[k] < bounds[0] and b[k] < bounds[1])):
                    yield (f"{where}/{k}: {a[k]!r} against {b[k]!r}, "
                           f"not both below {max(bounds):.3g}")
                continue
            yield from _json_differences(a[k], b[k], f"{where}/{k}", k)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            yield f"{where}: {len(a)} items against {len(b)}"
            return
        for i, (x, y) in enumerate(zip(a, b)):
            yield from _json_differences(x, y, f"{where}[{i}]", key)
        return
    if _numeric(a, b) and (isinstance(a, float) or isinstance(b, float)):
        agree = close(key, float(a), float(b))
    else:
        agree = type(a) is type(b) and a == b
    if not agree:
        yield f"{where}: {a!r} against {b!r}"


def _numeric(*values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values)


def compare_journal(a: Path, b: Path) -> str | None:
    """The first difference between two manifest.jsonl journals and the count of differing rows,
    or None."""
    rows_a, rows_b = ([json.loads(line) for line in p.read_text().splitlines()] for p in (a, b))
    if len(rows_a) != len(rows_b):
        return f"{len(rows_a)} rows against {len(rows_b)}"
    found = [f"row {i}{diff}" for i, (x, y) in enumerate(zip(rows_a, rows_b), 1)
             if (diff := next(_json_differences(x, y), None))]
    return f"{found[0]}; {len(found)} of {len(rows_a)} rows differ" if found else None


def _outputs(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*")
            if p.suffix in (".csv", ".json") and p.is_file()}


def _journals(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("manifest.jsonl") if p.is_file()}


def _caches(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*.eig") if p.is_file()}


def differing_payloads(a: Path, b: Path) -> tuple[list[tuple[str, str]], int]:
    """(name, first differing section) of each cache file under both trees whose payloads
    differ, in path order, and how many cache files both trees hold."""
    shared = sorted(_caches(a) & _caches(b))
    differ = []
    for name in shared:
        parts_a, parts_b = (sections((root / name).read_bytes()) for root in (a, b))
        section = next((s for s in parts_a if parts_a[s] != parts_b[s]), None)
        if section:
            differ.append((name, section))
    return differ, len(shared)


def compare_trees(a: Path, b: Path) -> list[str]:
    """The first difference and the count of differing rows or values of every differing file,
    in path order."""
    found = []
    names_a, names_b = _outputs(a) | _journals(a), _outputs(b) | _journals(b)
    for name in sorted(names_a | names_b):
        if name not in names_a or name not in names_b:
            found.append(f"{name}: only under {a if name in names_a else b}")
            continue
        if name.endswith(".csv"):
            diff = compare_csv(a / name, b / name)
        elif name.endswith(".jsonl"):
            diff = compare_journal(a / name, b / name)
        else:
            diff = compare_json(json.loads((a / name).read_text()),
                                json.loads((b / name).read_text()))
        if diff:
            found.append(f"{name}: {diff}")
    differ, shared = differing_payloads(a, b)
    if differ:
        name, section = differ[0]
        found.append(f"{name}: cache payload differs in its {section}; "
                     f"{len(differ)} of {shared} differ")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    for root in (args.reference, args.candidate):
        if not root.is_dir():
            parser.error(f"{root} is not a directory")
    found = compare_trees(args.reference, args.candidate)
    for line in found:
        print(line)
    if not found:
        names = _outputs(args.reference)
        same = sum((args.reference / n).read_bytes() == (args.candidate / n).read_bytes()
                   for n in names)
        print(f"{len(names)} files agree, {same} byte for byte")
        shared = len(_caches(args.reference) & _caches(args.candidate))
        if shared:
            print(f"{shared} cache payloads agree")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
