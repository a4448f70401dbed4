"""Pipeline configuration, caching, artifact layout, and the CLI surface."""

from __future__ import annotations

import dataclasses
import json
import math
import os
import struct
import subprocess
import sys
import textwrap
import weakref
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from su2eth import cache, pipeline
from su2eth.basis import SectorLabel, enumerate_sector_basis, sector_labels
from su2eth.cache import build_fingerprint, spectrum_path
from su2eth.cli import main
from su2eth.operators import build_observable
from su2eth.oracle import diagonal_prediction, linear_coefficients, moments
from su2eth.pipeline import (
    ConfigError,
    MissingCacheError,
    RunConfig,
    ensure_spectrum,
    load_cached_spectrum,
    run_diag_eth,
    run_offdiag_eth,
    run_oracle_check,
    run_spectrum,
)
from su2eth.spectral import expectations, matrix_elements
from su2eth.tensors import reduce_matrix_elements

# ─── configuration ──────────────────────────────────────────────────────────


def test_from_dict_accepts_lambda_alias():
    cfg = RunConfig.from_dict({"L_list": [6], "lambda": 3.0})
    assert cfg.lam == 3.0
    assert cfg.L_list == (6,)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"L_list": [6], "coupling": 3.0})


def test_from_dict_of_parsed_json():
    text = json.dumps({"L_list": [6, 8], "lambda": 3.0, "spins": [0, 1]})
    cfg = RunConfig.from_dict(json.loads(text))
    assert cfg.L_list == (6, 8)
    assert cfg.spins == (0, 1)


def test_replace_and_canonical_hash():
    cfg = RunConfig(L_list=(6,), lam=3.0, cache_dir="/a", out_dir="x", workers=4)
    other = cfg.replace(cache_dir="/b", out_dir="y", workers=1)
    # storage locations and parallelism must not change the run identity
    assert cfg.config_hash() == other.config_hash()
    assert cfg.replace(lam=0.0).config_hash() != cfg.config_hash()
    assert "cache_dir" not in cfg.canonical()


def test_config_hash_is_pinned():
    # every emitted file carries this hash in its "# config" line
    cfg = RunConfig(L_list=(10, 12), lam=3.0, spins=(0, 1), spin_pairs=((0, 2),),
                    exclude_k=(1, 2))
    assert cfg.config_hash() == "f63ac4491ed1fdcf"
    assert RunConfig(L_list=(6,)).config_hash() == "33a907a4ac551822"


def test_resolved_omega_cut_defaults():
    assert RunConfig(L_list=(6,), lam=3.0).resolved_omega_cut() == 10.0
    assert RunConfig(L_list=(6,), lam=0.0).resolved_omega_cut() == 3.0
    assert RunConfig(L_list=(6,), lam=0.0, omega_cut=7.5).resolved_omega_cut() == 7.5


def test_excluded_k_defaults_to_zero_and_pi():
    cfg = RunConfig(L_list=(6, 8))
    assert cfg.excluded_k(6) == {0, 3}
    assert cfg.excluded_k(8) == {0, 4}
    assert cfg.replace(exclude_k=(1,)).excluded_k(8) == {1}


def test_all_pairs_merges_spins_and_pairs():
    cfg = RunConfig(L_list=(6,), spins=(0, 1), spin_pairs=((0, 2),))
    assert cfg.all_pairs() == ((0, 0), (1, 1), (0, 2))


@pytest.mark.parametrize("bad,message", [
    ({"L_list": []}, "must not be empty"),
    ({"L_list": [7]}, "even"),
    ({"L_list": [20]}, "even"),
    ({"L_list": [6], "observables": ["Q"]}, "unknown observable"),
    ({"L_list": [6], "observables": []}, "observables must not be empty"),
    ({"L_list": [6], "half_width": 0}, "half_width must be positive"),
    ({"L_list": [6], "central_fraction": 1.5}, "central_fraction"),
    ({"L_list": [6], "omega_cut": -1.0}, "omega_cut must be positive"),
    ({"L_list": [6], "M": 4}, "\\|M\\| <= L/2"),
])
def test_common_validation_messages(bad, message, tmp_path):
    cfg = RunConfig.from_dict({**bad, "cache_dir": str(tmp_path)})
    with pytest.raises(ConfigError, match=message):
        run_spectrum(cfg)


def _analysis_config(tmp_path, **kw):
    base = dict(L_list=(6,), lam=3.0, spins=(0, 1),
                cache_dir=str(tmp_path / "cache"), out_dir=str(tmp_path / "out"),
                half_width=3, central_fraction=0.8)
    base.update(kw)
    return RunConfig(**base)


def test_spin_selection_validation(tmp_path):
    with pytest.raises(ConfigError, match="empty spin selection"):
        run_diag_eth(_analysis_config(tmp_path, spins=()))
    with pytest.raises(ConfigError, match="S=4 exceeds the bound S <= L/2 = 3"):
        run_diag_eth(_analysis_config(tmp_path, spins=(4,)))
    with pytest.raises(ConfigError, match="A is spin-diagonal"):
        run_offdiag_eth(_analysis_config(tmp_path, spins=(), spin_pairs=((0, 2),)))
    with pytest.raises(ConfigError, match="spin inversion at M=0 forbids"):
        run_offdiag_eth(_analysis_config(
            tmp_path, spins=(), spin_pairs=((0, 1),), observables=("B",)))
    with pytest.raises(ConfigError, match="rank-2 tensors cannot connect"):
        run_offdiag_eth(_analysis_config(
            tmp_path, spins=(), spin_pairs=((0, 3),), observables=("B",)))
    with pytest.raises(ConfigError, match="M = 0 sector only"):
        run_diag_eth(_analysis_config(tmp_path, M=1))


def test_diag_eth_ignores_the_spin_pair_rules(tmp_path):
    # diag-eth never reads spin_pairs: the cross-spin pair that offdiag-eth
    # rejects for A must not stop it
    cfg = _analysis_config(tmp_path, spin_pairs=((0, 2),), observables=("A",))
    run_spectrum(cfg)
    run_diag_eth(cfg)
    assert (tmp_path / "out" / "diag.csv").exists()
    with pytest.raises(ConfigError, match="A is spin-diagonal"):
        run_offdiag_eth(cfg)


# ─── spectra and cache flow ─────────────────────────────────────────────────


def test_run_spectrum_l6_summary(tmp_path):
    cfg = _analysis_config(tmp_path)
    summary = run_spectrum(cfg)
    size = summary["sizes"]["6"]
    assert size["blocks"] == 12
    assert size["states"] == 20
    assert size["per_spin_counts"] == {"0": "5", "1": "9", "2": "5", "3": "1"} or \
        size["per_spin_counts"] == {"0": 5, "1": 9, "2": 5, "3": 1}
    assert size["built"] == 12
    assert size["cache_hits"] == 0
    assert not summary["failures"]
    assert (tmp_path / "out" / "spectrum_summary.json").exists()
    assert (tmp_path / "out" / "manifest.jsonl").exists()


def test_warm_rerun_hits_cache_with_zero_diagonalizations(tmp_path, eigensolves):
    cfg = _analysis_config(tmp_path)
    run_spectrum(cfg)
    # 12 sectors, 4 of them at k < 0 served by conjugating their mirror
    assert len(eigensolves) == 8
    assert all(sector.k_index >= 0 for sector in eigensolves)
    eigensolves.clear()
    summary = run_spectrum(cfg)
    assert eigensolves == []
    size = summary["sizes"]["6"]
    assert size["cache_hits"] == 12
    assert size["built"] == 0


@pytest.mark.parametrize("M, solved", [(0, 8), (1, 4)])
def test_mirrored_spectrum_passes_block_audit(tmp_path, M, solved):
    cfg = _analysis_config(tmp_path, M=M)
    run_spectrum(cfg)
    root = tmp_path / "cache"
    names = sorted(path.name for path in root.glob("*.eig"))
    assert len(names) == solved
    assert not any("_k-" in name for name in names)
    mirrored = [lab for lab in sector_labels(6, M) if lab.k_index < 0]
    assert mirrored
    for lab in mirrored:
        minus, hit = ensure_spectrum(lab, 3.0, root)
        plus, _ = ensure_spectrum(pipeline._mirror(lab), 3.0, root)
        assert hit and minus.sector == lab and minus.dim
        for name in ("energies", "spins", "spin_residuals"):
            assert np.array_equal(getattr(minus, name), getattr(plus, name)), name
        assert np.array_equal(minus.vectors, np.conjugate(plus.vectors))
        assert load_cached_spectrum(lab, 3.0, root).vectors.tobytes() == minus.vectors.tobytes()
        # oracle-check's bounds, against a freshly built H(-k)
        audit = pipeline._audit_block(enumerate_sector_basis(lab), 3.0, minus)
        scale = max(1.0, float(np.abs(minus.energies).max()))
        assert audit["eigen_residual"] <= 1e-8 * scale, audit
        assert audit["orthonormality"] <= 1e-10, audit
        assert audit["spin_residual"] <= 1e-6, audit
    assert sorted(path.name for path in root.glob("*.eig")) == names


def _bits(values) -> bytes:
    # + 0.0 maps -0.0 to 0.0, the one bit difference no output can see
    return (np.asarray(values) + 0.0).tobytes()


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_mirror_blocks_give_bitwise_equal_analysis_inputs(tmp_path, lam):
    # the analyses serve each -k block its +k mirror's diagonals and elements
    cfg = _analysis_config(tmp_path, L_list=(10, 12), lam=lam)
    run_spectrum(cfg)
    root = tmp_path / "cache"
    minus_labels = [lab for L in cfg.L_list for lab in sector_labels(L)
                    if lab.k_index < 0 and not {lab.k_index, -lab.k_index} & cfg.excluded_k(L)]
    assert len(minus_labels) == 18
    compared = 0
    for minus in minus_labels:
        plus = pipeline._mirror(minus)
        blocks = [(load_cached_spectrum(lab, lam, root), enumerate_sector_basis(lab))
                  for lab in (plus, minus)]
        for observable in ("A", "B", "C"):
            ops = [build_observable(basis, observable) for _, basis in blocks]
            diag = [expectations(op, spectrum.vectors) for op, (spectrum, _) in zip(ops, blocks)]
            assert _bits(diag[0]) == _bits(diag[1]), (minus, observable)
            for pair in ((0, 0), (1, 1), (0, 2)):
                tables = [matrix_elements(op, spectrum, spin_filter=pair, part="offdiagonal")
                          for op, (spectrum, _) in zip(ops, blocks)]
                if observable in ("A", "B"):
                    rank = 0 if observable == "A" else 2
                    tables += [reduce_matrix_elements(t, rank) for t in tables]
                for mine, mirrored in zip(tables[::2], tables[1::2]):
                    a, b = mine.records, mirrored.records
                    for field in ("e_a", "e_b"):
                        assert _bits(a[field]) == _bits(b[field]), (minus, observable, pair)
                    assert _bits(np.abs(a["value"]) ** 2) == _bits(np.abs(b["value"]) ** 2), (
                        minus, observable, pair)
                    compared += a.size
    assert compared > 10_000


def test_spectrum_manifest_rows_carry_dim_seconds_and_mirror(tmp_path):
    cfg = _analysis_config(tmp_path)
    run_spectrum(cfg)
    entries = [json.loads(line)
               for line in (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()]
    rows = [e for e in entries if e["stage"] == "spectrum"]
    labels = sector_labels(6)
    assert [r["sector"] for r in rows] == [spectrum_path(tmp_path, lab, 3.0).stem
                                           for lab in labels]
    dims = {r["sector"]: r["dim"] for r in rows}
    assert sum(dims.values()) == 20
    mirrored = [r for r in rows if "mirror_of" in r]
    assert len(mirrored) == 4
    for row, lab in zip(rows, labels):
        assert row["status"] == "built"
        if lab.k_index < 0:
            mirror = spectrum_path(tmp_path, pipeline._mirror(lab), 3.0).stem
            assert row["mirror_of"] == mirror
            assert row["dim"] == dims[mirror]
            assert "seconds" not in row
        else:
            assert "mirror_of" not in row
            assert row["seconds"] >= 0.0


@pytest.mark.parametrize("workers", [1, 2])
def test_failed_sector_fails_its_mirror_too(tmp_path, monkeypatch, workers):
    solve = pipeline.diagonalize_block

    def failing(block):
        if block.sector.k_index == 1:
            raise RuntimeError("planted failure")
        return solve(block)

    # forked workers inherit the patch
    monkeypatch.setattr(pipeline, "diagonalize_block", failing)
    summary = run_spectrum(_analysis_config(tmp_path, workers=workers))
    failed = {f["sector"] for f in summary["failures"]}
    assert failed == {f"L6_M0_k{k}_z{z}_lam3" for k in (1, -1) for z in ("p1", "m1")}
    assert summary["sizes"]["6"]["blocks"] == 8
    entries = [json.loads(line)
               for line in (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()]
    rows = {e["sector"]: e for e in entries if e["stage"] == "spectrum"}
    assert rows["L6_M0_k-1_zp1_lam3"]["status"] == "failed"
    assert rows["L6_M0_k-1_zp1_lam3"]["mirror_of"] == "L6_M0_k1_zp1_lam3"


def _manifest(out_dir):
    return [json.loads(line) for line in (out_dir / "manifest.jsonl").read_text().splitlines()]


def test_process_pool_matches_the_serial_sweep_and_rereads_warm(tmp_path):
    # the eigensolves fixture cannot see solves in worker processes, so the
    # pool is checked by its outputs and by the cache files it leaves alone
    caches = {w: tmp_path / f"cache{w}" for w in (1, 2)}
    for lam in (3.0, 0.0):
        for w, root in caches.items():
            run_spectrum(_analysis_config(tmp_path, L_list=(6, 8), lam=lam, workers=w,
                                          cache_dir=str(root), out_dir=str(tmp_path / f"o{w}_{lam:g}")))
        summaries, rows = [], []
        for w in caches:
            out = tmp_path / f"o{w}_{lam:g}"
            summary = json.loads((out / "spectrum_summary.json").read_text())
            for size in summary["sizes"].values():
                size.pop("seconds")
            summaries.append(summary)
            rows.append([{k: v for k, v in e.items() if k not in ("ts", "seconds")}
                         for e in _manifest(out) if e["stage"] == "spectrum"])
        assert summaries[0] == summaries[1]
        assert rows[0] == rows[1] and len(rows[0]) == 12 + 16
    names = sorted(path.name for path in caches[1].glob("*.eig"))
    assert names == sorted(path.name for path in caches[2].glob("*.eig")) and len(names) == 2 * 18
    for name in names:
        assert (caches[1] / name).read_bytes() == (caches[2] / name).read_bytes(), name

    def stamps():
        return {name: (os.stat(caches[2] / name).st_ino, os.stat(caches[2] / name).st_mtime_ns)
                for name in names}

    before = stamps()
    summary = run_spectrum(_analysis_config(tmp_path, L_list=(6, 8), workers=2,
                                            cache_dir=str(caches[2]), out_dir=str(tmp_path / "warm")))
    assert not summary["failures"]
    assert all(size["built"] == 0 for size in summary["sizes"].values())
    assert stamps() == before


def test_dead_worker_fails_its_sectors_and_the_run_still_finishes(tmp_path):
    # a worker that dies outright breaks the pool; run in a child process so
    # that a hang fails this test instead of blocking the suite
    script = textwrap.dedent(f"""
        import json, os
        from su2eth import pipeline

        solve = pipeline.diagonalize_block

        def dying(block):
            if block.sector.k_index == 1:
                os._exit(1)
            return solve(block)

        pipeline.diagonalize_block = dying
        summary = pipeline.run_spectrum(pipeline.RunConfig(
            L_list=(6, 8), lam=3.0, workers=2,
            cache_dir={str(tmp_path / "cache")!r}, out_dir={str(tmp_path / "out")!r}))
        print(json.dumps(summary["failures"]))
    """)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    failed = {f["sector"] for f in json.loads(proc.stdout.splitlines()[-1])}
    assert {f"L6_M0_k{k}_z{z}_lam3" for k in (1, -1) for z in ("p1", "m1")} <= failed
    written = json.loads((tmp_path / "out" / "spectrum_summary.json").read_text())
    assert {f["sector"] for f in written["failures"]} == failed
    done = _manifest(tmp_path / "out")[-1]
    assert (done["stage"], done["status"], done["command"]) == ("run", "done", "spectrum")


def test_pool_is_capped_at_the_solved_sectors(tmp_path, monkeypatch):
    started = []
    real = pipeline.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", recording)
    summary = run_spectrum(_analysis_config(tmp_path, workers=16))
    # L = 6, M = 0 has 12 sectors, 8 of them at k >= 0
    assert started == [8]
    assert not summary["failures"]
    done = _manifest(tmp_path / "out")[-1]
    assert (done["stage"], done["workers"]) == ("run", 8)
    run_spectrum(_analysis_config(tmp_path, workers=1))
    assert started == [8]
    assert _manifest(tmp_path / "out")[-1]["workers"] == 1


def test_manifest_is_append_only_jsonl(tmp_path):
    cfg = _analysis_config(tmp_path)
    run_spectrum(cfg)
    lines = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
    n_first = len(lines)
    assert n_first >= 14  # run start + 12 sectors + run done
    entries = [json.loads(line) for line in lines]
    assert entries[0]["stage"] == "run"
    assert all(e["config"] == cfg.config_hash() for e in entries)
    run_spectrum(cfg)
    lines = (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()
    assert len(lines) > n_first


@pytest.mark.parametrize("command,run", [
    ("spectrum", run_spectrum),
    ("diag-eth", run_diag_eth),
    ("offdiag-eth", run_offdiag_eth),
    ("oracle-check", run_oracle_check),
])
def test_every_command_journals_start_and_done(tmp_path, command, run):
    cfg = _analysis_config(tmp_path, observables=("B",))
    run_spectrum(cfg.replace(out_dir=str(tmp_path / "fill")))
    run(cfg)
    entries = [json.loads(line)
               for line in (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()]
    runs = [e for e in entries if e["stage"] == "run"]
    assert [(e["status"], e["command"]) for e in runs] == [("start", command), ("done", command)]
    assert runs[0]["fingerprint"] == f"{build_fingerprint():016x}"


@pytest.mark.parametrize("run", [run_spectrum, run_diag_eth, run_offdiag_eth, run_oracle_check])
def test_every_command_needs_a_cache_root(tmp_path, monkeypatch, run):
    monkeypatch.delenv("SU2ETH_CACHE_DIR", raising=False)
    cfg = _analysis_config(tmp_path, cache_dir=None, observables=("B",))
    with pytest.raises(ConfigError, match="SU2ETH_CACHE_DIR"):
        run(cfg)


def test_offdiag_loads_each_admitted_block_once_per_size(tmp_path, monkeypatch):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=(1,), observables=("A", "B"))
    run_spectrum(cfg)
    loads = Counter()
    load = pipeline.load_cached_spectrum

    def counting_load(sector, lam, root):
        loads[sector] += 1
        return load(sector, lam, root)

    monkeypatch.setattr(pipeline, "load_cached_spectrum", counting_load)
    run_offdiag_eth(cfg)
    admitted = [lab for L in cfg.L_list for lab in sector_labels(L)
                if lab.k_index not in cfg.excluded_k(L)]
    # a -k label is served its +k mirror's elements: each solved sector loads once
    assert loads == Counter({pipeline._solved(lab) for lab in admitted})
    assert sum(loads.values()) == 10


def test_warm_oracle_check_builds_one_basis_per_sector(tmp_path, monkeypatch):
    cfg = _analysis_config(tmp_path, L_list=(6, 8, 10), spins=())
    run_spectrum(cfg)
    builds = Counter()
    enumerate_basis = pipeline.enumerate_sector_basis

    def counting_enumerate(sector):
        builds[sector] += 1
        return enumerate_basis(sector)

    monkeypatch.setattr(pipeline, "enumerate_sector_basis", counting_enumerate)
    assert run_oracle_check(cfg)["pass"] is True
    assert builds == Counter(lab for L in cfg.L_list for lab in sector_labels(L))
    assert sum(builds.values()) == 48


@pytest.mark.parametrize("run", [run_diag_eth, run_offdiag_eth])
def test_analyses_build_one_basis_per_nonempty_admitted_block(tmp_path, monkeypatch, run):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), observables=("A", "B", "C"))
    run_spectrum(cfg)
    root = tmp_path / "cache"
    nonempty = [lab for L in cfg.L_list for lab in sector_labels(L)
                if lab.k_index not in cfg.excluded_k(L)
                and load_cached_spectrum(lab, cfg.lam, root).dim]
    builds = Counter()
    enumerate_basis = pipeline.enumerate_sector_basis

    def counting_enumerate(sector):
        builds[sector] += 1
        return enumerate_basis(sector)

    monkeypatch.setattr(pipeline, "enumerate_sector_basis", counting_enumerate)
    run(cfg)
    assert builds == Counter({pipeline._solved(lab) for lab in nonempty})


@pytest.mark.parametrize("run,source", [
    (run_spectrum, "ensure_spectrum"),
    (run_diag_eth, "load_cached_spectrum"),
    (run_offdiag_eth, "load_cached_spectrum"),
])
def test_commands_hold_at_most_one_earlier_spectrum(tmp_path, monkeypatch, run, source):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), observables=("B",), workers=1)
    run_spectrum(cfg.replace(out_dir=str(tmp_path / "fill")))
    fetch = getattr(pipeline, source)
    refs = []
    alive = []

    def tracking_fetch(*args):
        alive.append(sum(ref() is not None for ref in refs))
        result = fetch(*args)
        refs.append(weakref.ref(result[0] if source == "ensure_spectrum" else result))
        return result

    monkeypatch.setattr(pipeline, source, tracking_fetch)
    run(cfg)
    # the spectrum sweep solves every k >= 0 sector, the analyses read the
    # solved sectors of the admitted labels (k = 0 and pi excluded)
    assert len(refs) == (18 if run is run_spectrum else 10)
    assert max(alive) <= 1


def test_split_mirror_pair_is_served_from_the_solved_file(tmp_path, monkeypatch):
    # exclude_k=(0, 4, 1) admits -1 without +1: the -1 labels still read the
    # +1 files, once per size, and give the bytes of the run admitting +1 alone
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=(0, 1, 2), observables=("A", "B", "C"))
    run_spectrum(cfg.replace(out_dir=str(tmp_path / "fill")))
    loads = Counter()
    load = cache.load_spectrum

    def counting_load(root, sector, lam):
        loads[sector] += 1
        return load(root, sector, lam)

    monkeypatch.setattr(cache, "load_spectrum", counting_load)
    plus_one = [lab for L in cfg.L_list for lab in sector_labels(L) if lab.k_index == 1]
    outputs = {}
    for k in (1, -1):
        out = tmp_path / f"out{k}"
        split = cfg.replace(exclude_k=(0, 4, k), out_dir=str(out))
        for run in (run_diag_eth, run_offdiag_eth):
            loads.clear()
            run(split)
            assert [loads[lab] for lab in plus_one] == [1, 1, 1, 1]
        # everything after the "# config" line
        outputs[k] = {p.name: p.read_bytes().split(b"\n", 1)[1] for p in out.glob("*.csv")}
    assert len(outputs[1]) == 8
    assert outputs[1] == outputs[-1]


def test_analyses_journal_admitted_and_loaded_blocks_per_size(tmp_path):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), observables=("B",))
    run_spectrum(cfg.replace(out_dir=str(tmp_path / "fill")))
    for run in (run_diag_eth, run_offdiag_eth):
        out = tmp_path / run.__name__
        run(cfg.replace(out_dir=str(out)))
        entries = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
        # k = 0 and pi excluded; each admitted +-k pair is loaded once
        assert [(e["L"], e["admitted"], e["loaded"])
                for e in entries if e["stage"] == "blocks"] == [(6, 8, 4), (8, 12, 6)]


def test_stale_cache_entry_is_rebuilt_with_warning(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    lab = SectorLabel(6, 0, 1, 1)
    path = spectrum_path(root, lab, 3.0)
    path.write_bytes(b"garbage bytes, not a spectrum")
    with pytest.warns(UserWarning, match="rebuilding stale cache entry"):
        spectrum, hit = ensure_spectrum(lab, 3.0, root)
    assert not hit
    assert spectrum.dim == 1
    # rebuilt file is now loadable
    assert load_cached_spectrum(lab, 3.0, root).dim == 1


def test_missing_cache_error_names_the_fix(tmp_path):
    with pytest.raises(MissingCacheError, match="run the spectrum command first"):
        load_cached_spectrum(SectorLabel(6, 0, 1, 1), 3.0, tmp_path)


def test_analysis_without_cache_fails(tmp_path):
    cfg = _analysis_config(tmp_path)  # cache dir exists but is empty
    with pytest.raises(MissingCacheError):
        run_diag_eth(cfg)


# ─── diagonal analysis artifacts ────────────────────────────────────────────


@pytest.fixture()
def warm(tmp_path):
    # cross-spin pairs exclude A, so diagonal and off-diagonal runs use
    # separate configs over one shared cache; S = 3 has no admitted states
    # and exercises the prediction-only path
    diag_cfg = _analysis_config(tmp_path, spins=(0, 1, 2, 3), observables=("A", "B"))
    off_cfg = _analysis_config(tmp_path, spins=(1,), spin_pairs=((0, 2),),
                               observables=("B",))
    run_spectrum(diag_cfg)
    return diag_cfg, off_cfg, tmp_path / "out"


def _read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config ")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def test_diag_outputs(warm):
    cfg, _, out = warm
    run_diag_eth(cfg)

    header, rows = _read_csv(out / "diag.csv")
    assert header[:6] == ["E_over_L", "S", "O_diag", "L", "lambda", "observable"]
    assert rows, "diag.csv should hold every admitted diagonal element"

    header, rows = _read_csv(out / "spin_means.csv")
    assert header[:4] == ["observable", "L", "lambda", "S"]
    spins_seen = {r[header.index("S")] for r in rows}
    # full scan over the admitted blocks; the lone S = 3 multiplet sits in
    # the excluded k = 0 sector and is rightly absent
    assert spins_seen == {"0", "1", "2"}

    header, rows = _read_csv(out / "predictions.csv")
    i_s, i_mean, i_slope = header.index("S"), header.index("mean"), header.index("slope")
    for row in rows:
        if row[header.index("observable")] != "A":
            continue
        S = int(row[i_s])
        assert float(row[i_mean]) == pytest.approx(moments(6, S, 3.0).meanA, abs=1e-12)
        if S < 3:
            expect = linear_coefficients(6, S, 3.0).slopeA
            assert float(row[i_slope]) == pytest.approx(expect, abs=1e-12)
        else:
            assert row[i_slope] == "nan"  # degenerate sector has no slope

    fits = json.loads((out / "diag_fits.json").read_text())
    assert fits["config"] == cfg.config_hash()

    # the empty S = 3 pool was skipped, not silently dropped
    manifest = [json.loads(line)
                for line in (out / "manifest.jsonl").read_text().splitlines()]
    assert any(e["stage"] == "diag" and e["status"] == "skipped"
               and "S3" in e.get("sector", "") for e in manifest)


def test_diag_pools_each_observable_and_spin_once(warm, monkeypatch):
    cfg, _, _ = warm
    pooled = Counter()
    pool = pipeline.analysis.pool_diagonal

    def counting_pool(observable, L, lam, S, *args, **kwargs):
        pooled[observable, L, S] += 1
        return pool(observable, L, lam, S, *args, **kwargs)

    monkeypatch.setattr(pipeline.analysis, "pool_diagonal", counting_pool)
    run_diag_eth(cfg)
    assert {key[0] for key in pooled} == set(cfg.observables)
    assert {key[2] for key in pooled} >= set(cfg.spins)
    assert set(pooled.values()) == {1}


def test_csv_template_writes_the_per_value_format(tmp_path):
    """Each column is formatted by the type of its first value, as if value by value."""
    def per_value(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        return str(value)

    rows = [
        (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1 / 3, np.float64(-2.5e-17),
         7, np.int64(-3), True, np.bool_(False), "A"),
        (1 / 3, -0.0, math.nan, math.inf, -math.inf, np.float64(5e-324), 1e300,
         -12, np.int16(4), False, np.bool_(True), "zz"),
    ]
    columns = tuple(f"c{i}" for i in range(len(rows[0])))
    path = pipeline._write_csv(tmp_path / "t.csv", columns, rows, "h")
    expected = "# config h\n" + ",".join(columns) + "\n"
    expected += "".join(",".join(map(per_value, row)) + "\n" for row in rows)
    assert path.read_bytes() == expected.encode()


def test_diag_csv_reruns_are_byte_identical(warm):
    cfg, _, out = warm
    run_diag_eth(cfg)
    first = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    run_diag_eth(cfg)
    second = {p.name: p.read_bytes() for p in out.glob("*.csv")}
    assert first == second


def test_diagonal_values_match_oracle_line(warm):
    # the L = 6 S = 2 block is tiny; every diagonal element sits close to
    # the first-order line through the sector
    cfg, _, out = warm
    run_diag_eth(cfg)
    header, rows = _read_csv(out / "diag.csv")
    idx = {name: header.index(name) for name in header}
    for row in rows:
        if row[idx["observable"]] != "A" or row[idx["S"]] != "2":
            continue
        e = float(row[idx["E_over_L"]]) * 6
        got = float(row[idx["O_diag"]])
        pred = diagonal_prediction("A", 6, 2, 3.0, e)
        assert got == pytest.approx(pred, abs=0.15)


# ─── off-diagonal analysis artifacts ────────────────────────────────────────


def test_offdiag_outputs(warm):
    _, cfg, out = warm
    run_offdiag_eth(cfg)

    header, rows = _read_csv(out / "gamma.csv")
    assert header[:6] == ["omega", "Gamma", "count", "L", "S_a", "S_b"]

    header, rows = _read_csv(out / "specfun.csv")
    assert header[:6] == ["omega", "LD_var", "L", "S_a", "S_b", "lambda"]
    pairs = {(r[3], r[4]) for r in rows}
    assert ("0", "2") in pairs  # cross-spin ensemble was emitted

    header, _ = _read_csv(out / "specfun_reduced.csv")
    assert header[0] == "omega"
    header, _ = _read_csv(out / "lowfreq.csv")
    assert header[0] == "omega_L2"

    fits = json.loads((out / "fits.json").read_text())
    assert fits["config"] == cfg.config_hash()
    assert fits["omega_cut"] == 10.0
    for entry in fits["fits"].values():
        assert set(entry) >= {"model", "params", "inputs"}


def test_offdiag_requires_cache(tmp_path):
    cfg = _analysis_config(tmp_path, spins=(1,), observables=("B",))
    with pytest.raises(MissingCacheError):
        run_offdiag_eth(cfg)


# ─── oracle check ───────────────────────────────────────────────────────────


def test_oracle_check_passes_on_healthy_cache(tmp_path):
    cfg = _analysis_config(tmp_path, spins=())
    report = run_oracle_check(cfg)
    assert report["pass"] is True
    assert not report["failures"]
    assert (tmp_path / "out" / "oracle_check.json").exists()
    # every (S, field) row is within tolerance
    worst = max(r["abs_diff"] for r in report["rows"])
    assert worst < 1e-10
    assert len(report["rows"]) == 4 * 10  # S = 0..3, ten moments each


def test_cold_oracle_check_solves_each_k_nonnegative_sector_once(tmp_path, eigensolves):
    cfg = _analysis_config(tmp_path, L_list=(6, 8, 10), spins=())
    assert run_oracle_check(cfg)["pass"] is True
    # 48 sectors at L = 6, 8, 10; the 18 at k < 0 are served from their mirrors
    assert len(eigensolves) == 30
    assert len(set(eigensolves)) == 30
    assert all(sector.k_index >= 0 for sector in eigensolves)


def test_oracle_check_passes_on_healthy_l12_cache(tmp_path):
    report = run_oracle_check(_analysis_config(tmp_path, L_list=(12,), spins=()))
    assert report["pass"] is True
    assert not report["failures"]
    assert len(report["block_audits"]) == 24
    assert max(r["abs_diff"] for r in report["rows"]) < 1e-10
    assert len(report["rows"]) == 7 * 10  # S = 0..6, ten moments each


@pytest.mark.parametrize("L", [6, 12])
def test_oracle_check_catches_corrupted_vectors(tmp_path, L):
    cfg = _analysis_config(tmp_path, L_list=(L,), spins=())
    run_spectrum(cfg)
    lab = SectorLabel(L, 0, 1, -1)
    path = spectrum_path(tmp_path / "cache", lab, 3.0)
    data = bytearray(path.read_bytes())
    dim = struct.unpack_from("<i", data, 44)[0]
    offset = 56 + 3 * 8 * dim + (dim * dim // 2) * 16 + 4
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    assert any(f"L{L}_M0_k1_zm1" in f.get("sector", "") for f in report["failures"])


def test_oracle_check_rejects_small_l(tmp_path):
    cfg = _analysis_config(tmp_path, L_list=(4,), spins=())
    with pytest.raises(ConfigError, match="6 <= L"):
        run_oracle_check(cfg)


# ─── CLI ────────────────────────────────────────────────────────────────────


def test_cli_spectrum_and_exit_codes(tmp_path):
    runner = CliRunner()
    args = ["spectrum", "--L", "6", "--lambda", "3.0",
            "--cache", str(tmp_path / "c"), "--out", str(tmp_path / "o")]
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    assert "20 states" in result.output or "states" in result.output

    # config errors exit 2
    result = runner.invoke(main, ["diag-eth", "--L", "6",
                                  "--cache", str(tmp_path / "c"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "spin" in result.output

    result = runner.invoke(main, ["offdiag-eth", "--L", "6", "--pair", "0", "1",
                                  "-O", "B", "--cache", str(tmp_path / "c"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "spin inversion" in result.output

    # runtime errors exit 1
    result = runner.invoke(main, ["diag-eth", "--L", "8", "-S", "0",
                                  "--cache", str(tmp_path / "empty"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "spectrum command" in result.output


def test_cli_oracle_check_without_cache_root_exits_2(tmp_path, monkeypatch):
    monkeypatch.delenv("SU2ETH_CACHE_DIR", raising=False)
    result = CliRunner().invoke(main, ["oracle-check", "--L", "6",
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "SU2ETH_CACHE_DIR" in result.output


@pytest.mark.parametrize("command", ["spectrum", "diag-eth", "offdiag-eth", "oracle-check"])
def test_cli_flags_are_named_after_config_fields(command):
    # _build_config merges the set flags into the config by destination name
    fields = {f.name for f in dataclasses.fields(RunConfig)}
    names = {param.name for param in main.commands[command].params} - {"config_path"}
    assert names
    assert names <= fields, names - fields


def test_cli_requires_system_sizes(tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["spectrum", "--cache", str(tmp_path)])
    assert result.exit_code == 2
    assert "no system sizes given" in result.output


def test_cli_config_file_with_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "L_list": [6], "lambda": 0.0, "spins": [0],
        "cache_dir": str(tmp_path / "c"), "out_dir": str(tmp_path / "o"),
    }))
    runner = CliRunner()
    result = runner.invoke(main, ["spectrum", "--config", str(cfg_path),
                                  "--lambda", "3.0"])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "o" / "spectrum_summary.json").read_text())
    assert summary["lambda"] == 3.0  # the flag wins over the file


def test_cli_oracle_command():
    runner = CliRunner()
    result = runner.invoke(main, ["oracle", "--L", "8", "-S", "1", "--lambda", "3.0"])
    assert result.exit_code == 0
    assert "meanA" in result.output
    assert "slopeA" in result.output
    # degenerate top multiplet prints null slopes instead of crashing
    result = runner.invoke(main, ["oracle", "--L", "8", "-S", "4"])
    assert result.exit_code == 0
    assert "null" in result.output


def test_cli_cg_table(tmp_path):
    runner = CliRunner()
    out = tmp_path / "table.csv"
    result = runner.invoke(main, ["cg-table", "--max-2j", "20", "--out", str(out)])
    assert result.exit_code == 0
    lines = out.read_text().splitlines()
    assert lines[0].split(",") == ["2j", "2m", "2j1", "2m1", "2j2", "2m2",
                                   "numerator", "denominator-square", "float"]
    from su2eth.tensors import cg_table_rows
    assert len(lines) - 1 == sum(1 for _ in cg_table_rows(20))


def test_cli_version():
    runner = CliRunner()
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
