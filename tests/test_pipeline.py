"""Pipeline configuration, caching, artifact layout, and the CLI surface."""

from __future__ import annotations

import json
import struct
import weakref
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from su2eth import pipeline
from su2eth.basis import SectorLabel, sector_labels
from su2eth.cache import build_fingerprint, spectrum_path
from su2eth.cli import main
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
from su2eth.spectral import diagonalization_count, reset_diagonalization_count

# ─── configuration ──────────────────────────────────────────────────────────


def test_from_dict_accepts_lambda_alias():
    cfg = RunConfig.from_dict({"L_list": [6], "lambda": 3.0})
    assert cfg.lam == 3.0
    assert cfg.L_list == (6,)


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"L_list": [6], "coupling": 3.0})


def test_from_file_roundtrip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"L_list": [6, 8], "lambda": 3.0, "spins": [0, 1]}))
    cfg = RunConfig.from_file(path)
    assert cfg.L_list == (6, 8)
    assert cfg.spins == (0, 1)


def test_replace_and_canonical_hash():
    cfg = RunConfig(L_list=(6,), lam=3.0, cache_dir="/a", out_dir="x", workers=4)
    other = cfg.replace(cache_dir="/b", out_dir="y", workers=1)
    # storage locations and parallelism must not change the run identity
    assert cfg.config_hash() == other.config_hash()
    assert cfg.replace(lam=0.0).config_hash() != cfg.config_hash()
    assert "cache_dir" not in cfg.canonical()


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


def test_warm_rerun_hits_cache_with_zero_diagonalizations(tmp_path):
    cfg = _analysis_config(tmp_path)
    run_spectrum(cfg)
    reset_diagonalization_count()
    summary = run_spectrum(cfg)
    assert diagonalization_count() == 0
    size = summary["sizes"]["6"]
    assert size["cache_hits"] == 12
    assert size["built"] == 0


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
    assert loads == Counter(admitted)


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
    assert builds == Counter(nonempty)


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
    assert len(refs) >= 12
    assert max(alive) <= 1


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


def test_oracle_check_catches_corrupted_vectors(tmp_path):
    cfg = _analysis_config(tmp_path, spins=())
    run_spectrum(cfg)
    lab = SectorLabel(6, 0, 1, -1)
    path = spectrum_path(tmp_path / "cache", lab, 3.0)
    data = bytearray(path.read_bytes())
    dim = struct.unpack_from("<i", data, 44)[0]
    offset = 56 + 3 * 8 * dim + (dim * dim // 2) * 16 + 4
    data[offset] ^= 0xFF
    path.write_bytes(bytes(data))
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    assert any("L6_M0_k1_zm1" in f.get("sector", "") for f in report["failures"])


def test_oracle_check_rejects_large_l(tmp_path):
    cfg = _analysis_config(tmp_path, L_list=(12,), spins=())
    with pytest.raises(ConfigError, match="6 <= L <= 10"):
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
