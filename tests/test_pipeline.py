"""Pipeline configuration, caching, artifact layout, and the CLI surface."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import textwrap
import threading
import weakref
import zlib
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from su2eth import cache, pipeline
from su2eth.analysis import OffDiagonalEnsemble, build_offdiagonal_ensemble
from su2eth.basis import (SectorLabel, enumerate_sector_basis, parity_halves, sector_labels,
                          with_parity)
from su2eth.cache import build_fingerprint, spectrum_path
from su2eth.cli import main
from su2eth.operators import (OBSERVABLE_TAGS, CouplingSpec, build_hamiltonian, build_observable,
                              build_operator, c_diagonal, pair_correlator_terms)
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
from su2eth.spectral import (MatrixElementTable, diagonalize_block, expectations, matrix_elements,
                             operator_image, resolve_spins)
from su2eth.tensors import reduce_matrix_elements

# ─── configuration ──────────────────────────────────────────────────────────


def test_from_dict_accepts_lambda_alias():
    cfg = RunConfig.from_dict({"L_list": [6], "lambda": 3.0})
    assert cfg.lam == 3.0
    assert cfg.L_list == (6,)


def test_from_dict_rejects_both_coupling_keys():
    # neither key is the obvious winner, so the config is ambiguous
    with pytest.raises(ConfigError, match="both 'lambda' and 'lam'"):
        RunConfig.from_dict({"L_list": [6], "lam": 1.0, "lambda": 3.0})


def test_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"L_list": [6], "coupling": 3.0})


NOT_OBJECTS = pytest.mark.parametrize("text", ["[1, 2]", '"x"', "null", "3"])


@NOT_OBJECTS
def test_from_dict_rejects_json_that_is_not_an_object(text):
    with pytest.raises(ConfigError, match="a config is a JSON object of fields"):
        RunConfig.from_dict(json.loads(text))


@NOT_OBJECTS
def test_cli_config_that_is_not_an_object_exits_2(tmp_path, text):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(text)
    result = CliRunner().invoke(main, ["spectrum", "--L", "6", "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert "a config is a JSON object of fields" in result.output


def test_from_dict_without_sizes_is_a_config_error():
    with pytest.raises(ConfigError, match="no system sizes given"):
        RunConfig.from_dict({})
    with pytest.raises(ConfigError, match="no system sizes given"):
        RunConfig.from_dict({"L_list": None, "lambda": 3.0})


def test_from_dict_fields_win_over_the_object():
    # the fields are the set CLI flags; a lam field wins over "lambda" and settles both keys
    assert RunConfig.from_dict({}, L_list=(8,)).L_list == (8,)
    cfg = RunConfig.from_dict({"L_list": [6], "lambda": 0.0, "spins": [0]}, lam=3.0, spins=(1,))
    assert (cfg.L_list, cfg.lam, cfg.spins) == ((6,), 3.0, (1,))
    assert RunConfig.from_dict({"L_list": [6], "lam": 1.0, "lambda": 0.5}, lam=3.0).lam == 3.0
    with pytest.raises(ConfigError, match="both 'lambda' and 'lam'"):
        RunConfig.from_dict({"L_list": [6], "lam": 1.0, "lambda": 0.5}, L_list=(8,))


def test_cli_config_file_that_is_not_utf8_exits_2_and_names_it(tmp_path):
    cfg_path = tmp_path / "f"
    cfg_path.write_bytes(bytes([0xFF, 0xFE, 0x00, 0x7B]))
    result = CliRunner().invoke(main, ["spectrum", "--L", "6", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"config {cfg_path} cannot be read as JSON" in result.output
    assert not (tmp_path / "o").exists()


def test_cli_config_file_that_cannot_be_read_exits_2_and_names_it(tmp_path, monkeypatch):
    # file modes do not stop every user, so the read itself fails
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6]}))
    read = type(cfg_path).read_bytes

    def refuse(path):
        if path == cfg_path:
            raise PermissionError(13, "Permission denied", str(path))
        return read(path)

    monkeypatch.setattr(type(cfg_path), "read_bytes", refuse)
    result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg_path),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert f"config {cfg_path} cannot be read as JSON" in result.output
    assert "Permission denied" in result.output
    assert not (tmp_path / "o").exists()


def test_from_dict_of_parsed_json():
    text = json.dumps({"L_list": [6, 8], "lambda": 3.0, "spins": [0, 1]})
    cfg = RunConfig.from_dict(json.loads(text))
    assert cfg.L_list == (6, 8)
    assert cfg.spins == (0, 1)


def test_replace_and_canonical_hash():
    cfg = RunConfig(L_list=(6,), lam=3.0, cache_dir="/a", out_dir="x", workers=4)
    other = dataclasses.replace(cfg, cache_dir="/b", out_dir="y", workers=1)
    # storage locations and parallelism must not change the run identity
    assert cfg.config_hash() == other.config_hash()
    assert dataclasses.replace(cfg, lam=0.0).config_hash() != cfg.config_hash()
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
    assert dataclasses.replace(cfg, exclude_k=(1,)).excluded_k(8) == {1}


def test_excluded_k_entries_name_momenta_at_every_size():
    # -8 and 24 name k = pi at L = 16, as 8 does; the hash keeps the given values
    configs = [RunConfig(L_list=(16,), exclude_k=(k,)) for k in (8, -8, 24)]
    admitted = [pipeline._admitted_labels(cfg, 16) for cfg in configs]
    assert admitted[0] == admitted[1] == admitted[2]
    assert {lab.k_index for lab in admitted[0]} == set(range(-7, 8))
    assert all(cfg.excluded_k(16) == {8} for cfg in configs)
    assert configs[1].excluded_k(10) == {2} and configs[2].excluded_k(12) == {0}
    assert len({cfg.config_hash() for cfg in configs}) == 3


def test_all_pairs_merges_spins_and_pairs():
    cfg = RunConfig(L_list=(6,), spins=(0, 1), spin_pairs=((0, 2),))
    assert cfg.all_pairs() == ((0, 0), (1, 1), (0, 2))


def test_config_from_lists_equals_config_from_tuples():
    tuples = RunConfig(L_list=(10, 12), lam=3.0, spins=(0, 1), spin_pairs=((0, 2),),
                       observables=("B",), exclude_k=(1, 2))
    lists = RunConfig(L_list=[10, 12], lam=3.0, spins=[0, 1], spin_pairs=[[0, 2]],
                      observables=["B"], exclude_k=[1, 2])
    assert lists == tuples
    assert lists.config_hash() == tuples.config_hash()
    assert lists.all_pairs() == ((0, 0), (1, 1), (0, 2))
    assert RunConfig.from_dict({"L_list": [10], "spin_pairs": []}).all_pairs() == ()
    replaced = dataclasses.replace(tuples, L_list=[8], spins=[2], spin_pairs=[[1, 1]])
    assert replaced.L_list == (8,)
    assert replaced.all_pairs() == ((2, 2), (1, 1))


def test_malformed_spin_pair_is_a_config_error():
    with pytest.raises(ConfigError, match="every spin pair needs two spins"):
        RunConfig(L_list=(6,), spin_pairs=[[0]])


@pytest.mark.parametrize("changes", [
    {"L_list": [10.9]},
    {"spins": [1.5]},
    {"spin_pairs": [[0.5, 2.7]]},
    {"spin_pairs": [[0, 2], [1, 1.5]]},
    {"exclude_k": [0, 2.5]},
    {"M": 0.5},
    {"workers": 1.5},
    {"half_width": 2.5},
    {"min_bin_count": 10.5},
    {"workers": True},
    {"spins": [False]},
    {"lam": True},
    {"lam": "3"},
    {"energy_window": "0.025"},
    {"omega_cut": False},
])
def test_non_integral_sizes_and_spins_are_config_errors(changes):
    # int() would truncate these silently; S = 1.5 is no sector at even L, and a
    # bool or a string is no number even where Python would take it for one
    with pytest.raises(ConfigError, match="must hold whole numbers|must be a real number"):
        RunConfig(**{"L_list": [10], **changes})


def test_a_string_of_observables_is_a_config_error():
    # tuple("BC") would read as ("B", "C")
    with pytest.raises(ConfigError, match="observables must be a list of tags, got 'BC'"):
        RunConfig(L_list=[6], observables="BC")
    with pytest.raises(ConfigError, match="observables must be a list"):
        RunConfig.from_dict({"L_list": [6], "observables": "B"})
    assert RunConfig(L_list=[6], observables=["B", "C"]).observables == ("B", "C")


@pytest.mark.parametrize("changes,message", [
    ({"spins": 1}, "spins must be a list of whole numbers, got 1"),
    ({"spin_pairs": [0, 2]}, "every spin pair needs two spins: spin_pairs=[0, 2]"),
    ({"L_list": 8}, "L_list must be a list of whole numbers, got 8"),
    ({"observables": 5}, "observables must be a list of tags, got 5"),
], ids=["spins", "spin_pairs", "L_list", "observables"])
def test_a_single_value_where_a_list_belongs_is_a_config_error(tmp_path, changes, message):
    with pytest.raises(ConfigError) as raised:
        RunConfig(**{"L_list": [6], **changes})
    assert str(raised.value) == message
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6], "spins": [0], "cache_dir": str(tmp_path / "c"),
                                    "out_dir": str(tmp_path / "o"), **changes}))
    for command in ("spectrum", "diag-eth"):
        result = CliRunner().invoke(main, [command, "--config", str(cfg_path)])
        assert result.exit_code == 2, result.output
        assert message in result.output
    assert not (tmp_path / "o").exists()


def test_whole_numbers_written_as_floats_become_ints():
    cfg = RunConfig(L_list=[10.0], spins=[1.0], spin_pairs=[[0.0, 2]], exclude_k=[0.0], M=0.0)
    assert (cfg.L_list, cfg.spins, cfg.spin_pairs, cfg.exclude_k) == ((10,), (1,), ((0, 2),), (0,))
    assert all(type(v) is int for v in (*cfg.L_list, *cfg.spins, *cfg.spin_pairs[0], cfg.M))
    assert cfg.config_hash() == RunConfig(L_list=[10], spins=[1], spin_pairs=[[0, 2]],
                                          exclude_k=[0]).config_hash()
    knobs = RunConfig(L_list=[10], workers=2.0, half_width=25.0, min_bin_count=10.0)
    assert all(type(getattr(knobs, key)) is int
               for key in ("workers", "half_width", "min_bin_count"))
    assert knobs.config_hash() == RunConfig(L_list=[10]).config_hash()
    # and the other way: whole numbers in float fields become floats, -0.0 becomes 0.0
    floats = dict(lam=3.0, central_fraction=1.0, energy_window=1.0, bin_spacing=1.0,
                  bin_width=1.0, omega_cut=3.0)
    whole = RunConfig(L_list=[10], **{key: int(value) for key, value in floats.items()})
    assert all(type(getattr(whole, key)) is float for key in floats)
    assert whole == RunConfig(L_list=[10], **floats)
    assert whole.config_hash() == RunConfig(L_list=[10], **floats).config_hash()
    negative_zero = RunConfig(L_list=[10], lam=-0.0)
    assert math.copysign(1.0, negative_zero.lam) == 1.0
    assert negative_zero.config_hash() == RunConfig(L_list=[10], lam=0.0).config_hash()


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
    ({"L_list": [6], "energy_window": math.nan}, "energy_window must be positive"),
    ({"L_list": [6], "bin_spacing": math.nan}, "bin_spacing must be positive"),
    ({"L_list": [6], "omega_cut": math.nan}, "omega_cut must be positive"),
    # an infinite knob would window, bin or cut nothing and still exit 0
    ({"L_list": [6], "energy_window": math.inf}, "energy_window must be positive and finite"),
    ({"L_list": [6], "bin_spacing": math.inf}, "bin_spacing must be positive and finite"),
    ({"L_list": [6], "bin_width": math.inf}, "bin_width must be positive and finite"),
    ({"L_list": [6], "omega_cut": math.inf}, "omega_cut must be positive and finite"),
    ({"L_list": [6], "bin_width": -math.inf}, "bin_width must be positive and finite"),
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


@pytest.mark.parametrize("command", ["diag-eth", "offdiag-eth"])
def test_an_exclude_k_that_admits_no_sector_is_a_config_error(tmp_path, command):
    # at L = 6 the momenta are k = -2..3, all excluded; L = 8 keeps k = -3 and 4
    fields = {"L_list": [8, 6], "lambda": 3.0, "spins": [1], "exclude_k": [-2, -1, 0, 1, 2, 3],
              "cache_dir": str(tmp_path / "c"), "out_dir": str(tmp_path / "o")}
    run = {"diag-eth": run_diag_eth, "offdiag-eth": run_offdiag_eth}[command]
    message = "exclude_k=[-2, -1, 0, 1, 2, 3] admits no sector at L = 6"
    with pytest.raises(ConfigError, match=re.escape(message)):
        run(RunConfig.from_dict(fields))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(fields))
    result = CliRunner().invoke(main, [command, "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "o").exists()


def test_spin_selection_validation(tmp_path):
    with pytest.raises(ConfigError, match="empty spin selection"):
        run_diag_eth(_analysis_config(tmp_path, spins=()))
    with pytest.raises(ConfigError, match="S=4 exceeds the bound S <= L/2 = 3"):
        run_diag_eth(_analysis_config(tmp_path, spins=(4,)))
    with pytest.raises(ConfigError, match=r"pair \(0,2\): every element of A vanishes"):
        run_offdiag_eth(_analysis_config(tmp_path, spins=(), spin_pairs=((0, 2),)))
    with pytest.raises(ConfigError, match=r"pair \(0,1\): every element of B vanishes"):
        run_offdiag_eth(_analysis_config(
            tmp_path, spins=(), spin_pairs=((0, 1),), observables=("B",)))
    with pytest.raises(ConfigError, match=r"pair \(0,3\): every element of B vanishes"):
        run_offdiag_eth(_analysis_config(
            tmp_path, spins=(), spin_pairs=((0, 3),), observables=("B",)))
    with pytest.raises(ConfigError, match="M = 0 sector only"):
        run_diag_eth(_analysis_config(tmp_path, M=1))


@pytest.mark.parametrize("run,changes,message", [
    (run_spectrum, {"L_list": (6, 8, 6)}, "L_list repeats an entry"),
    (run_diag_eth, {"observables": ("B", "B")}, "observables repeats an entry"),
    (run_diag_eth, {"spins": (1, 0, 1)}, "spin selection repeats an entry"),
    (run_offdiag_eth, {"spins": (0,), "spin_pairs": ((0, 2), (0, 0)), "observables": ("B",)},
     "spin selection repeats an entry"),
])
def test_repeated_entries_are_rejected(tmp_path, run, changes, message):
    # a repeated entry would be pooled and fitted twice
    with pytest.raises(ConfigError, match=message):
        run(_analysis_config(tmp_path, **changes))
    assert not (tmp_path / "cache").exists()


def test_diag_eth_ignores_the_spin_pair_rules(tmp_path):
    # diag-eth never reads spin_pairs: the cross-spin pair that offdiag-eth
    # rejects for A must not stop it
    cfg = _analysis_config(tmp_path, spin_pairs=((0, 2),), observables=("A",))
    run_spectrum(cfg)
    run_diag_eth(cfg)
    assert (tmp_path / "out" / "diag.csv").exists()
    with pytest.raises(ConfigError, match=r"pair \(0,2\): every element of A vanishes"):
        run_offdiag_eth(cfg)


# ─── spectra and cache flow ─────────────────────────────────────────────────


def test_run_spectrum_l6_summary(tmp_path):
    cfg = _analysis_config(tmp_path)
    summary = run_spectrum(cfg)
    size = summary["sizes"]["6"]
    # 12 (k, z) sectors, the four at k = 0 and pi as two parity halves each
    assert size["blocks"] == 16
    assert size["states"] == 20
    assert size["per_spin_counts"] == {"0": "5", "1": "9", "2": "5", "3": "1"} or \
        size["per_spin_counts"] == {"0": 5, "1": 9, "2": 5, "3": 1}
    assert size["built"] == 16
    assert size["cache_hits"] == 0
    assert not summary["failures"]
    assert (tmp_path / "out" / "spectrum_summary.json").exists()
    assert (tmp_path / "out" / "manifest.jsonl").exists()


def test_warm_rerun_hits_cache_with_zero_diagonalizations(tmp_path, eigensolves):
    cfg = _analysis_config(tmp_path)
    run_spectrum(cfg)
    # 16 sectors, 4 of them at k < 0 served by conjugating their mirror
    assert len(eigensolves) == 12
    assert all(sector.k_index >= 0 for sector in eigensolves)
    eigensolves.clear()
    summary = run_spectrum(cfg)
    assert eigensolves == []
    size = summary["sizes"]["6"]
    assert size["cache_hits"] == 16
    assert size["built"] == 0


def test_parity_halves_share_one_assembly_and_rerun_warm(tmp_path, monkeypatch, eigensolves):
    assembled = Counter()
    for name in ("build_hamiltonian", "build_spin_ladder", "build_total_spin_squared"):
        def counted(basis, *args, _build=getattr(pipeline, name), _name=name):
            assembled[_name, basis.sector] += 1
            return _build(basis, *args)
        monkeypatch.setattr(pipeline, name, counted)
    cfg = _analysis_config(tmp_path, L_list=(6, 8), workers=1)
    run_spectrum(cfg)
    labels = [lab for L in cfg.L_list for lab in sector_labels(L)]
    units = {dataclasses.replace(lab, k_index=abs(lab.k_index), parity=None) for lab in labels}
    # one H and one S^+ per whole (k, z) sector, no S^2; one eigensolve per k >= 0 label
    assert assembled == Counter({(name, unit): 1 for unit in units
                                 for name in ("build_hamiltonian", "build_spin_ladder")})
    assert sorted(eigensolves, key=repr) == sorted((lab for lab in labels if lab.k_index >= 0), key=repr)
    names = {path.name for path in (tmp_path / "cache").glob("*.eig")}
    assert names == {spectrum_path(tmp_path, lab, 3.0).name for lab in labels if lab.k_index >= 0}
    assembled.clear()
    eigensolves.clear()
    summary = run_spectrum(cfg)
    assert eigensolves == [] and not assembled
    assert [size["built"] for size in summary["sizes"].values()] == [0, 0]


@pytest.mark.parametrize("workers", [1, 2])
def test_analyses_admitting_k_zero_and_pi_read_each_parity_half(tmp_path, workers):
    # L = 6 and 8 have empty parity halves, which every command works like any block
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=(0, 1), spin_pairs=((0, 2),),
                           observables=("B", "C"), exclude_k=(), workers=workers)
    run_spectrum(cfg)
    run_diag_eth(cfg)
    run_offdiag_eth(cfg)
    rows = [e for e in _manifest(tmp_path / "out") if e["stage"] == "blocks"]
    assert [(r["L"], r["admitted"], r["loaded"]) for r in rows] == [(6, 16, 12), (8, 20, 14)] * 2
    report = run_oracle_check(cfg)
    assert report["pass"] is True
    assert len(report["block_audits"]) == 16 + 20


@pytest.mark.parametrize("lam", [3.0, 0.0])
@pytest.mark.parametrize("L", [8, 10, 12, 14])
def test_top_two_spin_multiplets_match_their_closed_forms(tmp_path, L, lam):
    # the expected levels share no code with the assembly: by SU(2) the S = L/2
    # multiplet is the ferromagnet E_F = -L(1 + lam)/4 at k = 0, and S = L/2 - 1
    # its one-magnon band, one level at each k != 0; every label is read, each
    # -k mirror (served from its +k file) and each parity half included
    e_f = -L * (1.0 + lam) / 4.0
    levels = []  # (S, k index, energy, closed form)
    for label in sector_labels(L):
        spectrum, _ = ensure_spectrum(label, lam, tmp_path)
        k = label.k
        band = e_f + (1.0 - math.cos(k)) + lam * (1.0 - math.cos(2.0 * k))
        levels += [(int(s), label.k_index, float(e), e_f if s == L // 2 else band)
                   for s, e in zip(spectrum.spins, spectrum.energies) if s >= L // 2 - 1]
    assert len(levels) == L
    assert sorted((s, n) for s, n, _, _ in levels) == (
        [(L // 2 - 1, n) for n in range(-L // 2 + 1, L // 2 + 1) if n != 0] + [(L // 2, 0)])
    for s, n, energy, exact in levels:
        assert abs(energy - exact) <= 1e-12 * max(1.0, abs(exact)), (s, n, energy, exact)


def _holds_live_pair(cfg, root, sector, observable) -> bool:
    """Whether offdiag-eth computes elements of observable in one solved sector: some
    selected pair has states on both sides and is no structural zero."""
    dims = load_cached_spectrum(sector, cfg.lam, root).spin_dims()
    return any(dims.get(s_a, 0) and dims.get(s_b, 0)
               and not pipeline._vanishes(observable, s_a, s_b, cfg.lam, offdiagonal=True)
               for s_a, s_b in cfg.all_pairs())


def test_analyses_assemble_each_observable_once_per_unit(tmp_path, monkeypatch):
    # both parity halves of a k = 0 or pi sector cut one assembly of each
    # primitive, A and C, that their observables need: B = A/sqrt(2) + sqrt(3/2) C.
    # spectrum takes both diagonals at solve time, so diag-eth builds none
    built = Counter()
    build = pipeline.build_observable

    def counted(basis, observable):
        built[observable, basis.sector] += 1
        return build(basis, observable)

    diagonal = pipeline.c_diagonal

    def counted_diagonal(basis):  # C is assembled as its exact diagonal, without a block
        built["C", basis.sector] += 1
        return diagonal(basis)

    monkeypatch.setattr(pipeline, "build_observable", counted)
    monkeypatch.setattr(pipeline, "c_diagonal", counted_diagonal)
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=(0, 1), observables=("B", "C"),
                           exclude_k=())
    run_spectrum(cfg)
    root = tmp_path / "cache"
    units = {pipeline._unit(lab) for L in cfg.L_list for lab in sector_labels(L)}
    assert built == Counter({(p, unit) for unit in units for p in ("A", "C")})
    spins = {unit: {s for half in parity_halves(unit)
                    for s in load_cached_spectrum(half, cfg.lam, root).spin_dims()}
             for unit in units}
    # offdiag-eth: C for the (0, 0) and (1, 1) pairs; B vanishes between S = 0
    # states, so only a unit with S = 1 states builds A, for B (1, 1)
    live = {("C", unit) for unit in units if spins[unit] & {0, 1}}
    live |= {("A", unit) for unit in units if 1 in spins[unit]}
    assert 0 < len(live) - len(units) < len(units)
    for run, expected in ((run_diag_eth, set()), (run_offdiag_eth, live)):
        built.clear()
        run(cfg)
        assert built == Counter(expected)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_parity_half_is_quarantined_alone(tmp_path, monkeypatch, workers):
    solve = pipeline.diagonalize_block

    def failing(block):
        if block.sector.k_index == 0 and block.sector.parity == 1:
            raise np.linalg.LinAlgError("eigensolve did not converge")
        return solve(block)

    monkeypatch.setattr(pipeline, "diagonalize_block", failing)
    cfg = _analysis_config(tmp_path, L_list=(10,), workers=workers)
    summary = run_spectrum(cfg)
    labels = sector_labels(10)
    bad = [lab for lab in labels if lab.k_index == 0 and lab.parity == 1]
    assert [f["sector"] for f in summary["failures"]] == [pipeline._sector_name(lab, 3.0)
                                                          for lab in bad]
    # a unit works its +1 half first; the failure does not stop the -1 half
    assert all(spectrum_path(tmp_path / "cache", dataclasses.replace(lab, parity=-1), 3.0).exists()
               for lab in bad)
    assert summary["sizes"]["10"]["built"] == len(labels) - len(bad)
    monkeypatch.setattr(pipeline, "diagonalize_block", solve)
    summary = run_spectrum(cfg)
    assert not summary["failures"]
    assert summary["sizes"]["10"]["built"] == len(bad)


def _fail_one_half(sector, cut, config, root):
    """The sector itself, except that the work of L = 8, k = 0, z = +1, P = -1 fails."""
    if (sector.k_index, sector.z2_parity, sector.parity) == (0, 1, -1):
        raise ValueError(f"no work for {sector}")
    return sector


@pytest.mark.parametrize("workers", [1, 2])
def test_a_sector_error_is_the_result_of_its_own_labels_alone(tmp_path, workers):
    cfg = _analysis_config(tmp_path, L_list=(8,), exclude_k=[])
    labels = pipeline._admitted_labels(cfg, 8)
    plus, minus = (SectorLabel(L=8, M=0, k_index=0, z2_parity=1, parity=p) for p in (1, -1))
    assert plus in labels and minus in labels
    with pipeline._sector_pool(workers) as pool:
        result = pipeline._per_block(cfg, tmp_path / "cache", labels, _fail_one_half, pool)
        # the other half of the unit keeps its result, and so does every other label
        assert result(plus) == plus
        assert all(result(lab) == pipeline._solved(lab) for lab in labels if lab != minus)
        with pytest.raises(ValueError, match=re.escape(f"no work for {minus}")):
            result(minus)


def test_one_worker_solves_in_the_calling_thread(tmp_path, monkeypatch):
    solve = pipeline.diagonalize_block
    on_main = []

    def recorded(block):
        on_main.append(threading.current_thread() is threading.main_thread())
        return solve(block)

    monkeypatch.setattr(pipeline, "diagonalize_block", recorded)
    summary = run_spectrum(_analysis_config(tmp_path, workers=1))
    assert not summary["failures"]
    assert on_main == [True] * 12


@pytest.mark.parametrize("M, solved", [(0, 8), (1, 4)])
def test_mirrored_spectrum_passes_block_audit(tmp_path, M, solved):
    cfg = _analysis_config(tmp_path, M=M)
    run_spectrum(cfg)
    root = tmp_path / "cache"
    names = sorted(path.name for path in root.glob("*.eig"))
    # one file per solved (k, z) sector, two for each of those at k = 0 and pi
    assert len({name.replace("_Pp1", "").replace("_Pm1", "") for name in names}) == solved
    assert len(names) == solved + (4 if M == 0 else 2)
    assert not any("_k-" in name for name in names)
    mirrored = [lab for lab in sector_labels(6, M) if lab.k_index < 0]
    assert mirrored
    for lab in mirrored:
        minus, hit = ensure_spectrum(lab, 3.0, root)
        plus, _ = ensure_spectrum(pipeline._mirror(lab), 3.0, root)
        assert hit and minus.sector == lab and minus.dim
        for name in ("energies", "spins"):
            assert np.array_equal(getattr(minus, name), getattr(plus, name)), name
        assert np.array_equal(minus.vectors, np.conjugate(plus.vectors))
        assert load_cached_spectrum(lab, 3.0, root).vectors.tobytes() == minus.vectors.tobytes()
        # oracle-check's bounds; the -k eigen residual is taken against a freshly built H(-k)
        checked = pipeline._drive(pipeline._audit_sector, plus.sector, cfg, root)[plus.sector]
        assert set(checked["audits"]) == {plus.sector, lab}
        audit, failed = checked["audits"][lab]
        assert audit["sector"] == spectrum_path(root, lab, 3.0).stem and not failed
        scale = max(1.0, float(np.abs(minus.energies).max()))
        # the row carries the dim and scale of its bounds, for readers of oracle_check.json
        assert (audit["dim"], audit["scale"]) == (minus.dim, scale), audit
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
                tables = [matrix_elements(op, spectrum, pair)
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


def test_spectrum_solves_the_largest_size_first_and_journals_in_plan_order(tmp_path,
                                                                           eigensolves):
    summary = run_spectrum(_analysis_config(tmp_path, L_list=(6, 8)))
    # in place, units are worked in the order they are submitted: the whole plan, L = 8 first
    assert [sector.L for sector in eigensolves] == [8] * 14 + [6] * 12
    rows = [e for e in _manifest(tmp_path / "out") if e["stage"] == "spectrum"]
    assert [r["sector"] for r in rows] == [spectrum_path(tmp_path, lab, 3.0).stem
                                           for L in (6, 8) for lab in sector_labels(L)]
    assert list(summary["sizes"]) == ["6", "8"]
    for L, size in summary["sizes"].items():
        # the seconds of the size's solved sectors, summed
        seconds = sum(r.get("seconds", 0.0) for r in rows if r["sector"].startswith(f"L{L}_"))
        assert size["seconds"] == pytest.approx(seconds, abs=1e-3)


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
    assert summary["sizes"]["6"]["blocks"] == 12
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
        assert rows[0] == rows[1] and len(rows[0]) == 16 + 20
    names = sorted(path.name for path in caches[1].glob("*.eig"))
    assert names == sorted(path.name for path in caches[2].glob("*.eig")) and len(names) == 2 * 26
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
    # L = 6, M = 0 has 12 (k, z) sectors, 8 of them at k >= 0: the parity
    # halves of a k = 0 or pi sector are solved in one unit
    assert started == [8]
    assert not summary["failures"]
    done = _manifest(tmp_path / "out")[-1]
    assert (done["stage"], done["workers"]) == ("run", 8)
    run_spectrum(_analysis_config(tmp_path, workers=1))
    assert started == [8]
    assert _manifest(tmp_path / "out")[-1]["workers"] == 1


@pytest.mark.parametrize("run,cap", [(run_offdiag_eth, 4), (run_oracle_check, 8)])
def test_every_command_pool_is_capped_at_its_solved_sectors(tmp_path, monkeypatch, run, cap):
    cfg = _analysis_config(tmp_path, observables=("B",))
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    started = []
    real = pipeline.ProcessPoolExecutor

    def recording(max_workers, **kwargs):
        started.append(max_workers)
        return real(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", recording)
    run(dataclasses.replace(cfg, workers=16))
    # at L = 6 the analyses read the k = 1, 2 files of both parities, k = 0
    # and pi being excluded; oracle-check works all 8 k >= 0 (k, z) sectors,
    # the two parity halves of those at k = 0 and pi as one unit
    assert started == [cap]
    assert _manifest(tmp_path / "out")[-1]["workers"] == cap


def test_diag_eth_starts_no_pool(tmp_path, monkeypatch):
    # diag-eth reads only cache heads, so it works every sector in place at any workers
    cfg = _analysis_config(tmp_path, L_list=(6, 8), observables=("B",))
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    run_diag_eth(dataclasses.replace(cfg, out_dir=str(tmp_path / "one")))
    started = []
    monkeypatch.setattr(pipeline, "ProcessPoolExecutor", lambda *a, **k: started.append(a or k))
    run_diag_eth(dataclasses.replace(cfg, workers=2))
    assert started == []
    assert _manifest(tmp_path / "out")[-1]["workers"] == 1
    for name in ("diag.csv", "spin_means.csv", "fluct.csv", "predictions.csv", "diag_fits.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_every_command_gives_the_same_bytes_at_one_and_two_workers(tmp_path, lam):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), lam=lam, spins=(0, 1, 2),
                           spin_pairs=((0, 2),), observables=("B", "C"))
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    outputs = []
    for workers in (1, 2):
        out = tmp_path / f"w{workers}"
        for run in (run_diag_eth, run_offdiag_eth, run_oracle_check):
            run(dataclasses.replace(cfg, workers=workers, out_dir=str(out)))
        outputs.append({p.name: p.read_bytes() for p in out.iterdir()
                        if p.name != "manifest.jsonl"})
    assert len(outputs[0]) == 11
    assert outputs[0] == outputs[1]


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
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    run(cfg)
    entries = [json.loads(line)
               for line in (tmp_path / "out" / "manifest.jsonl").read_text().splitlines()]
    runs = [e for e in entries if e["stage"] == "run"]
    assert [(e["status"], e["command"]) for e in runs] == [("start", command), ("done", command)]
    assert runs[0]["fingerprint"] == f"{build_fingerprint():016x}"
    assert runs[1]["workers"] == 1


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
    loads = Counter()
    enumerate_basis = pipeline.enumerate_sector_basis
    load = cache.load_spectrum

    def counting_enumerate(sector):
        builds[sector] += 1
        return enumerate_basis(sector)

    def counting_load(root, sector, lam):
        loads[sector] += 1
        return load(root, sector, lam)

    monkeypatch.setattr(pipeline, "enumerate_sector_basis", counting_enumerate)
    monkeypatch.setattr(cache, "load_spectrum", counting_load)
    assert run_oracle_check(cfg)["pass"] is True
    labels = [lab for L in cfg.L_list for lab in sector_labels(L)]
    # one basis per k >= 0 (k, z) sector, cut for its parity halves, and one
    # per -k label, whose H(-k) checks the mirror rule
    assert builds == Counter({pipeline._unit(lab) for lab in labels}
                             | {lab for lab in labels if lab.k_index < 0})
    assert sum(builds.values()) == 48
    # each k >= 0 file is read once; its -k mirror is audited from that read
    assert loads == Counter(lab for lab in labels if lab.k_index >= 0)
    assert sum(loads.values()) == 42


def test_every_analysed_sector_is_nonempty():
    # the analyses and oracle-check run at M = 0 and 6 <= L <= 18, where no
    # (k, z) sector is empty; L = 4 has empty ones, which spectrum still
    # solves. Parity halves are empty at L = 6 and 8 only, and every command
    # works them like any other block
    for L in range(6, 19, 2):
        whole = {dataclasses.replace(lab, parity=None) for lab in sector_labels(L)}
        assert min(enumerate_sector_basis(lab).dim for lab in whole) > 0, L
        empty = sum(enumerate_sector_basis(lab).dim == 0 for lab in sector_labels(L))
        assert empty == {6: 4, 8: 2}.get(L, 0), L
    assert sum(enumerate_sector_basis(lab).dim == 0 for lab in sector_labels(4)) == 7


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
    # offdiag-eth builds no basis for a sector that holds no live (observable, pair), and
    # diag-eth, which reads each block's stored diagonals, builds none at all
    expected = {pipeline._solved(lab) for lab in nonempty}
    if run is run_diag_eth:
        expected = set()
    else:
        skipped = {sector for sector in expected
                   if not any(_holds_live_pair(cfg, root, sector, o) for o in cfg.observables)}
        assert skipped == {SectorLabel(6, 0, 2, -1)}
        expected -= skipped
    assert builds == Counter(expected)


@pytest.mark.parametrize("run,source", [
    (run_spectrum, "ensure_spectrum"),
    (run_diag_eth, "load_cached_spectrum"),
    (run_offdiag_eth, "load_cached_spectrum"),
    (run_oracle_check, "load_cached_spectrum"),
])
def test_commands_hold_at_most_one_earlier_spectrum(tmp_path, monkeypatch, run, source):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), observables=("B",), workers=1)
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    fetch = getattr(pipeline, source)
    refs = []
    alive = []

    def tracking_fetch(*args, **kwargs):
        alive.append(sum(ref() is not None for ref in refs))
        result = fetch(*args, **kwargs)
        refs.append(weakref.ref(result[0] if source == "ensure_spectrum" else result))
        return result

    monkeypatch.setattr(pipeline, source, tracking_fetch)
    run(cfg)
    # the spectrum sweep and oracle-check fetch every k >= 0 sector, the
    # analyses the solved sectors of the admitted labels (k = 0 and pi excluded)
    assert len(refs) == (10 if run in (run_diag_eth, run_offdiag_eth) else 26)
    assert max(alive) <= 1


def test_split_mirror_pair_is_served_from_the_solved_file(tmp_path, monkeypatch):
    # exclude_k=(0, 4, 1) admits -1 without +1: the -1 labels still read the
    # +1 files, once per size, and give the bytes of the run admitting +1 alone
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=(0, 1, 2), observables=("A", "B", "C"))
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    loads = Counter()

    def counting(load):
        return lambda root, sector, lam: loads.update([sector]) or load(root, sector, lam)

    # diag-eth reads the files' heads, offdiag-eth the whole files
    for name in ("load_spectrum", "load_head"):
        monkeypatch.setattr(cache, name, counting(getattr(cache, name)))
    plus_one = [lab for L in cfg.L_list for lab in sector_labels(L) if lab.k_index == 1]
    outputs = {}
    for k in (1, -1):
        out = tmp_path / f"out{k}"
        split = dataclasses.replace(cfg, exclude_k=(0, 4, k), out_dir=str(out))
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
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    for run in (run_diag_eth, run_offdiag_eth):
        out = tmp_path / run.__name__
        run(dataclasses.replace(cfg, out_dir=str(out)))
        entries = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
        # k = 0 and pi excluded; each admitted +-k pair is loaded once
        assert [(e["L"], e["admitted"], e["loaded"])
                for e in entries if e["stage"] == "blocks"] == [(6, 8, 4), (8, 12, 6)]


def _full_element_records(cfg, root, labels):
    """Per (observable, pair, reduced), each label's whole element records, in label order.

    Each observable's block is assembled from the label's own A and C
    element blocks by pipeline._terms, as offdiag-eth assembles them, and
    B's is reduced by reduce_matrix_elements. The alpha == beta records of a
    same-spin pair are dropped here, as offdiag-eth drops them.
    """
    records = {}
    for lab in labels:
        spectrum = load_cached_spectrum(lab, cfg.lam, root)
        basis = enumerate_sector_basis(lab)
        dims = spectrum.spin_dims()
        for observable in cfg.observables:
            for pair in cfg.all_pairs():
                d_a, d_b = (dims.get(s, 0) for s in pair)
                if d_a == 0 or d_b == 0 or pipeline._vanishes(observable, *pair, cfg.lam,
                                                              offdiagonal=True):
                    continue
                terms = pipeline._terms(observable, *pair, cfg.lam, offdiagonal=True)
                elements = {p: matrix_elements(build_observable(basis, p), spectrum, pair)
                            for p, _ in terms}
                first = elements[terms[0][0]]
                table = MatrixElementTable(pipeline._assemble(terms, lambda p: elements[p].block),
                                           first.rows, first.cols, spectrum)
                tables = {False: table}
                if observable == "B":
                    tables[True] = reduce_matrix_elements(table, 2)
                for reduced, t in tables.items():
                    recs = t.records[t.records["alpha"] != t.records["beta"]]
                    if recs.size or not reduced:
                        records.setdefault((observable, pair, reduced), []).append((recs, d_a, d_b))
    return records


def _window_all(cfg, L, key, entries):
    # the ensemble built from a size's whole record tables at once
    observable, pair, _ = key
    return build_offdiagonal_ensemble(
        observable, L, cfg.lam, pair,
        [(r["e_a"], r["e_b"], r["value"], d_a, d_b) for r, d_a, d_b in entries],
        cfg.energy_window)


def _window_weighted(cfg, root, L, labels):
    """Per key, each solved sector's record tables windowed whole, weighted by the labels it serves.

    The records follow label order of each solved sector's first admitted
    label; block_dims has one entry per admitted label, in label order.
    """
    served = Counter(map(pipeline._solved, labels))
    firsts = {}
    for lab in labels:
        firsts.setdefault(pipeline._solved(lab), lab)
    parts = {}
    for solved, lab in firsts.items():
        for key, entries in _full_element_records(cfg, root, [lab]).items():
            parts.setdefault(key, []).append((_window_all(cfg, L, key, entries), served[solved]))
    out = {}
    for key, entries in _full_element_records(cfg, root, labels).items():
        windowed = parts[key]
        out[key] = OffDiagonalEnsemble(
            L, np.concatenate([e.omega for e, _ in windowed]),
            np.concatenate([e.abs_sq for e, _ in windowed]),
            tuple((d_a, d_b) for _, d_a, d_b in entries),
            np.repeat(np.array([w for _, w in windowed], dtype=np.uint8),
                      [e.size for e, _ in windowed]))
    return out


# a band element's round-off against the whole block's, over the largest |element| of
# that whole table: a band GEMM may sum in another order than the whole block's one
BAND_BOUND = 1e-13


def _in_window(cfg, L, pair, records) -> np.ndarray:
    # build_offdiagonal_ensemble's exact window, alpha == beta dropped as offdiag-eth drops it
    center = pipeline.analysis.window_center(L, cfg.lam, pair)
    return ((np.abs(0.5 * (records["e_a"] + records["e_b"]) - center) / L <= cfg.energy_window)
            & (records["alpha"] != records["beta"]))


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_per_block_window_equals_windowing_whole_record_tables(tmp_path, monkeypatch, lam):
    """offdiag-eth forms each block's elements only in the energy window's band.

    Each band table holds every (alpha, beta) that windowing the whole block
    keeps, in the same row-major order, with values within BAND_BOUND. The
    ensembles keep the pairs, omega, weights, block_dims and elements and kept
    counts of windowing the whole record tables, and |O| within BAND_BOUND;
    at L = 8 the (0, 2) band of a k = 1 or 3 block is empty while its block
    is not, and that block still enters the reduced ensemble's block_dims.
    """
    cfg = _analysis_config(tmp_path, L_list=(8, 10, 12), lam=lam, spins=(0, 1, 2),
                           spin_pairs=((0, 2),), observables=("B", "C"))
    run_spectrum(cfg)
    root = tmp_path / "cache"
    bands, elements = [], pipeline.matrix_elements

    def recorded(obs, spectrum, pair, image, band):
        table = elements(obs, spectrum, pair, image, band)
        bands.append((obs, spectrum, pair, table))
        return table

    monkeypatch.setattr(pipeline, "matrix_elements", recorded)
    compared = empty = 0
    for L in cfg.L_list:
        labels = pipeline._admitted_labels(cfg, L)
        weighted = _window_weighted(cfg, root, L, labels)
        scales = {key: max(float(np.abs(r["value"]).max(initial=0.0)) for r, _, _ in entries)
                  for key, entries in _full_element_records(cfg, root, labels).items()}
        for workers in (1, 2):
            with pipeline._sector_pool(workers) as pool:
                yielded = list(pipeline._offdiag_ensembles(cfg, root, L, labels, pool))
            assert [(o, p) for o, p, _, _ in yielded] == [
                (o, p) for o in cfg.observables for p in cfg.all_pairs()]
            for observable, pair, ens, red_ens in yielded:
                for reduced, got in ((False, ens), (True, red_ens)):
                    key = (observable, pair, reduced)
                    if reduced and key not in weighted:
                        assert got is None, key
                        continue
                    want = weighted.get(key) or _window_all(cfg, L, key, [])
                    assert got.omega.tobytes() == want.omega.tobytes(), key
                    assert got.weights.tobytes() == want.weights.tobytes(), key
                    assert got.block_dims == want.block_dims, key
                    assert got.weighted_size == want.weighted_size, key
                    scale = scales.get(key, 0.0)
                    assert np.all(np.abs(np.sqrt(got.abs_sq) - np.sqrt(want.abs_sq))
                                  <= BAND_BOUND * scale), key
                    compared += got.size
            # B between S = 0 states vanishes and is not offered: empty, as before
            assert dict(((o, p), e.size) for o, p, e, _ in yielded)["B", (0, 0)] == 0
        # in place, every band table was formed here: each holds the kept pairs of the whole
        for obs, spectrum, pair, table in bands:
            whole = elements(obs, spectrum, pair).records
            band = table.records
            kept = whole[_in_window(cfg, L, pair, whole)]
            band_kept = band[_in_window(cfg, L, pair, band)]
            for name in ("alpha", "beta", "e_a", "e_b"):
                assert band_kept[name].tobytes() == kept[name].tobytes(), (spectrum.sector, pair)
            scale = float(np.abs(whole["value"]).max(initial=0.0))
            assert np.all(np.abs(band_kept["value"] - kept["value"]) <= BAND_BOUND * scale)
            empty += band.size == 0 < whole.size
        bands.clear()
    assert compared > 3000 and empty > 0


def test_offdiag_eth_lays_out_no_element_records(tmp_path, monkeypatch):
    # the elements reach the window as flat per-pair arrays; records are laid out only when read
    reads = []
    layout = MatrixElementTable.records
    monkeypatch.setattr(MatrixElementTable, "records",
                        property(lambda table: reads.append(table) or layout.fget(table)))
    kept = 0
    for lam in (3.0, 0.0):
        cfg = _analysis_config(tmp_path, L_list=(8,), lam=lam, spins=(0, 1, 2),
                               spin_pairs=((0, 2),), observables=("B", "C"), exclude_k=(),
                               out_dir=str(tmp_path / f"out{lam}"))
        run_spectrum(cfg)
        run_offdiag_eth(cfg)
        manifest = (tmp_path / f"out{lam}" / "manifest.jsonl").read_text().splitlines()
        kept += sum(row["kept"] for row in map(json.loads, manifest) if row["stage"] == "blocks")
    assert kept > 0 and reads == []
    # the wrapper counts a read where there is one
    basis = enumerate_sector_basis(SectorLabel(8, 0, 1, 1))
    spectrum = load_cached_spectrum(SectorLabel(8, 0, 1, 1), 0.0, tmp_path / "cache")
    s = int(spectrum.spins[0])
    table = matrix_elements(build_observable(basis, "C"), spectrum, (s, s))
    assert len(table.records) == spectrum.spin_dims()[s] ** 2
    assert len(reads) == 1


def test_a_lone_minus_k_label_weights_its_block_once(tmp_path):
    # k = 3 is excluded, so the solved k = 3 blocks serve only their -3 labels
    cfg = _analysis_config(tmp_path, L_list=(8,), spins=(1,), observables=("B",),
                           exclude_k=(0, 4, 3))
    run_spectrum(cfg)
    root = tmp_path / "cache"
    labels = pipeline._admitted_labels(cfg, 8)
    assert {lab.k_index for lab in labels} == {-3, -2, -1, 1, 2}
    [(_, _, ens, _)] = pipeline._offdiag_ensembles(cfg, root, 8, labels)
    lone = [pipeline._drive(pipeline._element_tables, pipeline._unit(lab), cfg, root)
            [pipeline._solved(lab)].get(("B", (1, 1), False))
            for lab in labels if lab.k_index == -3]
    lone_omega = np.concatenate([part.omega for part in lone if part is not None])
    assert lone_omega.size > 0
    assert np.array_equal(np.sort(ens.omega[ens.weights == 1]), np.sort(lone_omega))
    assert set(ens.weights[ens.weights != 1].tolist()) == {2}
    assert ens.weighted_size == 2 * ens.size - lone_omega.size
    # one block_dims entry per admitted label that has S = 1 states
    assert len(ens.block_dims) == sum(
        load_cached_spectrum(lab, cfg.lam, root).spin_dims().get(1, 0) > 0 for lab in labels)


def test_element_tables_hold_only_the_kept_pairs(tmp_path):
    cfg = _analysis_config(tmp_path, L_list=(10,), spins=(0, 1, 2), spin_pairs=((0, 2),),
                           observables=("B", "C"))
    run_spectrum(cfg)
    root = tmp_path / "cache"
    offered = kept_total = 0
    for lab in pipeline._admitted_labels(cfg, 10):
        unit = pipeline._drive(pipeline._element_tables, pipeline._unit(lab), cfg, root)
        parts = unit[pipeline._solved(lab)]
        assert parts
        for key, entries in _full_element_records(cfg, root, [lab]).items():
            [(recs, _, _)] = entries
            kept = _window_all(cfg, 10, key, entries).size
            part = parts.pop(key)
            arrays = [getattr(part, f.name) for f in dataclasses.fields(part)]
            assert all(len(a) <= kept for a in arrays if isinstance(a, np.ndarray)), key
            assert part.size == kept
            offered += recs.size
            kept_total += kept
        assert not parts
    # the window drops most pairs, so the parts are a fraction of the records
    assert 0 < kept_total < offered / 2


def test_diagonal_tables_own_their_arrays(tmp_path):
    # a view into a cache file's bytes would keep the whole file alive
    cfg = _analysis_config(tmp_path, L_list=(8,), observables=("A", "B", "C"))
    run_spectrum(cfg)
    root = tmp_path / "cache"
    for lab in pipeline._admitted_labels(cfg, 8):
        unit = pipeline._drive(pipeline._diagonal_tables, pipeline._unit(lab), cfg, root)
        tables = unit[pipeline._solved(lab)]
        arrays = [a for table in tables.values() for a in table]
        assert len(arrays) == 9
        assert all(a.base is None and a.flags.owndata for a in arrays), lab
    # so do oracle-check's per-sector results and the energies and spins of a load
    audited = 0
    for unit in dict.fromkeys(map(pipeline._unit, sector_labels(8))):
        for sector, checked in pipeline._drive(pipeline._audit_sector, unit, cfg, root).items():
            spins, per_state = checked["moments"]
            spectrum = cache.load_spectrum(root, sector, cfg.lam)
            arrays = [spins, *per_state.values(), spectrum.energies, spectrum.spins]
            assert len(arrays) == 14
            assert all(a.base is None and a.flags.owndata for a in arrays), sector
            audited += 1
    assert audited == 14


def test_offdiag_blocks_row_counts_offered_and_kept_pairs(tmp_path):
    cfg = _analysis_config(tmp_path, L_list=(8, 10), spins=(0, 1, 2), spin_pairs=((0, 2),),
                           observables=("B", "C"))
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    run_offdiag_eth(cfg)
    rows = [e for e in _manifest(tmp_path / "out") if e["stage"] == "blocks"]
    root = tmp_path / "cache"
    for row, L in zip(rows, cfg.L_list, strict=True):
        records = _full_element_records(cfg, root, pipeline._admitted_labels(cfg, L))
        raw = [(key, entries) for key, entries in records.items() if not key[2]]
        assert row["elements"] == sum(r.size for _, entries in raw for r, _, _ in entries)
        assert row["kept"] == sum(_window_all(cfg, L, key, entries).size for key, entries in raw)
        assert 0 < row["kept"] < row["elements"]
    run_diag_eth(cfg)
    diag_rows = [e for e in _manifest(tmp_path / "out") if e["stage"] == "blocks"][len(rows):]
    assert len(diag_rows) == 2
    assert not any({"elements", "kept"} & set(e) for e in diag_rows)


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


def _per_value_csv(columns, rows) -> bytes:
    """The table of rows as written value by value, each value formatted by its own type."""
    def per_value(value):
        if isinstance(value, (float, np.floating)):
            return format(float(value), ".17g")
        if isinstance(value, (bool, np.bool_)):
            return "1" if value else "0"
        return str(value)

    return ("# config h\n" + ",".join(columns) + "\n"
            + "".join(",".join(map(per_value, row)) + "\n" for row in rows)).encode()


def test_csv_groups_write_the_rows_they_stand_for(tmp_path):
    """Groups write the rows they stand for as if value by value: formatting each distinct
    value of a column once merges neither -0.0 with 0.0 nor any other two values."""
    floats = np.array([0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -0.0, 0.0, 1 / 3])
    wide = np.array([7, -3, 2 ** 40, -(2 ** 62), 0, 7, 12, -3, 1], dtype=np.int64)
    narrow = np.array([4, -1, 300, 0, -32768, 5, 4, 2, 9], dtype=np.int16)
    flags = np.array([True, False, True, True, False, False, True, False, True])
    groups = [
        (floats[:0], 2.5, wide[:0], 1, flags[:0], "B"),  # zero-length: no row, no format
        (floats, -0.0, wide, np.int8(3), flags, "A"),
        (-0.0, 0.0, np.uint8(200), 5, np.bool_(True), "zz"),  # scalars only: one row
        (floats[::-1], 0.0, narrow, narrow, ~flags, "A"),
        (math.nan, -0.0, -12, np.int16(4), False, "A"),
    ]
    # the rows the groups stand for, the scalars repeated
    rows = [*zip(floats, [-0.0] * 9, wide, [np.int8(3)] * 9, flags, ["A"] * 9), groups[2],
            *zip(floats[::-1], [0.0] * 9, narrow, narrow, ~flags, ["A"] * 9), groups[4]]
    columns = tuple(f"c{i}" for i in range(len(groups[0])))
    path = pipeline._write_csv(tmp_path / "t.csv", columns, groups, "h")
    assert path.read_bytes() == _per_value_csv(columns, rows)


@pytest.mark.parametrize("groups", [[], [(np.empty(0), 1.0, "A")]], ids=["no groups", "no rows"])
def test_csv_without_rows_is_its_header(tmp_path, groups):
    path = pipeline._write_csv(tmp_path / "t.csv", ("a", "b", "c"), groups, "h")
    assert path.read_bytes() == _per_value_csv(("a", "b", "c"), [])


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


def _records(path):
    header, rows = _read_csv(path)
    return [dict(zip(header, row)) for row in rows]


def test_rank_components_rebuild_every_observable_block():
    # each observable is the sum of its components, O_0 = A and O_2 = B, and at
    # lam = 0 A is H/(sqrt(3) L); both hold to 8.3e-17 at L = 8 and 10
    for L in (8, 10):
        for lab in sector_labels(L, 0):
            basis = enumerate_sector_basis(lab)
            ranks = {0: build_observable(basis, "A").dense(), 2: build_observable(basis, "B").dense()}
            for observable, components in pipeline._COMPONENTS.items():
                summed = sum(c * ranks[r] for r, c in components.items())
                assert np.abs(summed - build_observable(basis, observable).dense()).max(
                    initial=0.0) <= 1e-15, (lab, observable)
            h = build_hamiltonian(basis, CouplingSpec(0.0)).dense()
            assert np.abs(ranks[0] - h / (math.sqrt(3) * L)).max(initial=0.0) <= 1e-15, lab
    assert set(pipeline._COMPONENTS) == set(OBSERVABLE_TAGS)


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_b_without_its_a_part_is_exactly_sqrt_three_halves_c(tmp_path, monkeypatch, lam):
    # offdiag-eth assembles B = A/sqrt(2) + sqrt(3/2) C from one element table of
    # each primitive per pair, and drops A's part where rank 0 vanishes: between
    # different spins, and at lam = 0 for every pair. There B's values are
    # fl(sqrt(3/2) C) exactly and no A table is computed
    cfg = _analysis_config(tmp_path, L_list=(8, 10), lam=lam, spins=(0, 1, 2),
                           spin_pairs=((0, 2),), observables=("B", "C"))
    run_spectrum(cfg)
    tables, offered = Counter(), {}
    primitives = {}
    elements, ensemble = pipeline.matrix_elements, pipeline.analysis.build_offdiagonal_ensemble

    def recorded_elements(obs, spectrum, spin_pair, *band):
        table = elements(obs, spectrum, spin_pair, *band)
        label = "C" if isinstance(obs, np.ndarray) else obs.label  # C comes as its diagonal
        tables[label, spin_pair] += 1
        recs = table.records  # alpha == beta is not offered to the window
        primitives[label, spin_pair] = recs["value"][recs["alpha"] != recs["beta"]]
        return table

    def recorded_ensemble(observable, L, lam, pair, blocks, window):
        offered.setdefault((observable, pair), blocks[0][2])  # raw values before reduced ones
        return ensemble(observable, L, lam, pair, blocks, window)

    monkeypatch.setattr(pipeline, "matrix_elements", recorded_elements)
    monkeypatch.setattr(pipeline.analysis, "build_offdiagonal_ensemble", recorded_ensemble)
    checked = Counter()
    for L in cfg.L_list:
        for unit in {pipeline._unit(lab) for lab in pipeline._admitted_labels(cfg, L)}:
            tables.clear(), offered.clear(), primitives.clear()
            pipeline._drive(pipeline._element_tables, unit, cfg, tmp_path / "cache")
            assert set(tables.values()) == {1}, unit  # one table per primitive and pair
            for (observable, (s_a, s_b)), values in offered.items():
                c = primitives["C", (s_a, s_b)]
                if observable == "C":
                    assert values.tobytes() == c.tobytes()
                elif s_a != s_b or lam == 0.0:
                    assert ("A", (s_a, s_b)) not in tables
                    assert values.tobytes() == (math.sqrt(1.5) * c).tobytes(), (unit, s_a, s_b)
                    checked["exact"] += 1
                else:
                    a = primitives["A", (s_a, s_b)]
                    assert values.tobytes() == (
                        (1.0 / math.sqrt(2.0)) * a + math.sqrt(1.5) * c).tobytes(), (unit, s_a)
                    checked["with A"] += 1
    assert checked["exact"] > 0 and bool(checked["with A"]) == (lam != 0.0)


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_c_image_from_its_diagonal_is_the_sparse_product_bit_for_bit(tmp_path, lam):
    # at L = 12 C's diagonal has exact zeros, where the sparse block holds no entry and its
    # product gives 0.0; a bare broadcast would give -0.0 against a negative component
    cfg = _analysis_config(tmp_path, L_list=(12,), lam=lam, spins=())
    run_spectrum(cfg)
    zeros = negative_zeros = 0
    for unit in {pipeline._unit(lab) for lab in sector_labels(12)}:
        for sector in parity_halves(unit):
            basis = with_parity(enumerate_sector_basis(unit), sector.parity)
            diagonal, block = c_diagonal(basis), build_observable(basis, "C")
            spectrum = load_cached_spectrum(sector, lam, tmp_path / "cache")
            for s in np.unique(spectrum.spins):
                kets = spectrum.vectors[:, spectrum.spins == s]
                image = operator_image(diagonal, kets)
                assert image.flags.c_contiguous
                assert image.tobytes() == (block.matrix @ kets).tobytes(), (sector, s)
                negative_zeros += int(np.signbit(diagonal[:, None] * kets)[image == 0].sum())
            assert (expectations(diagonal, spectrum.vectors).tobytes()
                    == expectations(block, spectrum.vectors).tobytes()
                    == spectrum.diagonals["C"].tobytes()), sector
            zeros += int((diagonal == 0).sum())
    assert zeros > 0 and negative_zeros > 0
    # the stored diagonals are the ones oracle-check recomputes from the vectors
    report = run_oracle_check(cfg)
    assert report["pass"] is True
    assert not [f for f in report["failures"] if f["kind"] == "stored_diagonals"]


def test_diag_eth_reads_a_off_the_energies_at_lam_zero(tmp_path, monkeypatch):
    # A = H/(sqrt(3) L) at lam = 0, so A's diagonal is E/(sqrt(3) L) and spectrum builds no
    # A to store it; diag-eth reads the stored diagonals and builds nothing
    cfg = _analysis_config(tmp_path, L_list=(8,), lam=0.0, observables=("A", "B", "C"))
    built = Counter()
    build, diagonal = pipeline.build_observable, pipeline.c_diagonal
    monkeypatch.setattr(pipeline, "build_observable",
                        lambda basis, tag: built.update([tag]) or build(basis, tag))
    # C is assembled as its exact diagonal, without a block
    monkeypatch.setattr(pipeline, "c_diagonal",
                        lambda basis: built.update(["C"]) or diagonal(basis))
    run_spectrum(cfg)
    assert set(built) == {"C"}
    built.clear()
    for lab in pipeline._admitted_labels(cfg, 8):
        unit = pipeline._drive(pipeline._diagonal_tables, pipeline._unit(lab), cfg,
                               tmp_path / "cache")
        energies, values, _ = unit[pipeline._solved(lab)]["A"]
        assert values.tobytes() == (energies / (math.sqrt(3.0) * 8)).tobytes(), lab
    assert not built


# three sizes that fit: L = 6 has no S = 0 pair in the energy window at lam = 3, nor L = 8 at 0
@pytest.mark.parametrize("lam, sizes, observables, vanishing, termless", [
    (3.0, (8, 10, 12), ("B", "C"), {("B", 0, 0)}, set()),
    # A = H/(sqrt(3) L) has no off-diagonal elements, so C (0, 0) loses its rank-0
    # part, and A has no term to compute there, with or without the rule
    (0.0, (10, 12, 14), ("A", "B", "C"), {("A", 0, 0), ("A", 1, 1), ("B", 0, 0), ("C", 0, 0)},
     {("A", 0, 0), ("A", 1, 1)}),
], ids=["lam3", "lam0"])
def test_rank_two_observable_is_not_fitted_between_spin_zero_states(tmp_path, monkeypatch, lam,
                                                                     sizes, observables,
                                                                     vanishing, termless):
    """Every element of an (observable, S_a, S_b) whose rank components all vanish is zero.

    <0 0|0 0; 2 0> = 0 makes every B element between S = 0 states vanish,
    and at lam = 0 so does every off-diagonal A element. Statistics of those
    elements describe round-off only; the run without the rule differs from
    the run with it by exactly those entries, but for the termless ones, A
    off the diagonal at lam = 0, which neither run can compute. Diagonal
    elements keep A.
    """
    cfg = _analysis_config(tmp_path, L_list=sizes, lam=lam, spins=(0, 1),
                           observables=observables, half_width=2, workers=1)
    run_spectrum(cfg)
    runs = {}
    for rule in (True, False):
        runs[rule] = out = tmp_path / f"out_{rule}"
        with monkeypatch.context() as m:
            if not rule:
                # every (observable, pair) with a term to compute is offered
                m.setattr(pipeline, "_vanishes",
                          lambda *args, **kwargs: not pipeline._terms(*args, **kwargs))
            run_offdiag_eth(dataclasses.replace(cfg, out_dir=str(out)))
            run_diag_eth(dataclasses.replace(cfg, out_dir=str(out)))
    with_rule, without = runs[True], runs[False]

    def vanishes(row):
        if "S" in row:  # a diagonal row: only B between S = 0 states
            return (row["observable"], row["S"]) == ("B", "0")
        return (row["observable"], int(row["S_a"]), int(row["S_b"])) in vanishing

    for name in ("gamma.csv", "specfun.csv", "lowfreq.csv", "fluct.csv", "specfun_reduced.csv"):
        rows = _records(without / name)
        noise = [r for r in rows if vanishes(r)]
        # B (0, 0) has no reduced elements, as its coefficient is zero, and A
        # (0, 0) and (1, 1) at lam = 0 none at all
        assert bool(noise) == (name != "specfun_reduced.csv"), name
        assert not any("S_a" in r and (r["observable"], int(r["S_a"]), int(r["S_b"])) in termless
                       for r in rows), name
        assert _records(with_rule / name) == [r for r in rows if r not in noise], name
    for name in ("diag.csv", "spin_means.csv", "predictions.csv"):
        assert _read_csv(with_rule / name) == _read_csv(without / name), name
    offdiag = {f"variance[{o},{a},{b}]" for o, a, b in vanishing}
    for name, key, gone, unfitted in (
            ("fits.json", "variance[{},{S},{S}]", offdiag,
             {f"variance[{o},{a},{b}]" for o, a, b in termless}),
            ("diag_fits.json", "fluct[{},S={S}]", {"fluct[B,S=0]"}, set())):
        fits = json.loads((without / name).read_text())["fits"]
        assert set(fits) == {key.format(o, S=S) for o in observables for S in (0, 1)} - unfitted
        assert json.loads((with_rule / name).read_text())["fits"] == {
            k: v for k, v in fits.items() if k not in gone}
    manifest = _manifest(with_rule)
    assert {e["sector"] for e in manifest if e["stage"] == "offdiag"} == \
        {f"L{L}_{o}_{a}_{b}" for L in cfg.L_list for o, a, b in vanishing}
    assert {e["sector"] for e in manifest if e["stage"] == "diag"} == \
        {f"L{L}_S0_B" for L in cfg.L_list}


def test_a_variance_fit_without_three_usable_sizes_is_skipped_and_journaled(tmp_path):
    # no element lies within omega_cut = 1e-12 of omega = 0 at any size
    cfg = _analysis_config(tmp_path, L_list=(8, 10, 12), spins=(1,), observables=("B",),
                           omega_cut=1e-12)
    run_spectrum(cfg)
    result = run_offdiag_eth(cfg)
    out = tmp_path / "out"
    assert result["fits"] == {}
    assert json.loads((out / "fits.json").read_text())["fits"] == {}
    assert {r["L"] for r in _records(out / "gamma.csv")} == {"8", "10", "12"}
    skipped = [e for e in _manifest(out) if e["stage"] == "offdiag"]
    assert [(e["status"], e["sector"], e["error"]) for e in skipped] == [
        ("skipped", "variance[B,1,1]", "need at least 3 usable points to fit, got 0")]
    assert _manifest(out)[-1]["status"] == "done"


def test_a_fluctuation_fit_that_cannot_be_made_is_skipped_and_journaled(tmp_path, monkeypatch):
    cfg = _analysis_config(tmp_path, L_list=(6, 8, 10), spins=(1,), observables=("B",))
    run_spectrum(cfg)

    def refuse(xs, ys):
        raise ValueError("no usable points")

    monkeypatch.setattr(pipeline.analysis, "scaling_fit", refuse)
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**dataclasses.asdict(cfg), "out_dir": str(tmp_path / "cli")}))
    result = CliRunner().invoke(main, ["diag-eth", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    out = tmp_path / "cli"
    assert json.loads((out / "diag_fits.json").read_text())["fits"] == {}
    assert {r["L"] for r in _records(out / "fluct.csv")} == {"6", "8", "10"}
    skipped = [e for e in _manifest(out) if e["stage"] == "diag"]
    assert [(e["status"], e["sector"], e["error"]) for e in skipped] == [
        ("skipped", "fluct[B,S=1]", "no usable points")]
    assert _manifest(out)[-1]["status"] == "done"


def _cuts(monkeypatch) -> Counter:
    """Counts each (sector, operator) block that pipeline.parity_block cuts from here on."""
    cuts = Counter()
    cut = pipeline.parity_block
    monkeypatch.setattr(pipeline, "parity_block", lambda block, basis: cuts.update(
        [(basis.sector, block.label)]) or cut(block, basis))
    return cuts


def test_each_block_is_cut_once_per_command(tmp_path, monkeypatch):
    cfg = _analysis_config(tmp_path, L_list=(8,), spins=(0, 1, 2), spin_pairs=((0, 2),),
                           observables=("B", "C"), exclude_k=(), workers=1)
    run_spectrum(cfg)
    for run in (run_offdiag_eth, run_oracle_check):
        cuts = _cuts(monkeypatch)
        run(cfg)
        assert any(sector.parity is not None for sector, _ in cuts), run
        assert max(cuts.values()) == 1, (run, cuts.most_common(3))
    # a sector that oracle-check solves itself is cut once too, for its solve and its audit
    spectrum_path(tmp_path / "cache", SectorLabel(8, 0, 0, 1, 1), 3.0).unlink()
    cuts = _cuts(monkeypatch)
    assert run_oracle_check(cfg)["pass"]
    assert cuts[(SectorLabel(8, 0, 0, 1, 1), "H(lam=3)")] == 1


@pytest.mark.parametrize("run", [run_diag_eth, run_offdiag_eth])
def test_analysis_names_a_missing_file_before_reading_any(tmp_path, monkeypatch, run):
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=(1,), observables=("B",), workers=1)
    run_spectrum(cfg)
    missing = spectrum_path(tmp_path / "cache", SectorLabel(8, 0, 3, -1), 3.0)
    missing.unlink()
    loads = []
    monkeypatch.setattr(pipeline, "load_cached_spectrum", lambda *args: loads.append(args))
    with pytest.raises(MissingCacheError, match=f"no cached spectrum at {missing}"):
        run(cfg)
    assert loads == []


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
    # 60 sectors at L = 6, 8, 10; the 18 at k < 0 are served from their mirrors
    assert len(eigensolves) == 42
    assert len(set(eigensolves)) == 42
    assert all(sector.k_index >= 0 for sector in eigensolves)


def test_oracle_check_assembles_h_once_per_unit_and_mirror(tmp_path, monkeypatch):
    # cold or warm: one H, one S^2 (the spin audit, and eps2 and eps2z with
    # it), one A and one C (meanA and meanB, assembled as diag-eth does) and
    # one of each correlator per k >= 0 (k, z) sector, shared by its parity
    # halves and by the solve of a missing half, and one H(-k) per mirror;
    # cold, one S^+ per unit for the solve too. No eps2, eps2z or B operator
    # is built
    built = Counter()
    for name in ("build_hamiltonian", "build_spin_ladder", "build_total_spin_squared"):
        def counted(basis, *args, _build=getattr(pipeline, name), _name=name):
            built[_name, basis.sector] += 1
            return _build(basis, *args)
        monkeypatch.setattr(pipeline, name, counted)
    for name in ("build_observable", "build_operator"):
        def tagged(basis, *args, _build=getattr(pipeline, name)):
            built[args[-1], basis.sector] += 1  # the observable, or the correlator's label
            return _build(basis, *args)
        monkeypatch.setattr(pipeline, name, tagged)
    # C is assembled as its exact diagonal, without a block
    monkeypatch.setattr(pipeline, "c_diagonal", lambda basis, _diagonal=pipeline.c_diagonal:
                        built.update([("C", basis.sector)]) or _diagonal(basis))
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=())
    labels = [lab for L in cfg.L_list for lab in sector_labels(L)]
    units = {pipeline._unit(lab) for lab in labels}
    expected = Counter({(name, unit): 1 for unit in units for name in (
        "build_total_spin_squared", "A", "C", "eps4", "eps4z")})
    expected.update(("build_hamiltonian", lab) for lab in units | {lab for lab in labels
                                                                   if lab.k_index < 0})
    solves = Counter({("build_spin_ladder", unit): 1 for unit in units})
    for extra in (solves, Counter()):  # cold, then warm
        assert run_oracle_check(cfg)["pass"] is True
        assert built == expected + extra
        built.clear()


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_pair_correlators_from_spin_squared_equal_their_operators(lam):
    # oracle-check takes eps2 from <S^2> and eps2z as a constant; the
    # operators of pair_correlator_terms, built on their own, must agree
    for L in (8, 10, 12):
        for unit in dict.fromkeys(map(pipeline._unit, sector_labels(L))):
            basis = enumerate_sector_basis(unit)
            for sector, cut in pipeline._halves(unit, lam).items():
                spectrum = resolve_spins(*diagonalize_block(cut("H")), cut("S+"))
                per_state = pipeline._state_moments(cut, spectrum, lam)
                for field, kind in (("eps2", "dot"), ("eps2z", "zz")):
                    op = build_operator(with_parity(basis, sector.parity),
                                        pair_correlator_terms(L, kind), field)
                    direct = expectations(op, spectrum.vectors)
                    assert np.abs(per_state[field] - direct).max(initial=0.0) <= 1e-14, (sector, field)


def test_oracle_check_passes_on_healthy_l12_cache(tmp_path):
    report = run_oracle_check(_analysis_config(tmp_path, L_list=(12,), spins=()))
    assert report["pass"] is True
    assert not report["failures"]
    assert len(report["block_audits"]) == 28
    assert max(r["abs_diff"] for r in report["rows"]) < 1e-10
    assert len(report["rows"]) == 7 * 10  # S = 0..6, ten moments each


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_oracle_check_fails_on_a_stored_diagonal_its_vectors_do_not_give(tmp_path, lam):
    # one stored A diagonal moved by one ulp, under a matching head checksum: the file loads,
    # every residual and moment holds, and only the bit-for-bit recomputation catches it
    cfg = _analysis_config(tmp_path, L_list=(8,), lam=lam, spins=())
    run_spectrum(cfg)
    assert run_oracle_check(dataclasses.replace(cfg, out_dir=str(tmp_path / "clean")))["pass"]
    lab = SectorLabel(8, 0, 1, 1)
    path = spectrum_path(tmp_path / "cache", lab, lam)
    data = bytearray(path.read_bytes())
    at = _offsets(data)
    state = at["dim"] // 2
    value = struct.unpack_from("<d", data, at["A"] + 8 * state)[0]
    struct.pack_into("<d", data, at["A"] + 8 * state, np.nextafter(value, np.inf))
    path.write_bytes(_restamped(data))
    name = pipeline._sector_name(lab, lam)
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    assert report["failures"] == [{"kind": "stored_diagonals", "sector": name, "primitives": ["A"]}]
    result = CliRunner().invoke(main, ["oracle-check", "--L", "8", "--lambda", f"{lam:g}",
                                       "--cache", str(tmp_path / "cache"),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 1, result.output
    assert f"oracle check failed: {name}" in result.output


@pytest.mark.parametrize("lam", [3.0, 0.0])
def test_diag_eth_reads_no_vector_and_builds_nothing(tmp_path, monkeypatch, lam):
    cfg = _analysis_config(tmp_path, L_list=(8, 10, 12), lam=lam, spins=(0, 1, 2),
                           observables=("A", "B", "C"), exclude_k=(), workers=1)
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    calls = Counter()
    for module, name in ((pipeline, "enumerate_sector_basis"), (pipeline, "build_observable"),
                         (pipeline, "expectations"), (cache, "load_spectrum")):
        fn = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a))
    run_diag_eth(cfg)
    assert calls == Counter()
    monkeypatch.undo()
    # the diagonals stored at solve time are those the loaded vectors give, bit for bit
    compared = 0
    for unit in dict.fromkeys(pipeline._unit(lab) for L in cfg.L_list for lab in sector_labels(L)):
        for sector, cut in pipeline._halves(unit, lam).items():
            spectrum = load_cached_spectrum(sector, lam, tmp_path / "cache")
            for tag, values in pipeline._diagonals(cut, spectrum, lam).items():
                assert values.tobytes() == spectrum.diagonals[tag].tobytes(), (sector, tag)
                compared += 1
    assert compared == 2 * 48  # A and C of the 48 solved sectors


@pytest.mark.parametrize("L", [6, 12])
def test_oracle_check_catches_corrupted_vectors(tmp_path, L):
    cfg = _analysis_config(tmp_path, L_list=(L,), spins=())
    run_spectrum(cfg)
    lab = SectorLabel(L, 0, 1, -1)
    path = spectrum_path(tmp_path / "cache", lab, 3.0)
    data = bytearray(path.read_bytes())
    at = _offsets(data)
    # a high byte of the middle eigenvector entry, then a matching checksum,
    # so the file loads and only the per-block audit can catch it
    data[at["vectors"] + (at["dim"] ** 2 // 2) * 8 + 6] ^= 0xFF
    path.write_bytes(_restamped(data))
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    assert any(f"L{L}_M0_k1_zm1" in f.get("sector", "") for f in report["failures"])


def test_oracle_check_fails_on_a_nan_vector_and_names_the_sector(tmp_path):
    cfg = _analysis_config(tmp_path, L_list=(8,), spins=())
    run_spectrum(cfg)
    path = spectrum_path(tmp_path / "cache", SectorLabel(8, 0, 1, 1), 3.0)
    data = bytearray(path.read_bytes())
    at = _offsets(data)
    # the first entry of the middle eigenvector, then a matching checksum
    struct.pack_into("<d", data, at["vectors"] + (at["dim"] // 2) * 8, math.nan)
    path.write_bytes(_restamped(data))
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    audits = {f["sector"] for f in report["failures"] if f["kind"] == "block_audit"}
    assert audits == {"L8_M0_k1_zp1_lam3", "L8_M0_k-1_zp1_lam3"}  # the mirror shares the vectors
    failed_rows = [(r["S"], r["moment"]) for r in report["rows"] if not r["pass"]]
    assert failed_rows and all(math.isnan(r["abs_diff"]) for r in report["rows"] if not r["pass"])
    assert failed_rows == [(f["S"], f["moment"]) for f in report["failures"]
                           if f["kind"] == "moment"]
    result = CliRunner().invoke(main, ["oracle-check", "--L", "8", "--lambda", "3",
                                       "--cache", str(tmp_path / "cache"),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 1
    assert "oracle check failed" in result.output and "L8_M0_k1_zp1_lam3" in result.output


def test_oracle_check_stops_on_a_file_it_cannot_read_and_leaves_it(tmp_path, eigensolves):
    # a flipped vector byte fails the checksum; the audit names the file
    # instead of solving the sector again and writing over what it found
    cfg = _analysis_config(tmp_path, L_list=(6, 8), spins=())
    run_spectrum(dataclasses.replace(cfg, out_dir=str(tmp_path / "fill")))
    path = spectrum_path(tmp_path / "cache", SectorLabel(8, 0, 1, 1), 3.0)
    data = bytearray(path.read_bytes())
    data[_offsets(data)["vectors"]] ^= 0x01
    path.write_bytes(bytes(data))
    eigensolves.clear()
    message = f"{path} fails its vectors checksum; run the spectrum command to rebuild it"
    with pytest.raises(MissingCacheError, match=re.escape(message)):
        run_oracle_check(cfg)
    result = CliRunner().invoke(main, ["oracle-check", "--L", "6", "--L", "8", "--lambda", "3",
                                       "--workers", "1", "--cache", str(tmp_path / "cache"),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 1, result.output
    assert message in result.output
    last = json.loads((tmp_path / "cli" / "manifest.jsonl").read_text().splitlines()[-1])
    assert (last["stage"], last["status"], last["command"]) == ("run", "failed", "oracle-check")
    assert path.read_bytes() == bytes(data)
    assert eigensolves == []


def _offsets(data) -> dict[str, int]:
    """The dim of a cache v4 file and where each of its arrays starts: the head's energies, A
    and C diagonals (f8) and spins (i2), then, after the head's zero padding to a multiple of
    8 bytes, the vectors."""
    dim = struct.unpack_from("<i", data, 36)[0]
    head = cache.HEADER_SIZE
    return {"dim": dim, "energies": head, "A": head + 8 * dim, "C": head + 16 * dim,
            "spins": head + 24 * dim, "vectors": head + (26 * dim + 7) // 8 * 8}


def _restamped(data: bytearray) -> bytes:
    """data with the header's crc32 of the head and of the vectors made to match again."""
    parts = cache.sections(bytes(data))
    struct.pack_into("<II", data, 40, zlib.crc32(parts["head"]), zlib.crc32(parts["vectors"]))
    return bytes(data)


def _relabel(path, old: int, new: int) -> None:
    """Give the one state of spin old in a cached file spin new, with a matching checksum."""
    data = bytearray(path.read_bytes())
    at = _offsets(data)
    spins = np.frombuffer(data, dtype="<i2", count=at["dim"], offset=at["spins"])
    [state] = np.flatnonzero(spins == old)
    struct.pack_into("<h", data, at["spins"] + 2 * int(state), new)
    path.write_bytes(_restamped(data))


def test_oracle_check_counts_every_spin_and_reports_a_label_past_l_over_2(tmp_path):
    cfg = _analysis_config(tmp_path, spins=())
    run_spectrum(cfg)
    # the block's one state has S = 1
    _relabel(spectrum_path(tmp_path / "cache", SectorLabel(6, 0, 1, 1), 3.0), 1, 7)
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    kinds = Counter(f["kind"] for f in report["failures"])
    assert kinds == {"spin_count": 2, "block_audit": 2, "moment": 8}
    # the mirror at k = -1 shares the label, so S = 1 misses two states
    assert [(f["S"], f["got"], f["expected"]) for f in report["failures"]
            if f["kind"] == "spin_count"] == [(1, 7, 9), (7, 2, 0)]
    assert {f["sector"] for f in report["failures"] if f["kind"] == "block_audit"} == {
        "L6_M0_k1_zp1_lam3", "L6_M0_k-1_zp1_lam3"}
    # moments only for the spins the closed forms cover
    assert sorted({r["S"] for r in report["rows"]}) == [0, 1, 2, 3]
    assert json.loads((tmp_path / "out" / "oracle_check.json").read_text()) == report
    result = CliRunner().invoke(main, ["oracle-check", "--L", "6", "--lambda", "3",
                                       "--cache", str(tmp_path / "cache"),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 1
    assert "oracle check failed" in result.output and "L6_M0_k1_zp1_lam3" in result.output


def test_oracle_check_reports_a_spin_that_no_block_holds(tmp_path):
    cfg = _analysis_config(tmp_path, spins=())
    run_spectrum(cfg)
    # L = 6 has one S = 3 state at M = 0, in this parity half
    _relabel(spectrum_path(tmp_path / "cache", SectorLabel(6, 0, 0, 1, 1), 3.0), 3, 1)
    report = run_oracle_check(cfg)
    assert report["pass"] is False
    assert [(f["S"], f["got"], f["expected"]) for f in report["failures"]
            if f["kind"] == "spin_count"] == [(1, 10, 9), (3, 0, 1)]


def test_sector_trace_moments_builds_each_unit_and_mirror_once(tmp_path, monkeypatch):
    run_spectrum(_analysis_config(tmp_path, L_list=(12,)))
    blocks = [(lab, load_cached_spectrum(lab, 3.0, tmp_path / "cache"))
              for lab in sector_labels(12)]
    # one operator table per label, as each label had before its halves shared one
    expected = pipeline._pooled_moments(
        (spectrum.spins, pipeline._state_moments(
            pipeline._halves(dataclasses.replace(lab, parity=None), 3.0)[lab], spectrum, 3.0))
        for lab, spectrum in blocks)
    built = []
    enumerate_basis = pipeline.enumerate_sector_basis
    monkeypatch.setattr(pipeline, "enumerate_sector_basis",
                        lambda sector: built.append(sector) or enumerate_basis(sector))
    traces = pipeline.sector_trace_moments(12, 3.0, blocks)
    # 14 k >= 0 (k, z) sectors and 10 at -k, which check the mirror rule
    assert len(built) == len(set(built)) == 24
    assert sum(sector.k_index < 0 for sector in built) == 10
    assert traces == expected  # bit for bit


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
    assert "pair (0,1): every element of B vanishes" in result.output

    # runtime errors exit 1
    result = runner.invoke(main, ["diag-eth", "--L", "8", "-S", "0",
                                  "--cache", str(tmp_path / "empty"),
                                  "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert "spectrum command" in result.output


def test_cli_rejects_a_repeated_size(tmp_path):
    result = CliRunner().invoke(main, ["spectrum", "--L", "10", "--L", "10",
                                       "--cache", str(tmp_path / "c"),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "L_list repeats an entry" in result.output


def test_cli_offdiag_config_with_empty_pair_list(tmp_path):
    runner = CliRunner()
    common = {"L_list": [6], "lambda": 3.0, "cache_dir": str(tmp_path / "c")}
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({**common, "out_dir": str(tmp_path / "s")}))
    assert runner.invoke(main, ["spectrum", "--config", str(cfg_path)]).exit_code == 0
    cfg_path.write_text(json.dumps({**common, "out_dir": str(tmp_path / "o"),
                                    "spins": [1], "spin_pairs": [], "observables": ["B"]}))
    result = runner.invoke(main, ["offdiag-eth", "--config", str(cfg_path)])
    assert result.exit_code == 0, result.output
    for name in ("gamma", "specfun", "specfun_reduced", "lowfreq"):
        assert (tmp_path / "o" / f"{name}.csv").exists()


def test_cli_non_integral_spin_in_config_exits_2(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [8], "spins": [1.5],
                                    "cache_dir": str(tmp_path / "c"),
                                    "out_dir": str(tmp_path / "o")}))
    result = CliRunner().invoke(main, ["diag-eth", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "spins must hold whole numbers" in result.output
    assert not (tmp_path / "o").exists()


def test_cli_typed_numbers(tmp_path):
    # a fractional worker count is a usage error, not a traceback from the pool
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6], "workers": 1.5, "lambda": 3,
                                    "cache_dir": str(tmp_path / "c")}))
    result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "workers must hold whole numbers" in result.output
    # -0 is the coupling 0: one config line and one set of cache names
    lines = set()
    for flag in ("0", "-0"):
        out = tmp_path / f"out{flag}"
        result = CliRunner().invoke(main, ["spectrum", "--L", "6", "--lambda", flag,
                                           "--cache", str(tmp_path / "c"), "--out", str(out)])
        assert result.exit_code == 0, result.output
        lines.add(_manifest(out)[0]["config"])
    assert lines == {RunConfig(L_list=(6,)).config_hash()}
    assert all("lam0." in path.name for path in (tmp_path / "c").glob("*.eig"))


def test_cli_malformed_pair_is_a_usage_error(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6], "spins": [1], "spin_pairs": [[0]],
                                    "cache_dir": str(tmp_path / "c")}))
    result = CliRunner().invoke(main, ["offdiag-eth", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "every spin pair needs two spins" in result.output


@pytest.mark.parametrize("command", ["diag-eth", "offdiag-eth"])
def test_cli_missing_cache_in_a_worker_exits_1_and_names_the_file(tmp_path, command):
    cache_dir = tmp_path / "c"
    cache_dir.mkdir()
    result = CliRunner().invoke(main, [command, "--L", "6", "--spin", "0", "--workers", "2",
                                       "--cache", str(cache_dir), "--out", str(tmp_path / "o")])
    assert result.exit_code == 1, result.output
    # the first admitted label is k = -2, served from the k = 2 file
    missing = spectrum_path(cache_dir, SectorLabel(6, 0, 2, 1), 0.0)
    assert f"no cached spectrum at {missing}" in result.output
    assert "run the spectrum command first" in result.output


def test_cli_failed_run_ends_its_manifest(tmp_path):
    result = CliRunner().invoke(main, ["diag-eth", "--L", "6", "-S", "1",
                                       "--cache", str(tmp_path / "empty"),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 1, result.output
    rows = [json.loads(line) for line in (tmp_path / "o" / "manifest.jsonl").read_text().splitlines()]
    assert [(r["stage"], r["status"]) for r in rows] == [("run", "start"), ("run", "failed")]
    assert rows[1]["command"] == "diag-eth"
    assert rows[1]["error"].startswith("MissingCacheError: no cached spectrum at")


def _spin_one_vector_bit_flipped(path, spectrum):
    # one mantissa bit of the first entry of the first S = 1 eigenvector
    data = bytearray(path.read_bytes())
    column = int(np.flatnonzero(spectrum.spins == 1)[0])
    data[_offsets(data)["vectors"] + 8 * column] ^= 0x01
    return bytes(data)


def _spin_one_head_bit_flipped(array: str, width: int):
    """The fault that flips the lowest bit of the first S = 1 state's entry of a head array."""
    def flipped(path, spectrum):
        data = bytearray(path.read_bytes())
        state = int(np.flatnonzero(spectrum.spins == 1)[0])
        data[_offsets(data)[array] + width * state] ^= 0x01
        return bytes(data)
    return flipped


# "bit flip" hits a vector, which diag-eth never reads; every command reads the rest
_FAULTS = {
    "bit flip": _spin_one_vector_bit_flipped,
    "spin bit flip": _spin_one_head_bit_flipped("spins", 2),
    "diagonal bit flip": _spin_one_head_bit_flipped("A", 8),
    "truncation": lambda path, spectrum: path.read_bytes()[:-8],
    "foreign fingerprint": lambda path, spectrum: (
        path.read_bytes()[:12] + struct.pack("<Q", build_fingerprint() ^ 1) + path.read_bytes()[20:]),
}


@pytest.mark.parametrize("fault", sorted(_FAULTS))
def test_faulty_cache_file_stops_the_analysis_and_is_rebuilt_by_spectrum(tmp_path, fault):
    _fault_stops_the_analysis_and_is_rebuilt(tmp_path, 10, fault)


def test_flipped_vector_bit_at_l14_stops_the_analysis_and_is_rebuilt(tmp_path):
    _fault_stops_the_analysis_and_is_rebuilt(tmp_path, 14, "bit flip")


# oracle-check solves a missing sector, so only the analyses name a missing file;
# diag-eth reads no vector byte, so a flipped one does not stop it
@pytest.mark.parametrize("command,fault", [
    ("diag-eth", "spin bit flip"), ("diag-eth", "diagonal bit flip"),
    ("diag-eth", "foreign fingerprint"), ("diag-eth", "missing"),
    ("offdiag-eth", "bit flip"), ("offdiag-eth", "spin bit flip"),
    ("offdiag-eth", "diagonal bit flip"),
    ("oracle-check", "bit flip"), ("oracle-check", "spin bit flip"),
    ("oracle-check", "diagonal bit flip"), ("oracle-check", "foreign fingerprint")])
def test_an_unreadable_cache_file_is_named_with_its_fix(tmp_path, command, fault):
    # a file that is there but cannot be read is rebuilt by spectrum; a missing one is filled
    cfg = _analysis_config(tmp_path, spins=(1,))
    run_spectrum(cfg)
    lab = SectorLabel(6, 0, 1, 1)
    path = spectrum_path(tmp_path / "cache", lab, 3.0)
    if fault == "missing":
        path.unlink()
        message = f"no cached spectrum at {path}; run the spectrum command first to populate the cache"
    else:
        path.write_bytes(_FAULTS[fault](path, cache.load_spectrum(tmp_path / "cache", lab, 3.0)))
        reason = {"bit flip": "fails its vectors checksum",
                  "foreign fingerprint": "was written by a different build"}.get(
                      fault, "fails its head checksum")
        message = f"{path} {reason}; run the spectrum command to rebuild it"
    run = {"diag-eth": run_diag_eth, "offdiag-eth": run_offdiag_eth,
           "oracle-check": run_oracle_check}[command]
    with pytest.raises(MissingCacheError, match=re.escape(message)):
        run(cfg)
    result = CliRunner().invoke(main, [command, "--L", "6", "--lambda", "3", "-S", "1",
                                       "--workers", "1", "--cache", str(tmp_path / "cache"),
                                       "--out", str(tmp_path / "cli")])
    assert result.exit_code == 1, result.output
    assert message in result.output
    last = json.loads((tmp_path / "cli" / "manifest.jsonl").read_text().splitlines()[-1])
    assert (last["stage"], last["status"], last["command"]) == ("run", "failed", command)
    assert last["error"] == f"MissingCacheError: {message}"


def _outputs(out) -> dict[str, bytes]:
    """Every file a command wrote under out but its journal, by name."""
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.jsonl"}


def _fault_stops_the_analysis_and_is_rebuilt(tmp_path, L, fault):
    cfg = _analysis_config(tmp_path, L_list=(L,), spins=(1,))
    run_spectrum(cfg)
    lab = SectorLabel(L, 0, 1, 1)
    path = spectrum_path(tmp_path / "cache", lab, 3.0)
    good = path.read_bytes()
    args = ["-S", "1", "--L", str(L), "--lambda", "3", "--cache", str(tmp_path / "cache")]
    assert CliRunner().invoke(main, ["diag-eth", *args, "--out", str(tmp_path / "clean")]).exit_code == 0
    path.write_bytes(_FAULTS[fault](path, cache.load_spectrum(tmp_path / "cache", lab, 3.0)))

    # every command that reads the faulty bytes stops, naming the file
    readers = ("offdiag-eth", "oracle-check") if fault == "bit flip" else (
        "diag-eth", "offdiag-eth", "oracle-check")
    for command in readers:
        result = CliRunner().invoke(main, [command, *args, "--out", str(tmp_path / command)])
        assert result.exit_code == 1, (command, result.output)
        assert str(path) in result.output, command
    if fault == "bit flip":  # diag-eth reads the head alone and writes the clean run's bytes
        result = CliRunner().invoke(main, ["diag-eth", *args, "--out", str(tmp_path / "faulty")])
        assert result.exit_code == 0, result.output
        assert _outputs(tmp_path / "faulty") == _outputs(tmp_path / "clean")

    with pytest.warns(UserWarning, match=f"rebuilding stale cache entry: {path}"):
        summary = run_spectrum(cfg)
    # the sector and its -k mirror, served from it
    assert summary["sizes"][str(L)]["built"] == 2 and not summary["failures"]
    assert path.read_bytes() == good
    for command in readers:
        result = CliRunner().invoke(main, [command, *args, "--out", str(tmp_path / "rebuilt")])
        assert result.exit_code == 0, (command, result.output)


@pytest.mark.parametrize("lam", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["spectrum", "diag-eth", "offdiag-eth", "oracle-check"])
def test_cli_bad_lambda_exits_2_before_any_work(tmp_path, command, lam):
    result = CliRunner().invoke(main, [command, "--L", "6", f"--lambda={lam}", "--spin", "0",
                                       "--cache", str(tmp_path / "c"),
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 2, result.output
    assert "lambda must be a finite nonnegative real" in result.output
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command,changes,message", [
    ("oracle-check", {"lambda": float("nan")}, "lambda must be a finite nonnegative real, got nan"),
    ("spectrum", {"M": 0.5}, "M must hold whole numbers"),
    ("diag-eth", {"observables": "BC"}, "observables must be a list of tags, got 'BC'"),
], ids=["nan-lambda", "half-M", "string-observables"])
def test_cli_bad_config_file_exits_2_before_any_work(tmp_path, command, changes, message):
    cfg_path = tmp_path / "run.json"
    # json writes a float NaN as the bare NaN token, which json.load reads back
    cfg_path.write_text(json.dumps({"L_list": [6], "cache_dir": str(tmp_path / "c"),
                                    "out_dir": str(tmp_path / "o"), **changes}))
    result = CliRunner().invoke(main, [command, "--config", str(cfg_path)])
    assert result.exit_code == 2, result.output
    assert message in result.output
    assert not (tmp_path / "o").exists()


def test_cli_oracle_check_without_cache_root_exits_2(tmp_path, monkeypatch):
    monkeypatch.delenv("SU2ETH_CACHE_DIR", raising=False)
    result = CliRunner().invoke(main, ["oracle-check", "--L", "6",
                                       "--out", str(tmp_path / "o")])
    assert result.exit_code == 2
    assert "SU2ETH_CACHE_DIR" in result.output


@pytest.mark.parametrize("command", ["spectrum", "diag-eth", "offdiag-eth", "oracle-check"])
def test_cli_flags_are_named_after_config_fields(command):
    # cli._run hands the set flags to RunConfig.from_dict by destination name
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


def test_cli_config_file_with_lam_and_flag_override(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6], "lam": 0.0, "cache_dir": str(tmp_path / "c"),
                                    "out_dir": str(tmp_path / "o")}))
    result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg_path), "--lambda", "3.0"])
    assert result.exit_code == 0, result.output
    summary = json.loads((tmp_path / "o" / "spectrum_summary.json").read_text())
    assert summary["lambda"] == 3.0


def test_cli_config_file_with_both_coupling_keys_exits_2(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6], "lam": 1.0, "lambda": 3.0,
                                    "cache_dir": str(tmp_path / "c"),
                                    "out_dir": str(tmp_path / "o")}))
    result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg_path)])
    assert result.exit_code == 2
    assert "both 'lambda' and 'lam'" in result.output
    assert not (tmp_path / "o").exists()


def test_cli_config_file_with_both_coupling_keys_takes_the_flag(tmp_path):
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({"L_list": [6], "lam": 1.0, "lambda": 0.5,
                                    "cache_dir": str(tmp_path / "c"),
                                    "out_dir": str(tmp_path / "o")}))
    result = CliRunner().invoke(main, ["spectrum", "--config", str(cfg_path), "--lambda", "3"])
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "o" / "spectrum_summary.json").read_text())["lambda"] == 3.0


def test_cli_type_error_inside_a_command_is_no_config_error(tmp_path, monkeypatch):
    # only building the config maps a TypeError to exit 2
    def broken(config):
        raise TypeError("a bug in the command")

    monkeypatch.setattr("su2eth.cli.run_spectrum", broken)
    result = CliRunner().invoke(main, ["spectrum", "--L", "6", "--out", str(tmp_path / "o")])
    assert result.exit_code == 1
    assert isinstance(result.exception, TypeError)
    assert "Usage" not in result.output


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


@pytest.mark.parametrize("ranks, named", [
    (["--rank", "-2"], "twice-rank -2"),
    (["--rank", "3"], "twice-rank 3"),
    (["--rank", "4", "--rank", "4"], "twice-rank 4"),
])
def test_cli_cg_table_rejects_a_bad_rank(tmp_path, ranks, named):
    out = tmp_path / "table.csv"
    result = CliRunner().invoke(main, ["cg-table", *ranks, "--out", str(out)])
    assert result.exit_code == 2, result.output
    assert named in result.output
    assert not out.exists()


def test_cli_default_cg_table_is_pinned(tmp_path):
    # exact rationals and correctly rounded floats: the bytes hold on every platform
    out = tmp_path / "table.csv"
    result = CliRunner().invoke(main, ["cg-table", "--out", str(out)])
    assert result.exit_code == 0, result.output
    assert "wrote 1143 rows" in result.output
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "fb37e807be202bba41519900f3e9584b665b76b29c807152d78df0ac92a90cf5"


def test_cli_version():
    runner = CliRunner()
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
