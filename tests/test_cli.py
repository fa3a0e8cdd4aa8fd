import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cardpath import cli
from cardpath.cli import (ExperimentConfig, main, mapping_demo,
                          parse_config_text, resolve_config, run)
from cardpath.errors import ConfigError


def test_parse_config_comments_and_blanks():
    text = """
    # a comment
    experiment = mapping_demo

    count = 12  # trailing comment
    """
    raw = parse_config_text(text)
    assert raw == {"experiment": "mapping_demo", "count": "12"}


def test_parse_config_rejects_garbage_and_duplicates():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config_text("= 3\n")


def test_resolve_fills_defaults_and_types():
    cfg = resolve_config({"experiment": "propagator_convergence", "b": "0.7"})
    assert cfg.experiment == "propagator_convergence"
    assert cfg.seed == 0
    assert cfg.params["b"] == 0.7
    assert cfg.params["family"] == "free"
    assert cfg.params["k"] == 24


def test_resolve_rejects_unknown_and_invalid():
    with pytest.raises(ConfigError):
        resolve_config({})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "warp_drive"})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "mapping_demo", "wat": "1"})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "mapping_demo", "count": "three"})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "propagator_convergence",
                        "family": "anharmonic"})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "propagator_convergence", "mass": "-1"})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "mapping_demo", "seed": "pi"})


def test_resolve_seed_override():
    raw = {"experiment": "mapping_demo", "seed": "5"}
    assert resolve_config(raw).seed == 5
    assert resolve_config(raw, seed_override=9).seed == 9


def test_resolve_float_list():
    cfg = resolve_config({"experiment": "concentration_scan",
                          "hbar_values": "1.0, 0.5,0.25"})
    assert cfg.params["hbar_values"] == (1.0, 0.5, 0.25)
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "concentration_scan", "hbar_values": ""})
    with pytest.raises(ConfigError):
        resolve_config({"experiment": "concentration_scan",
                        "hbar_values": "1.0,-0.5"})


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_run_missing_file_is_config_error(tmp_path):
    assert run(str(tmp_path / "nope.cfg"), out_dir=str(tmp_path)) == 2


def test_run_config_error_exit(tmp_path):
    cfgf = _write(tmp_path, "bad.cfg", "experiment = mapping_demo\ncount = -3\n")
    assert run(cfgf, out_dir=str(tmp_path / "o")) == 2


def test_run_numerical_failure_exit(tmp_path):
    # overlapping slits wash out the fringes entirely
    cfgf = _write(tmp_path, "flat.cfg",
                  "experiment = interference\nslit_separation = 0.1\n"
                  "screen_half_width = 0.5\n")
    assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 3


def test_mapping_demo_outputs(tmp_path):
    cfgf = _write(tmp_path, "map.cfg",
                  "experiment = mapping_demo\ncount = 200\nseed = 7\n")
    out = tmp_path / "out"
    assert run(cfgf, out_dir=str(out), quiet=True) == 0
    rec = json.loads((out / "mapping.json").read_text())
    assert rec["experiment"] == "mapping_demo"
    assert rec["config"]["count"] == 200
    assert rec["config"]["seed"] == 7
    assert rec["ks_statistic"] < 0.15
    assert sum(rec["unit_set_counts"].values()) == 200
    assert set(rec["unit_set_counts"]) == {"0", "1", "2", "3"}
    csv = (out / "mapping.csv").read_text().strip().split("\n")
    assert csv[0] == "n,r"
    assert len(csv) == 201


def test_mapping_demo_empty_population(tmp_path):
    cfgf = _write(tmp_path, "map0.cfg",
                  "experiment = mapping_demo\ncount = 0\nseed = 7\n")
    out = tmp_path / "out"
    assert run(cfgf, out_dir=str(out), quiet=True) == 0
    assert (out / "mapping.csv").read_text() == "n,r\n"
    rec = json.loads((out / "mapping.json").read_text())
    assert rec["ks_statistic"] is None
    assert rec["ks_pvalue"] is None
    assert rec["unit_set_counts"] == {}
    assert rec["config"]["count"] == 0


def test_outputs_are_byte_identical_across_reruns(tmp_path):
    cfgf = _write(tmp_path, "map.cfg",
                  "experiment = mapping_demo\ncount = 150\nseed = 3\n")
    icfg = _write(tmp_path, "intf.cfg", "experiment = interference\n")
    for name, cfg_file in (("m", cfgf), ("i", icfg)):
        out1, out2 = tmp_path / (name + "1"), tmp_path / (name + "2")
        assert run(cfg_file, out_dir=str(out1), quiet=True) == 0
        assert run(cfg_file, out_dir=str(out2), quiet=True) == 0
        files1 = sorted(f.name for f in out1.iterdir())
        assert files1 == sorted(f.name for f in out2.iterdir())
        for f in files1:
            assert (out1 / f).read_bytes() == (out2 / f).read_bytes(), f


def _reference_images(ns, dist, seed):
    # one SeedSequence and one Generator per point, scalar inverse CDF
    out = []
    for n in ns:
        n_bits = int(np.float64(n).view(np.uint64))
        rng = np.random.default_rng(np.random.SeedSequence(
            entropy=[int(seed) & ((1 << 64) - 1), n_bits]))
        out.append(float(dist.inverse_cdf(rng.random())))
    return np.array(out)


@pytest.mark.parametrize("body", ["", "count = 100000\nseed = 7\n"],
                         ids=["defaults", "count_100000_seed_7"])
def test_mapping_bytes_match_per_point_reference(tmp_path, monkeypatch, body):
    cfgf = _write(tmp_path, "map.cfg", "experiment = mapping_demo\n" + body)
    assert run(cfgf, out_dir=str(tmp_path / "fast"), quiet=True) == 0
    monkeypatch.setattr(cli, "realize_images", _reference_images)
    assert run(cfgf, out_dir=str(tmp_path / "ref"), quiet=True) == 0
    for name in ("mapping.csv", "mapping.json"):
        assert ((tmp_path / "fast" / name).read_bytes()
                == (tmp_path / "ref" / name).read_bytes()), name


def test_non_finite_float_keys_exit_2(tmp_path):
    for experiment, schema in cli._SCHEMAS.items():
        for key, (conv, default) in schema.items():
            if conv not in (float, cli._as_float_list):
                continue
            for bad in ("inf", "-inf", "nan"):
                val = f"1.0, {bad}" if conv is cli._as_float_list else bad
                cfgf = _write(tmp_path, "bad.cfg",
                              f"experiment = {experiment}\n{key} = {val}\n")
                assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 2, \
                    (experiment, key, bad)


def test_oversized_grids_exit_3_before_allocating(tmp_path, monkeypatch):
    # about 1.24e7 recipe sites, and 1e9 screen sites: refused by the step
    # operator's size guard before any grid array is made
    def untouchable(*args):
        raise AssertionError("grid-sized work before the size guard")

    monkeypatch.setattr(cli.SpaceGrid, "points", untouchable)
    for text in ("experiment = propagator_convergence\nk = 100000\n",
                 "experiment = interference\nsites = 1000000000\n"):
        cfgf = _write(tmp_path, "big.cfg", text)
        assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 3, text


def test_import_loads_no_scipy():
    # nor concurrent.futures, which the sampling pool imports when it runs
    code = ("import sys, cardpath, cardpath.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'"
            " or m.startswith('concurrent.futures')))")
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("text", [
    "experiment = propagator_convergence\nhbar = 1e-320\n",
    "experiment = propagator_convergence\nmass = 1e308\n",
    "experiment = propagator_convergence\nb = 1e200\n",
    "experiment = propagator_convergence\nt_total = 1e-300\n",
    "experiment = concentration_scan\nhbar_values = 1e-300\n",
    "experiment = interference\nhbar = 1e-300\n",
    "experiment = interference\nhbar = 1e-320\n",
    "experiment = interference\nslit_width = 5e-324\n",
])
def test_overflowing_site_counts_exit_3(tmp_path, monkeypatch, capsys, text):
    # the site count is infinite or far over the guard as a float; it is
    # refused before it becomes an int and before any grid array is made
    def untouchable(*args):
        raise AssertionError("grid-sized work before the size guard")

    monkeypatch.setattr(cli.SpaceGrid, "points", untouchable)
    cfgf = _write(tmp_path, "big.cfg", text)
    assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 3
    assert "numerical failure" in capsys.readouterr().err


def _untouchable(*args, **kwargs):
    raise AssertionError("population- or grid-sized work before the size guard")


def test_mapping_count_over_guard_exits_3(tmp_path, monkeypatch, capsys):
    # about 320 bytes a point: 4e6 points are over the 1 GiB guard
    monkeypatch.setattr(cli.np, "arange", _untouchable)
    monkeypatch.setattr(cli, "realize_images", _untouchable)
    cfgf = _write(tmp_path, "big.cfg", "experiment = mapping_demo\ncount = 4000000\n")
    out = tmp_path / "o"
    assert run(cfgf, out_dir=str(out), quiet=True) == 3
    assert "guard" in capsys.readouterr().err
    assert not (out / "mapping.csv").exists()


@pytest.mark.parametrize("body", [
    "count = 2251799813685248\n",                       # 4 * count = 2**53
    "count = 3\nunits = 3002399751580331\n",           # units * count = 2**53 + 1
    "count = 10000000000000000000000\n",                # int64 overflow
])
def test_mapping_coordinates_past_2_53_exit_2(tmp_path, monkeypatch, capsys, body):
    monkeypatch.setattr(cli.np, "arange", _untouchable)
    monkeypatch.setattr(cli, "realize_images", _untouchable)
    cfgf = _write(tmp_path, "big.cfg", "experiment = mapping_demo\n" + body)
    assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 2
    assert "2**53" in capsys.readouterr().err


def test_mapping_units_times_count_below_2_53_runs(tmp_path):
    # units * count just below 2**53 is allowed when the count is small
    cfgf = _write(tmp_path, "m.cfg", "experiment = mapping_demo\ncount = 2\n"
                  "units = 4503599627370495\n")
    assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 0
    rows = (tmp_path / "o" / "mapping.csv").read_text().split("\n")[1:3]
    assert [float(r.split(",")[0]) for r in rows] == [0.0, 4503599627370495 / 2]


def test_concentration_scan_huge_k_exits_3(tmp_path, monkeypatch, capsys):
    # the recipe's site-count guard refuses k before the Newton solve
    # allocates k + 1 slices or any grid array is made
    monkeypatch.setattr(cli.SpaceGrid, "points", _untouchable)
    cfgf = _write(tmp_path, "k.cfg",
                  "experiment = concentration_scan\nk = 10000000000000000000000\n")
    assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 3
    assert "numerical failure" in capsys.readouterr().err


def test_interference_sites_below_two_exit_2(tmp_path):
    for sites in (1, -5):
        cfgf = _write(tmp_path, "s.cfg", f"experiment = interference\nsites = {sites}\n")
        assert run(cfgf, out_dir=str(tmp_path / "o"), quiet=True) == 2


def test_mapping_support_of_infinite_width_exit_3(tmp_path, capsys):
    cfgf = _write(tmp_path, "wide.cfg",
                  "experiment = mapping_demo\nlo = -1e308\nhi = 1e308\n")
    out = tmp_path / "o"
    assert run(cfgf, out_dir=str(out), quiet=True) == 3
    assert "width" in capsys.readouterr().err
    assert not (out / "mapping.json").exists()


def test_seed_changes_realized_images(tmp_path):
    cfgf = _write(tmp_path, "map.cfg", "experiment = mapping_demo\ncount = 50\n")
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run(cfgf, out_dir=str(out1), seed=1, quiet=True) == 0
    assert run(cfgf, out_dir=str(out2), seed=2, quiet=True) == 0
    assert (out1 / "mapping.csv").read_text() != (out2 / "mapping.csv").read_text()


def test_no_timing_leaks_into_output_files(tmp_path):
    cfgf = _write(tmp_path, "map.cfg", "experiment = mapping_demo\ncount = 40\n")
    out = tmp_path / "out"
    assert run(cfgf, out_dir=str(out), quiet=True) == 0
    for f in out.iterdir():
        assert "runtime" not in f.read_text()


def test_interference_experiment_fringes(tmp_path):
    cfgf = _write(tmp_path, "intf.cfg", "experiment = interference\n")
    out = tmp_path / "out"
    assert run(cfgf, out_dir=str(out), quiet=True) == 0
    rec = json.loads((out / "interference.json").read_text())
    assert rec["n_maxima"] >= 3
    assert rec["rel_deviation"] < 0.05
    csv = (out / "interference.csv").read_text().strip().split("\n")
    assert csv[0] == "y,intensity"
    assert len(csv) == rec["sites"] + 1


def test_concentration_experiment_small(tmp_path):
    cfgf = _write(tmp_path, "conc.cfg",
                  "experiment = concentration_scan\nk = 4\n"
                  "hbar_values = 1.0,0.5\n")
    out = tmp_path / "out"
    assert run(cfgf, out_dir=str(out), quiet=True) == 0
    rec = json.loads((out / "concentration.json").read_text())
    assert rec["nondecreasing"] is True
    assert len(rec["mass_fraction"]) == 2
    assert all(0.0 <= f <= 1.0 for f in rec["mass_fraction"])
    csv = (out / "concentration.csv").read_text().strip().split("\n")
    assert csv[0] == "hbar,m_scale,mass_fraction"
    assert len(csv) == 3


def test_propagator_convergence_experiment(tmp_path):
    cfgf = _write(tmp_path, "conv.cfg",
                  "experiment = propagator_convergence\nk = 8\n")
    out = tmp_path / "out"
    assert run(cfgf, out_dir=str(out), quiet=True) == 0
    rec = json.loads((out / "convergence.json").read_text())
    assert rec["rel_error"] < 1e-6
    assert rec["result"]["method"] == "transfer_matrix"
    assert rec["grid"]["k"] == 8


def test_main_entry_point(tmp_path, capsys):
    cfgf = _write(tmp_path, "map.cfg", "experiment = mapping_demo\ncount = 30\n")
    code = main(["--config", cfgf, "--out", str(tmp_path / "o"), "--seed", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "mapping_demo" in out
    code = main(["--config", cfgf, "--out", str(tmp_path / "o2"), "--quiet"])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_mapping_demo_callable_directly(tmp_path):
    cfg = ExperimentConfig(experiment="mapping_demo", seed=0,
                           params={"count": 20, "units": 2, "lo": 0.0, "hi": 1.0})
    mapping_demo(cfg, tmp_path, quiet=True)
    assert (tmp_path / "mapping.json").exists()
