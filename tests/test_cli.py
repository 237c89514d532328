import importlib.util
import json
import os
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from betalab import dos, equilibrium, rates
from betalab.cli import main
from betalab.dos import draw_spectra
from betalab.equilibrium import constrained_equilibrium, equilibrium_cached
from betalab.measures import AtomicMeasure, reflect_shift, \
    save_measure, wasserstein
from betalab.potential import Potential


def _reject_constant(name):
    raise ValueError(f"summary.json holds {name}, which is not JSON")


def load_summary(path):
    """summary.json parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    summary = out / "summary.json"
    return code, (load_summary(summary) if summary.exists() else None)


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------

def test_equilibrium_command_gold_values(tmp_path):
    code, summary = run(tmp_path, "equilibrium")
    assert code == 0
    res = summary["results"]
    assert abs(res["a_v"] + 2.0) <= 1e-8
    assert abs(res["b_v"] - 2.0) <= 1e-8
    assert abs(res["c_v"] - 0.75) <= 1e-8
    assert abs(res["sigma"] + 0.25) <= 1e-8
    assert summary["command"] == "equilibrium"


def test_sample_command_writes_deterministic_csv(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["sample", "--n", "64", "--seed", "5", "--replicas", "2",
                     "--out", str(d)]) == 0
    assert (a / "samples.csv").read_bytes() == (b / "samples.csv").read_bytes()
    sa = load_summary(a / "summary.json")
    sb = load_summary(b / "summary.json")
    for s in (sa, sb):
        s.pop("timestamp")
        s["config"].pop("out")
    assert sa == sb        # besides path and timestamp, bytes are config-determined


@pytest.mark.parametrize("method,potential,n", [
    ("tridiagonal", "0,0,0.5", 64),
    ("mcmc", "0,0,0,0,1", 12),
])
def test_sample_command_matches_draw_spectra(tmp_path, method, potential, n):
    code, summary = run(tmp_path, "sample", "--method", method,
                        "--potential", potential, "--n", str(n),
                        "--replicas", "2", "--seed", "3")
    assert code == 0
    want = draw_spectra(Potential.from_string(potential), 2.0, n, 3, 2,
                        method)
    rows = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",",
                      skiprows=1)
    for s in want:
        assert np.array_equal(rows[rows[:, 0] == s.replica, 1], s.eigenvalues)
    assert summary["results"]["acceptance_rate"] == \
        [s.acceptance_rate for s in want]


def test_sample_mcmc_quartic_at_n_400(tmp_path, eq_quartic):
    # a fixed number of sweeps of O(N deg) batches each: seconds at N = 400,
    # where a chain of O(N) sweeps of O(N^2) work would take hours
    code, summary = run(tmp_path, "sample", "--method", "mcmc", "--potential",
                        "0,0,0,0,1", "--n", "400", "--replicas", "2")
    assert code == 0
    assert all(0.2 <= a <= 0.6 for a in summary["results"]["acceptance_rate"])
    eig = np.loadtxt(tmp_path / "out" / "samples.csv", delimiter=",",
                     skiprows=1, usecols=1)
    # 0.0015-0.0023 on seeds 0-4
    assert wasserstein(AtomicMeasure.from_points(eig),
                       eq_quartic.density) <= 0.01


def test_sample_command_reports_lambda_max(tmp_path):
    code, summary = run(tmp_path, "sample", "--n", "512", "--seed", "1")
    assert code == 0
    res = summary["results"]
    assert res["method"] == "tridiagonal"
    assert len(res["lambda_max"]) == 1
    assert abs(res["lambda_max"][0] - 2.0) <= 0.3
    assert res["acceptance_rate"] == [None]


def test_rate_command_idos_of_limit_shape(tmp_path):
    code, summary = run(tmp_path, "rate", "idos", "--measure", "nu_V")
    assert code == 0
    rep = summary["results"]
    assert abs(rep["value"]) <= 1e-14
    assert rep["functional"] == "idos"
    assert rep["M"] == "exact-grid"
    assert set(rep["terms"]) == {"sigma_term", "potential_term",
                                 "offset_term", "c_v"}


def test_rate_command_iv_of_equilibrium(tmp_path):
    code, summary = run(tmp_path, "rate", "iv", "--measure", "mu_V")
    assert code == 0
    assert abs(summary["results"]["value"]) <= 1e-14


def test_rate_on_mu_v_and_nu_v_builds_no_grid(tmp_path, monkeypatch,
                                               capsys):
    # nu_V and mu_V are angular series with their own exact Sigma; only a
    # grid measure read from a CSV file reaches the grid log-energy
    calls = []

    def refuse(mu):
        calls.append(mu)
        raise RuntimeError("grid log-energy called")

    monkeypatch.setattr(rates, "log_energy_grid", refuse)
    for i, argv in enumerate((["calj", "--measure", "nu_V", "--c", "1.5"],
                              ["idos", "--measure", "nu_V"],
                              ["iv", "--measure", "mu_V"])):
        assert main(["rate", *argv, "--out", str(tmp_path / str(i))]) == 0
    assert calls == []
    grid = tmp_path / "grid.csv"
    grid.write_text("position,density\n0,0.5\n1,1\n2,0.5\n")
    assert main(["rate", "idos", "--measure", str(grid),
                 "--out", str(tmp_path / "csv")]) == 3
    assert len(calls) == 1
    assert "grid log-energy called" in capsys.readouterr().err


def test_repeated_main_resolves_like_fresh_processes(tmp_path):
    # the parser is built once per process: a parse must leave nothing in
    # it, so an option given in one call is back at its default in the next
    runs = [["rate", "iv", "--measure", "mu_V", "--reg-m", "3", "--c", "1"],
            ["tail-scan", "--left", "1.5", "--grid", "64"],
            ["rate", "iv", "--measure", "mu_V"],
            ["tail-scan"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        os.path.dirname(os.path.dirname(dos.__file__)),
        os.environ.get("PYTHONPATH")]))}
    for i, argv in enumerate(runs):
        here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
        assert main([*argv, "--out", str(here)]) == 0
        subprocess.run([sys.executable, "-m", "betalab.cli", *argv,
                        "--out", str(fresh)], check=True, env=env,
                       capture_output=True)
        configs = [load_summary(d / "summary.json")["config"]
                   for d in (here, fresh)]
        for cfg in configs:
            cfg.pop("out")
        assert configs[0] == configs[1]
    assert configs[0]["grid"] == 1024


@pytest.mark.parametrize("functional, reads_c",
                         [("iv", False), ("idos", False), ("cali", True)])
def test_rate_hash_covers_c_only_where_read(tmp_path, functional, reads_c):
    # rate takes --c for every functional; iv and idos never read it
    plain = run(tmp_path / "a", "rate", functional)[1]["results"]
    moved = run(tmp_path / "b", "rate", functional, "--c", "5")[1]["results"]
    assert (plain["inputs_hash"] != moved["inputs_hash"]) == reads_c
    assert (plain["value"] != moved["value"]) == reads_c


@pytest.mark.parametrize("functional, option, values", [
    ("calj", "--grid", ("64", "128")),
    ("iv", "--reg-m", ("auto", "3")),
    ("cali", "--reg-m", ("auto", "3")),
    ("idos", "--reg-m", ("auto", "3")),
])
def test_rate_hash_covers_grid_and_reg_m(tmp_path, functional, option,
                                         values):
    # a 4-atom measure, so --reg-m changes the value (a grid measure is
    # exact and ignores it); calj's J^- is in closed form, so --grid
    # changes neither its value nor its hash
    atoms = tmp_path / "atoms.csv"
    atoms.write_text("position,weight\n0,0.25\n0.5,0.25\n1,0.25\n1.5,0.25\n")
    base = ["rate", functional, "--c", "1.5", "--measure", str(atoms)]
    res = [run(tmp_path / f"r{i}", *base, option, v)[1]["results"]
           for i, v in enumerate(values + values[:1])]
    moves = option == "--reg-m"
    assert (res[0]["inputs_hash"] != res[1]["inputs_hash"]) == moves
    assert (res[0]["value"] != res[1]["value"]) == moves
    assert res[0]["inputs_hash"] == res[2]["inputs_hash"]
    assert res[0]["value"] == res[2]["value"]


def test_rate_command_projection_zero_at_edge(tmp_path):
    code, summary = run(tmp_path, "rate", "projection", "--c", "2.0")
    assert code == 0
    assert summary["results"]["value"] == 0.0


def test_rate_command_calj_below_edge(tmp_path):
    code, summary = run(tmp_path, "rate", "calj", "--measure", "nu_V",
                        "--c", "1.5", "--grid", "256")
    assert code == 0
    assert summary["results"]["value"] > 0.0
    assert summary["results"]["terms"]["offset_term"] < 0.0


def test_rate_idos_of_saved_grid_is_cali_inf_bit_for_bit(tmp_path):
    # the benchmark's calI-inf check on its 1024-cell tau_2.5 grid: a
    # save/load round trip keeps every bit, and both routes evaluate the
    # one grid Sigma
    V = Potential.gaussian()
    tau = reflect_shift(equilibrium.solve_equilibrium(V, 1024).density, 2.5)
    path = tmp_path / "tau_2.5.csv"
    save_measure(tau, str(path))
    code, summary = run(tmp_path, "rate", "idos", "--measure", str(path))
    assert code == 0
    _, value = rates.calI_inf_over_c(equilibrium_cached(V), V, tau)
    assert summary["results"]["value"] == value


def test_dos_converge_command(tmp_path):
    code, summary = run(tmp_path, "dos-converge", "--n", "50,150",
                        "--replicas", "10", "--seed", "3")
    assert code == 0
    res = summary["results"]
    assert res["strictly_decreasing"] is True
    assert set(res["mean_w1"]) == {"50", "150"}
    out = tmp_path / "out"
    assert (out / "dos_convergence.csv").read_text().splitlines()[0] \
        == "n,mean_w1,std_w1"
    assert (out / "dos_w1_replicas.csv").exists()


def test_cli_tables_follow_the_measure_csv_format(tmp_path):
    # save_measure's format: ints through str, floats in their shortest
    # round-trip form, comma-joined, a final newline
    code, _ = run(tmp_path, "dos-converge", "--n", "20,40", "--replicas", "3",
                  "--seed", "3")
    assert code == 0
    report = dos.dos_convergence(Potential.gaussian(), 2.0, (20, 40), 3, 3)
    lines = ["n,replica,w1"] + [f"{n},{j},{float(w)!r}" for n in (20, 40)
                                for j, w in enumerate(report[n]["w1"])]
    assert (tmp_path / "out" / "dos_w1_replicas.csv").read_bytes() \
        == ("\n".join(lines) + "\n").encode()


def test_fluctuate_command(tmp_path):
    code, summary = run(tmp_path, "fluctuate", "--n", "64", "--replicas", "8",
                        "--seed", "2", "--f", "square")
    assert code == 0
    res = summary["results"]
    assert res["regime"] == "clt"
    assert res["per_n"]["64"]["remainder_bound_ok"] is True
    out = tmp_path / "out"
    assert (out / "fluct_stats.csv").exists()
    assert (out / "fluct_hist_64.csv").read_text().splitlines()[0] \
        == "bin_left,bin_right,count"


def test_tail_scan_command(tmp_path):
    code, summary = run(tmp_path, "tail-scan", "--xs", "2.0,3.0",
                        "--left", "1.5", "--grid", "256")
    assert code == 0
    res = summary["results"]
    assert res["j_plus"]["2.0"] == 0.0
    assert res["j_plus"]["3.0"] > 1.0
    assert res["j_minus"]["1.5"] > 0.0
    out = tmp_path / "out"
    assert (out / "tail_plus.csv").exists()
    assert (out / "tail_minus.csv").exists()


def test_tail_scan_records_hard_wall_certificates(tmp_path):
    # one certificate per wall below b_V = 2, the soft-edge residual of
    # its minimizer; the CSV keeps its two columns
    code, summary = run(tmp_path, "tail-scan", "--left", "1.0,1.5,2.5",
                        "--grid", "256")
    assert code == 0
    cert = summary["results"]["j_minus_certificate"]
    assert sorted(cert) == ["1.0", "1.5"]
    assert summary["results"]["j_minus"]["2.5"] == 0.0
    for c, entry in cert.items():
        res = constrained_equilibrium(Potential.gaussian(), float(c))
        assert entry == {"soft_edge_residual": res.gap}
        assert entry["soft_edge_residual"] <= 1e-12
    rows = (tmp_path / "out" / "tail_minus.csv").read_text().splitlines()
    assert rows[0] == "c,j_minus"
    assert [r.split(",")[0] for r in rows[1:]] == ["1.0", "1.5", "2.5"]
    assert rows[-1] == "2.5,0.0"


def test_hard_wall_solved_once_per_wall(tmp_path, monkeypatch):
    # a wall below b_V is one hard-edge solve, giving both J^- and its
    # certificate; a wall at or right of b_V is mu_V and solves nothing
    calls = []
    solve = equilibrium._hard_edge

    def counted(V, c):
        calls.append(c)
        return solve(V, c)

    monkeypatch.setattr(equilibrium, "_hard_edge", counted)
    for argv, walls in ((["tail-scan", "--left", "1.0,1.5,2.5"], [1.0, 1.5]),
                        (["rate", "calj", "--c", "1.5"], [1.5])):
        calls.clear()
        assert main(argv + ["--out", str(tmp_path / "o")]) == 0
        assert calls == walls


@pytest.mark.parametrize("coeffs, c", [("0,0,0,0,1", -100.0),
                                       ("0,0.3,0.5,0.1,0.2", -300.0)])
def test_tail_scan_certifies_far_left_walls(tmp_path, coeffs, c):
    code, summary = run(tmp_path, "tail-scan", "--potential", coeffs,
                        f"--left={c}")
    assert code == 0
    cert = summary["results"]["j_minus_certificate"][repr(c)]
    assert cert["soft_edge_residual"] <= 1e-12


def test_tail_scan_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["tail-scan", "--xs", "2.5,4.0", "--out", str(d)]) == 0
    assert (a / "tail_plus.csv").read_bytes() \
        == (b / "tail_plus.csv").read_bytes()


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_output_files_keep_the_umask_mode(tmp_path, umask):
    # the temp file is made by open(), not mkstemp's 0600, and the rename
    # keeps its mode
    old = os.umask(umask)
    try:
        assert main(["equilibrium", "--grid", "16",
                     "--out", str(tmp_path / "o")]) == 0
    finally:
        os.umask(old)
    files = sorted((tmp_path / "o").iterdir())
    assert [f.name for f in files] == [
        "equilibrium.json", "equilibrium_density.csv", "summary.json"]
    for f in files:
        assert f.stat().st_mode & 0o777 == 0o666 & ~umask


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_file_merge_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\nn = 64\nseed = 7\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--seed", "9",
                 "--out", str(out)]) == 0
    summary = load_summary(out / "summary.json")
    assert summary["config"]["n"] == 64         # from the file
    assert summary["config"]["seed"] == 9       # flag wins
    assert summary["config"]["beta"] == 2.0     # default, recorded too
    assert set(summary["config"]) == {"potential", "beta", "n", "replicas",
                                      "seed", "method", "out"}


def test_summary_records_resolved_derived_defaults(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("grid = 64\n")
    code, summary = run(tmp_path, "tail-scan", "--config", str(cfg),
                        "--left", "1.5")
    assert code == 0
    b = equilibrium_cached(Potential.gaussian()).b_v
    assert {k: v for k, v in summary["config"].items() if k != "out"} == {
        "potential": [0.0, 0.0, 0.5], "grid": 64, "left": [1.5],
        "xs": [b, b + 0.5, b + 1.0]}


def test_config_file_unknown_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("replica = 10\nsede = 4\n")
    assert main(["dos-converge", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "unknown key 'replica'" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_config_file_missing(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_config_file_can_set_method(tmp_path, capsys):
    # a config value goes through the same parser as the flag
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = dense\n")
    assert main(["sample", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "method" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dos-converge", "--n", "50,150", "--replicas", "6", "--seed", "3"],
    ["fluctuate", "--f", "square", "--n", "64,200", "--replicas", "6"],
], ids=["dos-converge", "fluctuate"])
def test_threads_do_not_change_output(tmp_path, argv):
    outs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main([*argv, "--threads", threads, "--out", str(out)]) == 0
        outs[threads] = {p.name: p.read_bytes() for p in out.glob("*.csv")}
        outs[threads]["results"] = load_summary(
            out / "summary.json")["results"]
    assert outs["1"] == outs["2"]


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("error,code", [(ValueError, 2), (RuntimeError, 3)])
def test_worker_errors_keep_exit_codes(tmp_path, capsys, monkeypatch,
                                       error, code):
    draw = dos.sample_gaussian

    def failing(n, beta, seed, replica=0):
        if replica == 3:            # in the last chunk, drawn by a worker
            raise error(f"replica {replica} in process {os.getpid()}")
        return draw(n, beta, seed, replica=replica)

    monkeypatch.setattr(dos, "sample_gaussian", failing)
    # fluctuate reduces each replica to its edge terms in the worker too
    for command in ("dos-converge", "fluctuate"):
        assert main([command, "--n", "20", "--replicas", "4", "--threads",
                     "2", "--out", str(tmp_path / command)]) == code
        err = capsys.readouterr().err
        assert "replica 3 in process" in err
        if len(os.sched_getaffinity(0)) > 1:
            assert f"process {os.getpid()}" not in err


@pytest.mark.parametrize("command", ["equilibrium", "sample"])
def test_out_that_is_a_file_exits_two(tmp_path, capsys, command):
    afile = tmp_path / "afile"
    afile.write_text("keep\n")
    assert main([command, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert "out:" in err and str(afile) in err
    assert afile.read_text() == "keep\n"


@pytest.mark.parametrize("command, name", [
    ("equilibrium", "summary.json"), ("equilibrium", "equilibrium.json"),
    ("equilibrium", "equilibrium_density.csv"),
    ("sample", "summary.json"), ("sample", "samples.csv"),
], ids=["summary.json", "equilibrium.json", "equilibrium_density.csv",
        "sample-summary.json", "sample-samples.csv"])
def test_unwritable_output_file_exits_two(tmp_path, capsys, command, name):
    # a directory where one of the run's files goes (summary.json, renamed
    # last, or one renamed before it): the rename fails, is reported on out
    # with the file's path, and no file of the run is left, neither the
    # temp files nor the ones already renamed
    out = tmp_path / "o"
    (out / name).mkdir(parents=True)
    size = {"equilibrium": ["--grid", "16"], "sample": ["--n", "8"]}[command]
    assert main([command, *size, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: out: cannot write {out / name}: " in err
    assert [p.name for p in out.iterdir()] == [name]
    assert (out / name).is_dir()


@pytest.mark.parametrize("seed", [str(1 << 64), str((1 << 64) + 5), "-1"])
def test_seed_outside_the_key_range_exits_two(tmp_path, capsys, seed):
    # 2^64 would key Philox like 0: refused, not reduced
    out = tmp_path / "o"
    assert main(["sample", "--n", "4", f"--seed={seed}",
                 "--out", str(out)]) == 2
    assert "argument --seed" in capsys.readouterr().err
    assert not out.exists()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"seed = {seed}\n")
    assert main(["sample", "--n", "4", "--config", str(cfg),
                 "--out", str(out)]) == 2
    assert "seed:" in capsys.readouterr().err


def test_largest_seed_runs(tmp_path):
    code, summary = run(tmp_path, "sample", "--n", "4",
                        "--seed", str((1 << 64) - 1))
    assert code == 0 and summary["config"]["seed"] == (1 << 64) - 1


@pytest.mark.parametrize("argv,needle", [
    (["sample", "--potential", "0,1"], "potential"),
    (["sample", "--n", "1"], "n:"),
    (["sample", "--beta", "-2"], "beta"),
    (["sample", "--potential", "0,0,0,0,1"], "tridiagonal"),
    (["rate", "idos", "--measure", "no_such_file.csv"], "measure"),
    (["fluctuate", "--f", "cubic"], "f:"),
    (["dos-converge", "--replicas", "0"], "replicas"),
    (["dos-converge", "--replicas", "1"], "replicas"),
    (["fluctuate", "--replicas", "1"], "replicas"),
    (["sample", "--n", "64,128"], "n:"),
    (["tail-scan", "--beta", "7"], "--beta"),
    (["equilibrium", "--seed", "3"], "--seed"),
    (["sample", "--threads", "2"], "--threads"),
    pytest.param(["rate", "cali", "--c", "nan"], "argument --c:",
                 id="cali-c-nan"),
    pytest.param(["rate", "cali", "--c", "inf"], "argument --c:",
                 id="cali-c-inf"),
    pytest.param(["rate", "projection", "--c", "nan"], "argument --c:",
                 id="projection-c-nan"),
    pytest.param(["rate", "iv", "--reg-m", "nan"], "argument --reg-m:",
                 id="reg-m-nan"),
    pytest.param(["tail-scan", "--xs", "nan"], "argument --xs:", id="xs-nan"),
    pytest.param(["tail-scan", "--xs", "inf"], "argument --xs:", id="xs-inf"),
    pytest.param(["tail-scan", "--left=nan"], "argument --left:",
                 id="left-nan"),
    pytest.param(["fluctuate", "--window", "inf"], "argument --window:",
                 id="window-inf"),
    pytest.param(["sample", "--beta", "inf"], "argument --beta:",
                 id="beta-inf"),
    pytest.param(["fluctuate", "--n", "100,100", "--replicas", "4"],
                 "argument --n:", id="fluctuate-n-repeated"),
    pytest.param(["dos-converge", "--n", "100,100"], "argument --n:",
                 id="dos-converge-n-repeated"),
    pytest.param(["tail-scan", "--left", "1.0,1.0"], "argument --left:",
                 id="left-repeated"),
    pytest.param(["tail-scan", "--xs", "2.5,2.5"], "argument --xs:",
                 id="xs-repeated"),
    pytest.param(["rate", "idos", "--measure", "mu_V"], "supported in R+",
                 id="idos-mu-v-left-of-zero"),
    pytest.param(["rate", "calj"], "c: calj needs --c below b_V",
                 id="calj-c-missing"),
])
def test_config_errors_exit_two(tmp_path, capsys, argv, needle):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


def test_json_measure_file_exits_two(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text('{"kind": "atomic", "support": [0.5], "values": [1.0]}')
    assert main(["rate", "idos", "--measure", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "extension" in err and "m.json" in err


@pytest.mark.parametrize("text, needle", [
    ("position,density\n0,1\n0.1,1\n1,1\n", "not uniform"),
    ("position,density\n", "no rows"),
    ("position,weight\n0.5,1\n0.7\n", "two fields"),
    ("position,weight\nabc,1\n", "could not convert"),
    ("pos,w\n0.5,1\n", "unrecognized measure CSV header"),
    ("position,weight\n0.5,0.7\n", "weights must sum to 1"),
    ("position,weight\n0.5,nan\n", "total mass"),
    ("position,density\n0,1\n", "lo < hi"),
], ids=["nonuniform-grid", "header-only", "one-field-row", "non-numeric-row",
        "unknown-header", "weights-not-one", "nan-weight", "one-node-grid"])
def test_malformed_measure_csv_exits_two(tmp_path, capsys, text, needle):
    path = tmp_path / "m.csv"
    path.write_text(text)
    assert main(["rate", "idos", "--measure", str(path),
                 "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert needle in err and "m.csv" in err


# the options each subcommand reads, as its --help lists them (rate also
# takes its functional as a positional argument)
OPTIONS = {
    "equilibrium": {"--config", "--potential", "--grid", "--out"},
    "sample": {"--config", "--potential", "--beta", "--n", "--replicas",
               "--seed", "--method", "--out"},
    "rate": {"--config", "--potential", "--measure", "--c", "--reg-m",
             "--grid", "--out"},
    "dos-converge": {"--config", "--potential", "--beta", "--n", "--replicas",
                     "--seed", "--method", "--threads", "--out"},
    "fluctuate": {"--config", "--potential", "--beta", "--f", "--window",
                  "--n", "--replicas", "--seed", "--method", "--threads",
                  "--out"},
    "tail-scan": {"--config", "--potential", "--xs", "--left", "--grid",
                  "--out"},
}


@pytest.mark.parametrize("command", sorted(OPTIONS))
def test_help_lists_exactly_the_options_read(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out)) - {"--help"} \
        == OPTIONS[command]
    positional = re.findall(r"positional arguments:\n\s+(\w+)", out)
    assert positional == (["functional"] if command == "rate" else [])


def test_negative_comma_list_parses_in_both_spellings(tmp_path):
    base = ["tail-scan", "--potential", "0,0.3,0.5,0.1,0.2", "--grid", "256"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main([*base, "--left", "-0.5,0.3,0.8", "--out", str(a)]) == 0
    assert main([*base, "--left=-0.5,0.3,0.8", "--out", str(b)]) == 0
    text = (a / "tail_minus.csv").read_bytes()
    assert text == (b / "tail_minus.csv").read_bytes()
    assert text.startswith(b"c,j_minus\n-0.5,")


def test_benchmark_command_lines_run(tmp_path, monkeypatch):
    # every workload of perfbench/workloads.py, at its toy sizes: the
    # benchmark drives the CLI with these argv shapes, so a CLI change that
    # refuses one of them fails here rather than in the benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    # rates-hardwall wraps this solver for the life of its process
    monkeypatch.setattr(rates, "constrained_equilibrium",
                        rates.constrained_equilibrium)
    for name, workload in workloads.WORKLOADS.items():
        session = workloads.Session(str(tmp_path / name))
        workload(session, np.random.default_rng(1),
                 workloads.SIZES["toy"], None)
        assert session.errors == [], name


def test_benchmark_wrap_sites_resolve():
    # a traced benchmark pass wraps each (module, attribute) of WRAP_SITES;
    # a site that no longer resolves zeroes its layer with only a printed
    # line, so a rename in betalab fails here.  The two betalab.cli sampler
    # sites are known stale (the CLI samples through betalab.dos), and so are
    # the dense hard-wall kernel build, which the O(n) LogKernel replaced,
    # and the two spectrum-based betalab.dos routes, now test oracles (the
    # per-replica terms come from edge_terms, so they counted nothing)
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    unresolved = {(mod, attr) for mod, attr, _ in spans.WRAP_SITES
                  if not hasattr(importlib.import_module(mod), attr)}
    assert unresolved == {("betalab.cli", "sample_gaussian"),
                          ("betalab.cli", "sample_mcmc_batch"),
                          ("betalab.dos", "bookkeeping_residual"),
                          ("betalab.dos", "remainder_term"),
                          ("betalab.equilibrium", "log_kernel_mass_form")}


def test_module_precondition_maps_to_exit_two(tmp_path, capsys):
    # calj at the edge violates the functional's domain
    assert main(["rate", "calj", "--measure", "nu_V", "--c", "2.0",
                 "--out", str(tmp_path / "o")]) == 2
    assert "c < b_V" in capsys.readouterr().err


def test_solver_failure_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    import betalab.cli as cli

    def explode(*a, **k):
        raise RuntimeError("iteration budget exhausted")

    monkeypatch.setattr(cli, "solve_equilibrium", explode)
    assert main(["equilibrium", "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("argv,needle", [
    (["rate", "cali", "--c", "1e300"], "results.terms.potential_term"),
    (["tail-scan", "--xs", "1e160"], "results.j_plus.1e+160"),
], ids=["cali-c-1e300", "xs-1e160"])
def test_overflowing_result_exits_three(tmp_path, capsys, argv, needle):
    # a finite input whose arithmetic overflows: no NaN reaches a file
    out = tmp_path / "o"
    with np.errstate(all="ignore"):
        assert main([*argv, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "solver failure" in err and f"{needle} is not finite" in err
    assert list(out.iterdir()) == []


def test_non_finite_table_value_exits_three(tmp_path, capsys, monkeypatch):
    # the per-replica stats reach fluct_stats.csv but not summary.json
    run_ensemble = dos.fluctuation_ensemble

    def with_nan_stat(*args, **kwargs):
        report = run_ensemble(*args, **kwargs)
        report["per_n"][64]["stats"][1] = float("nan")
        return report

    monkeypatch.setattr(dos, "fluctuation_ensemble", with_nan_stat)
    out = tmp_path / "o"
    assert main(["fluctuate", "--n", "64", "--replicas", "4",
                 "--out", str(out)]) == 3
    assert "fluct_stats.csv: stat in row 1 is not finite" \
        in capsys.readouterr().err
    assert list(out.iterdir()) == []


def _project_scripts() -> dict:
    """The [project.scripts] table of pyproject.toml, as name -> target."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^\s*([\w-]+)\s*=\s*"([^"]+)"', section, re.M))


def test_entry_point_installed(tmp_path, capsys):
    # the child imports the betalab package this test imported
    package_root = os.path.dirname(os.path.dirname(dos.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "betalab.cli", "equilibrium",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.strip().endswith("summary.json")
    target = _project_scripts()["betalab"]
    assert target == "betalab.cli:main"
    with pytest.raises(SystemExit) as exc:
        pkgutil.resolve_name(target)(["--help"])
    assert exc.value.code == 0
    assert "equilibrium" in capsys.readouterr().out


@pytest.mark.skipif(shutil.which("betalab") is None,
                    reason="betalab console script not on PATH "
                           "(package not installed)")
def test_console_script_help():
    proc = subprocess.run(["betalab", "--help"], capture_output=True,
                          text=True)
    assert proc.returncode == 0
    assert "equilibrium" in proc.stdout
