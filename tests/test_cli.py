import json
import pkgutil
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from betalab.cli import main
from betalab.dos import draw_spectra
from betalab.potential import Potential


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    summary = out / "summary.json"
    return code, (json.loads(summary.read_text()) if summary.exists() else None)


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
    sa = json.loads((a / "summary.json").read_text())
    sb = json.loads((b / "summary.json").read_text())
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
    assert abs(rep["value"]) <= 1e-4
    assert rep["functional"] == "idos"
    assert rep["M"] == "exact-grid"
    assert set(rep["terms"]) == {"sigma_term", "potential_term",
                                 "offset_term", "c_v"}


def test_rate_command_iv_of_equilibrium(tmp_path):
    code, summary = run(tmp_path, "rate", "iv", "--measure", "mu_V")
    assert code == 0
    assert abs(summary["results"]["value"]) <= 1e-4


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


def test_tail_scan_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        assert main(["tail-scan", "--xs", "2.5,4.0", "--out", str(d)]) == 0
    assert (a / "tail_plus.csv").read_bytes() \
        == (b / "tail_plus.csv").read_bytes()


# ---------------------------------------------------------------------------
# config file handling
# ---------------------------------------------------------------------------

def test_config_file_merge_and_flag_priority(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\n\nn = 64\nseed = 7\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg), "--seed", "9",
                 "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["n"] == "64"       # from the file
    assert summary["config"]["seed"] == 9       # flag wins


def test_config_file_syntax_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this line has no equals sign\n")
    assert main(["sample", "--config", str(cfg)]) == 2
    assert "key=value" in capsys.readouterr().err


def test_config_file_missing(tmp_path):
    assert main(["sample", "--config", str(tmp_path / "absent.cfg")]) == 2


def test_config_file_can_set_method(tmp_path, capsys):
    # config values bypass argparse choices and are validated downstream
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = dense\n")
    assert main(["sample", "--config", str(cfg),
                 "--out", str(tmp_path / "o")]) == 2
    assert "method" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# failure modes
# ---------------------------------------------------------------------------

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
])
def test_config_errors_exit_two(tmp_path, capsys, argv, needle):
    assert main([*argv, "--out", str(tmp_path / "o")]) == 2
    assert needle in capsys.readouterr().err


def test_module_precondition_maps_to_exit_two(tmp_path, capsys):
    # calj at the edge violates the functional's domain
    assert main(["rate", "calj", "--measure", "nu_V", "--c", "2.0",
                 "--out", str(tmp_path / "o")]) == 2
    assert "c < b_V" in capsys.readouterr().err


def test_solver_failure_maps_to_exit_three(tmp_path, capsys, monkeypatch):
    import betalab.cli as cli

    def explode(*a, **k):
        raise RuntimeError("iteration budget exhausted")

    monkeypatch.setattr(cli, "equilibrium_cached", explode)
    assert main(["equilibrium", "--out", str(tmp_path / "o")]) == 3
    assert "solver failure" in capsys.readouterr().err


def _project_scripts() -> dict:
    """The [project.scripts] table of pyproject.toml, as name -> target."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    return dict(re.findall(r'^\s*([\w-]+)\s*=\s*"([^"]+)"', section, re.M))


def test_entry_point_installed(tmp_path, capsys):
    proc = subprocess.run(
        [sys.executable, "-m", "betalab.cli", "equilibrium",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
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
