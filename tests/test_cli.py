"""End-to-end checks of the command-line interface."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import atombell
from atombell import TwoAtomState, cli, joint_q, make_direction, marginal_q, u_state
from atombell.cli import _fmt, _load_state, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    lines = [line for line in text.strip().splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return header, rows


# ----------------------------------------------------------------- gamma-scan


def test_gamma_scan_u_family(capsys):
    code, out, _ = _run(
        capsys,
        ["gamma-scan", "--family", "u", "--varphi", str(math.pi), "--offset", str(math.pi), "--grid", "25"],
    )
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["theta", "gamma_analytic", "gamma_numeric", "abs_diff"]
    assert len(rows) == 25
    assert all(row[3] < 1e-10 for row in rows)
    # grid point 8 of linspace(0, pi, 25) is theta = pi/3, the extremum
    # (the CSV carries 12 significant digits, hence the loose comparison)
    assert abs(rows[8][0] - math.pi / 3) < 1e-10
    assert abs(rows[8][1] + 1.125) < 1e-9
    assert min(row[1] for row in rows) >= -1.125 - 1e-12


def test_gamma_scan_v_family(capsys):
    code, out, _ = _run(
        capsys,
        ["gamma-scan", "--family", "v", "--varphi", "0", "--offset", str(math.pi), "--grid", "25"],
    )
    assert code == 0
    _, rows = _parse_csv(out)
    assert abs(rows[8][1] - 0.125) < 1e-9
    assert all(row[3] < 1e-10 for row in rows)


def test_gamma_scan_json_format(capsys):
    code, out, _ = _run(
        capsys, ["gamma-scan", "--family", "u", "--grid", "5", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 5
    assert set(payload[0]) == {"theta", "gamma_analytic", "gamma_numeric", "abs_diff"}


def test_gamma_scan_writes_file(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    code, out, _ = _run(
        capsys, ["gamma-scan", "--family", "u", "--grid", "5", "--out", str(target)]
    )
    assert code == 0
    assert out == ""
    header, rows = _parse_csv(target.read_text())
    assert len(rows) == 5


def test_gamma_scan_rejects_bad_grid(capsys):
    code, _, err = _run(capsys, ["gamma-scan", "--family", "u", "--grid", "1"])
    assert code == 2
    assert "grid" in err


@pytest.mark.parametrize("grid", [10001, 10**11])
def test_gamma_scan_rejects_grid_above_cap(capsys, grid):
    code, out, err = _run(capsys, ["gamma-scan", "--family", "u", "--grid", str(grid)])
    assert code == 2
    assert out == ""
    assert "10000" in err


def test_gamma_scan_rejects_unknown_family(capsys):
    assert main(["gamma-scan", "--family", "eta"]) == 2
    capsys.readouterr()


# ------------------------------------------------------------------- optimize


def test_optimize_singlet_report(capsys):
    code, out, _ = _run(
        capsys,
        ["optimize", "--state", '{"family": "u", "varphi": 3.141592653589793}', "--objective", "minimize"],
    )
    assert code == 0
    report = json.loads(out)
    assert abs(report["gamma"] + 1.125) < 1e-6
    assert report["violates"] is True
    assert report["objective"] == "minimize"
    assert abs(report["schmidt_angle"] - math.pi / 4) < 1e-9
    assert set(report["settings"]) == {"a", "a_prime", "b", "b_prime"}
    assert set(report["terms"]) == {"q12_ab", "q12_apb", "q12_abp", "q12_apbp", "q1_a", "q2_b"}
    amps = np.array([complex(re, im) for re, im in report["state"]["amps"]])
    assert np.max(np.abs(amps - u_state(math.pi).amps)) < 1e-12


def test_optimize_product_state_does_not_violate(capsys):
    code, out, _ = _run(
        capsys,
        ["optimize", "--state", '{"product": {"n1": [0.7, 1.2], "n2": [2.1, 5.0]}}', "--objective", "maximize"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["gamma"] <= 1e-9
    assert report["violates"] is False
    assert report["schmidt_angle"] < 1e-7


def test_optimize_state_from_file(capsys, tmp_path):
    state_file = tmp_path / "state.json"
    state_file.write_text('{"family": "eta", "vartheta": 0.7853981633974483, "varphi": 1.0}')
    code, out, _ = _run(capsys, ["optimize", "--state", str(state_file), "--objective", "maximize"])
    assert code == 0
    assert abs(json.loads(out)["gamma"] - 0.125) < 1e-6


def test_optimize_rejects_malformed_state(capsys):
    code, _, err = _run(capsys, ["optimize", "--state", '{"family": "nope"}'])
    assert code == 3
    assert "error" in err
    code, _, err = _run(capsys, ["optimize", "--state", '{"bogus": 1}'])
    assert code == 3
    code, _, err = _run(capsys, ["optimize", "--state", "/does/not/exist.json"])
    assert code == 3
    code, _, err = _run(capsys, ["optimize", "--state", '{"amps": [[1, 0], [0, 0]]}'])
    assert code == 3


def test_optimize_warns_on_unnormalized_amps(capsys):
    state = '{"amps": [[1.5, 0], [0, 0], [0, 0], [0, 0]]}'
    code, out, err = _run(capsys, ["optimize", "--state", state])
    assert code == 0
    assert "normaliz" in err
    report = json.loads(out)
    assert abs(report["state"]["amps"][0][0] - 1.0) < 1e-12


def test_optimize_normalizes_huge_amps_without_overflow(capsys):
    state = '{"amps": [[1e200, 0], [0, 0], [0, 0], [1e200, 0]]}'
    code, out, err = _run(capsys, ["optimize", "--state", state])
    assert code == 0
    assert "state norm 1.41421356e+200 deviates" in err
    report = json.loads(out)
    assert abs(report["gamma"] + 1.125) < 1e-12
    assert report["violates"] is True


# --------------------------------------------------------------------- sample


def test_sample_singlet_with_optimal_settings(capsys):
    code, out, _ = _run(
        capsys,
        [
            "sample",
            "--state",
            '{"family": "u", "varphi": 3.141592653589793}',
            "--shots",
            "1000000",
            "--seed",
            "42",
        ],
    )
    assert code == 0
    report = json.loads(out)
    assert report["shots"] == 1_000_000
    assert report["seed"] == 42
    assert abs(report["exact_gamma"] + 1.125) < 1e-6
    est = report["gamma_estimate"]
    assert est["std_error"] < 3e-3
    assert abs(est["value"] - report["exact_gamma"]) < 5.0 * est["std_error"]
    assert set(report["tallies"]) == {"ab", "apb", "abp", "apbp"}
    for tally in report["tallies"].values():
        assert sum(tally.values()) == 1_000_000
    for q in report["q_estimates"].values():
        assert set(q) == {"q1", "q2", "q12"}


def test_sample_reproducibility(capsys):
    argv = ["sample", "--state", '{"family": "v"}', "--shots", "20000", "--seed", "9"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_sample_with_explicit_settings_deterministic_state(capsys):
    state = '{"amps": [[1, 0], [0, 0], [0, 0], [0, 0]]}'
    settings = json.dumps(
        {"a": [0.0, 0.0], "a_prime": [0.0, 0.0], "b": [0.0, 0.0], "b_prime": [0.0, 0.0]}
    )
    code, out, _ = _run(
        capsys, ["sample", "--state", state, "--settings", settings, "--shots", "500", "--seed", "1"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["gamma_estimate"]["value"] == 0.0
    assert report["gamma_estimate"]["std_error"] == 0.0
    assert report["exact_gamma"] == 0.0


def test_sample_settings_round_trip_from_optimize(capsys):
    state = '{"family": "v", "varphi": 0.7}'
    code, out, _ = _run(capsys, ["optimize", "--state", state, "--objective", "maximize"])
    assert code == 0
    report = json.loads(out)
    code, out, _ = _run(
        capsys,
        ["sample", "--state", state, "--settings", json.dumps(report["settings"]), "--shots", "1000"],
    )
    assert code == 0
    sampled = json.loads(out)
    assert abs(sampled["exact_gamma"] - report["gamma"]) < 1e-12


def test_sample_efficiency_pulls_estimate_classical(capsys):
    argv = [
        "sample",
        "--state",
        '{"family": "u", "varphi": 3.141592653589793}',
        "--shots",
        "200000",
        "--seed",
        "4",
    ]
    code, out, _ = _run(capsys, argv)
    ideal = json.loads(out)["gamma_estimate"]["value"]
    code, out, _ = _run(capsys, argv + ["--efficiency", "0.7"])
    assert code == 0
    lossy = json.loads(out)["gamma_estimate"]["value"]
    assert ideal < -1.1
    assert lossy > ideal + 0.05


def test_sample_usage_errors(capsys):
    code, _, err = _run(capsys, ["sample", "--state", '{"family": "u"}', "--shots", "0"])
    assert code == 3
    assert "shots" in err
    code, _, _ = _run(capsys, ["sample", "--state", '{"family": "u"}', "--settings", '{"a": [0, 0]}'])
    assert code == 3
    code, _, _ = _run(capsys, ["sample", "--state", '{"family": "u"}', "--settings", "not json"])
    assert code == 3
    code, _, _ = _run(capsys, ["sample", "--state", '{"family": "u"}', "--efficiency", "1.5"])
    assert code == 3
    code, out, err = _run(capsys, ["sample", "--state", '{"family": "u"}', "--shots", str(10**23)])
    assert code == 3
    assert out == ""
    assert "shots" in err


def test_sample_reports_gamma_at_detection_efficiency(capsys):
    # the singlet at its optimal settings has S = -1/8 and M = 1, so
    # e**2 S - e M = 0.81 * (-0.125) - 0.9 = -1.00125 at e = 0.9
    state = '{"family": "u", "varphi": 3.141592653589793}'
    argv = ["sample", "--state", state, "--shots", "1000000", "--seed", "5", "--efficiency", "0.9"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    assert abs(report["exact_gamma_at_efficiency"] - (-1.00125)) < 1e-12
    assert abs(report["exact_gamma"] - (-1.125)) < 1e-12
    est = report["gamma_estimate"]
    assert abs(est["value"] - report["exact_gamma_at_efficiency"]) < 6.0 * est["std_error"]


def test_sample_at_full_efficiency_repeats_the_ideal_gamma(capsys):
    code, out, _ = _run(capsys, ["sample", "--state", '{"family": "eta", "vartheta": 0.4}', "--shots", "100"])
    assert code == 0
    report = json.loads(out)
    assert report["efficiency"] == 1.0
    assert report["exact_gamma_at_efficiency"] == report["exact_gamma"]


@pytest.mark.parametrize("settings", ["optimal", '{"a": [0, 0], "a_prime": [1, 0], "b": [0, 0], "b_prime": [1, 1]}'])
def test_sample_validates_input_before_any_gamma_math(capsys, monkeypatch, settings):
    def refuse(*args, **kwargs):
        raise AssertionError("Gamma evaluated before the input was validated")

    monkeypatch.setattr(cli, "optimize_gamma", refuse)
    monkeypatch.setattr(cli, "gamma", refuse)
    argv = ["sample", "--state", '{"family": "u"}', "--settings", settings, "--efficiency", "0"]
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert "efficiency" in err


# ------------------------------------------------------------------------ lhv


def test_lhv_csv_hull(capsys):
    code, out, _ = _run(capsys, ["lhv"])
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["q1_a", "q1_a_prime", "q2_b", "q2_b_prime", "gamma"]
    assert len(rows) == 16
    values = [row[4] for row in rows]
    assert min(values) == -1.0
    assert max(values) == 0.0
    assert "# min = -1, max = 0" in out


def test_lhv_json_hull(capsys):
    code, out, _ = _run(capsys, ["lhv", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["min"] == -1.0
    assert payload["max"] == 0.0
    assert len(payload["vertices"]) == 16
    assert {"strategy", "gamma"} == set(payload["vertices"][0])


# ----------------------------------------------------------------------- qmap


def test_qmap_tabulates_joint_q(capsys):
    code, out, _ = _run(
        capsys, ["qmap", "--state", '{"family": "u", "varphi": 3.141592653589793}', "--grid", "4"]
    )
    assert code == 0
    header, rows = _parse_csv(out)
    assert header == ["theta1", "phi1", "theta2", "phi2", "q12", "q1", "q2"]
    assert len(rows) == 16 * 16  # 4x4 directions per atom, product grid
    psi = u_state(math.pi)
    for row in rows[::37]:
        n1 = make_direction(row[0], row[1])
        n2 = make_direction(row[2], row[3])
        assert abs(row[4] - joint_q(psi, n1, n2)) < 1e-10
    for row in rows:
        assert row[4] <= min(row[5], row[6]) + 1e-9
    # the singlet has flat marginals
    assert all(abs(row[5] - 0.5) < 1e-9 for row in rows)


def test_qmap_json_and_file_output(capsys, tmp_path):
    target = tmp_path / "map.json"
    code, out, _ = _run(
        capsys,
        ["qmap", "--state", '{"product": {"n1": [0.3, 0.1], "n2": [1.2, 2.0]}}', "--grid", "3",
         "--format", "json", "--out", str(target)],
    )
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert len(payload) == 81
    assert set(payload[0]) == {"theta1", "phi1", "theta2", "phi2", "q12", "q1", "q2"}


def test_qmap_rejects_bad_grid(capsys):
    code, _, err = _run(capsys, ["qmap", "--state", '{"family": "v"}', "--grid", "1"])
    assert code == 2


@pytest.mark.parametrize("grid", [25, 10**6])
def test_qmap_rejects_grid_above_cap(capsys, grid):
    # the cap is checked before the state is read, so a bad state still
    # reports the usage error
    for state in ('{"family": "v"}', '{"bogus": 1}'):
        code, out, err = _run(capsys, ["qmap", "--state", state, "--grid", str(grid)])
        assert code == 2
        assert out == ""
        assert "24" in err


_QMAP_STATES = {
    "u": '{"family": "u", "varphi": 3.141592653589793}',
    "v": '{"family": "v"}',
    "eta": '{"family": "eta", "vartheta": 0.3, "varphi": 1.0}',
    "product": '{"product": {"n1": [0.3, 0.1], "n2": [1.2, 2.0]}}',
    "amps": '{"amps": [[0.1, 0.2], [-0.3, 0.4], [0.5, -0.6], [0.7, 0.05]]}',
}
_QMAP_KEYS = ("theta1", "phi1", "theta2", "phi2", "q12", "q1", "q2")


def _qmap_reference(psi, grid, fmt):
    # the map row by row from the public Q functions, in qmap's documented layout
    thetas = np.linspace(0.0, math.pi, grid)
    phis = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    directions = [make_direction(t, p) for t in thetas for p in phis]
    rows = [
        (d1.theta, d1.phi, d2.theta, d2.phi, joint_q(psi, d1, d2), marginal_q(psi, 1, d1), marginal_q(psi, 2, d2))
        for d1 in directions
        for d2 in directions
    ]
    if fmt == "json":
        return json.dumps([dict(zip(_QMAP_KEYS, row)) for row in rows], indent=2) + "\n"
    lines = [",".join(_QMAP_KEYS)] + [",".join(_fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("state", sorted(_QMAP_STATES))
def test_qmap_matches_row_by_row_reference(capsys, state, fmt):
    spec = _QMAP_STATES[state]
    psi = _load_state(spec)
    for grid in (2, 3, 4):
        code, out, _ = _run(capsys, ["qmap", "--state", spec, "--grid", str(grid), "--format", fmt])
        assert code == 0
        ref = _qmap_reference(psi, grid, fmt)
        if fmt == "csv":
            # byte-equal, except that where Q vanishes exactly both sides print
            # their own rounding noise (~1e-32); such fields must stay below 1e-15
            assert out.count("\n") == ref.count("\n")
            for line, ref_line in zip(out.splitlines(), ref.splitlines()):
                if line != ref_line:
                    fields, ref_fields = line.split(","), ref_line.split(",")
                    assert len(fields) == len(ref_fields) == 7
                    for x, y in zip(fields, ref_fields):
                        assert x == y or max(abs(float(x)), abs(float(y))) < 1e-15, (line, ref_line)
            continue
        # same keys, indentation and row order; numbers agree to 1e-15
        layout = re.compile(r'": [^,\n]+')
        assert layout.sub('": #', out) == layout.sub('": #', ref)
        got, want = json.loads(out), json.loads(ref)
        assert [list(row) for row in got] == [list(_QMAP_KEYS)] * grid**4
        diff = np.array([list(row.values()) for row in got]) - np.array([list(row.values()) for row in want])
        assert np.max(np.abs(diff)) <= 1e-15
        # both poles are on the grid, and their azimuth prints as 0
        for row in got:
            for theta, phi in ((row["theta1"], row["phi1"]), (row["theta2"], row["phi2"])):
                if theta in (0.0, math.pi):
                    assert phi == 0.0
        assert {row["theta1"] for row in got} >= {0.0, math.pi}


# -------------------------------------------------------------------- general


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [["--help"], ["lhv", "--help"]])
def test_help_returns_zero_without_raising(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert out.startswith("usage: atombell")
    assert err == ""


def _fresh_process(module, argv):
    env = {**os.environ, "PYTHONPATH": str(Path(atombell.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", module, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_shared_parser_leaks_no_state_between_calls(capsys):
    # main reuses one parser; each command must still behave as in a new process
    state = '{"family": "v", "varphi": 0.3}'
    sequence = [
        ["gamma-scan", "--family", "u", "--grid", "5"],
        ["gamma-scan", "--family", "u"],
        ["sample", "--state", state, "--shots", "500", "--efficiency", "0.5"],
        ["sample", "--state", state, "--shots", "500"],
        ["optimize", "--state", state, "--objective", "sideways"],
        ["optimize", "--state", state],
    ]
    results = []
    for argv in sequence:
        code = main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert [code for code, _, _ in results] == [0, 0, 0, 0, 2, 0]
    assert len(_parse_csv(results[1][1])[1]) == 25
    assert json.loads(results[3][1])["efficiency"] == 1.0
    for argv, result in zip(sequence, results):
        assert result == _fresh_process("atombell.cli", argv), argv


def test_python_dash_m_atombell_runs_the_cli(capsys):
    for argv, expected in ((["lhv", "--format", "json"], 0), (["optimize", "--state", '{"family": "w"}'], 3)):
        code, out, err = _run(capsys, argv)
        assert code == expected
        assert _fresh_process("atombell", argv) == (code, out, err)


def test_sample_efficiency_matches_analytic_scaling(capsys):
    # missed detections scale the pair term by e^2 and the marginals by e, so
    # the degraded estimate should sit on the rescaled combination of the
    # exact Q values rather than on the ideal Gamma
    state = '{"family": "v"}'
    code, out, _ = _run(capsys, ["optimize", "--state", state, "--objective", "maximize"])
    assert code == 0
    report = json.loads(out)
    terms = report["terms"]
    e = 0.8
    predicted = e * e * (
        terms["q12_ab"] + terms["q12_apb"] + terms["q12_abp"] - terms["q12_apbp"]
    ) - e * (terms["q1_a"] + terms["q2_b"])
    code, out, _ = _run(
        capsys,
        [
            "sample",
            "--state",
            state,
            "--settings",
            json.dumps(report["settings"]),
            "--shots",
            "200000",
            "--seed",
            "11",
            "--efficiency",
            "0.8",
        ],
    )
    assert code == 0
    sampled = json.loads(out)
    est = sampled["gamma_estimate"]
    assert abs(est["value"] - predicted) < 5 * est["std_error"]
    # at this efficiency the degraded value drops back into the classical
    # interval, well away from the ideal 1/8
    assert -1.0 < predicted < 0.0
    assert abs(sampled["exact_gamma"] - 0.125) < 1e-6


@pytest.mark.parametrize(
    "settings",
    ["[1, 2]", '{"a": [1], "a_prime": [0, 0], "b": [0, 0], "b_prime": [0, 0]}',
     '{"a": 5, "a_prime": [0, 0], "b": [0, 0], "b_prime": [0, 0]}'],
    ids=["not-an-object", "one-number-direction", "scalar-direction"],
)
def test_sample_malformed_settings_exit_with_data_error(capsys, settings):
    code, _, err = _run(capsys, ["sample", "--state", '{"family": "u"}', "--settings", settings])
    assert code == 3
    assert "settings" in err


def test_family_spec_with_null_varphi_exits_with_data_error(capsys):
    code, _, err = _run(capsys, ["optimize", "--state", '{"family": "u", "varphi": null}'])
    assert code == 3
    assert "varphi" in err


def test_importing_the_package_does_not_load_scipy():
    env = {**os.environ, "PYTHONPATH": str(Path(atombell.__file__).resolve().parents[1])}
    code = (
        "import math, sys, atombell, atombell.cli\n"
        "atombell.optimize_gamma(atombell.u_state(math.pi))\n"
        "assert atombell.cli.main(['sample', '--state', '{\"family\": \"v\"}', '--shots', '100']) == 0\n"
        "assert 'scipy' not in sys.modules"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_package_exports_are_the_module_lists():
    modules = (atombell.su2, atombell.bell, atombell.ramsey)
    names = atombell.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"__version__"}.union(*(module.__all__ for module in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(atombell, name) is getattr(module, name), name
    for removed in ("CanonicalForm", "DEFAULT_J_MAX"):
        assert not any(hasattr(module, removed) for module in (atombell, *modules))


def test_malformed_state_spec_shapes_exit_with_data_error(capsys):
    for bad in (
        '{"product": [[0.9, 0.4], [2.1, 5.0]]}',
        '{"product": {"n1": [0.9, 0.4]}}',
        '{"product": {"n1": [0.9], "n2": [2.1, 5.0]}}',
        '{"amps": "oops"}',
        '{"amps": [[1, 0], [0, 0]]}',
        '{"amps": [[1, 0], [0, 0], [0, 0], [0, 0], [0, 0]]}',
    ):
        code, _, err = _run(capsys, ["optimize", "--state", bad])
        assert code == 3, bad
        assert "error:" in err
