"""Tests of the benchmark itself: python3 -m pytest perfbench

Every wrong answer below is planted here, in the benchmark's tests, by
altering a real result after the program returned it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import oracle
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
AB = workloads.load_atombell()


def runner(name, seed, tmp_path):
    return run.Runner(workloads.make(name, AB, seed, tmp_path))


def results_of(wl, ops):
    with contextlib.redirect_stderr(io.StringIO()):
        return [wl.call(op) for op in ops]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name, tmp_path):
    r = runner(name, 3, tmp_path)
    with contextlib.redirect_stderr(io.StringIO()):
        r.run_round(0)
        rounds = r.run_phase(1)
    assert r.failures == []
    assert len(rounds) == run.MIN_ROUNDS and sum(map(len, rounds)) == r.traffic_ops > 0
    assert list(tmp_path.iterdir()) == []  # CLI outputs are removed after their check
    assert sum(r.traffic["state" if name != "cli-session" else "command"].values()) == r.traffic_ops


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_digest(name, tmp_path):
    digests = []
    for seed in (5, 5, 6):
        r = runner(name, seed, tmp_path)
        with contextlib.redirect_stderr(io.StringIO()):
            for k in range(run.DIGEST_ROUNDS):
                r.run_round(k)
        digests.append(r.digest.hexdigest())
    assert digests[0] == digests[1] != digests[2]


def test_gamma_eval_rejects_gamma_off_by_1e_6(tmp_path):
    wl = workloads.make("gamma-eval", AB, 1, tmp_path)
    ops = wl.round(1)
    results = results_of(wl, ops)
    assert wl.check(ops, results) == [None] * len(ops)
    wrong = [dataclasses.replace(res, gamma=res.gamma + 1e-6) for res in results]
    assert all(wl.check(ops, wrong))


def test_extremum_search_rejects_gamma_off_by_1e_6(tmp_path):
    wl = workloads.make("extremum-search", AB, 1, tmp_path)
    ops = wl.round(1)
    results = results_of(wl, ops)
    assert wl.check(ops, results) == [None] * len(ops)
    for i in range(len(ops)):
        wrong = list(results)
        wrong[i] = dataclasses.replace(results[i], gamma=results[i].gamma + 1e-6)
        assert wl.check(ops, wrong)[i]


def test_extremum_search_rejects_a_rotated_copy_that_disagrees(tmp_path):
    wl = workloads.make("extremum-search", AB, 1, tmp_path)
    ops = wl.round(1)
    results = results_of(wl, ops)
    i = next(k for k, op in enumerate(ops) if "partner" in op.meta)
    # the copy's own settings and value stay consistent; only the unrotated partner moves
    wrong = list(results)
    p = ops[i].meta["partner"]
    wrong[p] = dataclasses.replace(results[p], gamma=results[p].gamma + 1e-5)
    assert "rotated copy" in wl.check(ops, wrong)[i]


def test_shot_estimate_rejects_a_tally_off_by_one_shot(tmp_path):
    wl = workloads.make("shot-estimate", AB, 1, tmp_path)
    ops = wl.round(1)
    results = results_of(wl, ops)
    assert wl.check(ops, results) == [None] * len(ops)
    Tally = AB.ramsey.Tally
    for key in ("ab", "apb", "abp", "apbp"):
        wrong = []
        for est, tallies in results:
            t = tallies[key]
            wrong.append((est, {**tallies, key: Tally(t.n_pp, t.n_pm + 1, t.n_mp, t.n_mm)}))
        assert all("sums to" in e for e in wl.check(ops, wrong))


def test_shot_estimate_rejects_an_estimate_that_its_tallies_do_not_give(tmp_path):
    wl = workloads.make("shot-estimate", AB, 1, tmp_path)
    ops = wl.round(1)
    wrong = [(dataclasses.replace(est, value=est.value + 1e-6), t) for est, t in results_of(wl, ops)]
    assert all(wl.check(ops, wrong))


def test_shot_estimate_rejects_an_estimate_far_from_the_exact_value(tmp_path):
    wl = workloads.make("shot-estimate", AB, 1, tmp_path)
    op = wl.round(1)[0]  # u at the pi/3 settings, efficiency 1
    est, tallies = results_of(wl, [op])[0]
    shots = op.args[2]
    # every readout of run (a, b) lands in '--'; tallies and estimate stay consistent
    counts = {k: (t.n_pp, t.n_pm, t.n_mp, t.n_mm) for k, t in tallies.items()}
    counts["ab"] = (0, 0, 0, shots)
    skewed = {k: AB.ramsey.Tally(*c) for k, c in counts.items()}
    fake = dataclasses.replace(est, value=oracle.gamma_from_tallies(counts, shots))
    assert "6 sigma" in wl.check([op], [(fake, skewed)])[0]


def cli_round(tmp_path):
    wl = workloads.make("cli-session", AB, 1, tmp_path)
    ops = wl.round(1)
    codes = results_of(wl, ops)
    return wl, ops, codes


def test_cli_session_rejects_exit_code_0_for_an_invalid_spec(tmp_path):
    wl, ops, codes = cli_round(tmp_path)
    assert wl.check(ops, codes) == [None] * len(ops)
    invalid = [k for k, op in enumerate(ops) if op.kind == "invalid"]
    assert len(invalid) == 3
    for k in invalid:
        wrong = list(codes)
        wrong[k] = 0
        assert "exit code 0" in wl.check(ops, wrong)[k]
    wl.discard(ops)


def test_cli_session_rejects_wrong_output(tmp_path):
    wl, ops, codes = cli_round(tmp_path)
    scan = next(op for op in ops if op.kind == "gamma-scan" and op.meta["fmt"] == "csv")
    text = scan.args[1].read_text().splitlines()
    fields = text[3].split(",")
    fields[3] = "1e-06"  # abs_diff of one row
    scan.args[1].write_text("\n".join(text[:3] + [",".join(fields)] + text[4:]) + "\n")
    qmap = next(op for op in ops if op.kind == "qmap" and op.meta["grid"] == 8)
    lines = qmap.args[1].read_text().splitlines()
    qmap.args[1].write_text("\n".join(lines[:-1]) + "\n")  # one row short
    errors = wl.check(ops, codes)
    assert "abs_diff" in errors[ops.index(scan)]
    assert "rows" in errors[ops.index(qmap)]
    wl.discard(ops)


def test_tracer_self_times_add_up_and_wrappers_come_off(tmp_path):
    originals = {label: getattr(mod, attr) for label, mod, attr in workloads.traced_targets(AB)}
    tracer = spans.Tracer(workloads.traced_targets(AB))
    tracer.install(workloads.traced_modules(AB))
    try:
        assert AB.bell.joint_q is not originals["su2.joint_q"]
        assert AB.gamma is AB.bell.gamma is not originals["bell.gamma"]
        r = runner("gamma-eval", 2, tmp_path)
        r.run_phase(1, rounds=1, tracer=tracer)
    finally:
        tracer.remove()
    assert all(getattr(mod, attr) is originals[label] for label, mod, attr in workloads.traced_targets(AB))
    assert AB.bell.joint_q is originals["su2.joint_q"]
    recorded = tracer.spans()
    assert spans.self_time_residual_ns(recorded) == 0
    assert set(recorded["depth"][recorded["name"] == 0]) == {0} and recorded["depth"].max() >= 4  # op > gamma > joint_q > coherent_state > rotation_operator
    table = spans.layer_table(tracer, recorded, 20)
    assert table["bell.gamma"]["calls"] == 20 and table["su2.joint_q"]["calls"] == 80
    assert table["su2.coherent_state"]["calls"] == 200 and tracer.ket_calls == 200
    assert 0.5 < tracer.ket_repeats / tracer.ket_calls < 1.0


def last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def bench(*args, cwd=workloads.ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_the_declared_metrics_and_one_digest_per_seed():
    plain = bench("--workload", "cli-session", "--seed", "9", "--seconds", "0.2", "--trace", "0")
    traced = bench("--workload", "cli-session", "--seed", "9", "--seconds", "0.2", "--trace", "1")
    for proc, key in ((plain, "end_to_end"), (traced, "per_layer")):
        assert proc.returncode == 0, proc.stderr
        result = last_json(proc.stdout)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    digest = [re.search(r"^digest (\w+)", p.stdout, re.M).group(1) for p in (plain, traced)]
    assert digest[0] == digest[1]
    assert all(last_json(plain.stdout)["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    for trace in ("0", "1"):
        proc = bench("--workload", "gamma-eval", "--seed", "1", "--seconds", "1", "--trace", trace, cwd=tmp_path)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout


def test_benchmark_json_keeps_to_its_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup == {"name": "setup_s", "unit": "s", "better": "lower", "bound": max(m["bound"] for m in SPEC["end_to_end"])}
