"""Tests of the benchmark itself, on its tiny smoke inputs.

Run from the repository root:

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace=0, seed=3, root=ROOT, flags=()):
    cmd = [sys.executable, *flags, str(root / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=root, timeout=600, check=False)


def parse(proc):
    lines = proc.stdout.splitlines()
    detail = json.loads(next(ln for ln in lines if ln.startswith("detail "))[len("detail "):])
    return json.loads(lines[-1]), detail


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_runs_agree_and_report_declared_metrics(workload):
    runs = [bench(workload, trace) for trace in (0, 1, 1)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    (plain, plain_detail), (traced, traced_detail), (again, _) = map(parse, runs)
    for result in (plain, traced, again):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(plain) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(traced) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    # tracing changes no answer, and every count repeats exactly
    assert traced_detail["digests"] == plain_detail["digests"]
    counts = [
        {k: m["value"] for k, m in r["metrics"].items() if m["unit"] == "count"}
        for r in (traced, again)
    ]
    assert counts[0] == counts[1]
    assert counts[0]["ext_weyl.mul.calls"] > 0


def test_checks_do_not_rely_on_library_asserts():
    proc = bench("order_filtration", flags=("-O",))
    assert proc.returncode == 0, proc.stderr
    assert parse(proc)[0]["correct"]


def test_wrong_answer_fails_the_run(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    digests["kl_bar_verify"]["smoke"]["A2_adj"] = "0" * 64
    (tmp_path / "perfbench" / "digests.json").write_text(json.dumps(digests), encoding="utf-8")
    proc = bench("kl_bar_verify", root=tmp_path)
    assert proc.returncode == 1
    result, detail = parse(proc)
    # the one wrong digest fails once per pass, and nothing else fails
    assert not result["correct"] and result["failed"] == detail["passes"] >= 2


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("mtriangle_sweep", root=tmp_path)
    assert proc.returncode != 0
    assert not any(ln.startswith("{") for ln in proc.stdout.splitlines())


def test_tracer_uninstall_restores_the_library():
    import alcove_hecke
    from calltrace import Tracer

    before = (alcove_hecke.LaurentPolynomial.__mul__, alcove_hecke.build_engine,
              alcove_hecke.ExtWeyl.mul)
    tracer = Tracer()
    tracer.install()
    try:
        eng = alcove_hecke.build_engine("A1_adj")
        eng.hecke.kl_basis(eng.ext.parse_element("s1 s0 : 0"))
    finally:
        tracer.uninstall()
    after = (alcove_hecke.LaurentPolynomial.__mul__, alcove_hecke.build_engine,
             alcove_hecke.ExtWeyl.mul)
    assert after == before
    assert tracer.value("engine.build_engine.total_s") > 0
    assert tracer.value("hecke.kl_basis.calls") >= 1
    assert tracer.value("hecke.kl_basis.distinct") <= tracer.value("hecke.kl_basis.calls")


def test_percentile_averages_the_items_around_its_rank():
    from run import percentile

    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 50) == pytest.approx(100.5, abs=0.5)
    assert percentile(values, 96) == pytest.approx(0.96 * 201, abs=1.0)
    assert percentile([5.0] * 7, 84) == pytest.approx(5.0)
    assert percentile([1.0, 2.0, 3.0], 0) == 1.0


def test_gauge_does_not_move_the_collector():
    import gc

    from run import Gauge

    gauge = Gauge()
    gc.collect()
    before = gc.get_count()
    gauge.sample()
    after = gc.get_count()
    # a kernel that allocated tracked objects would add thousands and trigger
    # collections; a handful of interpreter allocations remain
    assert after[0] - before[0] <= 3 and after[1:] == before[1:]
    assert gauge.scale(gauge.at[-1]) > 0
