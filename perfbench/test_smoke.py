"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())["per_layer"]
NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


def run(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    out = run(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    info, res = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in want}
    for name, m in res["metrics"].items():
        assert NAME.match(name) and len(name) <= 64
        assert isinstance(m["value"], (int, float))
        assert trace or m["value"] > 0, name
    assert info["seed"] == 3 and info["workload"] == workload
    for key in ("python", "nproc", "commit", "error_rate"):
        assert key in info


def test_layer_map_names_real_metrics():
    assert [e["name"] for e in LAYERS] == [m["name"] for m in BENCH["per_layer"]]
    workloads = {w["name"] for w in BENCH["workloads"]}
    metrics = {m["name"] for m in BENCH["end_to_end"]}
    for e in LAYERS:
        for target in e["moves"]:
            workload, metric = target.split(".", 1)
            assert workload in workloads and metric in metrics, target


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run("grow", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_restores_every_binding():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import fullerkit  # noqa: F401
    from fullerkit import growth, patterns, verify
    from fullerkit.maps import CombMap
    from fullerkit.winding import PatchBuilder
    from tracer import Tracer, _fullerkit_modules

    def snapshot():
        owners = _fullerkit_modules() + [CombMap, PatchBuilder]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    tracer = Tracer()
    assert tracer.install() > 0
    try:
        assert growth.match_pattern is patterns.match_pattern
        assert growth.match_pattern is not before[(id(growth), "match_pattern")]
        with tracer.recording():
            verify.verify_fullerene(growth.seed_dodecahedron())
    finally:
        tracer.remove()
    spans = tracer.take()
    assert spans["belts.find_k_belts.k5"]["calls"] == 1
    assert spans["spiral.wind"]["closed"] == 1
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_gauge_scales_and_restores_the_alarm():
    sys.path.insert(0, str(HERE))
    import signal
    import time
    from calibrate import Gauge, kernel

    before = signal.getsignal(signal.SIGALRM)
    gauge = Gauge()
    with gauge:
        t0 = gauge.clock()
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            kernel()
        t1 = gauge.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert gauge.factor > 0 and 0 < gauge.raw_s < 0.3
    assert gauge.scale(t0, t1) == pytest.approx(gauge.scaled_s, rel=0.05)
