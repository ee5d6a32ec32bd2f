"""Checks on the benchmark itself: its certificates and per-layer counts do
not depend on hash randomisation, tracing changes no output, and the runner
keeps the output contract of BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = sorted(run.WORKLOADS)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYERS = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["layers"]


def sample_round(name: str, seed: int, tmp_path: Path, traced: bool):
    """Run about 60 jobs spread over one round; returns (digest, failures,
    per-layer counts or None)."""
    work = run.WORKLOADS[name](random.Random(seed))
    blobs = [json.dumps(doc).encode("utf-8") for doc in work.docs]
    paths = [str(tmp_path / f"instance-{i}.json") for i in range(len(blobs))]
    for path, blob in zip(paths, blobs):
        Path(path).write_bytes(blob)
    _, modules, instances = run.setup(blobs)
    runner = run.Runner(work, modules, instances, paths, str(tmp_path / "cert.json"))
    jobs = work.jobs[:: max(1, len(work.jobs) // 60)]
    if not traced:
        _, digest, failed = run.run_round(runner, jobs)
        return digest, failed, None
    tracer = tracing.Tracer()
    tracer.install(tracing.posetkit_modules())
    try:
        _, digest, failed = run.run_round(runner, jobs, tracer)
    finally:
        tracer.remove()
    summary = tracing.summarize(tracer.take())
    return digest, failed, {k: v for k, v in summary.items() if not tracing.is_time(k)}


def sample_in_process(name: str, seed: int, hash_seed: str, tmp_path: Path):
    """``sample_round`` traced, in a fresh interpreter with the given
    PYTHONHASHSEED; returns its result as JSON values."""
    code = ("import json, sys, pathlib; sys.path.insert(0, sys.argv[1]); import test_perfbench as t; "
            "print(json.dumps(t.sample_round(sys.argv[2], int(sys.argv[3]), pathlib.Path(sys.argv[4]), True)))")
    proc = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed), str(tmp_path)],
                          env=dict(os.environ, PYTHONHASHSEED=hash_seed), capture_output=True,
                          text=True, timeout=170, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def run_benchmark(*args: str, hash_seed: str = "0", cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          env=dict(os.environ, PYTHONHASHSEED=hash_seed),
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_no_certificate(name, tmp_path):
    plain, failed, _ = sample_round(name, 11, tmp_path, traced=False)
    traced, traced_failed, counts = sample_round(name, 11, tmp_path, traced=True)
    assert failed == traced_failed == 0
    assert traced == plain
    assert counts["formats.verify_certificate.calls"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_digest_and_layer_counts_ignore_hash_seed(name, tmp_path):
    first = sample_in_process(name, 12, "0", tmp_path)
    second = sample_in_process(name, 12, "1", tmp_path)
    assert first == second
    assert first[1] == 0
    counts = first[2]
    if name == "sdr-tiny":
        assert counts["hall.find_sdr.calls"] > 0
    else:
        assert counts["cli.run_command.calls"] > 0


def test_tracer_restores_every_function():
    run.import_posetkit()
    modules = tracing.posetkit_modules()
    before = [dict(vars(mod)) for mod in modules]
    tracer = tracing.Tracer()
    tracer.install(modules)
    patched = sum(vars(mod)[k] is not v for mod, b in zip(modules, before) for k, v in b.items())
    tracer.remove()
    assert patched > 50
    assert [dict(vars(mod)) for mod in modules] == before


def test_hall_subsets_counts_the_scan_up_to_the_violation():
    hall = run.import_posetkit()[1]
    # l3 has no neighbour: the scan stops at {l3}, the fourth singleton.
    G = hall.build_bigraph(["l0", "l1", "l2", "l3"], ["r0", "r1"],
                           [("l0", "r0"), ("l1", "r1"), ("l2", "r1")])
    assert tracing._hall_subsets(G, hall.hall_condition(G)) == 4
    # {l1, l2} share r1: singletons (4), then pairs 01, 02, 03, 12.
    G = hall.build_bigraph(["l0", "l1", "l2", "l3"], ["r0", "r1", "r2", "r3"],
                           [("l0", "r0"), ("l1", "r1"), ("l2", "r1"), ("l3", "r3")])
    assert tracing._hall_subsets(G, hall.hall_condition(G)) == 4 + 4
    G = hall.build_bigraph(["l0", "l1"], ["r0", "r1"], [("l0", "r0"), ("l1", "r1")])
    assert tracing._hall_subsets(G, hall.hall_condition(G)) == 3


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, str]:
    """The JSON result line and the certificate digest of a run."""
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("certificates_sha256"))
    return json.loads(lines[-1]), digest


def test_untraced_run_reports_every_end_to_end_metric():
    runs = [result_of(run_benchmark("--workload", "cli-mixed", "--seed", "3", "--seconds", "0",
                                    "--trace", "0", hash_seed=h)) for h in ("0", "1")]
    assert runs[0][1] == runs[1][1], "certificates depend on PYTHONHASHSEED"
    result = runs[0][0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    result, digest = result_of(run_benchmark("--workload", name, "--seed", "3", "--seconds", "0",
                                             "--trace", "1"))
    _, untraced = result_of(run_benchmark("--workload", name, "--seed", "3", "--seconds", "0",
                                          "--trace", "0"))
    assert digest == untraced
    assert result["correct"] and result["failed"] == 0
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert [m["name"] for m in SPEC["per_layer"]] == list(values)
    assert 0 < values["trace.overhead_ratio"] < 1.5
    # A value reads 0 only where the workload never calls the function: a
    # self time is 0 exactly when its calls are, the process batch runs on
    # cli-mixed alone, and every layer the map puts on the workload is called.
    assert all(v >= 0 for v in values.values())
    for key, value in values.items():
        calls = key.removesuffix(".self_ms") + ".calls"
        if calls in values and calls != key:
            assert (value > 0) == (values[calls] > 0), key
    assert values["encode.self_ms"] > 0 and values["src.lines.total"] > 0
    assert (values["cli.process_ms_p50"] > 0) == (name == "cli-mixed")
    for layer, spec in LAYERS.items():
        if name in spec["on"]:
            assert any(values[m] > 0 for m in spec["metrics"] if m.endswith(".calls")), layer


def test_a_call_that_raises_keeps_its_span():
    formats = run.import_posetkit()[0]
    tracer = tracing.Tracer()
    tracer.install(tracing.posetkit_modules())
    try:
        with pytest.raises(Exception):
            formats.parse_instance(b"not json")
    finally:
        tracer.remove()
    summary = tracing.summarize(tracer.take())
    assert summary["formats.parse_instance.calls"] == 1
    assert summary["formats.parse_instance.self_ms"] > 0


def test_layer_map_names_every_per_layer_metric():
    mapped = [m for layer in LAYERS.values() for m in layer["metrics"]]
    listed = [m["name"] for m in SPEC["per_layer"]
              if not m["name"].startswith(("src.lines.", "trace."))]
    assert sorted(mapped) == sorted(listed)
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    for layer in LAYERS.values():
        assert set(layer["moves"]) <= end_to_end and set(layer["on"]) <= workloads


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_benchmark("--workload", "sdr-tiny", "--seed", "1", "--seconds", "1", "--trace", "0",
                         cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
