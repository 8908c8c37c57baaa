import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_reduction_demo_default_instances(capsys, monkeypatch):
    demo = load_script("reduction_demo")
    monkeypatch.setattr(sys, "argv", ["reduction_demo.py"])
    demo.main()
    out = capsys.readouterr().out
    headers = [line for line in out.splitlines() if line.startswith("lambda=")]
    assert len(headers) == len(demo.SMALL) == 2
    assert all("expansion verified: True" in line for line in headers)
    assert out.count("(depth increase 4)") == 2


def test_traced_benchmark_finds_every_name_it_wraps():
    # the traced benchmark run wraps package functions by name and raises if
    # one is missing; a fresh interpreter, as its import replaces the package
    code = (
        "from run import import_schurkit\n"
        "from tracing import Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install(import_schurkit())\n"
        "tracer.uninstall()\n"
    )
    path = os.pathsep.join([str(ROOT / "perfbench"), str(ROOT / "src")])
    result = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr


def run_benchmark_second(workload):
    """The last JSON line of one traced second of a benchmark workload."""
    result = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.splitlines()[-1])
    assert last["correct"] is True, result.stdout
    assert last["failed"] == 0
    assert last["attempted"] > 0
    return last


def test_independence_benchmark_runs_correct():
    # the independence gate re-checks every shifted witness and root-of-unity
    # witness the package returns
    run_benchmark_second("independence")


def test_reduce_cli_benchmark_runs_correct():
    # the reduce gate checks each reduction's depth increase (+4), its size
    # bound and the round trip of its --out file; an op writes the (3,2)/5
    # and (4,2)/6 --out files, 16,220,160 bytes in all
    metrics = run_benchmark_second("reduce-cli")["metrics"]
    assert metrics["cli.out_bytes"]["value"] == 16_220_160


def test_routes_benchmark_runs_correct():
    # the routes gate checks all four routes, schur_ssyt and the two
    # determinants on coefficients of partitions among them, against the
    # digests recorded in perfbench/references.json
    run_benchmark_second("routes")


def test_reduce_large_benchmark_runs_correct():
    # the reduce-large gate expands the (6,3)/8 output against det_2; the
    # reduction checks the witness of the four h's it recovers through, not
    # the whole h-family
    metrics = run_benchmark_second("reduce-large")["metrics"]
    assert metrics["independence.h_family_witness.calls"]["value"] == 0
