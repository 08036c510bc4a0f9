"""BENCHMARK.json, the declared metrics and what a run prints agree;
a run cleans up after itself and refuses to run without the program."""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import declared
from conftest import BENCH, ROOT

RUN = os.path.join(BENCH, "run.py")


def _config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_benchmark_json_matches_the_declaration():
    config = _config()
    assert config["command"] == ["python3", "perfbench/run.py"]
    assert config["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in config["workloads"]} == declared.WORKLOADS
    for key, table in (("end_to_end", declared.END_TO_END), ("per_layer", declared.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in config[key]} == table
    assert all(0 < m["bound"] <= 0.25 for m in config["end_to_end"])


def _run(workload, trace, cwd=ROOT):
    """``(returncode, stdout, stderr, run directory)`` of a 1-second run."""
    proc = subprocess.Popen(
        [sys.executable, RUN if cwd == ROOT else "perfbench/run.py",
         "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=170)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    workdir = os.path.join(cwd, ".perfbench_run", f"{workload}-{proc.pid}")
    return proc.returncode, stdout, stderr, workdir


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    returncode, stdout, stderr, workdir = _run("longlived-lookup", trace)
    assert returncode == 0, stderr
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    table = declared.PER_LAYER if trace else declared.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        name: unit for name, (unit, _) in table.items()
    }
    reported = {line.split()[1] for line in lines if line.startswith("metric ")}
    assert reported == set(table)
    assert not os.path.exists(workdir)


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    returncode, stdout, _, _ = _run("longlived-join", 0, cwd=str(tmp_path))
    assert returncode != 0
    assert '"metrics"' not in stdout


def _servers_of(directory):
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                cmdline = handle.read().decode("utf-8", "replace")
        except OSError:
            continue
        if directory in cmdline and "serve" in cmdline:
            found.append(int(pid))
    return found


def test_interrupt_reaps_the_server_and_its_files():
    proc = subprocess.Popen(
        [sys.executable, RUN, "--workload", "longlived-join", "--seed", "1",
         "--seconds", "60", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    workdir = os.path.join(ROOT, ".perfbench_run", f"longlived-join-{proc.pid}")
    try:
        deadline = time.monotonic() + 60
        while not _servers_of(workdir) and time.monotonic() < deadline:
            time.sleep(0.1)
        assert _servers_of(workdir), "the server never started"
        time.sleep(1.0)
        proc.send_signal(signal.SIGINT)
        _, stderr = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert proc.returncode != 0
    assert b"KeyboardInterrupt" in stderr
    assert _servers_of(workdir) == []
    assert not os.path.exists(workdir)
