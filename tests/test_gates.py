"""The gates that CI runs, checked in tier-1 as well: the workflow file
parses and every step's script is valid bash, the benchmark's pinned
outputs are reproduced byte for byte, and the benchmark's tracer still
installs on the package without changing an output."""
import functools
import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from primetime.cli import main

REPO = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = REPO / "perfbench"
PINS = json.loads((PERFBENCH / "digests.json").read_text(encoding="utf-8"))


def test_ci_workflow_loads_and_every_run_step_is_valid_bash():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((REPO / ".github" / "workflows" / "ci.yml").read_text(
        encoding="utf-8"))
    # YAML 1.1 reads the bare key `on` as the boolean true.
    assert set(workflow.get("on", workflow.get(True))) == {"push", "pull_request"}
    scripts = [step["run"] for job in workflow["jobs"].values()
               for step in job["steps"] if "run" in step]
    assert len(scripts) >= 6
    for script in scripts:
        done = subprocess.run(["bash", "-n", "-c", script], capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, (script, done.stderr)


@functools.cache
def load_workloads():
    """perfbench/workloads.py as a module, writing no bytecode beside it.
    Its dataclass needs the module registered while the class is made."""
    name = "perfbench_workloads"
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / "workloads.py")
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    writes, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = writes
    return module


@pytest.mark.parametrize("scale, name", [(scale, name) for scale in sorted(PINS)
                                         for name in sorted(PINS[scale])])
def test_workload_outputs_match_the_pinned_digests(tmp_path, capsys, scale, name):
    workloads = load_workloads()
    for seed, pinned in PINS[scale][name].items():
        config = tmp_path / f"{seed}.ini"
        config.write_text(workloads.config_text(name, int(seed), scale), encoding="utf-8")
        out = tmp_path / seed
        command = workloads.WORKLOADS[name].command
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
        digests = {file: hashlib.sha256((out / file).read_bytes()).hexdigest()
                   for file in pinned}
        assert digests == pinned, (scale, name, seed)


@pytest.mark.parametrize("command, config", [
    ("run", "churn_cycle10.ini"),
    ("check", "path8.ini"),
    ("sweep", "sweep_robustness.ini"),
])
def test_traced_command_matches_the_untraced_one(tmp_path, capsys, command, config):
    argv = [command, "--config", str(REPO / "configs" / config)]
    assert main([*argv, "--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    spans = tmp_path / "spans"
    spans.mkdir()
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), str(spans), "--",
         *argv, "--out", str(tmp_path / "traced")],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == plain
    assert json.loads((spans / "spans.json").read_text(encoding="utf-8"))["count"] > 0
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files and files == sorted(p.name for p in (tmp_path / "traced").iterdir())
    for name in files:
        assert (tmp_path / "traced" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()
