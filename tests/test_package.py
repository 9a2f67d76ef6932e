import pathlib
import re
import subprocess
import sys

import primetime

REPO = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"


def test_every_export_resolves():
    assert [name for name in primetime.__all__ if not hasattr(primetime, name)] == []


def test_readme_python_examples_run(capsys):
    # README's ```python blocks, in order and in one namespace, as a reader
    # would paste them; the first prints a completion round and a diameter
    # that it says are equal.
    text = (REPO / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", text, re.M | re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
    completion_round, diameter = capsys.readouterr().out.splitlines()[0].split()
    assert completion_round == diameter


def test_importing_the_cli_loads_no_dataclasses():
    # Every command pays for its imports; `dataclasses` alone brings in
    # `inspect`, `ast`, `dis` and `tokenize`.  -S keeps the host's site
    # imports out of the check.
    code = ("import sys, primetime.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          env={"PYTHONPATH": str(REPO / "src")}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_a_failing_hypothesis_test_reports_its_example(tmp_path):
    # Under the suite's own warning filters, the report of a falsified
    # property must name the example, not end in an INTERNALERROR.
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 5\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_falsified(" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
