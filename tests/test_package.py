import pathlib
import subprocess
import sys

import primetime

REPO = pathlib.Path(__file__).resolve().parents[1]
PYPROJECT = REPO / "pyproject.toml"


def test_every_export_resolves():
    assert [name for name in primetime.__all__ if not hasattr(primetime, name)] == []


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
