import csv
import importlib.util
import pathlib

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_size_crossover_writes_rows(tmp_path, capsys):
    out = tmp_path / "crossover.csv"
    assert load_script("size_crossover").main(
        ["--n-max", "3", "--m-values", "1", "8", "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["n"], r["M"]) for r in rows] == [(str(n), str(m)) for m in (1, 8)
                                                for n in (1, 2, 3)]
    assert all(r["product_wins"] == str(int(int(r["product_bits"]) < int(r["tabular_bits"])))
               for r in rows)
    assert "M=8:" in capsys.readouterr().out
