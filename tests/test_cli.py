import csv
import inspect
import io
import json
import pathlib
import shlex
import typing

import pytest

from primetime import cli
from primetime.cli import DEMO_MAX_VALUE, DEMO_VALUES, build_parser, demo, main
from primetime.primes import encode, first_primes

REPO = pathlib.Path(__file__).resolve().parents[1]
BUNDLED_CONFIGS = ["path8.ini", "lossy_path8.ini", "churn_cycle10.ini", "sweep_robustness.ini"]

BASIC = """
[topology]
family = path
n = 4

[data]
mode = explicit
values = 1 2 3 4
"""


def write_config(tmp_path, text=BASIC, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_run_writes_trace_and_summary(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert (out / "trace.csv").exists()
    summary = (out / "summary.txt").read_text()
    assert "completion_round = 3" in summary
    assert "diameter = 3" in summary
    assert "completion_round = 3" in capsys.readouterr().out


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_config(tmp_path)
    for name in ("one", "two"):
        assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
    for fname in ("trace.csv", "summary.txt"):
        assert ((tmp_path / "one" / fname).read_bytes()
                == (tmp_path / "two" / fname).read_bytes())


def test_invalid_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC + "\n[loss]\nmode = bernoulli\nq = 1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "loss.q" in capsys.readouterr().err


def test_key_its_mode_ignores_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, BASIC + "\n[loss]\nq = 0.5\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "loss.q: only read with mode = bernoulli" in capsys.readouterr().err


def test_topology_key_its_form_ignores_exits_2(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("1 2\n2 3\n")
    cfg = write_config(tmp_path, "[topology]\nedge_file = g.txt\nn = 99\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "topology.n: only read with family" in capsys.readouterr().err


def test_unknown_flag_rejected(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", "x", "--out", "y", "--turbo"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["demo", "--seed", "1"],
    ["run", "--config", "x", "--out", "y", "--format", "csv"],
    ["run", "--config", "x", "--out", "y", "--verbose"],
    ["check", "--config", "x", "--out", "y", "--verbose"],
    ["compare-size", "--config", "x", "--out", "y", "--verbose"],
])
def test_removed_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_readme_commands_parse():
    readme = REPO / "README.md"
    commands = [shlex.split(line)[1:] for line in readme.read_text().splitlines()
                if line.startswith("primetime ")]
    assert {argv[0] for argv in commands} == {"run", "sweep", "check", "compare-size", "demo"}
    for argv in commands:
        build_parser().parse_args(argv)


def readme_argv(command, out, config=None):
    """The README's first `primetime <command>` line, writing to `out`, on
    the bundled config `config` (by default the one the README names)."""
    lines = (REPO / "README.md").read_text().splitlines()
    argv = next(shlex.split(line)[1:] for line in lines
                if line.startswith("primetime ") and shlex.split(line)[1] == command)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(out)
        i = argv.index("--config") + 1
        argv[i] = str(REPO / "configs" / config) if config else str(REPO / argv[i])
    return argv


@pytest.mark.parametrize("config", BUNDLED_CONFIGS)
@pytest.mark.parametrize("command", ["run", "check", "compare-size"])
def test_readme_commands_run_on_the_bundled_configs(tmp_path, capsys, command, config):
    assert sorted(BUNDLED_CONFIGS) == sorted(p.name for p in (REPO / "configs").glob("*.ini"))
    # check takes only a loss-free closed graph: path8 is the one bundled
    expected = 2 if command == "check" and config != "path8.ini" else 0
    assert main(readme_argv(command, tmp_path / "out", config)) == expected


def test_readme_sweep_and_demo_commands_run(tmp_path, capsys):
    assert main(readme_argv("sweep", tmp_path / "out")) == 0
    assert capsys.readouterr().out.splitlines() == [
        "n=8 M=4 q=0.3 incremental: 0/20 completed (rate 0.000)",
        "n=8 M=4 q=0.3 primetime: 20/20 completed (rate 1.000)",
    ]
    assert main(readme_argv("demo", tmp_path / "out")) == 0
    assert "demo graph" in capsys.readouterr().out


def test_seed_and_variant_overrides(tmp_path):
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4
""")
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["run", "--config", cfg, "--out", str(out_a), "--seed", "5",
                 "--variant", "incremental"]) == 0
    assert main(["run", "--config", cfg, "--out", str(out_b), "--seed", "5",
                 "--variant", "incremental"]) == 0
    assert (out_a / "trace.csv").read_bytes() == (out_b / "trace.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO((out_a / "trace.csv").read_text())))
    last_round = max(int(r["round"]) for r in rows)
    finals = [r for r in rows if int(r["round"]) == last_round]
    assert all(r["message_decimal"] == "1" for r in finals)  # incremental steady state


def test_check_command_passes(tmp_path, capsys):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["check", "--config", cfg, "--out", str(out)]) == 0
    verdicts = json.loads((out / "verdicts.json").read_text())
    assert all(v["passed"] for v in verdicts)
    assert {v["check"] for v in verdicts} == {"diameter_completion", "hop_equations"}
    assert "pass" in capsys.readouterr().out


def test_check_rejects_lossy_config(tmp_path, capsys):
    for name, extra in (("loss", "[loss]\nmode = bernoulli\nq = 0.5\n"),
                        ("drops", "[loss]\ndrops = 1:1>2\n"),
                        ("events", "[events]\nschedule =\n    9 leave 4\n")):
        cfg = write_config(tmp_path, BASIC + "\n" + extra, name=f"{name}.ini")
        out = tmp_path / name
        assert main(["check", "--config", cfg, "--out", str(out)]) == 2
        assert "loss-free" in capsys.readouterr().err
        assert not out.exists()


def test_compare_size_writes_report(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["compare-size", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "size_report.csv").read_text())))
    assert rows
    assert set(rows[0]) == {"n", "M", "round", "agent", "primetime_bits", "tabular_bits"}


@pytest.mark.parametrize("n_max", [0, -3])
def test_n_max_below_1_exits_2(tmp_path, capsys, n_max):
    cfg = write_config(tmp_path, BASIC + f"\n[analysis]\nn_max = {n_max}\n")
    assert main(["compare-size", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: n_max must be >= 1, got {n_max}\n"


def test_n_max_below_the_agent_count_exits_2(tmp_path, capsys):
    # An 8-node path needs a 3-bit id field; n_max = 2 would give it 1 bit.
    cfg = write_config(tmp_path, (REPO / "configs" / "path8.ini").read_text()
                       + "\n[analysis]\nn_max = 2\n")
    assert main(["compare-size", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "config error: analysis.n_max: 2 is below the 8 agents of the run\n")


def test_n_max_error_leaves_no_size_report(tmp_path):
    cfg = write_config(tmp_path, (REPO / "configs" / "path8.ini").read_text()
                       + "\n[analysis]\nn_max = 2\n")
    out = tmp_path / "out"
    assert main(["compare-size", "--config", cfg, "--out", str(out)]) == 2
    assert not (out / "size_report.csv").exists()


@pytest.mark.parametrize("n_max, code", [(4, 2), (5, 0)])
def test_n_max_counts_the_agents_that_join(tmp_path, capsys, n_max, code):
    cfg = write_config(tmp_path, BASIC + "\n[events]\nschedule = 2 join 5 4 1\n"
                       f"\n[analysis]\nn_max = {n_max}\n")
    assert main(["compare-size", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert ("n_max" in capsys.readouterr().err) == (code == 2)


def test_sweep_seed_invariant_without_loss(tmp_path):
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 5

[sweep]
seeds = 0 1
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    assert len(rows) == 2
    assert rows[0]["completion_round"] == rows[1]["completion_round"] == "4"


def test_sweep_seed_flag_overrides_grid_seeds(tmp_path):
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4

[sweep]
seeds = 0 1
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out), "--seed", "7"]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    assert [r["seed"] for r in rows] == ["7"]


def test_sweep_variant_columns(tmp_path):
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4

[loss]
mode = bernoulli
q = 0.3

[sim]
max_rounds = 40

[sweep]
variant = primetime incremental
seeds = 0..4
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    assert len(rows) == 10
    variants = {r["variant"] for r in rows}
    assert variants == {"primetime", "incremental"}
    # deterministic output order: sorted by grid key
    keys = [(int(r["n"]), int(r["max_value"]), float(r["q"]), r["variant"], int(r["seed"]))
            for r in rows]
    assert keys == sorted(keys)


def test_sweep_prints_completion_rate_per_grid_cell(tmp_path, capsys):
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4

[loss]
drops = 1:2>3 1:3>4

[sweep]
variant = primetime incremental
n = 4 5
seeds = 0..2
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    # a lost relay starves the incremental variant for good, never the full one
    assert capsys.readouterr().out.splitlines() == [
        "n=4 M=4 q=0.0 incremental: 0/3 completed (rate 0.000)",
        "n=4 M=4 q=0.0 primetime: 3/3 completed (rate 1.000)",
        "n=5 M=4 q=0.0 incremental: 0/3 completed (rate 0.000)",
        "n=5 M=4 q=0.0 primetime: 3/3 completed (rate 1.000)",
    ]


def test_sweep_records_per_point_failures_and_continues(tmp_path):
    # explicit values can't follow a swept n: those points fail, others run
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4

[data]
mode = explicit
values = 1 2 3 4

[sweep]
n = 4 6
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    by_n = {r["n"]: r for r in rows}
    assert by_n["4"]["error"] == "" and by_n["4"]["completed"] == "1"
    assert "data_values" in by_n["6"]["error"]


def test_sweep_verbose_prints_every_point_in_grid_order(tmp_path, capsys):
    # n = 6 fails (four explicit values); a lost relay starves incremental
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4

[data]
mode = explicit
values = 1 2 3 4

[loss]
drops = 1:2>3 1:3>4

[sweep]
variant = primetime incremental
n = 4 6
""")
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr().out.splitlines()
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "loud"), "--verbose"]) == 0
    error = "error=data_values: got 4 values for 6 nodes"
    assert capsys.readouterr().out.splitlines() == [
        "n=4 M=4 q=0.0 incremental seed=0: completion=never",
        "n=4 M=4 q=0.0 primetime seed=0: completion=4",
        f"n=6 M=4 q=0.0 incremental seed=0: {error}",
        f"n=6 M=4 q=0.0 primetime seed=0: {error}",
    ] + quiet
    assert (tmp_path / "loud" / "sweep.csv").read_bytes() == \
        (tmp_path / "quiet" / "sweep.csv").read_bytes()


def test_sweep_peak_bits_monotone_in_n(tmp_path):
    cfg = write_config(tmp_path, """
[topology]
family = path
n = 4

[sweep]
n = 5 10 15 20
""")
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "sweep.csv").read_text())))
    peaks = [int(r["peak_message_bits"]) for r in rows]
    assert peaks == sorted(peaks)


def test_strict_mode_fails_on_anomalies(tmp_path):
    # under the incremental variant a joiner never learns the old pairs, so a
    # later goodbye names a prime unknown to it: a logged anomaly
    cfg = write_config(tmp_path, """
[topology]
family = cycle
n = 10

[protocol]
variant = incremental

[events]
schedule =
    8 join 11 3 2
    18 leave 8

[sim]
max_rounds = 40
""")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "loose")]) == 0
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "strict"),
                 "--strict"]) == 3


@pytest.mark.parametrize("family, n", [("path", 0), ("cycle", 2)])
def test_family_below_its_minimum_size_exits_2(tmp_path, capsys, family, n):
    cfg = write_config(tmp_path, f"[topology]\nfamily = {family}\nn = {n}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: topology: {family} needs n >= ")


def test_unexpected_graph_failure_exits_1(tmp_path, capsys):
    (tmp_path / "g.txt").write_text("1 2\n3 4\n")  # disconnected
    cfg = write_config(tmp_path, "[topology]\nedge_file = g.txt\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert "disconnected" in capsys.readouterr().err


@pytest.mark.parametrize("content", [None, "1 2\n# caf\xe9\n".encode("latin-1")],
                         ids=["missing", "not_utf8"])
def test_unreadable_edge_file_exits_2(tmp_path, capsys, content):
    if content is not None:
        (tmp_path / "g.txt").write_bytes(content)
    cfg = write_config(tmp_path, "[topology]\nedge_file = g.txt\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert (f"config error: cannot read edge list {tmp_path / 'g.txt'}: "
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["run", "sweep", "check", "compare-size"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, command):
    cfg = write_config(tmp_path, BASIC + "\n[sweep]\nseeds = 0\n")
    out = tmp_path / "taken"
    out.write_text("")
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: [Errno 17] File exists: '{out}'")


def test_run_that_fails_part_way_keeps_the_rows_so_far(tmp_path):
    cfg = write_config(tmp_path, BASIC + "\n[events]\nschedule =\n    3 leave 9\n")
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[0] == "round,agent,prime,message_decimal,message_bits,table_size,active"
    assert [line.split(",")[:2] for line in lines[1:]] == [
        [str(k), str(agent)] for k in range(3) for agent in range(1, 5)]
    assert not (out / "summary.txt").exists()


@pytest.mark.parametrize("schedule, message", [
    ("3 join 4 1 2", "events: join of present agent 4 at round 3"),
    ("3 join 9 77 2", "events: join of agent 9 at round 3 attaches to absent agent 77"),
    # the path empties leaf by leaf, so no leave but the last disconnects it
    ("0 leave 1\n    1 leave 2\n    2 leave 3\n    3 leave 4",
     "events: leave of the last agent 4 at round 3"),
])
def test_bad_join_exits_2_like_a_bad_leave(tmp_path, capsys, schedule, message):
    cfg = write_config(tmp_path, BASIC + f"\n[events]\nschedule =\n    {schedule}\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_trace_bits_match_recorded_decimal(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    rows = list(csv.DictReader(io.StringIO((out / "trace.csv").read_text())))
    for row in rows:
        if row["active"] == "1":
            assert int(row["message_bits"]) == int(row["message_decimal"]).bit_length()


def test_demo_output_structure():
    buffer = io.StringIO()
    demo(buffer)
    text = buffer.getvalue()
    assert "diameter 3" in text
    primes = first_primes(7)
    own = primes[6] ** DEMO_VALUES[6]
    # round 0: the focus agent sends its own pair
    round0 = [line for line in text.splitlines() if line.startswith("round 0 ")]
    assert all(f"sent {own}" in line for line in round0)
    # full variant settles on the all-network product from round d = 3 onward
    product = encode(zip(primes, DEMO_VALUES), max_exponent=DEMO_MAX_VALUE + 1)
    full_section = text.split("=== incremental")[0]
    for k in (3, 4, 5):
        line = next(l for l in full_section.splitlines() if l.startswith(f"round {k} "))
        assert f"sent {product}" in line
    # incremental variant sends 1 from round d + 1 onward
    inc_section = text.split("=== incremental")[1]
    for k in (4, 5):
        line = next(l for l in inc_section.splitlines() if l.startswith(f"round {k} "))
        assert "sent 1 |" in line


def test_demo_command_exit_code(capsys):
    assert main(["demo"]) == 0
    assert "demo graph" in capsys.readouterr().out


def test_cli_annotations_resolve():
    functions = [f for f in vars(cli).values()
                 if inspect.isfunction(f) and f.__module__ == cli.__name__]
    assert cli._finish in functions
    for function in functions:
        typing.get_type_hints(function)
