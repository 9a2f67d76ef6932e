import pytest

from primetime.config import load_config, load_sweep
from primetime.errors import ConfigError
from primetime.protocol import Variant
from primetime.sim import JoinEvent, LeaveEvent


def write(tmp_path, text, name="cfg.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


MINIMAL = """
[topology]
family = path
n = 4
"""


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL))
    assert cfg.topology.family == "path"
    assert cfg.topology.n == 4
    assert cfg.variant is Variant.PRIMETIME
    assert cfg.max_value == 4
    assert cfg.loss_q == 0.0
    assert cfg.seed == 0
    assert cfg.events == ()


def test_full_config(tmp_path):
    cfg = load_config(write(tmp_path, """
[topology]
family = random_connected
n = 12
p = 0.3

[protocol]
variant = incremental
max_value = 7

[data]
mode = explicit
values = 1 2 3 4 5 6 7 1 2 3 4 5

[loss]
mode = bernoulli
q = 0.25
drops = 1:2>3 4:1>2

[events]
schedule =
    8 join 13 3,4 2
    16 leave 5

[sim]
seed = 42
max_rounds = 60
extra_rounds = 5

[analysis]
n_max = 16
"""))
    assert cfg.variant is Variant.INCREMENTAL
    assert cfg.max_value == 7
    assert cfg.data_values == (1, 2, 3, 4, 5, 6, 7, 1, 2, 3, 4, 5)
    assert cfg.loss_q == 0.25
    assert cfg.drop_schedule == ((1, 2, 3), (4, 1, 2))
    assert cfg.events == (JoinEvent(8, 13, (3, 4), 2), LeaveEvent(16, 5))
    assert cfg.seed == 42
    assert cfg.max_rounds == 60
    assert cfg.extra_rounds == 5
    assert cfg.n_max == 16


def test_edge_file_topology(tmp_path):
    (tmp_path / "g.txt").write_text("1 2\n2 3\n")
    cfg = load_config(write(tmp_path, """
[topology]
edge_file = g.txt
"""))
    topology = cfg.topology.build(seed=0)
    assert topology.nodes == (1, 2, 3)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown section"):
        load_config(write(tmp_path, MINIMAL + "\n[extras]\nfoo = 1\n"))


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="topology.speed: unknown key"):
        load_config(write(tmp_path, "[topology]\nfamily = path\nn = 4\nspeed = 9\n"))


def test_invalid_q_names_field(tmp_path):
    with pytest.raises(ConfigError, match="loss.q"):
        load_config(write(tmp_path, MINIMAL + "\n[loss]\nmode = bernoulli\nq = 1\n"))


@pytest.mark.parametrize("section, key", [
    ("[loss]\nq = 0.5\n", "loss.q"),
    ("[loss]\nmode = none\nq = 0.5\n", "loss.q"),
    ("[data]\nvalues = 1 2 3 4\n", "data.values"),
    ("[data]\nmode = random\nvalues = 1 2 3 4\n", "data.values"),
])
def test_key_its_mode_ignores_is_rejected(tmp_path, section, key):
    # both used to load as if absent: loss_q = 0.0, data_values = None
    with pytest.raises(ConfigError, match=f"{key}: only read with mode = "):
        load_config(write(tmp_path, MINIMAL + "\n" + section))


@pytest.mark.parametrize("topology, key, message", [
    ("edge_file = g.txt\nn = 99\n", "topology.n", "only read with family, not edge_file"),
    ("edge_file = g.txt\np = 0.5\n", "topology.p", "only read with family, not edge_file"),
    ("family = cycle\nn = 5\np = 0.5\n", "topology.p",
     "only read with family = random_connected"),
], ids=["edge_file-n", "edge_file-p", "cycle-p"])
def test_topology_key_its_form_ignores_is_rejected(tmp_path, topology, key, message):
    # each used to load as if absent: the edge file's node count, no p
    (tmp_path / "g.txt").write_text("1 2\n2 3\n")
    with pytest.raises(ConfigError, match=f"{key}: {message}"):
        load_config(write(tmp_path, "[topology]\n" + topology))


def test_bad_family_names_field(tmp_path):
    with pytest.raises(ConfigError, match="topology.family"):
        load_config(write(tmp_path, "[topology]\nfamily = moebius\nn = 4\n"))


def test_bad_event_line_names_field(tmp_path):
    with pytest.raises(ConfigError, match="events.schedule"):
        load_config(write(tmp_path, MINIMAL + "\n[events]\nschedule =\n    5 hop 3\n"))


def test_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "absent.ini")


def test_non_utf8_file_is_config_error(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(MINIMAL.encode() + "# caf\xe9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="cannot read config .*utf-8"):
        load_config(path)


def test_two_events_same_round_rejected(tmp_path):
    with pytest.raises(ConfigError, match="one join or leave per round"):
        load_config(write(tmp_path, MINIMAL + """
[events]
schedule =
    5 leave 2
    5 leave 3
"""))


def test_sweep_grid(tmp_path):
    _, grid = load_sweep(write(tmp_path, MINIMAL + """
[sweep]
n = 6 4
max_value = 2
variant = primetime incremental
seeds = 0..2
"""))
    points = list(grid.points())
    assert len(points) == 2 * 1 * 1 * 2 * 3
    assert points[0] == (4, 2, 0.0, Variant.INCREMENTAL, 0)
    assert points == sorted(points, key=lambda p: (p[0], p[1], p[2], p[3].value, p[4]))


def test_sweep_backwards_range_names_field(tmp_path):
    with pytest.raises(ConfigError, match=r"sweep.seeds: range '5\.\.3' ends below its start"):
        load_sweep(write(tmp_path, MINIMAL + "[sweep]\nseeds = 1 5..3\n"))


def test_sweep_requires_section(tmp_path):
    with pytest.raises(ConfigError, match="sweep"):
        load_sweep(write(tmp_path, MINIMAL))
