"""INI config parsing: one file maps one-to-one onto SimConfig.

See CONFIG.md at the repository root for the schema.  Unknown sections and
keys are rejected rather than ignored, and every error names the offending
field.
"""
from __future__ import annotations

import configparser
import os
from dataclasses import dataclass

from .errors import ConfigError
from .graph import FAMILIES
from .protocol import Variant
from .sim import Event, JoinEvent, LeaveEvent, SimConfig, TopologySpec

_SECTION_KEYS = {
    "topology": {"family", "n", "p", "edge_file"},
    "protocol": {"variant", "max_value"},
    "data": {"mode", "values"},
    "loss": {"mode", "q", "drops"},
    "events": {"schedule"},
    "sim": {"seed", "max_rounds", "extra_rounds"},
    "analysis": {"n_max"},
    "sweep": {"n", "max_value", "q", "variant", "seeds"},
}


def _fail(field: str, message: str):
    raise ConfigError(f"{field}: {message}")


def _read(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.optionxform = str  # keep key case as written
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config {path}: {exc}") from exc
    for section in parser.sections():
        if section not in _SECTION_KEYS:
            _fail(section, "unknown section")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                _fail(f"{section}.{key}", "unknown key")
    return parser


def _get_int(parser, section, key, default=None):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        _fail(f"{section}.{key}", f"expected an integer, got {raw!r}")


def _get_float(parser, section, key, default=None):
    raw = parser.get(section, key, fallback=None)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        _fail(f"{section}.{key}", f"expected a number, got {raw!r}")


def _parse_topology(parser, base_dir: str) -> TopologySpec:
    family = parser.get("topology", "family", fallback=None)
    edge_file = parser.get("topology", "edge_file", fallback=None)
    if edge_file is not None:
        if family is not None:
            _fail("topology", "give either family or edge_file, not both")
        for key in ("n", "p"):
            if parser.has_option("topology", key):
                _fail(f"topology.{key}", "only read with family, not edge_file")
        return TopologySpec(edge_file=os.path.join(base_dir, edge_file))
    if family is None:
        _fail("topology.family", "required (or set topology.edge_file)")
    if family not in FAMILIES:
        _fail("topology.family", f"unknown family {family!r}, expected one of {FAMILIES}")
    n = _get_int(parser, "topology", "n")
    if n is None:
        _fail("topology.n", "required for family topologies")
    p = _get_float(parser, "topology", "p")
    if family == "random_connected":
        if p is None or not 0 < p <= 1:
            _fail("topology.p", f"random_connected needs p in (0, 1], got {p}")
    elif p is not None:
        _fail("topology.p", "only read with family = random_connected")
    return TopologySpec(family=family, n=n, p=p)


def _parse_variant(raw: str, field: str) -> Variant:
    try:
        return Variant(raw)
    except ValueError:
        _fail(field, f"expected 'primetime' or 'incremental', got {raw!r}")


def _parse_loss(parser) -> tuple[float, tuple[tuple[int, int, int], ...]]:
    mode = parser.get("loss", "mode", fallback="none")
    q = 0.0
    if mode == "bernoulli":
        q = _get_float(parser, "loss", "q")
        if q is None:
            _fail("loss.q", "required for bernoulli loss")
        if not 0 <= q < 1:
            _fail("loss.q", f"must be in [0, 1), got {q}")
    elif mode != "none":
        _fail("loss.mode", f"expected 'none' or 'bernoulli', got {mode!r}")
    elif parser.has_option("loss", "q"):
        _fail("loss.q", "only read with mode = bernoulli")
    drops = []
    raw = parser.get("loss", "drops", fallback="")
    for token in raw.split():
        try:
            round_part, edge = token.split(":")
            src, dst = edge.split(">")
            drops.append((int(round_part), int(src), int(dst)))
        except ValueError:
            _fail("loss.drops", f"expected round:src>dst tokens, got {token!r}")
    return q, tuple(drops)


def _parse_events(parser) -> tuple[Event, ...]:
    raw = parser.get("events", "schedule", fallback="")
    events: list[Event] = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[1] if len(parts) > 1 else ""
        try:
            if kind == "join" and len(parts) == 5:
                attach = tuple(int(a) for a in parts[3].split(","))
                events.append(JoinEvent(round_index=int(parts[0]), node=int(parts[2]),
                                        attach_to=attach, value=int(parts[4])))
            elif kind == "leave" and len(parts) == 3:
                events.append(LeaveEvent(round_index=int(parts[0]), node=int(parts[2])))
            else:
                raise ValueError
        except ValueError:
            _fail("events.schedule",
                  f"expected '<round> join <node> <attach,...> <value>' or "
                  f"'<round> leave <node>', got {line!r}")
    return tuple(events)


def load_config(path) -> SimConfig:
    """Parse an INI config file into a validated SimConfig."""
    return _parse(_read(path), path)


def _parse(parser, path) -> SimConfig:
    """Build a validated SimConfig from a read config; `path` anchors a
    relative topology.edge_file."""
    base_dir = os.path.dirname(os.path.abspath(path))
    topology = _parse_topology(parser, base_dir)
    variant = _parse_variant(parser.get("protocol", "variant", fallback="primetime"),
                             "protocol.variant")
    max_value = _get_int(parser, "protocol", "max_value", default=4)

    data_values = None
    mode = parser.get("data", "mode", fallback="random")
    if mode == "explicit":
        raw = parser.get("data", "values", fallback=None)
        if raw is None:
            _fail("data.values", "required for explicit data")
        try:
            data_values = tuple(int(v) for v in raw.split())
        except ValueError:
            _fail("data.values", f"expected integers, got {raw!r}")
    elif mode != "random":
        _fail("data.mode", f"expected 'random' or 'explicit', got {mode!r}")
    elif parser.has_option("data", "values"):
        _fail("data.values", "only read with mode = explicit")

    q, drops = _parse_loss(parser)
    cfg = SimConfig(
        topology=topology,
        variant=variant,
        max_value=max_value,
        data_values=data_values,
        loss_q=q,
        drop_schedule=drops,
        events=_parse_events(parser),
        max_rounds=_get_int(parser, "sim", "max_rounds"),
        extra_rounds=_get_int(parser, "sim", "extra_rounds", default=3),
        seed=_get_int(parser, "sim", "seed", default=0),
        n_max=_get_int(parser, "analysis", "n_max"),
    )
    cfg.validate()
    return cfg


@dataclass(frozen=True)
class SweepGrid:
    n: tuple[int, ...]
    max_value: tuple[int, ...]
    q: tuple[float, ...]
    variant: tuple[Variant, ...]
    seeds: tuple[int, ...]

    def points(self):
        """Grid points in deterministic sorted order."""
        for n in sorted(self.n):
            for m in sorted(self.max_value):
                for q in sorted(self.q):
                    for variant in sorted(self.variant, key=lambda v: v.value):
                        for seed in sorted(self.seeds):
                            yield n, m, q, variant, seed


def _int_list(raw: str, field: str) -> tuple[int, ...]:
    out = []
    for token in raw.split():
        if ".." in token:
            try:
                lo, hi = map(int, token.split(".."))
            except ValueError:
                _fail(field, f"bad range {token!r}")
            if hi < lo:
                _fail(field, f"range {token!r} ends below its start")
            out.extend(range(lo, hi + 1))
            continue
        try:
            out.append(int(token))
        except ValueError:
            _fail(field, f"expected integers, got {token!r}")
    if not out:
        _fail(field, "needs at least one value")
    return tuple(out)


def load_sweep(path) -> tuple[SimConfig, SweepGrid]:
    """Parse a config carrying a [sweep] section; the rest of the file is
    the base config each grid point overrides."""
    parser = _read(path)
    base = _parse(parser, path)
    if not parser.has_section("sweep"):
        _fail("sweep", "section required for the sweep command")
    if base.topology.family is None:
        _fail("sweep", "sweeping requires a family topology, not edge_file")

    def fallback_int(key: str, value: int) -> tuple[int, ...]:
        raw = parser.get("sweep", key, fallback=None)
        return _int_list(raw, f"sweep.{key}") if raw is not None else (value,)

    raw_q = parser.get("sweep", "q", fallback=None)
    if raw_q is not None:
        try:
            qs = tuple(float(tok) for tok in raw_q.split())
        except ValueError:
            _fail("sweep.q", f"expected numbers, got {raw_q!r}")
        for q in qs:
            if not 0 <= q < 1:
                _fail("sweep.q", f"must be in [0, 1), got {q}")
    else:
        qs = (base.loss_q,)
    raw_variant = parser.get("sweep", "variant", fallback=None)
    variants = (tuple(_parse_variant(tok, "sweep.variant") for tok in raw_variant.split())
                if raw_variant is not None else (base.variant,))
    grid = SweepGrid(
        n=fallback_int("n", base.topology.n),
        max_value=fallback_int("max_value", base.max_value),
        q=qs,
        variant=variants,
        seeds=fallback_int("seeds", base.seed),
    )
    return base, grid
