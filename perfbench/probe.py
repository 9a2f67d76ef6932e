"""Set-up probe: what a CLI invocation pays before round 0.

Usage: probe.py CONFIG [sweep]

Imports primetime, loads the workload config (with its [sweep] grid when
`sweep` is given), builds the topology and computes its diameter, then exits.
"""
import sys

from primetime.config import load_config, load_sweep
from primetime.graph import diameter


def main(argv: list[str]) -> int:
    path = argv[0]
    cfg = load_sweep(path)[0] if argv[1:] == ["sweep"] else load_config(path)
    diameter(cfg.topology.build(cfg.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
