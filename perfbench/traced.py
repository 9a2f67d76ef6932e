"""Run one `primetime` CLI command with spans recorded at every layer boundary.

Usage: traced.py SPANS_DIR -- CLI_ARGS...

Each layer's public function is replaced, at the module attribute its caller
looks up, by a wrapper that records a span (name, start, end, parent).  The
package itself is not modified.  Spans stay in memory in flat arrays and are
written to SPANS_DIR when the command ends, together with the layer counters
and every distinct message the codec decoded (for the cold-codec pass).
The exit code is the CLI's.
"""
from __future__ import annotations

import json
import os
import sys
from array import array
from time import perf_counter

import primetime.analysis
import primetime.cli
import primetime.graph
import primetime.protocol
import primetime.sim


class Tracer:
    """Spans in flat arrays: span i has name id name[i], parent span id
    parent[i] (-1 at the top) and perf_counter times start[i], end[i]."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        name_arr, parent, start, end, stack = (self.name, self.parent, self.start,
                                               self.end, self.stack)

        def wrapper(*args, **kwargs):
            sid = len(start)
            name_arr.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()

        return wrapper

    def dump(self, directory: str) -> None:
        with open(os.path.join(directory, "spans.bin"), "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


def install(tracer: Tracer, counters: dict, messages: set) -> None:
    """Wrap every layer boundary the CLI crosses."""
    cli, sim, protocol, analysis, graph = (primetime.cli, primetime.sim, primetime.protocol,
                                           primetime.analysis, primetime.graph)
    last_pairs = [{}]

    decode_span = tracer.wrap("primes.decode", protocol.decode)

    def decode(message, max_exponent, *args, **kwargs):
        pairs = decode_span(message, max_exponent, *args, **kwargs)
        counters["decode_bits"] += message.bit_length()
        messages.add((message, max_exponent))
        last_pairs[0] = pairs
        return pairs

    receive_span = tracer.wrap("protocol.receive_message", sim.receive_message)

    def receive_message(state, message):
        table_before, departed_before = len(state.table), len(state.departed)
        last_pairs[0] = {}  # stays empty if the receiver is inactive and decodes nothing
        notes = receive_span(state, message)
        pairs = last_pairs[0]
        # A goodbye either deletes a stored pair or, for a prime never stored,
        # is logged as an anomaly note; both add the prime to `departed`.
        unknown = sum(1 for note in notes if note.startswith("goodbye for unknown prime"))
        deleted = len(state.departed) - departed_before - unknown
        counters["pairs_decoded"] += len(pairs)
        counters["pairs_learned"] += len(state.table) - table_before + deleted
        counters["goodbyes_seen"] += sum(1 for e in pairs.values() if e > state.max_value)
        return notes

    run_span = tracer.wrap("sim.run", cli.run)

    def run(cfg):
        result = run_span(cfg)
        counters["rounds"] += len(result.traces)
        counters["deliveries"] += sum(len(t.delivered) for t in result.traces)
        counters["drops"] += sum(len(t.dropped) for t in result.traces)
        return result

    encode = tracer.wrap("primes.encode", protocol.encode)
    form_message = tracer.wrap("protocol.form_message", protocol.form_message)
    protocol.encode = analysis.encode = encode
    protocol.decode = analysis.decode = decode
    protocol.form_message = sim.form_message = form_message
    sim.receive_message = receive_message
    sim.join = tracer.wrap("protocol.churn", sim.join)
    sim.leave = tracer.wrap("protocol.churn", sim.leave)
    sim.apply_loss = tracer.wrap("sim.apply_loss", sim.apply_loss)
    graph.bfs_distances = tracer.wrap("graph.bfs_distances", graph.bfs_distances)
    graph.hop_sets = tracer.wrap("graph.hop_sets", graph.hop_sets)
    graph.diameter = tracer.wrap("graph.diameter", graph.diameter)
    graph.generate = tracer.wrap("graph.generate", graph.generate)
    cli.run = run
    cli.load_config = tracer.wrap("config.load", cli.load_config)
    cli.load_sweep = tracer.wrap("config.load", cli.load_sweep)
    cli.write_trace_csv = tracer.wrap("sim.write_trace_csv", cli.write_trace_csv)
    cli.write_summary = tracer.wrap("sim.write_summary", cli.write_summary)
    cli.check_hop_equations = tracer.wrap("analysis.check_hop_equations",
                                          cli.check_hop_equations)
    cli.check_diameter_completion = tracer.wrap("analysis.check_diameter_completion",
                                                cli.check_diameter_completion)
    cli.write_verdicts_json = tracer.wrap("analysis.write_verdicts_json",
                                          cli.write_verdicts_json)


def main(argv: list[str]) -> int:
    spans_dir, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_DIR -- CLI_ARGS...")
    tracer = Tracer()
    counters = dict.fromkeys(("decode_bits", "pairs_decoded", "pairs_learned",
                              "goodbyes_seen", "rounds", "deliveries", "drops"), 0)
    messages: set[tuple[int, int]] = set()
    install(tracer, counters, messages)
    code = tracer.wrap("cli.main", primetime.cli.main)(cli_args)
    tracer.dump(spans_dir)
    with open(os.path.join(spans_dir, "messages.txt"), "w", encoding="ascii") as fh:
        fh.writelines(f"{e} {m:x}\n" for m, e in sorted(messages))
    with open(os.path.join(spans_dir, "spans.json"), "w", encoding="utf-8") as fh:
        json.dump({"names": tracer.names, "count": len(tracer.start),
                   "counters": counters, "distinct_messages": len(messages)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
