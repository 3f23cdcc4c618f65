#!/usr/bin/env python3
"""Per-layer self time of a muvebench trace (Chrome trace-event JSON).

    python3 muvebench/summarize.py TRACE.json

A span's self time is its duration minus the part of its interval that
its child spans cover (overlapping children count once). Spans the
benchmark could not tie to a request (request -1: gathers and shard
scans recorded on program threads) are summed per workload; one without
a parent names in `within` the request-level span type whose self time
it is taken out of. Every share is a layer's self time over the total
answer time (the summed durations of the `request` root spans); the root
spans' own self time is the time no layer accounts for,
trace.unattributed_share.
"""

import json
import sys
from collections import defaultdict

LAYERS = ["workload", "net", "serve", "speech", "nlq", "core", "exec", "db",
          "dist", "shard"]
GROUPS = {
    "trace.front_share": ["speech", "nlq", "core"],
    "trace.storage_share": ["db"],
    "trace.remote_share": ["net", "dist", "shard"],
}


def layer_of(name):
    return "unattributed" if name == "request" else name.split(".", 1)[0]


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(events):
    """Returns ({layer: self time}, total answer time), in trace units."""
    children = defaultdict(list)
    for event in events:
        parent = event["args"].get("parent", 0)
        if parent:
            children[parent].append((event["ts"], event["ts"] + event["dur"]))
    totals = defaultdict(float)
    answer_time = 0.0
    for event in events:
        args = event["args"]
        start, end = event["ts"], event["ts"] + event["dur"]
        own = event["dur"] - covered(start, end, children.get(args["id"], []))
        totals[layer_of(event["name"])] += own
        if event["name"] == "request":
            answer_time += event["dur"]
        if args.get("request", -1) < 0 and not args.get("parent") \
                and args.get("within"):
            totals[layer_of(args["within"])] -= event["dur"]
    return totals, answer_time


def shares(events):
    """Per-layer self-time shares of answer time, as benchmark metrics."""
    totals, answer_time = self_times(events)
    scale = 1.0 / answer_time if answer_time > 0 else 0.0
    out = {"trace.unattributed_share": totals["unattributed"] * scale}
    for layer in LAYERS:
        out["self.%s_share" % layer] = totals[layer] * scale
    for name, layers in GROUPS.items():
        out[name] = sum(totals[layer] for layer in layers) * scale
    return out


def load(path):
    with open(path) as f:
        return json.load(f)["traceEvents"]


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    events = load(argv[1])
    totals, answer_time = self_times(events)
    requests = sum(1 for e in events if e["name"] == "request")
    print("%d requests, %.3f ms mean answer time" %
          (requests, answer_time / 1e3 / max(1, requests)))
    print("%-14s %12s %8s" % ("layer", "self ms/req", "share"))
    for layer in ["unattributed"] + LAYERS:
        print("%-14s %12.4f %8.3f" % (
            layer, totals[layer] / 1e3 / max(1, requests),
            totals[layer] / answer_time if answer_time else 0.0))
    for name, value in shares(events).items():
        if name in GROUPS:
            print("%-22s %.3f" % (name, value))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
