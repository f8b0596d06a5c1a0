#!/usr/bin/env python3
"""Validate an exported Chrome trace_event JSON file (ChromeTraceComposer).

Usage: scripts/check_chrome_trace.py TRACE.json [--lane LANE]...
                                     [--span-prefix PREFIX]...

Loads the file with json.load and fails (exit 1) unless it is a non-empty
array in which every event's "ph" is one of M, X, C, s, f and every "X"
event has a numeric dur >= 0. Each --lane must name a thread of the trace
(a thread_name metadata event); each --span-prefix must start the name of
at least one "X" event.
"""

import argparse
import json
import sys

PHASES = {"M", "X", "C", "s", "f"}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--lane", action="append", default=[])
    ap.add_argument("--span-prefix", action="append", default=[])
    args = ap.parse_args()

    with open(args.trace) as f:
        events = json.load(f)
    errors = []
    if not isinstance(events, list) or not events:
        errors.append("not a non-empty JSON array")
        events = []
    lanes = set()
    spans = []
    for i, e in enumerate(events):
        ph = e.get("ph")
        if ph not in PHASES:
            errors.append(f"event {i}: ph {ph!r} not in {sorted(PHASES)}")
        elif ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                errors.append(f"event {i}: X event with dur {dur!r}")
            spans.append(e.get("name", ""))
        elif ph == "M" and e.get("name") == "thread_name":
            lanes.add(e.get("args", {}).get("name"))
    for lane in args.lane:
        if lane not in lanes:
            errors.append(f"no {lane!r} lane")
    for prefix in args.span_prefix:
        if not any(n.startswith(prefix) for n in spans):
            errors.append(f"no span named {prefix!r}...")

    for err in errors[:20]:
        print(f"{args.trace}: {err}", file=sys.stderr)
    if errors:
        sys.exit(1)
    print(f"{args.trace}: ok ({len(events)} events, {len(lanes)} lanes)")


if __name__ == "__main__":
    main()
