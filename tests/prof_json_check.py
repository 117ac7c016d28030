#!/usr/bin/env python3
"""Check that `sigcomp_prof summarize --json` emits valid JSON.

Usage: prof_json_check.py <sigcomp_prof> <trace.json>

Summarises the trace, parses the output, and checks that every span
and thread name of the input comes back unchanged (names may hold
quotes and backslashes, which the summary must escape).
"""

import json
import subprocess
import sys


def main():
    prof, trace = sys.argv[1], sys.argv[2]
    out = subprocess.run([prof, "summarize", trace, "--json"],
                         check=True, capture_output=True, text=True).stdout
    summary = json.loads(out)

    with open(trace, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans = {e["name"] for e in events if e["ph"] == "X"}
    threads = {e["args"]["name"] for e in events
               if e["ph"] == "M" and e["name"] == "thread_name"}

    got_spans = {label["name"] for label in summary["labels"]}
    got_threads = {track["name"] for track in summary["tracks_detail"]}
    if got_spans != spans or got_threads != threads:
        print(f"names changed: spans {got_spans} != {spans} "
              f"or threads {got_threads} != {threads}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
