#!/usr/bin/env python3
"""Check sigcomp_prof's reader and its `summarize --json` output.

Usage: prof_json_check.py <sigcomp_prof> <trace.json>

Summarises the trace, parses the output, and checks that every span
and thread name of the input comes back unchanged (names may hold
quotes, backslashes and \\u escapes, which the reader must decode and
the summary must escape). Then pins `validate`: it accepts the trace
and the perfbench-shaped prof_perfbench.json beside it, and refuses
each malformed trace below with exit 1 (not a crash).
"""

import json
import os
import subprocess
import sys
import tempfile

EVENT = '{"ph": "X", "pid": 1, "tid": 1, "name": "%s", "ts": %d, "dur": %d}'

# Each of these must make `validate` exit 1.
INVALID = {
    "truncated": '{"traceEvents": [' + EVENT % ("a", 0, 10),
    "interleaving spans": '{"traceEvents": [%s, %s]}' % (
        EVENT % ("a", 0, 10), EVENT % ("b", 5, 10)),
    "X event without dur": '{"traceEvents": [{"ph": "X", "pid": 1, '
                           '"tid": 1, "name": "a", "ts": 0}]}',
    "duplicate key": '{"traceEvents": [{"ph": "X", "ph": "X", "pid": 1, '
                     '"tid": 1, "name": "a", "ts": 0, "dur": 1}]}',
    "13-deep nesting": '{"traceEvents": [], "x": %s0%s}' % ("[" * 12,
                                                           "]" * 12),
}


def check_names(prof, trace):
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
        return False
    return True


def validate(prof, path):
    return subprocess.run([prof, "validate", path],
                          capture_output=True, text=True).returncode


def main():
    prof, trace = sys.argv[1], sys.argv[2]
    ok = check_names(prof, trace)
    perfbench = os.path.join(os.path.dirname(trace), "prof_perfbench.json")
    for path in (trace, perfbench):
        rc = validate(prof, path)
        if rc != 0:
            print(f"validate {path}: exit {rc}, want 0")
            ok = False
    with tempfile.TemporaryDirectory() as tmp:
        for what, text in INVALID.items():
            path = os.path.join(tmp, "bad.json")
            with open(path, "w", encoding="ascii") as f:
                f.write(text)
            rc = validate(prof, path)
            if rc != 1:
                print(f"validate on a {what} trace: exit {rc}, want 1")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
