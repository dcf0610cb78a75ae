#!/usr/bin/env python3
"""Pretty-print, diff, and validate Cluster::DumpStatsJson() snapshots.

metrics_test writes STATS_metrics_test.json (a durable cluster's dump), and
the statsdump_check ctest runs --check on it. This tool is the consumer side:

  tools/statsdump.py SNAPSHOT.json            pretty-print one snapshot
  tools/statsdump.py --diff OLD.json NEW.json per-metric delta (new - old)
  tools/statsdump.py --check SNAPSHOT.json    validate shape + round-trip

A snapshot is {"cluster": {LABEL: "string", ...}, "metrics": REGISTRY}.
The cluster section holds only string labels (configuration identity such
as cluster.durability, diffed as a transition, never subtracted). Every
number, membership and liveness included, is a registry metric under
"metrics": {subsystem: {name: number | histogram summary}}. --diff keys are
the stable dotted names (metrics.memnode0.wal.appends, ...).

--check is the tier-1 gate: it asserts the two top-level keys, that cluster
holds only labels, that metrics is strictly numeric (or histogram
summaries), that registry subsystems and metric names are emitted in sorted
order (the "stable JSON" contract tests and dashboards rely on), and that
the document survives a parse -> serialize -> parse round-trip unchanged.

Stdlib only; exits non-zero on any validation or diff-parse failure.
"""

import argparse
import json
import sys

TOP_KEYS = ["cluster", "metrics"]
HIST_KEYS = {"count", "mean", "p50", "p99", "max"}


def fail(msg):
    print("statsdump: %s" % msg, file=sys.stderr)
    return 1


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def is_hist(v):
    return isinstance(v, dict) and set(v) == HIST_KEYS


def flatten(node, prefix, out):
    """Flatten to {dotted.path: number}; histograms expand per-field."""
    if isinstance(node, dict):
        for k, v in node.items():
            flatten(v, "%s.%s" % (prefix, k) if prefix else k, out)
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        out[prefix] = node
    elif isinstance(node, str):
        out[prefix] = node  # label leaf: diffed as a transition
    else:
        raise ValueError("non-numeric leaf at %s: %r" % (prefix, node))


def cmd_print(path):
    doc = load(path)
    print(json.dumps(doc, indent=2, sort_keys=False))
    return 0


def cmd_diff(old_path, new_path):
    old, new = {}, {}
    flatten(load(old_path), "", old)
    flatten(load(new_path), "", new)
    keys = sorted(set(old) | set(new))
    width = max((len(k) for k in keys), default=0)
    changed = 0
    for k in keys:
        if k not in old:
            print("%-*s  (new) %s" % (width, k, new[k]))
            changed += 1
        elif k not in new:
            print("%-*s  (gone, was %s)" % (width, k, old[k]))
            changed += 1
        elif old[k] != new[k]:
            if isinstance(old[k], str) or isinstance(new[k], str):
                print("%-*s  %s -> %s" % (width, k, old[k], new[k]))
            else:
                print("%-*s  %g -> %g  (%+g)" % (width, k, old[k], new[k],
                                                 new[k] - old[k]))
            changed += 1
    print("# %d of %d metrics changed" % (changed, len(keys)))
    return 0


def check_metrics(metrics):
    """The registry section: {subsystem: {name: number | histogram}}, both
    levels in sorted order (Snapshot sorts by (subsystem, name))."""
    if not isinstance(metrics, dict):
        return "metrics is not an object"
    subsystems = list(metrics)
    if subsystems != sorted(subsystems):
        return "metrics subsystems not sorted: %s" % subsystems
    for sub, entries in metrics.items():
        if not isinstance(entries, dict):
            return "metrics[%s] is not an object" % sub
        names = list(entries)
        if names != sorted(names):
            return "metrics[%s] names not sorted: %s" % (sub, names)
        for name, v in entries.items():
            if is_hist(v):
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return "metrics[%s][%s] is neither a number nor a " \
                       "histogram summary: %r" % (sub, name, v)
    return None


def cmd_check(path):
    try:
        doc = load(path)
    except (OSError, ValueError) as e:
        return fail("cannot parse %s: %s" % (path, e))
    if not isinstance(doc, dict) or list(doc) != TOP_KEYS:
        return fail("top-level keys are %s, want exactly %s"
                    % (list(doc) if isinstance(doc, dict) else type(doc),
                       TOP_KEYS))
    cluster = doc["cluster"]
    if not isinstance(cluster, dict):
        return fail("cluster is not an object")
    for key, v in cluster.items():
        if not isinstance(v, str):
            return fail("cluster[%s] is not a string label: %r" % (key, v))
    err = check_metrics(doc["metrics"])
    if err:
        return fail(err)
    try:
        flat = {}
        flatten(doc, "", flat)
    except ValueError as e:
        return fail(str(e))
    if json.loads(json.dumps(doc)) != doc:
        return fail("round-trip changed the document")
    print("statsdump: %s ok (%d labels, %d metric leaves)"
          % (path, len(cluster), len(flat) - len(cluster)))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--diff", action="store_true",
                      help="diff two snapshots (old new)")
    mode.add_argument("--check", action="store_true",
                      help="validate shape, ordering, and round-trip")
    parser.add_argument("paths", nargs="+", help="snapshot file(s)")
    args = parser.parse_args()

    if args.diff:
        if len(args.paths) != 2:
            return fail("--diff takes exactly two snapshots")
        return cmd_diff(args.paths[0], args.paths[1])
    if args.check:
        rc = 0
        for p in args.paths:
            rc = cmd_check(p) or rc
        return rc
    if len(args.paths) != 1:
        return fail("pretty-print takes exactly one snapshot")
    return cmd_print(args.paths[0])


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into head
        sys.exit(0)
