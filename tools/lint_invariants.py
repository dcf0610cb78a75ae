#!/usr/bin/env python3
"""Project-invariant linter for the Minuet tree.

Enforces repo-specific concurrency and error-handling invariants that
neither the compiler nor clang-tidy knows about (documented in
docs/ARCHITECTURE.md, "Concurrency invariants & tooling"):

  ignored-status      (void)-casting a call away is banned everywhere —
                      Status/Result<T> are [[nodiscard]], and deliberate
                      discards must go through IgnoreStatus(...) so the
                      intent is searchable and reviewable.
  sleep-in-src        src/ must not sleep. Daemons wait on a condition
                      variable they can be woken from (a sleeping daemon
                      stretches shutdown and hides lost-wakeup bugs);
                      bounded contention backoff is the one legitimate
                      exception and must be annotated.
  bare-thread         every std::thread constructed in src/ needs a joining
                      owner in the same file; detached threads are banned
                      outright (nothing may outlive the cluster that spawned
                      it).
  lock-across-fabric  no EXCLUSIVE mutex guard (lock_guard / scoped_lock /
                      unique_lock) may be held across a fabric send or a
                      coordinator execute — one stalled memnode would
                      serialize every thread behind the lock. shared_lock on
                      the coordinator's membership mutex is the documented
                      exception and is not matched.
  io-under-guard      no raw file I/O (fsync/fdatasync/pread/pwrite/open/
                      fopen/ftruncate) while an exclusive mutex guard is
                      held, outside src/wal/ and src/store/ — an fsync
                      under a hot lock turns a microsecond critical
                      section into a millisecond one for every waiter.
                      The WAL and the checkpointed store are exempt: disk
                      latency under their own locks is their contract
                      (group commit exists to amortize it), and all other
                      code must reach disk THROUGH them.
  retry-loop          txn::RunTransaction is the one optimistic retry loop:
                      a DynamicTxn constructed inside a for/while/do body
                      in src/ outside src/txn/ is a second loop (its own
                      attempt budget, backoff and abort accounting).
                      Retry through RunTransaction instead.
  one-settle          BTree::SettleNodeForSid is the one copy of the
                      §4.2/§5.2 node checks (version lineage, applicable
                      real or discretionary copy): a loop over a node's
                      descendant_count() in src/btree/ outside it is a
                      second copy, free to drift from the first (abort
                      tags, hop read discipline). Settle through it
                      instead.
  one-fetch           DynamicTxn::ReadInto is the one read skeleton: in
                      src/txn/txn.cc only it and Commit may build a
                      MiniTxn. A MiniTxn declared in any other function
                      there is a second fetch body, free to drift from the
                      first (read-set joins, cache fills, piggy-backed
                      validation, abort tags). Read through
                      DynamicTxn::Read with a ReadMode instead.
  one-commit          Coordinator::RunCommit is the one commit pipeline:
                      in src/ only it may call a memnode's Prepare, Commit
                      or Abort (a call with arguments; DynamicTxn::Commit()
                      takes none). A second caller is a second copy of the
                      protocol's tail, free to drift from the first (the
                      log-before-apply order, the message and round
                      charges). Commit through Coordinator::Execute
                      instead.
  one-redo            Coordinator::LogDurable is the one redo writer: in
                      src/ only it may call a WAL's Append (through wal()
                      or wal_). A record carries only the bytes its commit
                      changes, taken against the pre-image the participant
                      holds locked; a second appender is free to log
                      outside that lock window or against another image,
                      and recovery would rebuild the omitted bytes wrong.
                      Log through Coordinator::Execute instead.
  one-range           BTree::WalkRange is the one range walk: in src/,
                      outside node_view.{h,cc}, only it may read a node's
                      high_fence(). Stepping from a leaf to the next one
                      through its high fence is a second scan loop, one
                      leaf per round and free to drift from the first (the
                      fence-chain check, the batch budget, the resume
                      point). Scan through WalkRange instead.
  metrics             stat counters in src/ (outside src/obs/) must be
                      obs::Counter, not raw std::atomic integers — raw
                      atomics are invisible to the MetricsRegistry and
                      false-share under contention. Counters that genuinely
                      cannot use obs (and are linked into the registry some
                      other way) must be annotated.

A violating line can be suppressed with an annotation on the same line or
the line above:

    // lint:allow(<rule>): <reason>

The reason is mandatory: the annotation is the reviewable record of WHY the
invariant does not apply.

Usage: tools/lint_invariants.py [--root DIR] [paths...]
Exits non-zero if any violation is found (CI gate).
"""

import argparse
import os
import re
import sys

SRC_EXTENSIONS = (".cc", ".h")

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)\s*:\s*\S")

# Rule: ignored-status. A (void) cast of a CALL (not of an unused variable
# or parameter, which stays legal).
VOID_CALL_RE = re.compile(r"\(void\)\s*[A-Za-z_][\w.:>\[\]()-]*\(")

# Rule: sleep-in-src.
SLEEP_RE = re.compile(r"\bsleep_for\s*\(|\busleep\s*\(|\bsleep\s*\(")

# Rule: bare-thread. A LAUNCH site (constructor with arguments, assignment
# from a temporary, or emplace into a thread container) — a plain member or
# local declaration `std::thread t_;` is not a launch and carries no join
# obligation of its own (the .cc that starts it does).
THREAD_LAUNCH_RE = re.compile(
    r"\bstd::thread\s*(?:\w+\s*)?\([^)]|=\s*std::thread\b|"
    r"\bthreads?\w*\.(?:emplace_back|push_back)\s*\(")
DETACH_RE = re.compile(r"\.detach\s*\(\s*\)")
JOIN_RE = re.compile(r"\.join\s*\(\s*\)|\bjoinable\s*\(")

# Rule: lock-across-fabric. Exclusive guards only — std::shared_lock (the
# coordinator's membership read lock) is deliberately absent.
GUARD_RE = re.compile(r"\bstd::(?:lock_guard|scoped_lock|unique_lock)\s*<")
FABRIC_SEND_RE = re.compile(
    r"\bChargeMessage(?:Async)?\s*\(|(?:->|\.)Execute(?:AndCommit)?\s*\(")

# Rule: io-under-guard. Raw file-I/O calls (C library / syscalls only:
# going through wal::Wal or store::* wrappers is the sanctioned path and
# does not match). `::open`/`fopen` are matched exactly so method names
# like Open()/ReopenSegment() stay clean.
RAW_IO_RE = re.compile(
    r"\b(?:fsync|fdatasync|pread|pwrite|ftruncate|fopen)\s*\(|::open\s*\(")

# Rule: retry-loop. A DynamicTxn object declaration with constructor
# arguments (references and pointers do not match), and the loop keywords
# whose bodies it must not appear in.
TXN_CONSTRUCT_RE = re.compile(r"\bDynamicTxn\s+\w+\s*[({]")
LOOP_KEYWORD_RE = re.compile(r"\b(for|while|do)\b")

# Rule: one-settle. A loop over a NodeView's descendant set, and a
# namespace-scope function definition (unindented, name before the first
# '(') — the enclosing function such a loop belongs to.
DESCENDANT_LOOP_RE = re.compile(
    r"\b(?:for|while)\s*\(.*\bdescendant_count\s*\(")
FUNCTION_DEF_RE = re.compile(r"^[A-Za-z_][\w:<>,*&\s]*?\b(\w+)\s*\(")
SETTLE_FUNCTION = "SettleNodeForSid"

# Rule: one-fetch. A MiniTxn object declaration (references and pointers
# do not match), the file it is policed in, and the functions that may
# hold one.
MINITXN_DECL_RE = re.compile(r"\bMiniTxn\s+\w+\s*[;({=]")
ONE_FETCH_FILE = "src/txn/txn.cc"
FETCH_FUNCTIONS = ("ReadInto", "Commit")

# Rule: one-commit. A call of the memnode commit surface: Prepare, Commit
# or Abort reached through `->` or `.` with at least one argument (the
# TxId), and the one function that may make it.
MEMNODE_COMMIT_CALL_RE = re.compile(
    r"(?:->|\.)\s*(?:Prepare|Commit|Abort)\s*\(\s*[^)\s]")
COMMIT_FUNCTION = "RunCommit"

# Rule: one-redo. A WAL append reached through a store's wal() accessor or
# a wal_ member, and the one function that may make it.
WAL_APPEND_RE = re.compile(r"\bwal(?:_|\(\))\s*(?:->|\.)\s*Append\s*\(")
REDO_FUNCTION = "LogDurable"

# Rule: one-range. A read of a node view's high fence, the files that
# define the accessor, and the one function that may call it.
HIGH_FENCE_RE = re.compile(r"\bhigh_fence\s*\(\s*\)")
NODE_VIEW_FILES = ("src/btree/node_view.h", "src/btree/node_view.cc")
RANGE_FUNCTION = "WalkRange"

# Rule: metrics. A raw std::atomic integer DECLARATION whose identifier
# reads like a stat counter. Matches plain members/globals and array forms
# (e.g. unique_ptr<std::atomic<uint64_t>[]>); loads/stores of such members
# on later lines do not match (no '<' context).
ATOMIC_STAT_RE = re.compile(
    r"std::atomic<\s*u?int(?:8|16|32|64)?(?:_t)?\s*>(?:\[\])?>?\s*"
    r"\w*(?:count|calls|hits|miss|evict|abort|retr|copie|split|migrat|"
    r"freed|msgs|messages|decode)\w*")

STRING_OR_CHAR_RE = re.compile(
    r'"(?:[^"\\]|\\.)*"|' r"'(?:[^'\\]|\\.)'")


def strip_code_line(line):
    """Remove string/char literals and // comments; return (code, comment)."""
    line = STRING_OR_CHAR_RE.sub('""', line)
    idx = line.find("//")
    if idx >= 0:
        return line[:idx], line[idx:]
    return line, ""


class Findings:
    def __init__(self):
        self.items = []

    def add(self, path, lineno, rule, message):
        self.items.append((path, lineno, rule, message))


def allowed(rule, raw_lines, i):
    """True if line i (0-based) or the contiguous comment block directly
    above it carries lint:allow(rule)."""
    m = ALLOW_RE.search(raw_lines[i])
    if m and m.group(1) == rule:
        return True
    j = i - 1
    while j >= 0 and raw_lines[j].lstrip().startswith("//"):
        m = ALLOW_RE.search(raw_lines[j])
        if m and m.group(1) == rule:
            return True
        j -= 1
    return False


def lint_file(path, rel, findings):
    with open(path, encoding="utf-8", errors="replace") as f:
        raw_lines = f.read().splitlines()

    in_src = rel.startswith("src/")
    check_retry_loop = in_src and not rel.startswith("src/txn/")
    check_one_settle = rel.startswith("src/btree/")
    check_one_fetch = rel == ONE_FETCH_FILE
    # Enclosing namespace-scope function (one-settle, one-fetch,
    # one-commit, one-redo, one-range).
    function = None
    in_block_comment = False
    # Active exclusive guards: stack of brace depths at declaration.
    guard_depths = []
    depth = 0
    constructs_thread = False
    has_join = False
    thread_sites = []
    # retry-loop state: brace depths at which loop bodies opened, and the
    # header being scanned ("paren" until its ')' closes, then "body"
    # until the next '{' — or a ';', for a braceless single statement).
    loop_depths = []
    loop_header = None
    header_parens = 0

    for i, raw in enumerate(raw_lines):
        code, _ = strip_code_line(raw)
        # Crude block-comment handling (the tree uses // almost everywhere).
        if in_block_comment:
            end = code.find("*/")
            if end < 0:
                continue
            code = code[end + 2:]
            in_block_comment = False
        start = code.find("/*")
        if start >= 0:
            end = code.find("*/", start + 2)
            if end < 0:
                in_block_comment = True
                code = code[:start]
            else:
                code = code[:start] + code[end + 2:]

        lineno = i + 1

        # --- ignored-status (all trees) ----------------------------------
        if VOID_CALL_RE.search(code) and not allowed("ignored-status",
                                                     raw_lines, i):
            findings.add(rel, lineno, "ignored-status",
                         "(void)-cast of a call; use IgnoreStatus(...) so "
                         "the deliberate discard is searchable")

        if in_src:
            # --- sleep-in-src --------------------------------------------
            if SLEEP_RE.search(code) and not allowed("sleep-in-src",
                                                     raw_lines, i):
                findings.add(rel, lineno, "sleep-in-src",
                             "sleeping in src/; wait on a condition "
                             "variable (or annotate bounded backoff)")

            # --- bare-thread ---------------------------------------------
            if DETACH_RE.search(code) and not allowed("bare-thread",
                                                      raw_lines, i):
                findings.add(rel, lineno, "bare-thread",
                             "detached thread; every thread needs a "
                             "joining owner")
            if THREAD_LAUNCH_RE.search(code):
                constructs_thread = True
                if not allowed("bare-thread", raw_lines, i):
                    thread_sites.append(lineno)
            if JOIN_RE.search(code):
                has_join = True

            # --- metrics -------------------------------------------------
            if (not rel.startswith("src/obs/")
                    and ATOMIC_STAT_RE.search(code)
                    and not allowed("metrics", raw_lines, i)):
                findings.add(rel, lineno, "metrics",
                             "raw std::atomic stat counter in src/; use "
                             "obs::Counter so it lands in the registry")

            # --- lock-across-fabric --------------------------------------
            # Depth-tracked scan: a guard declared at depth d is live until
            # the brace that closes d. A fabric send while any guard is
            # live is a violation.
            if GUARD_RE.search(code):
                guard_depths.append(depth)
            if (FABRIC_SEND_RE.search(code) and guard_depths
                    and not allowed("lock-across-fabric", raw_lines, i)):
                findings.add(rel, lineno, "lock-across-fabric",
                             "fabric send / coordinator execute while an "
                             "exclusive mutex guard is held (guard "
                             "declared at brace depth %d)" % guard_depths[-1])

            # --- io-under-guard ------------------------------------------
            # Same guard tracking: raw disk I/O under an exclusive guard
            # is banned outside the durable-state layer (src/wal/ and
            # src/store/ own their fd discipline; everyone else reaches
            # disk through them).
            if (not rel.startswith(("src/wal/", "src/store/"))
                    and RAW_IO_RE.search(code) and guard_depths
                    and not allowed("io-under-guard", raw_lines, i)):
                findings.add(rel, lineno, "io-under-guard",
                             "raw file I/O while an exclusive mutex guard "
                             "is held; route durable writes through "
                             "wal::Wal / store::* (guard declared at brace "
                             "depth %d)" % guard_depths[-1])
            m = FUNCTION_DEF_RE.match(code)
            if m:
                function = m.group(1)
            # --- one-settle --------------------------------------------
            if check_one_settle:
                if (DESCENDANT_LOOP_RE.search(code)
                        and function != SETTLE_FUNCTION
                        and not allowed("one-settle", raw_lines, i)):
                    findings.add(rel, lineno, "one-settle",
                                 "descendant-set loop outside "
                                 "BTree::SettleNodeForSid; settle the node "
                                 "through it, the one copy of the "
                                 "§4.2/§5.2 checks")
            # --- one-fetch ---------------------------------------------
            if (check_one_fetch and MINITXN_DECL_RE.search(code)
                    and function not in FETCH_FUNCTIONS
                    and not allowed("one-fetch", raw_lines, i)):
                findings.add(rel, lineno, "one-fetch",
                             "MiniTxn built outside DynamicTxn::ReadInto "
                             "and Commit; read through DynamicTxn::Read, "
                             "the one read skeleton")
            # --- one-commit --------------------------------------------
            if (MEMNODE_COMMIT_CALL_RE.search(code)
                    and function != COMMIT_FUNCTION
                    and not allowed("one-commit", raw_lines, i)):
                findings.add(rel, lineno, "one-commit",
                             "memnode Prepare/Commit/Abort called outside "
                             "Coordinator::RunCommit; commit through "
                             "Coordinator::Execute, the one commit "
                             "pipeline")
            # --- one-redo ----------------------------------------------
            if (WAL_APPEND_RE.search(code)
                    and function != REDO_FUNCTION
                    and not allowed("one-redo", raw_lines, i)):
                findings.add(rel, lineno, "one-redo",
                             "WAL Append called outside "
                             "Coordinator::LogDurable; log through "
                             "Coordinator::Execute, the one redo writer")
            # --- one-range ---------------------------------------------
            if (rel not in NODE_VIEW_FILES
                    and HIGH_FENCE_RE.search(code)
                    and function != RANGE_FUNCTION
                    and not allowed("one-range", raw_lines, i)):
                findings.add(rel, lineno, "one-range",
                             "high_fence() read outside BTree::WalkRange; "
                             "scan through it, the one range walk")
            # --- retry-loop --------------------------------------------
            constructs_txn = (check_retry_loop
                              and TXN_CONSTRUCT_RE.search(code)
                              and not allowed("retry-loop", raw_lines, i))
            keywords = {m.start(): m.group(1)
                        for m in LOOP_KEYWORD_RE.finditer(code)}
            for pos, ch in enumerate(code):
                keyword = keywords.get(pos)
                if keyword is not None:
                    # `while` closing a do-body is a header with no body.
                    loop_header = "body" if keyword == "do" else "paren"
                    header_parens = 0
                if loop_header == "paren":
                    if ch == "(":
                        header_parens += 1
                    elif ch == ")":
                        header_parens -= 1
                        if header_parens == 0:
                            loop_header = "body"
                elif loop_header == "body" and ch == ";":
                    loop_header = None
                if ch == "{":
                    if loop_header == "body":
                        loop_depths.append(depth)
                        loop_header = None
                    depth += 1
                elif ch == "}":
                    depth -= 1
                    while guard_depths and guard_depths[-1] >= depth:
                        guard_depths.pop()
                    while loop_depths and loop_depths[-1] >= depth:
                        loop_depths.pop()
            if constructs_txn and loop_depths:
                findings.add(rel, lineno, "retry-loop",
                             "DynamicTxn constructed inside a loop body; "
                             "retry through txn::RunTransaction, the one "
                             "optimistic retry loop")

    if in_src and constructs_thread and not has_join and thread_sites:
        for lineno in thread_sites:
            findings.add(rel, lineno, "bare-thread",
                         "std::thread constructed but no .join() anywhere "
                         "in this file")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=".",
                        help="repo root (default: cwd)")
    parser.add_argument("paths", nargs="*",
                        help="restrict to these files/dirs (default: "
                             "src tests bench tools)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    targets = args.paths or ["src", "tests", "bench"]

    files = []
    for t in targets:
        full = os.path.join(root, t)
        if os.path.isfile(full):
            files.append(full)
            continue
        for dirpath, _, names in os.walk(full):
            for name in sorted(names):
                if name.endswith(SRC_EXTENSIONS):
                    files.append(os.path.join(dirpath, name))

    findings = Findings()
    for path in sorted(files):
        rel = os.path.relpath(path, root).replace(os.sep, "/")
        lint_file(path, rel, findings)

    for path, lineno, rule, message in findings.items:
        print("%s:%d: [%s] %s" % (path, lineno, rule, message))

    if findings.items:
        print("\n%d invariant violation(s). Fix, or annotate with "
              "'// lint:allow(<rule>): <reason>'." % len(findings.items))
        return 1
    print("lint_invariants: %d files clean" % len(files))
    return 0


if __name__ == "__main__":
    sys.exit(main())
