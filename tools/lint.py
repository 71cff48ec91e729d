#!/usr/bin/env python3
"""colgraph repo lint: enforces repository-wide correctness invariants.

Run from the repo root (or pass --root); exits non-zero and prints
`path:line: [rule] message` for every violation. Wired into the build as the
`colgraph_lint` custom target and ctest test of the same name.

Rules
-----
  no-raw-assert      `assert(...)` is banned in src/ — use COLGRAPH_CHECK /
                     COLGRAPH_DCHECK from util/check.h so failures carry
                     file:line and a message in every build type
                     (static_assert is fine; util/check.h itself is exempt).
  unchecked-status   A statement that calls a Status/StatusOr-returning
                     function and ignores the result drops an error. The
                     checker collects the names of Status-returning functions
                     from src/ headers and flags bare `Foo(...);` statements.
                     Names that also have a void/value-returning overload are
                     skipped (the call site is ambiguous without full type
                     resolution).
  pragma-once        Every header under src/ must open with #pragma once.
  include-hygiene    No `..` path segments and no <bits/...> internals in
                     includes; library includes use the "dir/file.h" form
                     rooted at src/.
  no-stdout          Library code must not write to stdout (std::cout,
                     printf, puts); diagnostics go to stderr or a caller
                     provided stream. Benches/examples/tests are exempt.
  raw-stream         Library code must not open files with raw std::ifstream /
                     std::ofstream / std::fstream: all snapshot and trace file
                     I/O goes through columnstore/io_util.h so it is
                     checksummed, bounds-checked, crash-atomic, and failpoint
                     instrumented. io_util.{h,cc} itself is exempt.
  no-raw-thread      Library code must not spawn raw std::thread / std::jthread
                     / std::async: all parallelism goes through
                     util/thread_pool.h (ParallelFor) so it is bounded,
                     deterministic in serial mode, and propagates errors as
                     Status. thread_pool.{h,cc} itself is exempt;
                     std::this_thread is fine.
  no-raw-mutex       Library code must not use std::mutex / std::lock_guard /
                     std::condition_variable and friends directly: locking
                     goes through util/sync.h (Mutex, MutexLock, CondVar) so
                     every critical section carries the Clang thread-safety
                     capability annotations (GUARDED_BY/REQUIRES) and the
                     debug lock-rank checks. util/sync.h itself is exempt
                     (it wraps the std primitives).
  no-adhoc-timing    Instrumented layers (src/query/, src/views/, src/core/,
                     src/server/, src/columnstore/) must not time themselves
                     with Stopwatch / PhaseTimer / ScopedPhase or raw
                     std::chrono clocks: all timing goes through the one
                     timer, obs::Span over an obs::Phase (obs/trace.h), so
                     every measurement lands in the metrics registry and in
                     request traces instead of a one-off local that EXPLAIN
                     and the slow-query log never see.
  no-raw-mmap        Library code must not call raw mmap/munmap/mremap:
                     all memory mapping goes through columnstore/mem_map.h
                     (MemMap) so mappings are RAII-released, zero-length
                     files map to a well-defined empty range, and the
                     SIGBUS-freedom argument (whole-file CRC faults every
                     page at open) holds in one place. mem_map.cc itself is
                     exempt; identifiers merely containing "mmap" (MemMap)
                     are not matched.
  no-raw-socket      Library code must not call the raw socket(2) API
                     (socket/connect/bind/listen/accept/send/recv and
                     friends): all wire I/O goes through src/server/
                     net_socket.h (UnixSocket/UnixListener) so it is
                     timeout-bounded (poll), EINTR-looped, SIGPIPE-safe,
                     and failpoint instrumented. src/server/net_* itself is
                     exempt; capitalized wrappers (Connect/Bind/Accept) and
                     std::bind are not matched.
  raw-frame-crc      Library code must not call Crc32c( directly: a frame's
                     CRC is written and checked only by the frame codec
                     (util/frame.cc, FrameCrc), so the wire and the framed
                     logs cannot grow a second frame encoder or walker.
                     Exempt: util/frame.cc, columnstore/io_util.cc (snapshot
                     sections, a different format) and util/crc32.{h,cc}.
                     The match is on the whole word, so Crc32cUpdate is not
                     matched.
  durable-io         Library code must not change durable file state
                     itself: fsync/fdatasync, rename (std::rename,
                     std::filesystem::rename), unlink/unlinkat/rmdir,
                     std::remove(path) and std::filesystem::remove /
                     remove_all, and directory creation (mkdir,
                     std::filesystem::create_directory/-ies) happen only
                     in src/columnstore/io_util.cc, the one module that
                     knows how a file is published (WriteFileAtomic) or
                     retired (RemoveFile). The one exemption is
                     src/server/net_socket.cc's unlink of its socket
                     path, which is not durable state. The
                     std::remove(first, last, value) algorithm (a comma
                     inside its parentheses) is not matched.
  phase-registry     Library code outside src/obs/ must not call
                     GetHistogram(: every timed region is an obs::Phase,
                     whose histogram the phase table in obs/trace.cc names,
                     so a new timer cannot bypass the taxonomy. The match is
                     on the whole word (PhaseHistogram is not matched);
                     counters and gauges are not matched.
"""

import argparse
import os
import re
import sys

SRC_EXTS = (".h", ".cc", ".cpp", ".hpp")

# Raw socket(2)-family calls: an optional `::` prefix, never preceded by a
# word char / `.` / `->` / a bare `:` — so std::bind, socket_.Connect(...) and
# the repo's capitalized wrappers never match, while `socket(`, `::send(`,
# `(void)recv(` do.
RAW_SOCKET_CALL = re.compile(
    r"(^|[^\w.>:])(::\s*)?"
    r"(?:socket|connect|bind|listen|accept4?|send|recv|sendto|recvfrom|"
    r"sendmsg|recvmsg|setsockopt|getsockopt|getpeername|getsockname)\s*\("
)

# Raw memory-mapping calls: same shape as RAW_SOCKET_CALL, so MemMap,
# OpenMapped and friends (word char before the name) never match
# while `mmap(`, `::munmap(` and `(void)mremap(` do.
RAW_MMAP_CALL = re.compile(
    r"(^|[^\w.>:])(::\s*)?(?:mmap|munmap|mremap)\s*\("
)

# A direct CRC-32C call: the whole word, so simd::Crc32cUpdate never
# matches while `Crc32c(` and `colgraph::Crc32c(` do.
RAW_CRC_CALL = re.compile(r"\bCrc32c\s*\(")

# A histogram registration: the whole word, so PhaseHistogram never matches.
HISTOGRAM_LOOKUP = re.compile(r"\bGetHistogram\s*\(")

# Durable file mutations outside io_util.cc: raw POSIX calls (same shape
# as RAW_SOCKET_CALL, so RemoveFile or a .rename( member never match),
# std::rename, std::filesystem's mutators, and std::remove, whose
# one-argument form is checked separately from the algorithm.
RAW_DURABLE_CALL = re.compile(
    r"(^|[^\w.>:])(::\s*)?"
    r"(?P<name>fsync|fdatasync|rename|renameat2?|unlink|unlinkat|rmdir|"
    r"mkdir|mkdirat)\s*\("
)
STD_DURABLE_CALL = re.compile(
    r"\bstd::(?:rename|filesystem::(?:rename|remove|remove_all|"
    r"create_directory|create_directories))\s*\("
)
STD_REMOVE_CALL = re.compile(r"\bstd::remove\s*\(")
# The one durable-io home, and the file that may unlink its socket path.
DURABLE_IO_HOME = "src/columnstore/io_util.cc"
SOCKET_UNLINK_HOME = "src/server/net_socket.cc"


def is_path_remove(line):
    """True for a std::remove(path) call on `line`; the
    std::remove(first, last, value) algorithm has a comma at the top level
    of its parentheses. A call that does not close on this line counts as
    the one-argument form unless a comma was seen."""
    for m in STD_REMOVE_CALL.finditer(line):
        depth = 0
        has_comma = False
        for ch in line[m.end() - 1:]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    break
            elif ch == "," and depth == 1:
                has_comma = True
                break
        if not has_comma:
            return True
    return False


def durable_io_violation(posix_rel, line):
    """True when `line` makes a durable file change outside its home."""
    if posix_rel == DURABLE_IO_HOME:
        return False
    for m in RAW_DURABLE_CALL.finditer(line):
        socket_unlink = (
            posix_rel == SOCKET_UNLINK_HOME and m.group("name") == "unlink"
        )
        if not socket_unlink:
            return True
    return bool(STD_DURABLE_CALL.search(line) or is_path_remove(line))


# The files allowed to call Crc32c( directly.
CRC_CALL_HOMES = (
    "src/util/frame.cc",
    "src/columnstore/io_util.cc",
    "src/util/crc32.h",
    "src/util/crc32.cc",
)

# Statement openers that legitimately consume a Status result.
CONSUMED_PREFIX = re.compile(
    r"\s*(return\b|if\b|while\b|for\b|case\b|throw\b|"
    r"COLGRAPH_\w+\(|EXPECT_|ASSERT_|\(void\)|"
    r"[A-Za-z_][\w:<>,\s*&]*\s*[\w\]]+\s*=|=)"
)


def iter_src_files(src_dir):
    for dirpath, _dirnames, filenames in os.walk(src_dir):
        for name in sorted(filenames):
            if name.endswith(SRC_EXTS):
                yield os.path.join(dirpath, name)


def strip_comments(line):
    """Removes // comments (good enough: repo style has no multi-line /* */)."""
    idx = line.find("//")
    return line[:idx] if idx >= 0 else line


def collect_status_functions(src_dir):
    """Names of functions declared in src/ headers returning Status/StatusOr,
    minus names that also appear with a non-Status return type (ambiguous
    overloads a textual checker cannot resolve)."""
    decl = re.compile(
        r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+)?(?:static\s+)?"
        r"(?P<ret>Status|StatusOr<[^;={}]*?>)\s+(?P<name>[A-Za-z_]\w*)\s*\("
    )
    other_decl = re.compile(
        r"^\s*(?:\[\[nodiscard\]\]\s*)?(?:virtual\s+)?(?:static\s+)?"
        r"(?P<ret>void|bool|int|size_t|double|auto|[A-Z]\w*(?:<[^;={}]*>)?)"
        r"[&*]?\s+(?P<name>[A-Za-z_]\w*)\s*\("
    )
    status_names = set()
    other_names = set()
    for path in iter_src_files(src_dir):
        if not path.endswith((".h", ".hpp")):
            continue
        with open(path, encoding="utf-8") as f:
            for line in f:
                line = strip_comments(line)
                m = decl.match(line)
                if m:
                    status_names.add(m.group("name"))
                    continue
                m = other_decl.match(line)
                if m and m.group("ret") not in ("Status",) and not m.group(
                    "ret"
                ).startswith("StatusOr"):
                    other_names.add(m.group("name"))
    return status_names - other_names


def lint_file(path, rel, status_fns, errors, in_library):
    with open(path, encoding="utf-8") as f:
        lines = f.readlines()

    is_header = rel.endswith((".h", ".hpp"))
    posix_rel = rel.replace(os.sep, "/")
    is_check_header = posix_rel.endswith("util/check.h")
    is_io_util = os.path.basename(posix_rel).startswith("io_util.")
    is_thread_pool = os.path.basename(posix_rel).startswith("thread_pool.")
    is_sync = posix_rel.endswith("util/sync.h")
    is_net = posix_rel.startswith("src/server/net_")
    is_mem_map = posix_rel.endswith("columnstore/mem_map.cc")

    if is_header:
        first_code = next(
            (l.strip() for l in lines
             if l.strip() and not l.strip().startswith("//")),
            "",
        )
        if first_code != "#pragma once":
            errors.append(
                f"{rel}:1: [pragma-once] header must start with #pragma once"
            )

    bare_call = None
    if status_fns:
        names = "|".join(sorted(re.escape(n) for n in status_fns))
        bare_call = re.compile(
            r"^\s*(?:[A-Za-z_]\w*(?:\.|->|::))*(?:" + names + r")\s*\(.*\)\s*;\s*$"
        )

    # A bare-call statement must *start* a statement: the previous code line
    # must have ended one (`;`, `{`, `}`, a label `:`), been blank, or been a
    # preprocessor line. This keeps continuation lines of multi-line calls
    # (e.g. inside COLGRAPH_ASSIGN_OR_RETURN) from being flagged.
    at_statement_start = True
    for i, raw in enumerate(lines, start=1):
        line = strip_comments(raw)
        stripped = line.strip()

        if in_library and not is_check_header:
            if re.search(r"(?<!_)\bassert\s*\(", line) and "static_assert" not in line:
                errors.append(
                    f"{rel}:{i}: [no-raw-assert] use COLGRAPH_CHECK/"
                    f"COLGRAPH_DCHECK from util/check.h instead of assert()"
                )
            if re.search(r"std::cout\b", line) or re.search(
                r"(?<![\w.:])(?:printf|puts)\s*\(", line
            ):
                errors.append(
                    f"{rel}:{i}: [no-stdout] library code must not write to "
                    f"stdout"
                )
            if not is_io_util and re.search(
                r"std::[io]?fstream\b", line
            ):
                errors.append(
                    f"{rel}:{i}: [raw-stream] library file I/O must go "
                    f"through columnstore/io_util.h (checksummed, "
                    f"crash-atomic, failpoint instrumented), not raw "
                    f"std::ifstream/std::ofstream"
                )
            if not is_thread_pool and re.search(
                r"std::(?:thread|jthread|async)\b", line
            ):
                errors.append(
                    f"{rel}:{i}: [no-raw-thread] library code must not spawn "
                    f"raw std::thread/std::jthread/std::async; use "
                    f"util/thread_pool.h (ParallelFor) so parallelism is "
                    f"bounded, serial-mode testable, and error-propagating"
                )
            if not is_sync and re.search(
                r"std::(?:mutex|timed_mutex|recursive_mutex|"
                r"recursive_timed_mutex|shared_mutex|shared_timed_mutex|"
                r"lock_guard|unique_lock|scoped_lock|condition_variable|"
                r"condition_variable_any)\b",
                line,
            ):
                errors.append(
                    f"{rel}:{i}: [no-raw-mutex] library code must lock "
                    f"through util/sync.h (Mutex/MutexLock/CondVar) so "
                    f"critical sections carry thread-safety annotations "
                    f"and lock-rank checks, not raw std::mutex/"
                    f"std::lock_guard/std::condition_variable"
                )
            if not is_mem_map and RAW_MMAP_CALL.search(line):
                errors.append(
                    f"{rel}:{i}: [no-raw-mmap] memory mapping must go "
                    f"through columnstore/mem_map.h (MemMap: RAII release, "
                    f"empty-file contract, single home for the SIGBUS "
                    f"argument), not raw mmap/munmap/mremap"
                )
            if posix_rel not in CRC_CALL_HOMES and RAW_CRC_CALL.search(line):
                errors.append(
                    f"{rel}:{i}: [raw-frame-crc] frames are checksummed "
                    f"only by the frame codec (util/frame.h FrameCrc, "
                    f"BeginFrame/EndFrame), not by direct Crc32c calls"
                )
            if durable_io_violation(posix_rel, line):
                errors.append(
                    f"{rel}:{i}: [durable-io] durable file changes (fsync, "
                    f"rename, unlink/remove, directory creation) go "
                    f"through columnstore/io_util.h (WriteFileAtomic, "
                    f"RemoveFile, CreateDirectories), the one module that "
                    f"knows how a file is published or retired"
                )
            if not posix_rel.startswith("src/obs/") and HISTOGRAM_LOOKUP.search(
                line
            ):
                errors.append(
                    f"{rel}:{i}: [phase-registry] histograms are registered "
                    f"only by the phase table (obs/trace.h Phase, Span); add "
                    f"a phase instead of a GetHistogram call"
                )
            if not is_net and RAW_SOCKET_CALL.search(line):
                errors.append(
                    f"{rel}:{i}: [no-raw-socket] wire I/O must go through "
                    f"server/net_socket.h (UnixSocket/UnixListener: "
                    f"poll-timeout bounded, EINTR-looped, SIGPIPE-safe, "
                    f"failpoint instrumented), not the raw socket(2)/"
                    f"send/recv API"
                )
            if posix_rel.startswith(
                (
                    "src/query/",
                    "src/views/",
                    "src/core/",
                    "src/server/",
                    "src/columnstore/",
                )
            ) and (
                re.search(r"\b(?:Stopwatch|PhaseTimer|ScopedPhase)\b", line)
                or re.search(
                    r"std::chrono::(?:steady_clock|system_clock|"
                    r"high_resolution_clock)\b",
                    line,
                )
            ):
                errors.append(
                    f"{rel}:{i}: [no-adhoc-timing] instrumented-layer "
                    f"timing must go through the one timer (obs/trace.h "
                    f"Span over a Phase), not ad-hoc Stopwatch/PhaseTimer/"
                    f"chrono clocks, so measurements reach the metrics "
                    f"registry and request traces"
                )

        if stripped.startswith("#include"):
            m = re.match(r'#include\s+([<"])([^">]+)[">]', stripped)
            if m:
                target = m.group(2)
                if ".." in target.split("/"):
                    errors.append(
                        f"{rel}:{i}: [include-hygiene] no relative '..' "
                        f"includes; include relative to src/"
                    )
                if target.startswith("bits/"):
                    errors.append(
                        f"{rel}:{i}: [include-hygiene] do not include "
                        f"libstdc++ internals (<bits/...>)"
                    )

        if (
            in_library
            and at_statement_start
            and bare_call is not None
            and bare_call.match(line)
            and not CONSUMED_PREFIX.match(line)
        ):
            errors.append(
                f"{rel}:{i}: [unchecked-status] result of a Status-returning "
                f"call is dropped; handle it, COLGRAPH_RETURN_NOT_OK it, or "
                f"COLGRAPH_CHECK_OK it"
            )

        if stripped:
            at_statement_start = (
                stripped.endswith((";", "{", "}", ":"))
                or stripped.startswith("#")
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root", default=".", help="repository root (contains src/)"
    )
    args = parser.parse_args()

    src_dir = os.path.join(args.root, "src")
    if not os.path.isdir(src_dir):
        print(f"lint.py: no src/ directory under {args.root}", file=sys.stderr)
        return 2

    status_fns = collect_status_functions(src_dir)
    errors = []
    for path in iter_src_files(src_dir):
        rel = os.path.relpath(path, args.root)
        lint_file(path, rel, status_fns, errors, in_library=True)

    for err in errors:
        print(err)
    if errors:
        print(f"lint.py: {len(errors)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint.py: OK ({len(status_fns)} Status-returning functions tracked)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
