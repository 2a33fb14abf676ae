#!/usr/bin/env python3
"""Repo-specific invariants the generic tools (clang-tidy, clang-format,
sanitizers) cannot express. Run locally via

    cmake --build build --target lint        # or
    python3 tools/lint/check_invariants.py --root .

Rules (each failure prints `file:line: [rule] message`):

  naked-thread       std::thread may be constructed only in
                     src/util/thread_pool.* and src/dsdb/store.* (the
                     dsdb background writer). Everything else goes
                     through util::ThreadPool so fan-out stays one
                     level deep and joinable.
  raw-sync           std::mutex / std::condition_variable /
                     std::lock_guard / std::unique_lock appear only in
                     src/util/sync.hpp — all other code uses the
                     annotated util::Mutex shims so the Clang
                     thread-safety analysis can see every lock. Lines
                     that genuinely need the native types carry
                     `lint:allow-raw-sync(<why>)`.
  unguarded-mutex    a file declaring a util::Mutex member must
                     annotate at least one piece of data with
                     RLMUL_GUARDED_BY / RLMUL_PT_GUARDED_BY or a
                     function with RLMUL_REQUIRES — a mutex protecting
                     nothing the analysis can check is a lie waiting
                     to happen.
  global-rng         rand()/srand()/drand48()/std::random_device only
                     inside src/util/rng.* — everything else takes a
                     seeded util::Rng so searches stay reproducible.
  float-eq           ==/!= on cost-like floating values (cost, area,
                     delay, power, reward, *_ns, *_um2, *_mw, sum_*)
                     outside the approved sites in
                     tools/lint/float_eq_allow.txt (each entry carries
                     its justification inline).
  tsa-waiver         every RLMUL_NO_THREAD_SAFETY_ANALYSIS carries a
                     justifying comment within the 6 lines above it.
  raw-cpa-kind       `static_cast<...CpaKind>(...)` (constructing a
                     CpaKind from a raw integer) is allowed only in
                     src/prefix/ and src/netlist/. Everything else
                     decodes through netlist::cpa_kind_from_index /
                     parse_cpa_kind so an out-of-range index can never
                     smuggle in an enumerator the menu doesn't have
                     (kCustom denotes a graph, not a buildable kind).
  raw-socket         socket/poll syscalls and their headers
                     (<sys/socket.h>, <sys/un.h>, <poll.h>) appear only
                     in src/serve/socket.* — the rest of the service
                     speaks through the RAII helpers there, so fd
                     lifetime, EINTR retries and MSG_NOSIGNAL handling
                     live in one audited file.
  netlist-patch      the netlist patch/mutation APIs the delta path is
                     built on (replay_compressor_tree, copy_gate_region,
                     clone_head, adopt_ties) are callable only from
                     src/netlist/ and src/synth/. Everywhere else a
                     netlist is immutable once built — search and RL
                     code expresses structure sharing through
                     synth::ParentHint, never by patching gates itself.
  env-read           environment reads (getenv, util::env_long,
                     util::env_double) in src/ happen only in the
                     allowlisted modules: util/config (the readers
                     themselves), util/thread_pool (RLMUL_SYNTH_THREADS),
                     util/csv (RLMUL_OUT) and nt/gemm (RLMUL_GEMM*). A
                     production layer chooses its behavior from its
                     inputs, so an A/B switch cannot land in one
                     silently. `--self-test` proves the rule rejects a
                     read outside the allowlist.
  header-standalone  every public header under src/*/ compiles as its
                     own translation unit (include-what-you-use at the
                     API boundary). Needs --compiler; skipped with a
                     notice otherwise.
  json-confinement   hand-rolled JSON text (escaped-quote keys like
                     `\"ok\":` inside C++ string literals) appears only
                     in src/serve/json.* — everything else in src/ and
                     examples/ builds documents through serve::json
                     Value, so the one parser/serializer the fuzzer
                     hammers is the one the product uses. (bench/ is
                     exempt: its BENCH_*.json emitters are offline
                     tooling, not protocol surface.)
  fuzz-registration  fuzz entry points (LLVMFuzzerTestOneInput) live
                     only under fuzz/, and every fuzz/fuzz_*.cpp
                     harness must have a non-empty seed corpus at
                     fuzz/corpus/<name>/ and an rlmul_add_fuzzer(<name>)
                     registration in fuzz/CMakeLists.txt — a harness
                     that CI never replays is dead hardening.
"""

import argparse
import re
import subprocess
import sys
from pathlib import Path

FAILURES = []


def fail(path, line_no, rule, msg):
    FAILURES.append(f"{path}:{line_no}: [{rule}] {msg}")


def strip_comments_and_strings(line):
    """Crude but adequate: drop // comments and string literal bodies."""
    line = re.sub(r'"(\\.|[^"\\])*"', '""', line)
    return line.split("//")[0]


def source_files(root, subdirs=("src",), exts=(".cpp", ".hpp")):
    for sub in subdirs:
        for p in sorted((root / sub).rglob("*")):
            if p.suffix in exts:
                yield p


def rel(root, path):
    return path.relative_to(root).as_posix()


# -- naked-thread -------------------------------------------------------------

THREAD_ALLOWED = ("src/util/thread_pool.", "src/dsdb/store.")
THREAD_RE = re.compile(r"\bstd::thread\b(?!::)")


def check_naked_thread(root):
    for p in source_files(root):
        r = rel(root, p)
        if r.startswith(THREAD_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            if THREAD_RE.search(code):
                fail(r, i, "naked-thread",
                     "std::thread outside util/thread_pool and the dsdb "
                     "writer; use util::ThreadPool")


# -- raw-sync -----------------------------------------------------------------

RAW_SYNC_RE = re.compile(
    r"\bstd::(mutex|condition_variable|lock_guard|unique_lock|scoped_lock|"
    r"shared_mutex|shared_lock)\b")
RAW_SYNC_ALLOWED = ("src/util/sync.hpp",)
RAW_SYNC_MARK = "lint:allow-raw-sync"


def check_raw_sync(root):
    for p in source_files(root):
        r = rel(root, p)
        if r in RAW_SYNC_ALLOWED:
            continue
        lines = p.read_text().splitlines()
        for i, line in enumerate(lines, 1):
            code = strip_comments_and_strings(line)
            if not RAW_SYNC_RE.search(code):
                continue
            window = lines[max(0, i - 3):i]
            if any(RAW_SYNC_MARK in w for w in window):
                continue
            fail(r, i, "raw-sync",
                 "raw std sync primitive outside util/sync.hpp; use "
                 "util::Mutex/CondVar/LockGuard (or justify with "
                 f"`{RAW_SYNC_MARK}(<why>)` on or above the line)")


# -- unguarded-mutex ----------------------------------------------------------
# Per-mutex, not per-file: every named util::Mutex member must be
# referenced by at least one RLMUL_GUARDED_BY / RLMUL_PT_GUARDED_BY /
# RLMUL_REQUIRES in the same file. A file-level check let a second
# mutex (e.g. the evaluator's stats_mu_ next to mu_) ride on the first
# one's annotations while guarding nothing the analysis can see.

MUTEX_MEMBER_RE = re.compile(r"\b(?:util::)?Mutex\s+(\w+)\s*;")
GUARD_NAME_RE = re.compile(
    r"RLMUL_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES)\s*\(\s*([^)]+?)\s*\)")


def check_unguarded_mutex(root):
    for p in source_files(root):
        r = rel(root, p)
        if r in RAW_SYNC_ALLOWED:
            continue
        text = p.read_text()
        guarded = set()
        for m in GUARD_NAME_RE.finditer(text):
            # RLMUL_REQUIRES may list several locks.
            for name in m.group(1).split(","):
                guarded.add(name.strip())
        for m in MUTEX_MEMBER_RE.finditer(text):
            name = m.group(1)
            if name in guarded:
                continue
            line_no = text[:m.start()].count("\n") + 1
            fail(r, line_no, "unguarded-mutex",
                 f"util::Mutex member `{name}` is never named in an "
                 "RLMUL_GUARDED_BY/RLMUL_PT_GUARDED_BY/RLMUL_REQUIRES "
                 "in this file — annotate the data it protects")


# -- global-rng ---------------------------------------------------------------

RNG_RE = re.compile(
    r"(?<![\w:])(s?rand|drand48|random)\s*\(|std::random_device")
RNG_ALLOWED = ("src/util/rng.",)


def check_global_rng(root):
    for p in source_files(root):
        r = rel(root, p)
        if r.startswith(RNG_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            if RNG_RE.search(code):
                fail(r, i, "global-rng",
                     "global/unseeded RNG outside util/rng; take a "
                     "seeded util::Rng")


# -- float-eq -----------------------------------------------------------------

EQ_RE = re.compile(r"(?<![=!<>+\-*/%&|^])[!=]=(?!=)")
COSTY_RE = re.compile(
    r"\b(cost|area|delay|power|reward|hypervolume)\w*"
    r"|\w*(_ns|_um2|_mw|sum_area|sum_delay|sum_power)\b")
ITER_RE = re.compile(r"\.(r?begin|r?end|cr?begin|cr?end)\s*\(")


def load_float_eq_allow(root):
    allow = []
    allow_file = root / "tools/lint/float_eq_allow.txt"
    if allow_file.exists():
        for raw in allow_file.read_text().splitlines():
            entry = raw.split("#")[0].strip()
            if not entry:
                continue
            path, _, pattern = entry.partition(":")
            allow.append((path.strip(), pattern.strip()))
    return allow


def check_float_eq(root):
    allow = load_float_eq_allow(root)
    for p in source_files(root):
        r = rel(root, p)
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            if not EQ_RE.search(code) or not COSTY_RE.search(code):
                continue
            if ITER_RE.search(code):  # iterator != end() loops
                continue
            if any(r == path and pat in line for path, pat in allow):
                continue
            fail(r, i, "float-eq",
                 "==/!= on a cost-like floating value; compare with a "
                 "tolerance or add an approved site to "
                 "tools/lint/float_eq_allow.txt with a justification")


# -- tsa-waiver ---------------------------------------------------------------


def check_tsa_waiver(root):
    for p in source_files(root):
        r = rel(root, p)
        if r == "src/util/thread_annotations.hpp":
            continue
        lines = p.read_text().splitlines()
        for i, line in enumerate(lines, 1):
            if "RLMUL_NO_THREAD_SAFETY_ANALYSIS" not in line:
                continue
            window = lines[max(0, i - 7):i - 1]
            if any("//" in w or "///" in w for w in window):
                continue
            fail(r, i, "tsa-waiver",
                 "RLMUL_NO_THREAD_SAFETY_ANALYSIS without a justifying "
                 "comment in the 6 lines above")


# -- raw-cpa-kind -------------------------------------------------------------

RAW_CPA_KIND_RE = re.compile(r"static_cast<\s*[\w:]*CpaKind\s*>\s*\(")
RAW_CPA_KIND_ALLOWED = ("src/prefix/", "src/netlist/")


def check_raw_cpa_kind(root):
    for p in source_files(root):
        r = rel(root, p)
        if r.startswith(RAW_CPA_KIND_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            if RAW_CPA_KIND_RE.search(code):
                fail(r, i, "raw-cpa-kind",
                     "raw CpaKind construction outside src/prefix/ and "
                     "src/netlist/; decode through "
                     "netlist::cpa_kind_from_index or parse_cpa_kind")


# -- raw-socket ---------------------------------------------------------------

RAW_SOCKET_RE = re.compile(
    r"#\s*include\s*<(sys/socket\.h|sys/un\.h|poll\.h)>"
    r"|(?<![\w:])::(socket|bind|listen|accept4?|connect|poll|recv|send)\s*\(")
RAW_SOCKET_ALLOWED = ("src/serve/socket.",)


def check_raw_socket(root):
    for p in source_files(root):
        r = rel(root, p)
        if r.startswith(RAW_SOCKET_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            if RAW_SOCKET_RE.search(code):
                fail(r, i, "raw-socket",
                     "raw socket/poll syscall outside src/serve/socket.*; "
                     "use the serve::Fd / poll_items / read_some helpers")


# -- netlist-patch ------------------------------------------------------------

NETLIST_PATCH_RE = re.compile(
    r"\b(replay_compressor_tree|copy_gate_region|clone_head|adopt_ties)"
    r"\s*\(")
NETLIST_PATCH_ALLOWED = ("src/netlist/", "src/synth/")


def check_netlist_patch(root):
    for p in source_files(root):
        r = rel(root, p)
        if r.startswith(NETLIST_PATCH_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            m = NETLIST_PATCH_RE.search(code)
            if m:
                fail(r, i, "netlist-patch",
                     f"netlist patch API `{m.group(1)}` outside "
                     "src/netlist/ and src/synth/; pass a "
                     "synth::ParentHint instead of mutating netlists")


# -- json-confinement ---------------------------------------------------------
# The signature of hand-assembled JSON in C++ source: an escaped-quote
# key followed by a colon inside a string literal (`"{\"ok\":true}"`).
# Matched on the comment-stripped raw line — string stripping would
# erase exactly the evidence.

JSON_LITERAL_RE = re.compile(r'\\"[A-Za-z_]\w*\\"\s*:')
JSON_ALLOWED = ("src/serve/json.",)


def check_json_confinement(root):
    for p in source_files(root, subdirs=("src", "examples")):
        r = rel(root, p)
        if r.startswith(JSON_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = line.split("//")[0]
            if JSON_LITERAL_RE.search(code):
                fail(r, i, "json-confinement",
                     "hand-rolled JSON literal outside src/serve/json.*; "
                     "build the document with serve::json::Value")


# -- fuzz-registration --------------------------------------------------------

FUZZ_ENTRY_RE = re.compile(r"\bLLVMFuzzerTestOneInput\b")


def check_fuzz_registration(root):
    for p in source_files(root, subdirs=("src", "examples", "bench")):
        r = rel(root, p)
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            if FUZZ_ENTRY_RE.search(code):
                fail(r, i, "fuzz-registration",
                     "fuzz entry point outside fuzz/ — harnesses live in "
                     "fuzz/fuzz_*.cpp only")

    fuzz_dir = root / "fuzz"
    if not fuzz_dir.is_dir():
        return
    cmake = fuzz_dir / "CMakeLists.txt"
    cmake_text = cmake.read_text() if cmake.exists() else ""
    for p in sorted(fuzz_dir.glob("fuzz_*.cpp")):
        name = p.stem
        r = rel(root, p)
        if not FUZZ_ENTRY_RE.search(p.read_text()):
            fail(r, 1, "fuzz-registration",
                 f"harness `{name}` does not define LLVMFuzzerTestOneInput")
        if f"rlmul_add_fuzzer({name}" not in cmake_text:
            fail(r, 1, "fuzz-registration",
                 f"harness `{name}` is not registered via "
                 "rlmul_add_fuzzer() in fuzz/CMakeLists.txt")
        corpus = fuzz_dir / "corpus" / name
        if not corpus.is_dir() or not any(corpus.iterdir()):
            fail(r, 1, "fuzz-registration",
                 f"harness `{name}` has no seed corpus at "
                 f"fuzz/corpus/{name}/ — commit at least one seed "
                 "(fuzz/gen_corpus.cpp generates them)")


# -- env-read -----------------------------------------------------------------

ENV_READ_RE = re.compile(r"\b(getenv|env_long|env_double)\s*\(")
ENV_READ_ALLOWED = ("src/util/config.", "src/util/thread_pool.cpp",
                    "src/util/csv.cpp", "src/nt/gemm.cpp")


def check_env_read(root):
    for p in source_files(root):
        r = rel(root, p)
        if r.startswith(ENV_READ_ALLOWED):
            continue
        for i, line in enumerate(p.read_text().splitlines(), 1):
            code = strip_comments_and_strings(line)
            m = ENV_READ_RE.search(code)
            if m:
                fail(r, i, "env-read",
                     f"environment read `{m.group(1)}` outside the "
                     "allowlist (util/config, util/thread_pool, util/csv, "
                     "nt/gemm); take the setting as an explicit option")


def self_test():
    """Negative and positive cases for env-read on a scratch tree."""
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "src/synth").mkdir(parents=True)
        (root / "src/util").mkdir(parents=True)
        (root / "src/synth/evaluator.cpp").write_text(
            'const long b = util::env_long("RLMUL_SWITCH", 1);\n'
            '// getenv("RLMUL_IN_A_COMMENT") is not a read\n')
        (root / "src/util/thread_pool.cpp").write_text(
            'const long n = env_long("RLMUL_SYNTH_THREADS", 0);\n')
        check_env_read(root)
    got = [f for f in FAILURES if "[env-read]" in f]
    FAILURES.clear()
    if len(got) != 1 or not got[0].startswith("src/synth/evaluator.cpp:1:"):
        print(f"check_invariants self-test FAILED: env-read reported {got}, "
              "expected exactly src/synth/evaluator.cpp:1")
        return 1
    print("check_invariants self-test: OK")
    return 0


# -- header-standalone --------------------------------------------------------


def check_headers_standalone(root, compiler):
    if not compiler:
        print("[header-standalone] skipped: pass --compiler to enable",
              file=sys.stderr)
        return
    headers = [p for p in source_files(root, exts=(".hpp",))]
    for p in headers:
        r = rel(root, p)
        cmd = [
            compiler, "-std=c++20", "-fsyntax-only",
            "-I", str(root / "src"),
            "-x", "c++", str(p),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            first = (proc.stderr.strip().splitlines() or ["?"])[0]
            fail(r, 1, "header-standalone",
                 f"header does not compile on its own: {first}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", default=".", help="repo root")
    ap.add_argument("--compiler", default="",
                    help="C++ compiler for the header-standalone rule")
    ap.add_argument("--skip-headers", action="store_true",
                    help="skip the (slower) header-standalone rule")
    ap.add_argument("--self-test", action="store_true",
                    help="check the env-read rule against known "
                    "violations instead of linting the tree")
    args = ap.parse_args()
    if args.self_test:
        return self_test()
    root = Path(args.root).resolve()

    check_naked_thread(root)
    check_raw_sync(root)
    check_unguarded_mutex(root)
    check_global_rng(root)
    check_float_eq(root)
    check_tsa_waiver(root)
    check_raw_cpa_kind(root)
    check_raw_socket(root)
    check_netlist_patch(root)
    check_json_confinement(root)
    check_fuzz_registration(root)
    check_env_read(root)
    if not args.skip_headers:
        check_headers_standalone(root, args.compiler)

    if FAILURES:
        print("\n".join(FAILURES))
        print(f"\ncheck_invariants: {len(FAILURES)} violation(s)")
        return 1
    print("check_invariants: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
