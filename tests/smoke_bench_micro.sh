#!/usr/bin/env bash
# CI smoke for the reward-oracle fast path: runs the evaluate-path
# micro-benchmark (tiny budget) and checks the machine-readable
# RLMUL_COUNTERS line the bench prints on exit. Fails on a crash, a
# missing/malformed counters line, or counters that show the fast path
# never engaged. Usage: smoke_bench_micro.sh <path-to-bench_micro>
set -u

bench="${1:?usage: smoke_bench_micro.sh <bench_micro>}"

out="$("$bench" --benchmark_filter='BM_EvaluateUniqueDesign/bits:8' \
        --benchmark_min_time=0.01 2>&1)"
status=$?
if [ "$status" -ne 0 ]; then
  echo "$out"
  echo "FAIL: bench_micro exited with status $status"
  exit 1
fi

build_line="$(printf '%s\n' "$out" | grep '^RLMUL_BUILD ' | tail -n 1)"
if [ -z "$build_line" ]; then
  echo "$out"
  echo "FAIL: no RLMUL_BUILD provenance line in bench_micro output"
  exit 1
fi
for key in compiler sanitizers thread_safety_analysis; do
  if ! printf '%s\n' "$build_line" | grep -q " $key="; then
    echo "$build_line"
    echo "FAIL: RLMUL_BUILD line missing '$key='"
    exit 1
  fi
done
echo "$build_line"

line="$(printf '%s\n' "$out" | grep '^RLMUL_COUNTERS ' | tail -n 1)"
if [ -z "$line" ]; then
  echo "$out"
  echo "FAIL: no RLMUL_COUNTERS line in bench_micro output"
  exit 1
fi
echo "$line"

# Every token after the prefix must be key=value with a decimal value.
for tok in ${line#RLMUL_COUNTERS }; do
  case "$tok" in
    *=*) ;;
    *) echo "FAIL: malformed counter token '$tok'"; exit 1 ;;
  esac
  key="${tok%%=*}"
  val="${tok#*=}"
  if ! printf '%s' "$key" | grep -Eq '^[a-z_]+$'; then
    echo "FAIL: malformed counter key '$key'"
    exit 1
  fi
  if ! printf '%s' "$val" | grep -Eq '^[0-9]+$'; then
    echo "FAIL: malformed counter value '$tok'"
    exit 1
  fi
done

get() {
  printf '%s\n' "$line" | tr ' ' '\n' | grep "^$1=" | head -n 1 | cut -d= -f2
}

unique="$(get unique_evals)"
incr="$(get sta_incremental_updates)"
reused="$(get netlists_reused)"
if [ -z "$unique" ] || [ "$unique" -lt 1 ]; then
  echo "FAIL: expected unique_evals >= 1, got '${unique:-missing}'"
  exit 1
fi
if [ -z "$incr" ] || [ "$incr" -lt 1 ]; then
  echo "FAIL: expected sta_incremental_updates >= 1, got '${incr:-missing}'"
  exit 1
fi
if [ -z "$reused" ] || [ "$reused" -lt 1 ]; then
  echo "FAIL: expected netlists_reused >= 1, got '${reused:-missing}'"
  exit 1
fi
echo "PASS: bench_micro smoke (unique_evals=$unique," \
     "sta_incremental_updates=$incr, netlists_reused=$reused)"

# -- batched-evaluation smoke: one batched entry must run clean (under
# whatever sanitizer this build carries) and the coalescing counters
# must show the batch pipeline actually drained a batch.
batch_out="$("$bench" --benchmark_filter='BM_EvaluateBatch/bits:8/batch:8' \
        --benchmark_min_time=0.01 2>&1)"
batch_status=$?
if [ "$batch_status" -ne 0 ]; then
  echo "$batch_out"
  echo "FAIL: bench_micro (BM_EvaluateBatch) exited with status $batch_status"
  exit 1
fi
batch_line="$(printf '%s\n' "$batch_out" | grep '^RLMUL_COUNTERS ' | tail -n 1)"
if [ -z "$batch_line" ]; then
  echo "$batch_out"
  echo "FAIL: no RLMUL_COUNTERS line in BM_EvaluateBatch output"
  exit 1
fi
bget() {
  printf '%s\n' "$batch_line" | tr ' ' '\n' | grep "^$1=" | head -n 1 \
    | cut -d= -f2
}
batches="$(bget eval_batches)"
bavg="$(bget eval_batch_size_avg)"
if [ -z "$batches" ] || [ "$batches" -lt 1 ]; then
  echo "$batch_line"
  echo "FAIL: expected eval_batches >= 1, got '${batches:-missing}'"
  exit 1
fi
if [ -z "$bavg" ] || [ "$bavg" -lt 2 ]; then
  echo "$batch_line"
  echo "FAIL: expected eval_batch_size_avg >= 2, got '${bavg:-missing}'"
  exit 1
fi
echo "PASS: batched evaluation smoke (eval_batches=$batches," \
     "eval_batch_size_avg=$bavg)"

# -- delta-evaluation smoke: the trajectory-shaped entry must run clean
# and the delta counters must show children actually patched against
# retained parents (a hits=0 run means the delta path silently
# disengaged).
delta_out="$("$bench" --benchmark_filter='BM_EvaluateDelta/bits:16' \
        --benchmark_min_time=0.01 2>&1)"
delta_status=$?
if [ "$delta_status" -ne 0 ]; then
  echo "$delta_out"
  echo "FAIL: bench_micro (BM_EvaluateDelta) exited with status $delta_status"
  exit 1
fi
delta_line="$(printf '%s\n' "$delta_out" | grep '^RLMUL_COUNTERS ' | tail -n 1)"
if [ -z "$delta_line" ]; then
  echo "$delta_out"
  echo "FAIL: no RLMUL_COUNTERS line in BM_EvaluateDelta output"
  exit 1
fi
dget() {
  printf '%s\n' "$delta_line" | tr ' ' '\n' | grep "^$1=" | head -n 1 \
    | cut -d= -f2
}
dhits="$(dget eval_delta_hits)"
dcone="$(dget eval_delta_cone_frac)"
if [ -z "$dhits" ] || [ "$dhits" -lt 1 ]; then
  echo "$delta_line"
  echo "FAIL: expected eval_delta_hits >= 1, got '${dhits:-missing}'"
  exit 1
fi
if [ -z "$dcone" ] || [ "$dcone" -gt 100 ]; then
  echo "$delta_line"
  echo "FAIL: expected eval_delta_cone_frac in [0,100], got '${dcone:-missing}'"
  exit 1
fi
echo "PASS: delta evaluation smoke (eval_delta_hits=$dhits," \
     "eval_delta_cone_frac=$dcone)"

# -- NN kernel smoke: run the tensor benches in both GEMM modes ------------
# (RLMUL_GEMM=naive must stay a working oracle path) and check the nn
# counters show GEMM work was actually routed through the kernel layer.
nn_filter='BM_Gemm/n:128|BM_Conv2dFwd|BM_Conv2dBwd|BM_TinyNetForwardBackward'
for mode in blocked naive; do
  nn_out="$(RLMUL_GEMM="$mode" "$bench" \
            --benchmark_filter="$nn_filter" \
            --benchmark_min_time=0.01 2>&1)"
  nn_status=$?
  if [ "$nn_status" -ne 0 ]; then
    echo "$nn_out"
    echo "FAIL: bench_micro (RLMUL_GEMM=$mode) exited with status $nn_status"
    exit 1
  fi
  nn_line="$(printf '%s\n' "$nn_out" | grep '^RLMUL_COUNTERS ' | tail -n 1)"
  if [ -z "$nn_line" ]; then
    echo "$nn_out"
    echo "FAIL: no RLMUL_COUNTERS line (RLMUL_GEMM=$mode)"
    exit 1
  fi
  flops="$(printf '%s\n' "$nn_line" | tr ' ' '\n' \
           | grep '^nn_flops=' | head -n 1 | cut -d= -f2)"
  if [ -z "$flops" ] || [ "$flops" -lt 1 ]; then
    echo "$nn_line"
    echo "FAIL: expected nn_flops >= 1 with RLMUL_GEMM=$mode," \
         "got '${flops:-missing}'"
    exit 1
  fi
  echo "PASS: nn benches (RLMUL_GEMM=$mode, nn_flops=$flops)"
done
