#!/usr/bin/env bash
# End-to-end exercise of crash-safe resume (DESIGN.md §15):
#
# Part 1 — wishbench campaign journal:
#   1. SIGKILL a `wishbench -journal` campaign mid-flight,
#   2. resume it and assert stdout is byte-identical to an
#      uninterrupted control run with resumed_frames > 0,
#   3. resume the completed campaign again and assert it runs
#      0 fresh simulations.
#
# Part 2 — stateless coordinator restart:
#   4. assert `wishsimd -coordinator -journal DIR` exits 2 (the
#      coordinator keeps no state),
#   5. SIGKILL a coordinator mid-campaign, restart it, rerun the
#      campaign, and assert the output is byte-identical to a local
#      run while the workers simulate each spec exactly once (summed
#      lab.fresh = the control's fresh count) and answer the rerun's
#      finished work from their memo tables (summed lab.mem_hits > 0).
#
# Runnable locally (./scripts/e2e_resume.sh) and from CI. Needs curl;
# uses jq when present and a grep fallback when not.
set -euo pipefail

cd "$(dirname "$0")/.."

EXP=${E2E_EXP:-fig10}
SCALE=${E2E_SCALE:-0.05}
BASE_PORT=${E2E_PORT:-18201}
COORD_PORT=$((BASE_PORT + 2))
COORD="http://127.0.0.1:${COORD_PORT}"

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do
    [[ -n "$pid" ]] && kill -9 "$pid" 2>/dev/null || true
  done
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "e2e_resume: FAIL: $*" >&2
  for log in "$WORK"/*.log "$WORK"/*.err; do
    [[ -f "$log" ]] || continue
    echo "---- $log ----" >&2
    cat "$log" >&2 || true
  done
  exit 1
}

wait_healthy() {
  local url=$1 what=$2
  for i in $(seq 1 50); do
    if curl -fsS "$url/healthz" >/dev/null 2>&1; then return 0; fi
    [[ $i -eq 50 ]] && fail "$what did not become healthy within 10s"
    sleep 0.2
  done
}

worker_sum() { # worker_sum FIELD — lab.FIELD summed over the workers' /metrics
  local total=0 json v url
  for url in "${WORKER_URLS[@]}"; do
    json=$(curl -fsS "$url/metrics")
    if command -v jq >/dev/null 2>&1; then
      v=$(printf '%s' "$json" | jq -r ".lab.$1")
    else
      v=$(printf '%s' "$json" | grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2)
    fi
    total=$((total + v))
  done
  echo "$total"
}

echo "== build =="
go build -o "$WORK/wishsimd" ./cmd/wishsimd
go build -o "$WORK/wishbench" ./cmd/wishbench

echo "== control run (-exp $EXP -scale $SCALE, no journal) =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  >"$WORK/control.out" 2>"$WORK/control.err"

echo "== part 1: SIGKILL a journaled campaign mid-flight =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" -j 1 -v \
  -journal "$WORK/journal" >"$WORK/killed.out" 2>"$WORK/killed.err" &
BENCH_PID=$!
disown "$BENCH_PID" # keep bash from printing "Killed" when SIGKILL reaps it
PIDS+=("$BENCH_PID")
# With -j 1 the campaign is serial: when the N-th "ran" progress line
# appears, result N-1 is already journaled (append is fsync'd before
# the next simulation starts). Kill after the 2nd line: at least one
# result frame is durable and the campaign is still mid-flight.
for i in $(seq 1 600); do
  if [[ $(grep -c " ran " "$WORK/killed.err" 2>/dev/null || true) -ge 2 ]]; then break; fi
  [[ $i -eq 600 ]] && fail "campaign never completed 2 simulations within 60s"
  sleep 0.1
done
kill -9 "$BENCH_PID" 2>/dev/null || true
echo "campaign SIGKILLed after ≥1 journaled result"

JFILE=$(ls "$WORK/journal"/campaign-*.wbj 2>/dev/null | head -1)
[[ -n "$JFILE" ]] || fail "no journal file was created"

echo "== part 1: resume =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  -journal "$WORK/journal" >"$WORK/resumed.out" 2>"$WORK/resumed.err"
cmp "$WORK/control.out" "$WORK/resumed.out" \
  || fail "resumed stdout differs from the uninterrupted control run"
grep -Eq 'journal .*resumed_frames=[1-9]' "$WORK/resumed.err" \
  || fail "resume replayed no frames (expected resumed_frames > 0)"
echo "resumed run is byte-identical with $(grep -Eo 'resumed_frames=[0-9]+' "$WORK/resumed.err" | head -1)"

echo "== part 1: second resume simulates nothing =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -cache-dir "" \
  -journal "$WORK/journal" >"$WORK/resumed2.out" 2>"$WORK/resumed2.err"
cmp "$WORK/control.out" "$WORK/resumed2.out" \
  || fail "second resume stdout differs from the control run"
grep -q "0 fresh simulations" "$WORK/resumed2.err" \
  || fail "second resume of a complete campaign ran fresh simulations"
echo "second resume: 0 fresh simulations, byte-identical"

echo "== part 2: the coordinator refuses -journal =="
set +e
"$WORK/wishsimd" -coordinator -worker http://127.0.0.1:1 \
  -journal "$WORK/cjournal" >"$WORK/cjournal.err" 2>&1
rc=$?
set -e
[[ $rc -eq 2 ]] || fail "wishsimd -coordinator -journal exited $rc, want 2"
grep -q "keeps no state" "$WORK/cjournal.err" \
  || fail "wishsimd -coordinator -journal did not say why it refused"
echo "coordinator -journal refused with exit 2"

echo "== part 2: start 2 workers + coordinator =="
WORKER_URLS=()
for i in 0 1; do
  port=$((BASE_PORT + i))
  "$WORK/wishsimd" -addr "127.0.0.1:${port}" -cache-dir "" \
    -drain-timeout 60s >"$WORK/worker$i.log" 2>&1 &
  pid=$!
  disown "$pid"
  PIDS+=("$pid")
  WORKER_URLS+=("http://127.0.0.1:${port}")
done
for i in 0 1; do
  wait_healthy "${WORKER_URLS[$i]}" "worker $i"
done

start_coordinator() {
  "$WORK/wishsimd" -coordinator \
    -worker "$(IFS=,; echo "${WORKER_URLS[*]}")" \
    -addr "127.0.0.1:${COORD_PORT}" -probe-interval 500ms \
    -drain-timeout 60s >>"$WORK/coordinator.log" 2>&1 &
  COORD_PID=$!
  disown "$COORD_PID"
  PIDS+=("$COORD_PID")
  wait_healthy "$COORD" "coordinator"
}
start_coordinator

echo "== part 2: SIGKILL the coordinator mid-campaign =="
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$COORD" \
  >"$WORK/ckilled.out" 2>"$WORK/ckilled.err" &
CBENCH_PID=$!
disown "$CBENCH_PID"
PIDS+=("$CBENCH_PID")
for i in $(seq 1 600); do
  if [[ $(worker_sum fresh) -ge 1 ]]; then break; fi
  [[ $i -eq 600 ]] && fail "workers finished no simulation within 60s"
  sleep 0.1
done
kill -9 "$COORD_PID" 2>/dev/null || true
wait "$CBENCH_PID" 2>/dev/null || true # client fails with the coordinator down
echo "coordinator SIGKILLed after the workers finished $(worker_sum fresh) simulations"

echo "== part 2: restart the coordinator and rerun =="
start_coordinator
"$WORK/wishbench" -exp "$EXP" -scale "$SCALE" -server "$COORD" \
  >"$WORK/cresumed.out" 2>"$WORK/cresumed.err"
cmp "$WORK/control.out" "$WORK/cresumed.out" \
  || fail "post-restart cluster stdout differs from the local control run"
WANT=$(grep -Eo '[0-9]+ fresh simulations' "$WORK/control.err" | head -1 | cut -d' ' -f1)
[[ -n "$WANT" ]] || fail "control run printed no fresh-simulation count"
FRESH=$(worker_sum fresh)
[[ "$FRESH" -eq "$WANT" ]] \
  || fail "workers ran $FRESH fresh simulations across the restart, want $WANT (each spec once)"
MEM=$(worker_sum mem_hits)
[[ "$MEM" -ge 1 ]] || fail "workers' summed mem_hits is $MEM after the rerun, want >= 1"
echo "post-restart run is byte-identical; workers simulated $FRESH specs once each, mem_hits=$MEM"

echo "e2e_resume: PASS"
