#!/usr/bin/env bash
# Tier-1 CI: a clean release build (warnings are errors) with the full
# ctest suite, then a ThreadSanitizer build that runs the parallel-sweep
# tests and the propagation digest suite to prove sweep parallelism — the
# one parallel mode; each simulation is a serial event loop — is race-free
# (not just accidentally ordered), then an ASan+UBSan build that runs the
# fault-injection and simulator-edge suites — the code paths that tear down
# in-flight state mid-run and are therefore the likeliest source of
# lifetime/indexing bugs — plus the determinism-digest and simulator suites,
# whose healthy runs take and return VOQ cells from the growing cell pool
# on every packet (a stale cell reference is a use-after-free), and then an
# end-to-end kill/resume drill on d2net_campaign with campaigns/fig6.json
# under parallel sweeps: journal a sweep, truncate the journal mid-file with
# a torn final line (what a SIGKILL leaves behind), resume, and require the
# resumed --json output to be byte-identical to an uninterrupted run (see
# docs/durable_sweeps.md).
#
# Stages 2 and 3 additionally run campaigns/transient_faults.json (whose
# detection-delay sweep exercises modeled fault detection + link-state
# propagation, see docs/resilience.md) under TSan and ASan+UBSan, and stage
# 2 runs campaigns/fig6.json on the flow engine and campaigns/smoke.json
# (whose exchange rows share the sweep's thread pool) under --jobs=4.
#
# Stage 5 is a warn-only perf smoke: bench_micro_core --json against the
# committed BENCH_core.json baseline with a +/-15% band. It prints a
# regression table and never fails the build (CI machines are noisy; the
# committed baseline is refreshed deliberately, see docs/perf.md). The band
# applies only when the host fingerprint (usable cores and CPU model)
# matches the baseline's; on any other host the table is informational.
# Each timing is first divided by the host drift: the ratio of the host
# probe's time now to its time in the baseline (ns_host_probe, the same
# work as perfbench's probe, which runs no simulator code).
# voq_cells_peak (peak live VOQ cells of a fixed run) and
# packet_pool_peak_bytes (that run's peak packet-pool slots times
# sizeof(Packet)) are deterministic, so any increase over the baseline is
# reported on every host.
# The same stage runs the benchmark's own tests (perfbench/test_*.py),
# which build perfbench_rep into .bench_build/ and fail the build.
#
# Stage 6 enforces the campaign porting contract (docs/campaigns.md): every
# committed spec under campaigns/ must --dry-run clean, a malformed spec
# (and a bad flag to bench_ablation_analytic) must exit 2 with one error
# line, and every spec named in
# campaigns/ci_digests.txt must produce normalised --json output whose
# sha256 equals its committed digest (every figure and ablation spec; the
# transient_faults propagation sweep's convergence times also get a
# warn-only +/-20% smoke against BENCH_convergence.json). A mixed
# load/fault/exchange campaign must survive a simulated SIGKILL (journal
# truncated mid-file with a torn final line) and resume to byte-identical
# output, and --status must count the cut journal's points exactly.
#
#   scripts/ci.sh            # all stages, build trees under build-ci*/
#   SKIP_TSAN=1 scripts/ci.sh
#   SKIP_ASAN=1 scripts/ci.sh
#   SKIP_RESUME=1 scripts/ci.sh
#   SKIP_PERF=1 scripts/ci.sh
#   SKIP_CAMPAIGN=1 scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "=== stage 1: build (-Wall -Wextra -Werror) + full test suite ==="
cmake -B build-ci -S . -DD2NET_WERROR=ON >/dev/null
cmake --build build-ci -j "$JOBS"
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

if [[ "${SKIP_TSAN:-0}" != "1" ]]; then
  echo "=== stage 2: ThreadSanitizer determinism check ==="
  cmake -B build-ci-tsan -S . -DD2NET_SANITIZE=thread >/dev/null
  cmake --build build-ci-tsan -j "$JOBS" --target test_sweep_runner \
    --target test_determinism_digest
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/tests/test_sweep_runner
  # Modeled fault propagation: its pinned digest and the transient-faults
  # campaign (detection-delay sweep included, points run concurrently)
  # under TSan too.
  cmake --build build-ci-tsan -j "$JOBS" --target d2net_campaign
  TSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-tsan/tests/test_determinism_digest --gtest_filter='*Propagation*'
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/bench/d2net_campaign \
    --spec=campaigns/transient_faults.json \
    --duration-us=2 --warmup-us=0.5 --seed=3 >/dev/null
  # Flow-engine sweep under --jobs: each point is an independent FlowSim,
  # so a race can only come from the sweep fan-out sharing state it must
  # not (scratch buffers, tables, the journal writer).
  # Batched rate ticks: exact recompute past the knee walks a
  # network-spanning component per event, which TSan's slowdown turns
  # into tens of minutes; the thread structure under test is identical.
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/bench/d2net_campaign \
    --spec=campaigns/fig6.json --engine=flow --flow-interval-us=0.2 \
    --duration-us=2 --warmup-us=0.5 --seed=3 --jobs=4 >/dev/null
  # Exchange rows run on the same pool as sweep points and append to the
  # journal from pool threads.
  TSAN_OPTIONS="halt_on_error=1" ./build-ci-tsan/bench/d2net_campaign \
    --spec=campaigns/smoke.json --journal=build-ci-tsan/smoke-journal \
    --duration-us=2 --warmup-us=0.5 --seed=3 --jobs=4 >/dev/null
fi

if [[ "${SKIP_ASAN:-0}" != "1" ]]; then
  echo "=== stage 3: ASan+UBSan fault-injection / sim-edge / VOQ-pool check ==="
  cmake -B build-ci-asan -S . -DD2NET_SANITIZE=address,undefined >/dev/null
  cmake --build build-ci-asan -j "$JOBS" --target test_faults --target test_sim_edge \
    --target test_determinism_digest --target test_sim
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_faults
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_sim_edge
  # Healthy runs grow and recycle the VOQ cell pool on every packet: the
  # pinned-digest and simulator suites cover that path end to end.
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_determinism_digest
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_sim
  # Propagation tears down in-flight state on stale local views (salvage
  # resamples, misroute detours, drains at detection time) — exactly the
  # lifetime-bug surface this stage exists for.
  cmake --build build-ci-asan -j "$JOBS" --target d2net_campaign
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/bench/d2net_campaign --spec=campaigns/transient_faults.json \
    --duration-us=2 --warmup-us=0.5 --seed=3 >/dev/null
  # The flow engine's slot-recycled flow table and component-local
  # waterfill are all index arithmetic over flat arrays — the same
  # indexing-bug surface. Its test suite covers create/destroy churn,
  # incremental recompute, and full sweeps through the bench layer.
  cmake --build build-ci-asan -j "$JOBS" --target test_flow_engine
  ASAN_OPTIONS="halt_on_error=1" UBSAN_OPTIONS="halt_on_error=1" \
    ./build-ci-asan/tests/test_flow_engine
fi

if [[ "${SKIP_RESUME:-0}" != "1" ]]; then
  echo "=== stage 4: crash/resume durability drill (campaigns/fig6.json) ==="
  cmake --build build-ci -j "$JOBS" --target d2net_campaign
  BENCH=./build-ci/bench/d2net_campaign
  WORK=build-ci/resume-drill
  rm -rf "$WORK" && mkdir -p "$WORK"
  # Default --jobs: the one resume drill that runs under parallel sweeps.
  ARGS=(--spec=campaigns/fig6.json --duration-us=2 --warmup-us=0.5 --seed=3)
  # wall_seconds / events_per_second are genuine wall-clock measurements and
  # legitimately differ between runs; everything else must match exactly.
  normalize() { sed -E 's/"(wall_seconds|events_per_second)": [0-9.eE+-]+/"\1": X/g' "$1"; }

  "$BENCH" "${ARGS[@]}" --json="$WORK/clean.json" >/dev/null
  "$BENCH" "${ARGS[@]}" --journal="$WORK/journal-full" --json="$WORK/full.json" >/dev/null

  # Simulated crash: copy the full journal, keep only the first 40% of its
  # lines, and append a torn final line (no trailing newline).
  cp -r "$WORK/journal-full" "$WORK/journal-cut"
  LINES=$(wc -l < "$WORK/journal-cut/journal.jsonl")
  KEEP=$(( LINES * 2 / 5 )); [[ "$KEEP" -lt 1 ]] && KEEP=1
  head -n "$KEEP" "$WORK/journal-full/journal.jsonl" > "$WORK/journal-cut/journal.jsonl"
  printf '{"key": "torn' >> "$WORK/journal-cut/journal.jsonl"

  "$BENCH" "${ARGS[@]}" --journal="$WORK/journal-cut" --resume \
    --json="$WORK/resumed.json" >/dev/null

  diff <(normalize "$WORK/resumed.json") <(normalize "$WORK/full.json")
  diff <(normalize "$WORK/resumed.json") <(normalize "$WORK/clean.json")
  echo "resume drill OK: resumed output is byte-identical ($KEEP/$LINES journal lines survived the crash)"
fi

if [[ "${SKIP_PERF:-0}" != "1" ]]; then
  echo "=== stage 5: perf smoke (warn-only, vs committed BENCH_core.json) ==="
  # Extract one numeric / string field from a flat BENCH_*.json, and the
  # host fingerprint a snapshot was recorded on.
  field() { sed -nE "s/.*\"$2\": ([0-9.]+).*/\1/p" "$1"; }
  sfield() { sed -nE "s/.*\"$2\": \"([^\"]*)\".*/\1/p" "$1"; }
  fingerprint() { echo "$(field "$1" cores) core(s), $(sfield "$1" cpu_model)"; }
  if [[ ! -f BENCH_core.json ]]; then
    echo "perf smoke skipped: no committed BENCH_core.json baseline"
  else
    cmake --build build-ci -j "$JOBS" --target bench_micro_core
    ./build-ci/bench/bench_micro_core --json=build-ci/BENCH_core.json >/dev/null
    base_host=$(fingerprint BENCH_core.json)
    cur_host=$(fingerprint build-ci/BENCH_core.json)
    same_host=0
    [[ "$base_host" == "$cur_host" ]] && same_host=1
    echo "baseline host: $base_host"
    echo "current host:  $cur_host"
    # Host drift: the host probe (no simulator code) ran base_probe ns when
    # the baseline was recorded and cur_probe ns now. Each timing ratio is
    # divided by the probe's ratio before the band applies.
    base_probe=$(field BENCH_core.json ns_host_probe)
    cur_probe=$(field build-ci/BENCH_core.json ns_host_probe)
    drift=1
    if [[ -n "$base_probe" && -n "$cur_probe" ]]; then
      drift=$(awk -v b="$base_probe" -v c="$cur_probe" 'BEGIN { printf "%.4f", c / b }')
      awk -v b="$base_probe" -v c="$cur_probe" -v d="$drift" 'BEGIN {
        printf "host drift: probe %.0f ns now vs %.0f ns at baseline (x%.3f); timing deltas below are drift-corrected\n", c, b, d
      }'
    else
      echo "host drift: unknown (ns_host_probe missing), timing deltas are raw"
    fi
    printf '%-26s %14s %14s %8s  %s\n' metric baseline current delta verdict
    for key in events_per_sec_minimal events_per_sec_ugal ns_voq_push_pop \
               voq_cells_peak packet_pool_peak_bytes ns_pool_alloc_release ns_csr_next_hops \
               ms_minimal_table_sf13 ms_minimal_table_rebuild_sf13 \
               ns_event_queue_wheel ns_event_queue_wheel_dense; do
      base=$(field BENCH_core.json "$key")
      cur=$(field build-ci/BENCH_core.json "$key")
      if [[ -z "$base" || -z "$cur" ]]; then
        printf '%-26s %14s %14s %8s  %s\n' "$key" "${base:--}" "${cur:--}" - \
          "MISSING (baseline schema drift?)"
        continue
      fi
      # events/sec regress downward, ns/op and ms regress upward; the
      # deterministic voq_cells_peak and packet_pool_peak_bytes flag any
      # increase on every host.
      awk -v key="$key" -v base="$base" -v cur="$cur" -v same="$same_host" \
          -v drift="$drift" 'BEGIN {
        # A drift-slowed host lowers events/sec and raises ns and ms.
        adj = cur
        if (key ~ /^events_per_sec/) adj = cur * drift
        else if (key ~ /^(ns|ms)_/) adj = cur / drift
        delta = base > 0 ? (adj - base) / base * 100 : 0
        worse = (key ~ /^events_per_sec/) ? -delta : delta
        verdict = worse > 15 ? "REGRESSION (warn-only)" : "ok"
        if (same != 1) verdict = "informational (host differs)"
        if (key ~ /^(voq_cells_peak|packet_pool_peak_bytes)$/)
          verdict = cur + 0 > base + 0 ? "INCREASE (warn-only)" : "ok"
        printf "%-26s %14s %14s %+7.1f%%  %s\n", key, base, cur, delta, verdict
      }'
    done
    echo "perf smoke done (informational; refresh the baseline via" \
         "bench_micro_core --json=BENCH_core.json on a quiet machine)"
  fi
  if [[ ! -f BENCH_flow.json ]]; then
    echo "flow perf smoke skipped: no committed BENCH_flow.json baseline"
  else
    # Flow-engine smoke (docs/flow_engine.md): bench-scale scenarios only
    # (--skip-large — the q=43 fields in the committed baseline are
    # refreshed manually with the full run). +/-20% band on flows/s,
    # warn-only and only on the baseline's host: flow scenarios are
    # end-to-end wall timings, noisier than micro-op loops. The accepted
    # throughputs are deterministic and checked on every host.
    cmake --build build-ci -j "$JOBS" --target bench_micro_flow
    ./build-ci/bench/bench_micro_flow --skip-large \
      --json=build-ci/BENCH_flow.json >/dev/null
    base_host=$(fingerprint BENCH_flow.json)
    cur_host=$(fingerprint build-ci/BENCH_flow.json)
    same_host=0
    [[ "$base_host" == "$cur_host" ]] && same_host=1
    echo "baseline host: $base_host"
    echo "current host:  $cur_host"
    printf '%-26s %14s %14s %8s  %s\n' metric baseline current delta verdict
    for key in flows_per_sec_exact flows_per_sec_batched \
               accepted_exact accepted_batched; do
      base=$(field BENCH_flow.json "$key")
      cur=$(field build-ci/BENCH_flow.json "$key")
      if [[ -z "$base" || -z "$cur" ]]; then
        printf '%-26s %14s %14s %8s  %s\n' "$key" "${base:--}" "${cur:--}" - \
          "MISSING (baseline schema drift?)"
        continue
      fi
      # flows/sec regress downward; accepted throughput is deterministic
      # for a given seed, so any drift there is a model change, not noise.
      awk -v key="$key" -v base="$base" -v cur="$cur" -v same="$same_host" 'BEGIN {
        delta = base > 0 ? (cur - base) / base * 100 : 0
        worse = (key ~ /^flows_per_sec/) ? -delta : (delta < 0 ? -delta : delta)
        verdict = worse > 20 ? "REGRESSION (warn-only)" : "ok"
        if (key ~ /^flows_per_sec/ && same != 1) verdict = "informational (host differs)"
        if (key ~ /^accepted/ && (delta > 0.01 || delta < -0.01))
          verdict = "DRIFT (deterministic field moved; warn-only)"
        printf "%-26s %14s %14s %+7.1f%%  %s\n", key, base, cur, delta, verdict
      }'
    done
    echo "flow perf smoke done (informational; refresh via" \
         "bench_micro_flow --json=BENCH_flow.json on a quiet machine)"
  fi
  echo "--- benchmark self-tests (perfbench/test_*.py) ---"
  python3 -m unittest discover -s perfbench -p 'test_*.py'
fi

if [[ "${SKIP_CAMPAIGN:-0}" != "1" ]]; then
  echo "=== stage 6: declarative campaign drill (specs vs committed digests) ==="
  cmake --build build-ci -j "$JOBS" --target d2net_campaign bench_ablation_analytic
  CAMPAIGN=./build-ci/bench/d2net_campaign
  WORK=build-ci/campaign-drill
  rm -rf "$WORK" && mkdir -p "$WORK"
  # --jobs=1 because the committed digests cover the top-level "jobs" JSON
  # field too.
  ARGS=(--duration-us=2 --warmup-us=0.5 --seed=3 --jobs=1)
  normalize() { sed -E 's/"(wall_seconds|events_per_second)": [0-9.eE+-]+/"\1": X/g' "$1"; }

  # Every committed spec must parse, validate and expand cleanly.
  for spec in campaigns/*.json; do
    "$CAMPAIGN" --spec="$spec" --dry-run >/dev/null
  done

  # A bad flag or spec is a usage error: one "error:" line and exit 2,
  # never an abort.
  printf '{"name": "bad", "systems": [{"label": "S", "topology": "sf:q=5"}],
    "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "mni"}]}]}' \
    > "$WORK/malformed.json"
  set +e
  "$CAMPAIGN" --spec="$WORK/malformed.json" --dry-run 2> "$WORK/malformed.err"
  STATUS=$?
  set -e
  [[ "$STATUS" -eq 2 ]]
  grep -q "^error: .*unknown routing 'mni'" "$WORK/malformed.err"
  echo "malformed spec rejected with exit 2: $(cat "$WORK/malformed.err")"
  # A bad topology parameter reads as a spec error: no source path, no
  # stringified condition.
  printf '{"name": "bad", "systems": [{"label": "D", "topology": "dragonfly:r=16"}],
    "sweeps": [{"title": "u", "loads": [0.5], "series": [{"routing": "min"}]}]}' \
    > "$WORK/badtopo.json"
  set +e
  "$CAMPAIGN" --spec="$WORK/badtopo.json" --dry-run 2> "$WORK/badtopo.err"
  STATUS=$?
  set -e
  [[ "$STATUS" -eq 2 ]]
  [[ "$(wc -l < "$WORK/badtopo.err")" -eq 1 ]]
  grep -qx "error: campaign system 'D': balanced Dragonfly needs radix with (r+1) % 4 == 0, got r = 16" \
    "$WORK/badtopo.err"
  echo "bad topology rejected with exit 2: $(cat "$WORK/badtopo.err")"
  # Every other bench and example CLI shares that contract.
  set +e
  ./build-ci/bench/bench_ablation_analytic --json=x.json 2> "$WORK/badflag.err"
  STATUS=$?
  set -e
  [[ "$STATUS" -eq 2 ]]
  grep -qx "error: unknown flag --json" "$WORK/badflag.err"
  echo "bad flag rejected with exit 2: $(cat "$WORK/badflag.err")"
  # Out-of-range values of the shared bench flags read the same way.
  for bad in "--jobs=-1|--jobs must be >= 0" \
             "--metrics-sample-us=0|--metrics-sample-us must be > 0"; do
    set +e
    "$CAMPAIGN" --spec=campaigns/smoke.json --dry-run "${bad%%|*}" 2> "$WORK/badvalue.err"
    STATUS=$?
    set -e
    [[ "$STATUS" -eq 2 ]]
    [[ "$(wc -l < "$WORK/badvalue.err")" -eq 1 ]]
    grep -qx "error: ${bad#*|}" "$WORK/badvalue.err"
    echo "bad value rejected with exit 2: $(cat "$WORK/badvalue.err")"
  done
  # The flow engine runs open-loop load sweeps only: --engine=flow on a spec
  # with an exchange or fault sweep, or with --metrics, is refused before
  # --dry-run prints.
  for bad in "fig13||\$.sweeps[0]: the flow engine does not run exchanges; use engine=packet" \
             "transient_faults||\$.sweeps[0].fault: the flow engine does not support fault injection; drop the fault schedule or use engine=packet" \
             "fig6|--metrics|--metrics: the flow engine does not support per-port/VC metrics; use engine=packet"; do
    spec="${bad%%|*}"; rest="${bad#*|}"; extra="${rest%%|*}"; msg="${rest#*|}"
    set +e
    "$CAMPAIGN" --spec="campaigns/$spec.json" --dry-run --engine=flow $extra \
      > /dev/null 2> "$WORK/badengine.err"
    STATUS=$?
    set -e
    [[ "$STATUS" -eq 2 ]]
    [[ "$(wc -l < "$WORK/badengine.err")" -eq 1 ]]
    grep -qxF "error: campaigns/$spec.json: $msg" "$WORK/badengine.err"
    echo "flow engine refused with exit 2: $(cat "$WORK/badengine.err")"
  done

  # Porting contract: each digested spec's normalised --json hashes to its
  # committed line. Exchange payloads at their committed sizes are minutes
  # of simulation; every digest is recorded with them shrunk to 256 B (one
  # packet), except ablation_a2a_schedule's at 512 B: its sequential and
  # interleaved schedules differ only once a message spans two packets.
  shrink() {
    local bytes=256
    [[ "$1" == ablation_a2a_schedule ]] && bytes=512
    sed -E "s/\"bytes_per_pair(_full)?\": [0-9]+/\"bytes_per_pair\\1\": $bytes/g" \
      "campaigns/$1.json"
  }
  MISMATCHES=0
  while read -r -u 3 name want; do
    [[ -z "$name" || "$name" == \#* ]] && continue
    spec="$WORK/$name-small.json"
    shrink "$name" > "$spec"
    "$CAMPAIGN" --spec="$spec" "${ARGS[@]}" --json="$WORK/$name.json" >/dev/null
    got=$(normalize "$WORK/$name.json" | sha256sum | cut -d' ' -f1)
    if [[ "$got" != "$want" ]]; then
      echo "digest MISMATCH for $name: committed $want, got $got"
      MISMATCHES=$(( MISMATCHES + 1 ))
    fi
  done 3< campaigns/ci_digests.txt
  [[ "$MISMATCHES" -eq 0 ]]
  echo "campaign porting contract OK: every spec matches its committed digest"

  # Warn-only convergence smoke: detection-to-consistency times of the
  # modeled control plane vs the committed reference, +/-20% band. The
  # values are simulated time and fully deterministic for these args, so
  # drift means the propagation protocol model changed — refresh
  # BENCH_convergence.json deliberately when that is intended.
  if [[ -f BENCH_convergence.json ]]; then
    mapfile -t ref < <(grep -oE '"consistency_us_mean": [0-9.]+' BENCH_convergence.json \
      | awk '{print $2}')
    mapfile -t cur < <(grep -oE '"consistency_us_mean": [0-9.]+' \
      "$WORK/transient_faults.json" | awk '{print $2}')
    if [[ "${#ref[@]}" -eq 0 || "${#ref[@]}" -ne "${#cur[@]}" ]]; then
      echo "convergence smoke: point count mismatch (ref ${#ref[@]}," \
           "current ${#cur[@]}) — refresh BENCH_convergence.json (warn-only)"
    else
      for i in $(seq 0 $(( ${#ref[@]} - 1 ))); do
        awk -v r="${ref[$i]}" -v c="${cur[$i]}" -v i="$i" 'BEGIN {
          d = r > 0 ? (c - r) / r * 100 : (c > 0 ? 999 : 0)
          v = (d > 20 || d < -20) ? "DRIFT (warn-only)" : "ok"
          printf "convergence smoke point %d: ref=%.3fus cur=%.3fus %+.1f%%  %s\n", i, r, c, d, v
        }'
      done
      echo "convergence smoke done (informational; see docs/resilience.md)"
    fi
  else
    echo "convergence smoke skipped: no committed BENCH_convergence.json"
  fi

  # Kill/resume drill on the smoke campaign (mixed load, per-system fault
  # and exchange steps in one journal).
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --json="$WORK/smoke-clean.json" >/dev/null
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$WORK/smoke-full" --json="$WORK/smoke-full.json" >/dev/null
  diff <(normalize "$WORK/smoke-full.json") <(normalize "$WORK/smoke-clean.json")
  cp -r "$WORK/smoke-full" "$WORK/smoke-cut"
  LINES=$(wc -l < "$WORK/smoke-cut/journal.jsonl")
  KEEP=$(( LINES * 2 / 5 )); [[ "$KEEP" -lt 1 ]] && KEEP=1
  head -n "$KEEP" "$WORK/smoke-full/journal.jsonl" > "$WORK/smoke-cut/journal.jsonl"
  printf '{"key": "torn' >> "$WORK/smoke-cut/journal.jsonl"
  # --status reads the cut journal back per step, without writing to it:
  # the KEEP surviving lines are journaled points, the rest are missing.
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" --journal="$WORK/smoke-cut" \
    --status > "$WORK/status.txt"
  cat "$WORK/status.txt"
  grep -qx "$KEEP of $LINES point(s) journaled, $(( LINES - KEEP )) missing" "$WORK/status.txt"
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" \
    --journal="$WORK/smoke-cut" --resume --json="$WORK/smoke-resumed.json" >/dev/null
  diff <(normalize "$WORK/smoke-resumed.json") <(normalize "$WORK/smoke-clean.json")
  echo "campaign resume drill OK ($KEEP/$LINES journal lines survived the crash)"

  # A directory without a journal is --status exit 1.
  mkdir -p "$WORK/no-journal"
  set +e
  "$CAMPAIGN" --spec=campaigns/smoke.json "${ARGS[@]}" --journal="$WORK/no-journal" --status
  STATUS=$?
  set -e
  [[ "$STATUS" -eq 1 ]]
  echo "status check OK: $KEEP/$LINES points journaled, empty directory exits 1"
fi

echo "CI OK"
