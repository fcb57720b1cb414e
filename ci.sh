#!/usr/bin/env bash
# Tiered CI for the workspace. Hermetic: no network access required
# (all dependencies are path/vendored; .cargo/config.toml forces offline).
#
# Usage:
#   ci.sh                 run every stage (fmt build test lint race mcheck ft
#                         events overlap multileader chaos smoke perf)
#   ci.sh STAGE [...]     run only the named stage(s), in the given order
#   ci.sh --quick         inner-loop subset: fmt + build + test + 1-seed race
#                         + 1-cell mcheck + 1-seed ft + 1-seed events +
#                         overlap + 1-seed multileader + 1-seed chaos
#   ci.sh --list          print the stages with one-line descriptions
#
# Every run prints a per-stage wall-clock summary at exit, and a failing
# stage is named explicitly ("stage 'X' FAILED") so the log's last lines
# identify the culprit without scrolling.
#
# Stages:
#   fmt     cargo fmt --check
#   build   release build of the whole workspace, plus the hybench
#           benchmark crate (its own workspace, built from these sources)
#   test    cargo test --workspace (includes the pooled-executor
#           differential suite and the figure-golden regression tests)
#   lint    clippy, -D warnings (the workspace lint wall in Cargo.toml:
#           clippy::all + unsafe_op_in_unsafe_fn and the SAFETY-comment
#           requirement on every unsafe block)
#   race    happens-before race detector (MSIM_RACE=1, docs/race-detection.md):
#           the msim mutant-regression suite plus both conformance suites
#           with the detector armed — all collectives, all sync methods,
#           the full seed set — and a thread-per-rank differential pass.
#           Budget: vector-clock bookkeeping costs roughly 2x on
#           window-heavy suites; the whole stage is ~30 s on the CI
#           reference host, well under the test stage itself. `--quick`
#           keeps the stage on a 1-seed subset (MSIM_CONF_SEEDS=1).
#   mcheck  DPOR model checker (docs/model-checking.md): the mutant wall
#           (seeded envelope bugs — missing QUIESCE fence, reordered
#           flag release, dropped GO_ALL, schedule-divergent poll —
#           each must yield a shrunk certificate that replays
#           byte-identically per the executor capability matrix, while
#           the corrected programs explore clean in exactly one
#           schedule), the exhaustive sweep tests (every Hy* family x
#           3 sync methods + the k=2 multi-leader envelope at 2x2,
#           DPOR proves one schedule each), then the `mcheck` binary's
#           full sweep, gated by MCHECK_BUDGET_S. `--quick` trims the
#           binary sweep to one family x one sync (`mcheck --quick`).
#   ft      fault-tolerance gate (docs/fault-tolerance.md): the kill-
#           matrix conformance suite (every collective family x every
#           victim rank x 3 sync methods x regular+irregular layouts x
#           seeds, Shrink policy, exact shrunk-world oracles), the
#           runtime detector/drop/retry suite in both executor modes,
#           the BPMF/SUMMA app-level recovery tests, a timeout-storm
#           smoke (total blackout must surface as typed timeouts, not
#           hangs), and the recovery-latency micro (`ft --ci` writes
#           BENCH_ft.json, canonical-JSON round-trip enforced). Also
#           re-asserts the figure goldens and the 96-rank perf gate so
#           a *disarmed* run provably stays bit-identical: with no
#           FaultPlan the FT paths are never entered. `--quick` keeps
#           the matrix on a 1-seed subset (MSIM_FT_SEEDS=1).
#   events  event-calendar gate (docs/simulator.md): the msim calendar
#           differential suite (events ≡ pooled ≡ threads on results,
#           clocks, and traces across fuzz seeds, layouts, kills, FT
#           recovery) plus the hybrid-collective differential wall
#           (every Hy* family x 3 sync methods x regular+irregular
#           layouts x seeds, three executors bit-identical), then a
#           65536-rank phantom smoke on a single driver thread, gated
#           by EVENTS_BUDGET_S (wall-clock) and EVENTS_RSS_BUDGET_MB
#           (peak RSS). `--quick` trims the wall to a 1-seed subset
#           (MSIM_CONF_SEEDS=1).
#   overlap split-phase gate (docs/nonblocking.md): the iexecute
#           conformance suite (iexecute+wait bit-identical to execute
#           for every family x 3 sync methods x regular+irregular
#           layouts x seeds, executor-invariant in phantom mode, plus
#           the waitall/testany ordering properties), the app-level
#           overlap tests (SUMMA / CG / stencil overlapped variants
#           bitwise-match their blocking forms and beat them on virtual
#           time), and the overlap micro (`overlap --ci` writes a temp
#           artifact, canonical round-trip + per-app win bar enforced;
#           the committed BENCH_overlap.json must verify too).
#   multileader
#           k-leaders-per-node gate (docs/multileader.md): the k-leader
#           conformance wall (every HyK* family x k in {1,2,4} x 3 sync
#           methods x regular 4x6 + irregular layouts x seeds, three
#           executors bit-identical; k=1 bit-identical to the
#           single-leader handles on results, clocks, and traces;
#           race-detector-armed cooperative-fill rounds), then the
#           multileader micro (`multileader --ci` writes a temp
#           artifact, canonical round-trip + "k > 1 strictly wins
#           somewhere" + per-cell estimator agreement enforced; the
#           committed BENCH_multileader.json must verify too).
#           `--quick` keeps the wall on a 1-seed subset
#           (MSIM_CONF_SEEDS=1).
#   chaos   chaos soak (docs/fault-tolerance.md): seeded randomized
#           fault campaigns (kill→shrink→grow→kill again, correlated
#           node kills, a network partition blackholing the bridge
#           during recovery then healing, straggler-masked heartbeats)
#           driven through `run_elastic` and checked by an invariant
#           oracle after every campaign — per-round result agreement,
#           membership decodes to actives minus reported-dead plus
#           pool recruits, zero leaked windows / nonblocking interests,
#           and byte-identical per-seed replay. Also runs the
#           `--mutant-check` sensitivity probe: a deliberately armed
#           stale-grow bug (survivors keep the pre-grow communicator)
#           must be caught by the checker, proving the oracle is not
#           vacuous. Budgeted by CHAOS_BUDGET_S; `--quick` runs 1 seed.
#   smoke   pinned-seed fault-injection + autotune + tuning-table goldens
#   perf    wall-clock gate: `scale --ranks 96 --ci` (pooled, temp
#           artifact) and `scale --exec events --ranks 65536 --ci`
#           (calendar, temp artifact) each fail if measured wall-clock
#           exceeds their stored budget by >25%, and the 65536-rank
#           point also if its peak RSS (VmHWM, Linux) exceeds
#           EVENTS_RSS_BUDGET_MB by >25%; the committed
#           BENCH_scale.json must round-trip the canonical JSON
#           serializer byte-for-byte. Also asserts the detector-off
#           artifact is unaffected by the race feature. CI invocations
#           write to /tmp — only an explicit full `scale` run
#           regenerates the committed artifact (a lesson learned: a
#           default-path `--ci` smoke once clobbered the committed
#           sweep down to one 96-rank point).
#
# Perf budget bump procedure: the stored budgets below are wall-clock
# (seconds) of `scale --ranks 96` (SCALE_BUDGET_S, pooled) and
# `scale --exec events --ranks 65536` (EVENTS_BUDGET_S, calendar) on
# the CI reference host, with headroom for load noise, plus the peak
# RSS (MB) of that 65536-rank point (EVENTS_RSS_BUDGET_MB). If a gate
# fails and the slowdown or growth is *intended* (e.g. the simulator
# gained a feature that costs real time or per-rank memory), re-measure
# with
#   cargo run --release -p bench --bin scale -- --ranks 96
#   cargo run --release -p bench --bin scale -- --exec events --ranks 65536 \
#       --rss-budget-mb 1
# (the second prints the measured peak RSS in its failure line), round
# up generously, and update the budget in the same PR — never bump it
# to paper over an unexplained regression. Peak RSS is nearly
# deterministic, so its budget needs less headroom than the wall-clock
# ones; keep it below what the previous executor design measured. The full sweep
# (`scale` with no flags: pooled 48→4096 + events 8192→262144)
# regenerates the whole BENCH_scale.json trajectory and is worth
# re-running on executor changes (crates/bench/tests/artifact.rs pins
# its shape).
set -Eeuo pipefail
cd "$(dirname "$0")"

# --- failure attribution + per-stage timing ------------------------------
# `set -E` propagates the ERR trap into functions, so a failing command
# anywhere inside a stage names that stage before bash unwinds. The EXIT
# trap prints the wall-clock summary for every stage that completed —
# also on failure, so a slow-then-broken run still shows where the time
# went.
CURRENT_STAGE=""
DONE_STAGES=()
DONE_TIMES=()

on_err() {
    local status=$?
    if [ -n "$CURRENT_STAGE" ]; then
        echo "ci: stage '$CURRENT_STAGE' FAILED (exit $status)" >&2
    else
        echo "ci: FAILED (exit $status) outside any stage" >&2
    fi
}

on_exit() {
    if [ "${#DONE_STAGES[@]}" -gt 0 ]; then
        echo "ci: --- stage timing ---"
        local i total=0
        for i in "${!DONE_STAGES[@]}"; do
            printf 'ci: %-12s %5ss\n' "${DONE_STAGES[$i]}" "${DONE_TIMES[$i]}"
            total=$((total + DONE_TIMES[i]))
        done
        printf 'ci: %-12s %5ss\n' "total" "$total"
    fi
}

trap on_err ERR
trap on_exit EXIT

# Stored wall-clock budget (seconds) for the perf stage's 96-rank smoke.
# Measured ~0.01 s on the reference host; 1.0 s keeps the gate immune to
# load noise while still catching order-of-magnitude regressions (e.g.
# accidental thread-per-rank fallback or a syscall storm in the pool).
SCALE_BUDGET_S=1.0

# Stored wall-clock budget (seconds) for the 65536-rank event-calendar
# point (events + perf stages). Measured 2.2-2.6 s on a 2-core host
# (single driver thread) once communicator set-up became O(p) per
# communicator instead of O(p) per rank per call; the same host measured
# 13.3-13.6 s before. 10 s absorbs load noise, and the 25% slack puts the
# hard limit at 12.5 s, so an O(p^2) set-up or selection regression at
# this scale fails the gate.
EVENTS_BUDGET_S=10.0

# Stored peak-RSS budget (MB) for the same 65536-rank event-calendar
# point (events + perf stages). Measured 400.6 MB on a 2-core Linux host
# once both coroutine executors shared one lazily committed stack arena
# whose canaries share the neighbouring rank's first page (4 KiB
# committed per rank); the same host measured 657.6 MB before, when
# every canary committed a page of its own. With the 25% slack the hard
# limit is 600 MB, so a page-per-rank regression fails the gate.
EVENTS_RSS_BUDGET_MB=480

# Stored wall-clock budget (seconds) for the mcheck stage's exhaustive
# DPOR sweep (`mcheck --family all`: 8 families x 3 sync methods, real
# data, race detector armed). Measured ~1 s on the reference host; 30 s
# keeps the gate well clear of load noise while still catching a search
# blow-up (e.g. a lost happens-before edge turning one schedule into
# thousands). Bump procedure: if the sweep legitimately grows (a new
# family, a bigger default config), re-measure with
#   cargo run --release -p bench --bin mcheck -- --family all
# round up generously, and update this in the same PR — never bump it
# to paper over an unexplained schedule-count regression (the pinned
# counts in crates/core/tests/mcheck.rs would catch that first).
MCHECK_BUDGET_S=30

stage_fmt() {
    cargo fmt --check
}

stage_build() {
    cargo build --release --workspace
    # The benchmark is a workspace of its own that calls the library
    # crates directly (e.g. `linalg::gemm::gemm`), so an API change that
    # breaks it must fail here rather than at benchmark time.
    cargo build --release --manifest-path hybench/Cargo.toml
}

stage_test() {
    cargo test --workspace -q
}

stage_lint() {
    cargo clippy --workspace --all-targets -- -D warnings
}

# Seed subset for the race stage's conformance passes: the full eight in
# a normal run, one in `--quick` (set by the --quick branch below).
RACE_SEEDS=8

stage_race() {
    # Detector sensitivity: the seeded mutants must fire, clean code must
    # not (crates/msim/tests/race.rs pins both, in both executor modes).
    cargo test -q -p msim --test race
    # Zero false positives across the full collective matrix: both
    # conformance suites (all collectives x seeds x regular/irregular
    # clusters, hybrid suite additionally x 3 sync methods) plus the
    # detector-specific hybrid suite, all with the detector armed.
    MSIM_RACE=1 MSIM_CONF_SEEDS="$RACE_SEEDS" \
        cargo test -q -p collectives --test conformance
    MSIM_RACE=1 MSIM_CONF_SEEDS="$RACE_SEEDS" \
        cargo test -q -p hmpi-core --test conformance --test iconformance --test race_detect
    # Differential pass: the historical thread-per-rank executor must
    # reach the same verdicts (1-seed subset keeps this cheap).
    MSIM_RACE=1 MSIM_EXEC=threads MSIM_CONF_SEEDS=1 \
        cargo test -q -p hmpi-core --test race_detect
    MSIM_EXEC=threads cargo test -q -p msim --test race
}

# Arguments for the mcheck stage's binary sweep: the full 8-family x
# 3-sync grid in a normal run, one family x one sync in `--quick`.
MCHECK_ARGS=(--family all)

stage_mcheck() {
    # Mutant wall: each seeded envelope bug must produce a shrunk
    # replayable certificate (byte-identical across the executors that
    # support its violation class), the corrected programs must explore
    # clean in exactly one schedule, DPOR must beat naive enumeration
    # by >= 10x, and the committed certificate artifact must keep
    # replaying (crates/msim/tests/mcheck.rs pins all of it).
    cargo test -q -p msim --test mcheck
    # Exhaustive sweep tests: every Hy* family x 3 sync methods + the
    # k=2 multi-leader envelope, real data + armed race detector at
    # 2x2 — zero violations, exactly one schedule each.
    cargo test -q -p hmpi-core --test mcheck
    # The full DPOR sweep through the binary (exit is nonzero on any
    # violation), budget-gated — see the header for the bump procedure.
    local t0=$SECONDS
    cargo run --release -p bench --bin mcheck -- "${MCHECK_ARGS[@]}"
    local dt=$((SECONDS - t0))
    if [ "$dt" -gt "$MCHECK_BUDGET_S" ]; then
        echo "ci: mcheck sweep took ${dt}s, budget ${MCHECK_BUDGET_S}s (bump procedure in header)" >&2
        return 1
    fi
}

# Seed subset for the ft stage's kill matrix: four seeds in a normal
# run, one in `--quick` (set by the --quick branch below).
FT_SEEDS=4

stage_ft() {
    # Kill-matrix conformance under the Shrink policy: allgatherv /
    # allgather / bcast / allreduce each complete with the exact
    # shrunk-world result for any single victim, across sync methods,
    # layouts (incl. irregular [1,3,4]) and seeds. Also pins recovery
    # determinism (same-seed repeats and pooled-vs-threads agree byte
    # for byte), the Abort and Retry policies, and the recovery trace.
    MSIM_FT_SEEDS="$FT_SEEDS" cargo test -q -p hmpi-core --test ft
    # Runtime layer, both executor modes: dead-rank detection from a
    # parked wait, the timeout-storm smoke (drop_prob=1.0 blackout must
    # produce a typed Timeout promptly), seeded drop determinism with
    # transport retry, heartbeat piggybacking, agree/shrink semantics.
    cargo test -q -p msim --test ft
    MSIM_EXEC=threads cargo test -q -p msim --test ft
    # App-level recovery: BPMF reconverges to the serial RMSE and SUMMA
    # recomputes on the shrunk grid after a mid-run kill; the pooled
    # executor matches thread-per-rank on a leader-failover run.
    cargo test -q -p bpmf ft_bpmf
    cargo test -q -p summa ft_summa
    cargo test -q -p msim --test pooled pooled_matches_threads_on_leader_failover
    # Recovery-latency micro: emits BENCH_ft.json at the repo root and
    # fails unless the artifact round-trips the canonical serializer.
    cargo run --release -p bench --bin ft -- --ci
    # Disarmed bit-identity: with no FaultPlan the FT machinery must be
    # invisible — the figure goldens and the 96-rank perf gate (both
    # fault-free runs) must hold exactly as before this layer existed.
    cargo test -q -p bench --test regression
    cargo run --release -p bench --bin scale -- --ranks 96 --ci \
        --out /tmp/ci_scale_ft.json --budget-s "$SCALE_BUDGET_S"
}

# Seed subset for the events stage's differential wall: the full eight
# in a normal run, one in `--quick` (set by the --quick branch below).
EVENTS_SEEDS=8

stage_events() {
    # Calendar differential suite: events ≡ pooled ≡ threads on results,
    # virtual clocks, and canonical traces, plus the typed rejections
    # (events + real payloads / events + armed race detector fail fast).
    cargo test -q -p msim --test calendar
    # The hybrid-collective wall: every Hy* family, all 3 sync methods,
    # regular 4x6 + irregular [1,3,4] layouts, across the fuzz seeds —
    # three executors bit-identical.
    MSIM_CONF_SEEDS="$EVENTS_SEEDS" cargo test -q -p hmpi-core --test events_conformance
    # Figure-golden leg: fig 7/8/9 virtual times unchanged on the
    # calendar.
    cargo test -q -p bench --test regression events_executor_reproduces_goldens_bit_for_bit
    # 65536-rank phantom smoke on one driver thread, wall-clock and
    # peak-RSS gated (see header for the bump procedure). Temp artifact:
    # CI never touches the committed BENCH_scale.json.
    cargo run --release -p bench --bin scale -- --exec events --ranks 65536 --ci \
        --out /tmp/ci_scale_events.json --budget-s "$EVENTS_BUDGET_S" \
        --rss-budget-mb "$EVENTS_RSS_BUDGET_MB"
}

# Seed subset for the overlap stage's iexecute conformance pass: the
# full eight in a normal run, one in `--quick`.
OVERLAP_SEEDS=8

stage_overlap() {
    # The split-phase wall: iexecute+wait ≡ execute bit-for-bit (results,
    # clocks, Req-marker-stripped traces) for every family x 3 sync
    # methods x regular+irregular layouts x seeds, three executors
    # bit-identical in phantom mode, and the deterministic waitall /
    # testany ordering semantics.
    MSIM_CONF_SEEDS="$OVERLAP_SEEDS" cargo test -q -p hmpi-core --test iconformance
    # App-level overlap: the overlapped SUMMA / CG / stencil kernels are
    # bitwise-identical to their blocking forms and strictly faster in
    # virtual time on the bench ladder.
    cargo test -q -p summa overlap
    cargo test -q -p cg overlap
    cargo test -q -p stencil overlap
    # Overlap micro: temp artifact, self-verified (canonical round-trip
    # + every app must win somewhere). CI never touches the committed
    # BENCH_overlap.json...
    cargo run --release -p bench --bin overlap -- --ci --out /tmp/ci_overlap.json
    # ...but the committed artifact must verify too (artifact.rs pins
    # its shape; this guards hand-edits).
    cargo run --release -p bench --bin overlap -- --verify BENCH_overlap.json
}

# Seed subset for the multileader stage's conformance wall: the full
# eight in a normal run, one in `--quick`.
ML_SEEDS=8

stage_multileader() {
    # The k-leader conformance wall: allgather / allgatherv / bcast /
    # allreduce with k in {1, 2, 4} leader slots per node, all 3 sync
    # methods, regular 4x6 + irregular (incl. a min-group-1 clamp case)
    # layouts, across the fuzz seeds — three executors bit-identical,
    # k=1 bit-identical to the single-leader handles (results, clocks,
    # traces), and repeated cooperative-fill rounds with the race
    # detector armed.
    MSIM_CONF_SEEDS="$ML_SEEDS" cargo test -q -p hmpi-core --test multileader
    # Multileader micro: temp artifact, self-verified (canonical
    # round-trip, at least one (ppn, size) cell where k > 1 strictly
    # beats k = 1, and per-cell agreement between the registry estimator
    # and the measured winner). CI never touches the committed artifact...
    cargo run --release -p bench --bin multileader -- --ci --out /tmp/ci_multileader.json
    # ...but the committed BENCH_multileader.json must verify too (this
    # guards hand-edits and stale regenerations).
    cargo run --release -p bench --bin multileader -- --verify BENCH_multileader.json
}

# Seed count and wall-clock budget (seconds) for the chaos stage's
# campaign sweep. The 8-seed sweep measures well under a second on the
# reference host; the budget only exists to stop a runaway campaign
# (e.g. a recovery livelock burning its retry ladder) from stalling CI —
# the harness finishes the campaign in flight and stops early when the
# budget is exhausted.
CHAOS_SEEDS=8
CHAOS_BUDGET_S="${CHAOS_BUDGET_S:-60}"

stage_chaos() {
    # Seeded fault campaigns against the elastic-recovery stack, every
    # one replayed and checked by the invariant oracle (agreement,
    # membership transitions, leak accounting, determinism).
    cargo run --release -p bench --bin chaos -- \
        --seeds "$CHAOS_SEEDS" --budget "$CHAOS_BUDGET_S"
    # Sensitivity probe: the stale-grow mutant must be *caught* — a
    # clean pass here would mean the oracle checks nothing.
    cargo run --release -p bench --bin chaos -- --mutant-check
}

stage_smoke() {
    # Pinned-seed fault-injection smoke run: reproducible clocks/trace,
    # oracle-exact data, injected kill surfaced (see docs/testing.md).
    cargo run --release --example fault_injection -- 42

    # Autotune smoke run (docs/tuning.md): the offline sweep must produce
    # a non-empty table for the Cray preset (tune exits non-zero
    # otherwise)...
    cargo run --release -p bench --bin tune -- --cluster cray_aries --out /tmp/ci_tuning_table.json
    # ...and the checked-in tables must round-trip the canonical JSON
    # schema byte-for-byte (the SelectionPolicy::Table golden check).
    cargo run --release -p bench --bin tune -- --verify-golden results/tuning/cray_aries.json
    cargo run --release -p bench --bin tune -- --verify-golden results/tuning/nec_infiniband.json
    # The freshly swept table must match the checked-in golden exactly.
    cmp /tmp/ci_tuning_table.json results/tuning/cray_aries.json
}

stage_perf() {
    # Pinned-seed wall-clock smoke on the pooled executor (96 ranks =
    # 4 nodes x 24 ppn, the paper's smallest multi-node scale). Writes
    # a temp artifact, self-checks that it round-trips the canonical
    # JSON serializer, and enforces the budget (see header for the
    # bump procedure).
    cargo run --release -p bench --bin scale -- --ranks 96 --ci \
        --out /tmp/ci_scale_perf.json --budget-s "$SCALE_BUDGET_S"
    # The same smoke with the race detector requested must stay inside
    # the same wall-clock budget: `scale` runs in phantom data mode,
    # where the detector is disarmed by design (docs/race-detection.md),
    # so MSIM_RACE=1 must be a no-op for both timing and the artifact.
    MSIM_RACE=1 cargo run --release -p bench --bin scale -- \
        --ranks 96 --ci --out /tmp/ci_scale_perf_race.json --budget-s "$SCALE_BUDGET_S"
    # The large-rank event-calendar point: 65536 ranks on one driver
    # thread, its own budgets (EVENTS_BUDGET_S, EVENTS_RSS_BUDGET_MB —
    # see header).
    cargo run --release -p bench --bin scale -- --exec events --ranks 65536 --ci \
        --out /tmp/ci_scale_perf_events.json --budget-s "$EVENTS_BUDGET_S" \
        --rss-budget-mb "$EVENTS_RSS_BUDGET_MB"
    # Belt and braces: the round-trip golden check must also pass against
    # the *committed* artifact (this is what guards hand-edited or
    # clobbered artifacts; crates/bench/tests/artifact.rs pins its shape).
    cargo run --release -p bench --bin scale -- --verify BENCH_scale.json
}

run_stage() {
    local name="$1"
    CURRENT_STAGE="$name"
    echo "ci: === stage: $name ==="
    local t0=$SECONDS
    "stage_$name"
    local dt=$((SECONDS - t0))
    DONE_STAGES+=("$name")
    DONE_TIMES+=("$dt")
    CURRENT_STAGE=""
    echo "ci: === stage $name OK (${dt}s) ==="
}

ALL_STAGES=(fmt build test lint race mcheck ft events overlap multileader chaos smoke perf)

# One-line description per stage, for `--list` (the header comment has
# the long form).
describe_stage() {
    case "$1" in
    fmt) echo "cargo fmt --check" ;;
    build) echo "release build of the whole workspace + hybench" ;;
    test) echo "cargo test --workspace (differential suites + figure goldens)" ;;
    lint) echo "clippy wall, -D warnings" ;;
    race) echo "happens-before race detector: mutants + armed conformance suites" ;;
    mcheck) echo "DPOR model checker: mutant wall + exhaustive Hy*/k-leader sweep" ;;
    ft) echo "fault tolerance: kill matrix, runtime retry, app recovery, BENCH_ft" ;;
    events) echo "event calendar: executor differential wall + 65536-rank smoke (time + RSS)" ;;
    overlap) echo "split-phase: iexecute wall, app overlap wins, BENCH_overlap" ;;
    multileader) echo "k-leader collectives: conformance wall + BENCH_multileader" ;;
    chaos) echo "chaos soak: seeded fault campaigns + invariant oracle + mutant probe" ;;
    smoke) echo "pinned-seed fault injection + autotune + tuning-table goldens" ;;
    perf) echo "wall-clock budgets (96-rank pooled, 65536-rank events), events RSS budget, BENCH_scale" ;;
    *) echo "?" ;;
    esac
}

if [ "$#" -eq 0 ]; then
    stages=("${ALL_STAGES[@]}")
elif [ "$1" = "--list" ]; then
    for s in "${ALL_STAGES[@]}"; do
        printf '%-12s %s\n' "$s" "$(describe_stage "$s")"
    done
    trap - EXIT
    exit 0
elif [ "$1" = "--quick" ]; then
    # The race, ft, events, overlap, and multileader stages ride along
    # on 1-seed subsets so the inner loop still exercises the detector,
    # the kill matrix, the calendar differential wall, the split-phase
    # gate, and the k-leader wall without the full seed sweeps.
    RACE_SEEDS=1
    FT_SEEDS=1
    EVENTS_SEEDS=1
    OVERLAP_SEEDS=1
    ML_SEEDS=1
    CHAOS_SEEDS=1
    MCHECK_ARGS=(--quick)
    stages=(fmt build test race mcheck ft events overlap multileader chaos)
else
    stages=("$@")
    for s in "${stages[@]}"; do
        case "$s" in
        fmt | build | test | lint | race | mcheck | ft | events | overlap | multileader | chaos | smoke | perf) ;;
        *)
            echo "ci: unknown stage '$s' (stages: ${ALL_STAGES[*]}, or --quick / --list)" >&2
            exit 2
            ;;
        esac
    done
fi

for s in "${stages[@]}"; do
    run_stage "$s"
done

echo "ci: all green (${stages[*]})"
