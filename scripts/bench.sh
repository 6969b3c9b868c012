#!/bin/sh
# Runs the two headline benchmarks (E2 accuracy suite, E6 chip-scale
# analysis) three times each and writes BENCH_1.json: the fresh runs plus
# the pinned pre-optimization baseline, so the speedup is always visible
# in one file. Then runs the incremental re-analysis benchmark and writes
# BENCH_2.json with the incremental-vs-full speedup (BENCH_3.json and
# BENCH_4.json are committed records this script no longer writes), the
# batch-sim
# throughput record into BENCH_6.json, the
# chip-scale mmap ingest + shared-view RSS record into BENCH_7.json, and
# the crystald service saturation curves (cmd/loadgen concurrency ramp
# with response validation) into BENCH_8.json, and the hierarchical-
# macromodel record (interleaved hier A/B on E6-XL plus the chip:64,40
# scale point) into BENCH_9.json. Every file is stamped
# with the machine (nproc, CPU
# model, GOMAXPROCS) so numbers are never compared across incomparable
# hardware.
#
# Usage: scripts/bench.sh (from the repo root, or via `make bench`).
#   BENCH_ONLY=scaling     run only the BENCH_5 cross-commit A/B (the
#                          `make bench-scaling` target).
#   BENCH_ONLY=hier        run only BENCH_9 (the `make bench-hier`
#                          target: hierarchical-macromodel record).
#   BENCH_MAIN_BIN=path    a bench test binary built from the comparison
#                          commit (`go test -c -o bench_main .` there);
#                          when set, BENCH_5.json is rewritten with an
#                          interleaved same-runner A/B of this tree vs
#                          that binary.
set -e
cd "$(dirname "$0")/.."

RAW=$(mktemp)
trap 'rm -f "$RAW"' EXIT

# Machine stamp, shared by every emitted JSON. The sweeps run under
# GOMAXPROCS=nproc explicitly; the headline benchmarks inherit the same
# effective value.
procs=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
sweep_procs=${GOMAXPROCS:-$procs}
cpu_model=$(sed -n 's/^model name[ 	]*: *//p' /proc/cpuinfo 2>/dev/null | head -1)
[ -n "$cpu_model" ] || cpu_model=unknown
MACHINE=$(printf '{"nproc": %s, "gomaxprocs": %s, "cpu_model": "%s"}' \
    "$procs" "$sweep_procs" "$cpu_model")

if [ "${BENCH_ONLY:-all}" = all ]; then

OUT=BENCH_1.json
go test -run '^$' -bench 'BenchmarkE2ModelAccuracy$|BenchmarkE6ChipScale$' \
    -benchtime 1x -count 3 . | tee "$RAW"

# Baseline ns/op: median of three runs measured at the seed commit (pre
# stage-database / allocation work) on this repository's 1-CPU reference
# runner. Update only when re-measuring the seed on comparable hardware.
awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    runs[name] = runs[name] $3 ","
}
END {
    base["BenchmarkE2ModelAccuracy"] = 97119436
    base["BenchmarkE6ChipScale"]     = 3390569021
    printf "{\n  \"machine\": %s,\n  \"benchmarks\": {\n", machine
    first = 1
    for (name in runs) {
        sub(/,$/, "", runs[name])
        n = split(runs[name], r, ",")
        # median of the runs (sorted)
        for (i = 1; i < n; i++)
            for (j = i + 1; j <= n; j++)
                if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
        med = r[int((n + 1) / 2)]
        if (!first) printf ",\n"
        first = 0
        printf "    \"%s\": {\n", name
        printf "      \"baseline_ns_op\": %.0f,\n", base[name]
        printf "      \"runs_ns_op\": [%s],\n", runs[name]
        printf "      \"median_ns_op\": %s,\n", med
        printf "      \"speedup_vs_baseline\": %.2f\n", base[name] / med
        printf "    }"
    }
    printf "\n  }\n}\n"
}' machine="$MACHINE" "$RAW" > "$OUT"

echo "wrote $OUT"
cat "$OUT"

# BENCH_2.json: incremental re-analysis vs from-scratch at chip scale.
# BenchmarkE6Incremental edits ~1% of the E6 chip (datapath + multiplier +
# adder + PLA) per iteration and reports the measured full-run baseline,
# the dirty fraction, and the incremental speedup.
OUT2=BENCH_2.json
go test -run '^$' -bench 'BenchmarkE6Incremental$' \
    -benchtime 3x -count 3 . | tee "$RAW"

awk '
/^BenchmarkE6Incremental/ {
    ns = ns $3 ","
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "%dirty")          dirty = dirty $i ","
        if ($(i + 1) == "speedup-vs-full") spd = spd $i ","
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    sub(/,$/, "", ns); sub(/,$/, "", dirty); sub(/,$/, "", spd)
    printf "{\n  \"machine\": %s,\n  \"benchmarks\": {\n", machine
    printf "    \"BenchmarkE6Incremental\": {\n"
    printf "      \"runs_ns_op\": [%s],\n", ns
    printf "      \"median_ns_op\": %s,\n", median(ns)
    printf "      \"dirty_pct\": %s,\n", median(dirty)
    printf "      \"speedup_incremental_vs_full\": %s\n", median(spd)
    printf "    }\n  }\n}\n"
}' machine="$MACHINE" "$RAW" > "$OUT2"

echo "wrote $OUT2"
cat "$OUT2"

# BENCH_6.json: vectorized functional regression. BenchmarkBatchSim
# streams the same 1024-vector truth-table sweep over the composed E6
# chip through the 64-lane bit-plane batch engine and (a 64-vector
# subsample, identical rows) through the scalar engine; the headline
# number is the per-vector speedup of the vectorized settle. Not a
# scaling sweep — both arms are single-threaded, so the record is valid
# on any runner.
OUT6=BENCH_6.json
go test -run '^$' -bench 'BenchmarkBatchSim' \
    -benchtime 1x -count 3 . | tee "$RAW"

awk '
/^BenchmarkBatchSim\/batch/ {
    bns = bns $3 ","
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "vec/s")       bvec = bvec $i ","
        if ($(i + 1) == "MB/s")        bmbs = bmbs $i ","
        if ($(i + 1) == "sweeps")      bsw = bsw $i ","
        if ($(i + 1) == "transistors") btr = $i
    }
}
/^BenchmarkBatchSim\/scalar/ {
    sns = sns $3 ","
    for (i = 5; i < NF; i += 2)
        if ($(i + 1) == "vec/s") svec = svec $i ","
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    bc = bns; sub(/,$/, "", bc)
    sc = sns; sub(/,$/, "", sc)
    printf "{\n  \"benchmark\": \"BenchmarkBatchSim\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"vectors\": 1024,\n"
    printf "  \"transistors\": %s,\n", btr
    printf "  \"batch\": {\n"
    printf "    \"runs_ns_op\": [%s],\n", bc
    printf "    \"median_ns_op\": %s,\n", median(bns)
    printf "    \"vectors_per_s\": %s,\n", median(bvec)
    printf "    \"mb_per_s\": %s,\n", median(bmbs)
    printf "    \"sweeps\": %s\n", median(bsw)
    printf "  },\n"
    printf "  \"scalar\": {\n"
    printf "    \"runs_ns_op\": [%s],\n", sc
    printf "    \"median_ns_op\": %s,\n", median(sns)
    printf "    \"vectors_per_s\": %s\n", median(svec)
    printf "  },\n"
    printf "  \"speedup_batch_vs_scalar\": %.1f\n", median(bvec) / median(svec)
    printf "}\n"
}' machine="$MACHINE" "$RAW" > "$OUT6"

echo "wrote $OUT6"
cat "$OUT6"

# BENCH_7.json: snapshot ingest at chip scale. BenchmarkIngestXL
# cold-loads the E6-XL snapshot (chip:32,10 — 100k+ nodes, ~182k
# transistors) through the one decoder's two byte sources — mapped, and
# read into the heap — with the collector quiesced identically in both
# arms. BenchmarkSessionRSS then records the memory half: per-session
# cost for 1/2/4/8 concurrent crystald sessions of the same chip
# aliasing one arena view. (The committed BENCH_7.json also holds a
# version-1 decode arm and a per-session-copy arm; both were deleted
# with the code they measured, and the record is stamped superseded.)
OUT7=BENCH_7.json
go test -run '^$' -bench 'BenchmarkIngestXL' \
    -benchtime 20x -count 5 . | tee "$RAW"
go test -run '^$' -bench 'BenchmarkSessionRSS' \
    -benchtime 1x -count 1 ./internal/server/ | tee -a "$RAW"

awk '
/^BenchmarkIngestXL\// {
    name = $1
    sub(/^BenchmarkIngestXL\//, "", name)
    sub(/-[0-9]+$/, "", name)
    runs[name] = runs[name] $3 ","
    if (!(name in seen)) { order[++nl] = name; seen[name] = 1 }
    for (i = 5; i < NF; i += 2)
        if ($(i + 1) == "ns/node") npn[name] = npn[name] $i ","
}
/^BenchmarkSessionRSS\// {
    name = $1
    sub(/^BenchmarkSessionRSS\//, "", name)
    sub(/-[0-9]+$/, "", name)
    split(name, parts, "/")
    arm = parts[1]; fleet = parts[2]
    if (!(name in rseen)) { rorder[++nr] = name; rseen[name] = 1 }
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "heapMB/session") heap[name] = $i
        if ($(i + 1) == "mappedMB")       mapped[name] = $i
        if ($(i + 1) == "totalMB")        total[name] = $i
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    printf "{\n  \"benchmark\": \"mmap_ingest\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"chip\": {\"spec\": \"chip:32,10\", \"nodes\": 109670, \"transistors\": 181730},\n"
    printf "  \"load\": {\n"
    for (i = 1; i <= nl; i++) {
        name = order[i]
        csv = runs[name]
        sub(/,$/, "", csv)
        printf "    \"%s\": {\n", name
        printf "      \"runs_ns_op\": [%s],\n", csv
        printf "      \"median_ns_op\": %s,\n", median(runs[name])
        printf "      \"ns_per_node\": %s\n", median(npn[name])
        printf "    }%s\n", i < nl ? "," : ""
    }
    printf "  },\n"
    printf "  \"speedup_mmap_vs_v2decode\": %.2f,\n", median(runs["v2decode"]) / median(runs["mmap"])
    printf "  \"rss_sessions\": {\n"
    for (i = 1; i <= nr; i++) {
        name = rorder[i]
        printf "    \"%s\": {\"heap_mb_per_session\": %s, \"mapped_mb\": %s, \"total_mb\": %s}%s\n", \
            name, heap[name], mapped[name], total[name], i < nr ? "," : ""
    }
    printf "  }\n"
    printf "}\n"
}' machine="$MACHINE" "$RAW" > "$OUT7"

echo "wrote $OUT7"
cat "$OUT7"

# BENCH_8.json: service saturation curves. cmd/loadgen drives a real
# crystald process (spawned for the run, snapshot warm starts enabled)
# through an offered-concurrency ramp of mixed scripted-session traffic —
# sync and async analyzes, edit barriers, simulate batches, critical
# queries — with response validation on (async results hard-asserted
# byte-identical to sync). The record is throughput, analyze p50/p99 and
# the 429 rejection rate per step, plus the detected saturation knee.
# Tunables: LOADGEN_RAMP (steps), LOADGEN_STEP (per-step duration),
# LOADGEN_SESSIONS (slot count), LOADGEN_JOB_WORKERS / LOADGEN_JOB_QUEUE
# (daemon async plane).
OUT8=BENCH_8.json
go build -o "${TMPDIR:-/tmp}/bench-crystald" ./cmd/crystald
go build -o "${TMPDIR:-/tmp}/bench-loadgen" ./cmd/loadgen
"${TMPDIR:-/tmp}/bench-loadgen" \
    -daemon "${TMPDIR:-/tmp}/bench-crystald" \
    -port "${LOADGEN_PORT:-8943}" \
    -ramp "${LOADGEN_RAMP:-2,4,8,16,32}" \
    -step-duration "${LOADGEN_STEP:-4s}" \
    -sessions "${LOADGEN_SESSIONS:-32}" \
    -max-sessions "${LOADGEN_MAX_SESSIONS:-24}" \
    -job-workers "${LOADGEN_JOB_WORKERS:-2}" \
    -job-queue "${LOADGEN_JOB_QUEUE:-32}" \
    -validate \
    -out "$RAW.loadgen"
jq --argjson machine "$MACHINE" \
    '{benchmark: "loadgen_saturation", machine: $machine} + .' \
    "$RAW.loadgen" > "$OUT8"
rm -f "$RAW.loadgen"

echo "wrote $OUT8"
cat "$OUT8"

fi # BENCH_ONLY = all

if [ "${BENCH_ONLY:-all}" != hier ]; then

# BENCH_5.json: the cross-commit record, written only when BENCH_MAIN_BIN
# names a bench binary built at the comparison commit — strict alternation
# of that binary and this tree on the same runner, the honest form of a
# cross-commit speedup claim. Without it BENCH_5.json (and BENCH_4.json,
# whose parser-worker sweep went with the parallel parser) stay as the
# committed history they are.
if [ -n "${BENCH_MAIN_BIN:-}" ]; then
    OUT5=BENCH_5.json
    ABRAW=$(mktemp)
    NEWBIN=$(mktemp)
    go test -c -o "$NEWBIN" .
    # Strict alternation: new, main, new, main, ... so drift (thermal,
    # noisy neighbours) hits both sides equally.
    for i in 1 2 3; do
        GOMAXPROCS=$sweep_procs "$NEWBIN" -test.run '^$' \
            -test.bench 'BenchmarkE6ChipScale$' -test.benchtime 1x \
            | sed 's/^/new /' | tee -a "$ABRAW"
        GOMAXPROCS=$sweep_procs "$BENCH_MAIN_BIN" -test.run '^$' \
            -test.bench 'BenchmarkE6ChipScale$' -test.benchtime 1x \
            | sed 's/^/main /' | tee -a "$ABRAW"
    done
    awk '
    $2 ~ /^BenchmarkE6ChipScale/ { runs[$1] = runs[$1] $4 "," }
    function median(csv,   r, n, i, j, t) {
        sub(/,$/, "", csv)
        n = split(csv, r, ",")
        for (i = 1; i < n; i++)
            for (j = i + 1; j <= n; j++)
                if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
        return r[int((n + 1) / 2)]
    }
    END {
        mn = median(runs["new"]); mm = median(runs["main"])
        nc = runs["new"];  sub(/,$/, "", nc)
        mc = runs["main"]; sub(/,$/, "", mc)
        printf "{\n  \"benchmark\": \"ab_vs_main\",\n"
        printf "  \"machine\": %s,\n", machine
        printf "  \"ab_vs_main\": {\n"
        printf "    \"interleaved\": true,\n"
        printf "    \"runs_ns_op_this_tree\": [%s],\n", nc
        printf "    \"runs_ns_op_main\": [%s],\n", mc
        printf "    \"median_ns_op_this_tree\": %s,\n", mn
        printf "    \"median_ns_op_main\": %s,\n", mm
        printf "    \"improvement_pct_vs_main\": %.1f\n", (mm - mn) / mm * 100
        printf "  }\n}\n"
    }' machine="$MACHINE" "$ABRAW" > "$OUT5"
    rm -f "$ABRAW" "$NEWBIN"
    echo "wrote $OUT5"
    cat "$OUT5"
else
    echo "bench.sh: BENCH_MAIN_BIN unset: no cross-commit A/B, BENCH_5.json left as is" >&2
fi

fi # BENCH_ONLY != hier

# BENCH_9.json: the hierarchical-macromodel record (`make bench-hier` runs
# only this section via BENCH_ONLY=hier). Two sections from the same tree:
#   hier_ab — BenchmarkE6HierAB, the interleaved single-worker A/B of
#             hierarchical stamping vs flat analysis on the E6-XL
#             replicated-tile chip (chip:32,10): per-side median wall,
#             wall speedup, and the deterministic stage-evaluation
#             reduction (stamped tile interiors evaluate zero stages —
#             the hardware-independent form of the macromodel win);
#   xl      — BenchmarkHierXL, the chip:64,40 (~2.4M transistor) scale
#             point analyzed hier-on at full parallelism: wall time and
#             live heap after the run, the RSS-sublinearity evidence.
# The stamped-speedup floor (stage_reduction >= 5 on E6-XL) is
# informational: a shortfall warns in the log but does not fail the run.
if [ "${BENCH_ONLY:-all}" != scaling ]; then

OUT9=BENCH_9.json
GOMAXPROCS=$sweep_procs go test -run '^$' -bench 'BenchmarkE6HierAB$' \
    -benchtime 3x -count 1 -timeout 60m . | tee "$RAW"
GOMAXPROCS=$sweep_procs go test -run '^$' -bench 'BenchmarkHierXL$' \
    -benchtime 1x -count 1 -timeout 60m . | tee -a "$RAW"

awk '
/^BenchmarkE6HierAB/ {
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "ns-hier-on")      abon = abon $i ","
        if ($(i + 1) == "ns-hier-off")     aboff = aboff $i ","
        if ($(i + 1) == "speedup")         absp = absp $i ","
        if ($(i + 1) == "stage-reduction") abst = abst $i ","
        if ($(i + 1) == "instances")       abinst = $i
        if ($(i + 1) == "stamped")         abstamp = $i
        if ($(i + 1) == "transistors")     abtrans = $i
    }
}
/^BenchmarkHierXL/ {
    xlns = $3
    for (i = 5; i < NF; i += 2) {
        if ($(i + 1) == "transistors") xltrans = $i
        if ($(i + 1) == "instances")   xlinst = $i
        if ($(i + 1) == "stamped")     xlstamp = $i
        if ($(i + 1) == "heapMB")      xlheap = $i
    }
}
function median(csv,   r, n, i, j, t) {
    sub(/,$/, "", csv)
    n = split(csv, r, ",")
    for (i = 1; i < n; i++)
        for (j = i + 1; j <= n; j++)
            if (r[j] + 0 < r[i] + 0) { t = r[i]; r[i] = r[j]; r[j] = t }
    return r[int((n + 1) / 2)]
}
END {
    sr = median(abst) + 0
    printf "{\n  \"benchmark\": \"hier_macromodel\",\n"
    printf "  \"machine\": %s,\n", machine
    printf "  \"hier_ab\": {\n"
    printf "    \"interleaved\": true,\n"
    printf "    \"workload\": \"chip:32,10\",\n"
    printf "    \"transistors\": %s,\n", abtrans
    printf "    \"instances\": %s,\n", abinst
    printf "    \"stamped\": %s,\n", abstamp
    printf "    \"median_ns_hier_on\": %s,\n", median(abon)
    printf "    \"median_ns_hier_off\": %s,\n", median(aboff)
    printf "    \"wall_speedup\": %.2f,\n", median(absp) + 0
    printf "    \"stage_reduction\": %.2f,\n", sr
    printf "    \"stamped_speedup_floor\": 5.0,\n"
    printf "    \"floor_met\": %s\n", (sr >= 5.0 ? "true" : "false")
    printf "  },\n"
    printf "  \"xl\": {\n"
    printf "    \"workload\": \"chip:64,40\",\n"
    printf "    \"transistors\": %s,\n", xltrans
    printf "    \"instances\": %s,\n", xlinst
    printf "    \"stamped\": %s,\n", xlstamp
    printf "    \"wall_ns\": %s,\n", xlns
    printf "    \"live_heap_mb\": %s\n", xlheap
    printf "  }\n}\n"
    if (sr < 5.0)
        printf "bench.sh: WARNING: stage_reduction %.2f is below the informational 5.0 floor\n", sr > "/dev/stderr"
}' machine="$MACHINE" "$RAW" > "$OUT9"

echo "wrote $OUT9"
cat "$OUT9"

fi # BENCH_ONLY != scaling
