#!/bin/sh
# CLI smoke tests: build every binary and example, run each under a quick
# budget, and assert it exits 0 with non-empty output. CI runs this as its
# own step (`make smoke`).
set -eu

cd "$(dirname "$0")/.."

bin_dir="$(mktemp -d)"
mgserve_pid=""
# The kill is guarded: under set -e a failing kill (no daemon started, or one
# already stopped) would abort the trap before it removes the scratch dir and
# turn a passing run into exit status 1.
trap '[ -z "$mgserve_pid" ] || kill "$mgserve_pid" 2>/dev/null || true; rm -rf "$bin_dir"' EXIT

echo "building commands and examples..."
go build -o "$bin_dir" ./cmd/... ./examples/...

# run NAME CMD... — runs the command, asserts exit 0 and non-empty stdout.
run() {
    name="$1"
    shift
    echo "smoke: $name"
    out="$("$@")" || {
        echo "FAIL: $name exited non-zero" >&2
        exit 1
    }
    if [ -z "$out" ]; then
        echo "FAIL: $name produced no output" >&2
        exit 1
    fi
}

run "mgbench tableI"      "$bin_dir/mgbench" -experiment tableI
run "mgbench tableII"     "$bin_dir/mgbench" -experiment tableII
run "mgbench fig5 quick"  "$bin_dir/mgbench" -experiment fig5 -quick -instructions 3000 -seed 1
run "mgbench voltage-noise-virus" "$bin_dir/mgbench" -kind voltage-noise-virus -quick -core small -instructions 3000 -trace "$bin_dir/trace.csv"
run "mgbench thermal-virus"       "$bin_dir/mgbench" -kind thermal-virus -quick -core small -instructions 3000
run "mgbench corun-noise-virus"   "$bin_dir/mgbench" -kind corun-noise-virus -quick -core small -cores 2 -instructions 3000 -trace "$bin_dir/chip_trace.csv"
run "mgbench spatial 2x2"         "$bin_dir/mgbench" -kind spatial -quick -core small -cores 4 -grid 2x2 -instructions 3000 -trace "$bin_dir/spatial_trace.csv"
test -s "$bin_dir/trace.csv" || { echo "FAIL: trace dump is empty" >&2; exit 1; }
test -s "$bin_dir/chip_trace.csv" || { echo "FAIL: chip trace dump is empty" >&2; exit 1; }
test -s "$bin_dir/spatial_trace.csv" || { echo "FAIL: spatial chip trace dump is empty" >&2; exit 1; }
# Trace dumps carry the per-window span: time_ns is the cumulative window
# end, duration_ns disambiguates time-domain rows (cycles=0) and partial
# tails. The spatial grid chip must dump the same chip-trace schema.
want_header='window,cycles,time_ns,duration_ns,energy_pj,power_w'
for f in trace.csv chip_trace.csv spatial_trace.csv; do
    head -1 "$bin_dir/$f" | grep -q "$want_header" || {
        echo "FAIL: $f header lacks duration_ns (got: $(head -1 "$bin_dir/$f"))" >&2
        exit 1
    }
done

# Heterogeneous-frequency co-run: the dvfs experiment must run, and its chip
# metrics must be identical at any parallelism (the timing line is stripped).
echo "smoke: mgbench dvfs parallel==serial"
"$bin_dir/mgbench" -experiment dvfs -quick -core small -cores 2 -freqs 2.0,1.2 -instructions 3000 -parallel 1 \
    | grep -v 'completed in' > "$bin_dir/dvfs_serial.txt"
test -s "$bin_dir/dvfs_serial.txt" || { echo "FAIL: dvfs run produced no output" >&2; exit 1; }
"$bin_dir/mgbench" -experiment dvfs -quick -core small -cores 2 -freqs 2.0,1.2 -instructions 3000 -parallel 4 \
    | grep -v 'completed in' > "$bin_dir/dvfs_parallel.txt"
diff "$bin_dir/dvfs_serial.txt" "$bin_dir/dvfs_parallel.txt" || {
    echo "FAIL: dvfs chip metrics differ between -parallel 1 and -parallel 4" >&2
    exit 1
}

# Spatial-grid chip: the spatial experiment (oblivious co-run baseline, then
# the floorplan-aware virus on the 2x2 grid) must be bit-deterministic at any
# parallelism too.
echo "smoke: mgbench spatial parallel==serial"
"$bin_dir/mgbench" -experiment spatial -quick -core small -cores 4 -grid 2x2 -instructions 3000 -parallel 1 \
    | grep -v 'completed in' > "$bin_dir/spatial_serial.txt"
test -s "$bin_dir/spatial_serial.txt" || { echo "FAIL: spatial run produced no output" >&2; exit 1; }
"$bin_dir/mgbench" -experiment spatial -quick -core small -cores 4 -grid 2x2 -instructions 3000 -parallel 4 \
    | grep -v 'completed in' > "$bin_dir/spatial_parallel.txt"
diff "$bin_dir/spatial_serial.txt" "$bin_dir/spatial_parallel.txt" || {
    echo "FAIL: spatial chip metrics differ between -parallel 1 and -parallel 4" >&2
    exit 1
}

# Equal-budget tuner comparison: gradient descent sets the target, CMA-ES and
# the halving wrapper chase it; the whole table must be bit-deterministic at
# any parallelism.
echo "smoke: mgbench tunercmp parallel==serial"
"$bin_dir/mgbench" -experiment tunercmp -quick -core small -cores 4 -grid 2x2 -instructions 3000 -tuner cmaes,halving-cmaes -parallel 1 \
    | grep -v 'completed in' > "$bin_dir/tunercmp_serial.txt"
test -s "$bin_dir/tunercmp_serial.txt" || { echo "FAIL: tunercmp run produced no output" >&2; exit 1; }
grep -q 'cmaes' "$bin_dir/tunercmp_serial.txt" || { echo "FAIL: tunercmp table lacks the cmaes row" >&2; exit 1; }
"$bin_dir/mgbench" -experiment tunercmp -quick -core small -cores 4 -grid 2x2 -instructions 3000 -tuner cmaes,halving-cmaes -parallel 4 \
    | grep -v 'completed in' > "$bin_dir/tunercmp_parallel.txt"
diff "$bin_dir/tunercmp_serial.txt" "$bin_dir/tunercmp_parallel.txt" || {
    echo "FAIL: tunercmp results differ between -parallel 1 and -parallel 4" >&2
    exit 1
}

# A budget-capped, power-capped stress tuning run with a non-default tuner
# must work end to end from the CLI.
run "mgbench cmaes power-cap" "$bin_dir/mgbench" -kind power-virus -quick -core small -instructions 3000 -tuner cmaes -budget 60 -power-cap 50

# Static analysis: mglint must list its suite, pass the (clean) tree, and —
# run over the deliberately broken fixture module — report a violation from
# every analyzer and exit non-zero.
run "mglint list"         "$bin_dir/mglint" -list
echo "smoke: mglint clean tree"
"$bin_dir/mglint" ./... || { echo "FAIL: mglint found diagnostics on the clean tree" >&2; exit 1; }
echo "smoke: mglint broken fixture"
lint_out="$(cd internal/lint/testdata/smoke && "$bin_dir/mglint" ./... 2>&1)" && {
    echo "FAIL: mglint exited 0 on the broken fixture" >&2
    exit 1
}
for a in seededrand walltime maprange mixedatomic floateq; do
    echo "$lint_out" | grep -q "\[$a\]" || {
        echo "FAIL: broken-fixture run lacks a $a diagnostic (got: $lint_out)" >&2
        exit 1
    }
done

run "mgworkload list"     "$bin_dir/mgworkload" -list
run "mgworkload measure"  "$bin_dir/mgworkload" -benchmark mcf -instructions 5000

# Tuning daemon: start mgserve on a random port, submit a quick job and
# stream its NDJSON progression, cancel a long second job mid-run, then
# prove the shared cache stayed warm and usable by resubmitting the first
# job and asserting it reports cross-job cache hits.
echo "smoke: mgserve daemon"
"$bin_dir/mgserve" -addr 127.0.0.1:0 -workers 1 > "$bin_dir/mgserve.log" 2>&1 &
mgserve_pid=$!
base=""
for _ in $(seq 1 100); do
    base="$(sed -n 's#^mgserve listening on \(http://.*\)$#\1#p' "$bin_dir/mgserve.log")"
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "FAIL: mgserve did not report a listen address" >&2; exit 1; }

job_req='{"kind":"perf-virus","quick":true,"core":"small","instructions":2000,"epochs":3,"seed":1,"parallel":1}'
job1="$(curl -sf "$base/jobs" -d "$job_req" | grep '"id"' | sed 's/.*: "\(.*\)",*/\1/')"
[ -n "$job1" ] || { echo "FAIL: mgserve job submission returned no id" >&2; exit 1; }
curl -sf "$base/jobs/$job1/stream" > "$bin_dir/mgserve_stream.ndjson"
grep -q '"series"' "$bin_dir/mgserve_stream.ndjson" || {
    echo "FAIL: mgserve stream carried no progression rows" >&2
    exit 1
}
tail -1 "$bin_dir/mgserve_stream.ndjson" | grep -q '"state":"done"' || {
    echo "FAIL: mgserve stream did not end in state done (got: $(tail -1 "$bin_dir/mgserve_stream.ndjson"))" >&2
    exit 1
}
# The first job's kernels stay in the daemon's pooled synthesis memos.
kernels="$(curl -sf "$base/stats" | sed -n 's/.*"synth_kernels": \([0-9]*\),*/\1/p')"
[ -n "$kernels" ] && [ "$kernels" -gt 0 ] || {
    echo "FAIL: mgserve /stats reported synth_kernels='$kernels' after the first job, want > 0" >&2
    exit 1
}

# One request, two front ends: a spatial job with a floorplan must render
# exactly what the same run prints through the mgbench flags (minus the
# timing line).
spatial_req='{"kind":"spatial","quick":true,"core":"small","cores":4,"rows":2,"cols":2,"floorplan":"0,0;0,0;1,1;1,1","instructions":3000,"seed":1,"parallel":1}'
job_sp="$(curl -sf "$base/jobs" -d "$spatial_req" | grep '"id"' | sed 's/.*: "\(.*\)",*/\1/')"
[ -n "$job_sp" ] || { echo "FAIL: mgserve rejected the spatial floorplan job" >&2; exit 1; }
curl -sf "$base/jobs/$job_sp/stream" > /dev/null
curl -sf "$base/jobs/$job_sp/result" | jq -r .output > "$bin_dir/spatial_served.txt"
"$bin_dir/mgbench" -kind spatial -quick -core small -cores 4 -grid 2x2 -floorplan "0,0;0,0;1,1;1,1" \
    -instructions 3000 -seed 1 -parallel 1 | grep -v 'completed in' > "$bin_dir/spatial_cli.txt"
test -s "$bin_dir/spatial_cli.txt" || { echo "FAIL: mgbench spatial floorplan run produced no output" >&2; exit 1; }
diff "$bin_dir/spatial_cli.txt" "$bin_dir/spatial_served.txt" || {
    echo "FAIL: mgserve's spatial floorplan job differs from the same mgbench run" >&2
    exit 1
}

# Cancel a long-running job; the daemon must mark it cancelled, not failed.
job2="$(curl -sf "$base/jobs" -d '{"kind":"power-virus","instructions":40000,"epochs":200,"seed":3,"parallel":1}' \
    | grep '"id"' | sed 's/.*: "\(.*\)",*/\1/')"
curl -sf -X POST "$base/jobs/$job2/cancel" > /dev/null
state=""
for _ in $(seq 1 100); do
    state="$(curl -sf "$base/jobs/$job2" | sed -n 's/.*"state": "\(.*\)",*/\1/p')"
    case "$state" in done|failed|cancelled) break ;; esac
    sleep 0.1
done
[ "$state" = "cancelled" ] || { echo "FAIL: cancelled mgserve job ended as '$state'" >&2; exit 1; }

# Warm-cache resubmission: the identical job must complete with cache hits.
job3="$(curl -sf "$base/jobs" -d "$job_req" | grep '"id"' | sed 's/.*: "\(.*\)",*/\1/')"
curl -sf "$base/jobs/$job3/stream" > /dev/null
hits="$(curl -sf "$base/jobs/$job3" | sed -n 's/.*"cache_hits": \([0-9]*\),*/\1/p')"
[ -n "$hits" ] && [ "$hits" -gt 0 ] || {
    echo "FAIL: warm mgserve resubmission reported cache_hits='$hits', want > 0" >&2
    exit 1
}
curl -sf "$base/stats" | grep -q '"cache_hits"' || { echo "FAIL: mgserve /stats lacks cache counters" >&2; exit 1; }
kill "$mgserve_pid"
wait "$mgserve_pid" 2>/dev/null || true
mgserve_pid=""

run "micrograd stress"    "$bin_dir/micrograd" -use-case stress -stress-kind voltage-noise-virus -core small -epochs 4 -instructions 5000 -loop-size 200
run "micrograd cloning"   "$bin_dir/micrograd" -use-case cloning -benchmark mcf -epochs 4 -instructions 4000 -loop-size 200

# Examples run from the scratch directory so any artifacts they write
# (e.g. the cloning example's clones/ output) stay out of the repository.
cd "$bin_dir"
run "example quickstart"  "$bin_dir/quickstart"
run "example stresstest"  "$bin_dir/stresstest"
run "example bottleneck"  "$bin_dir/bottleneck"
run "example cloning"     "$bin_dir/cloning"

echo "smoke: all CLIs and examples OK"
