#!/bin/sh
# Pre-merge gate: vet, build, race-enabled tests, the benchmark module's
# smoke test, the non-race kernel gates, and short fuzz budgets on the input
# parsers (trace files, SPICE decks), the checkpoint container decoder, and
# the scrubber snapshot decoder. Run from the repo root; any failure aborts
# the merge.
set -eu

# Every smoke below registers what it leaves behind here; one EXIT trap
# removes it all and stops a still-running vrlserved.
SERVED_PID=""
TMP_PATHS=""
cleanup() {
    if [ -n "$SERVED_PID" ]; then
        kill "$SERVED_PID" 2>/dev/null || true
    fi
    rm -rf $TMP_PATHS
}
trap cleanup EXIT

echo "== gofmt =="
# Every Go file git tracks or would add (the nested bench module included);
# ignored build output such as .bench_build/ is skipped.
UNFORMATTED=$(git ls-files -co --exclude-standard '*.go' | xargs gofmt -l)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt -l lists files that need formatting:"
    echo "$UNFORMATTED"
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

# Explicit -timeout: a deadlocked test (e.g. a campaign-harness goroutine
# leak) must fail the gate in minutes, not hang it for the default 10.
# -shuffle=on randomizes test (and package-fixture) execution order so
# hidden inter-test state dependencies fail here, not in a future refactor.
echo "== go test -race =="
go test -race -shuffle=on -timeout 5m ./...

# bench/ is a nested module, so the ./... runs above (vet included) skip
# it. It is vetted here, and its smoke test runs every benchmark workload
# once with all output and verification checks (digests, the auto-vs-scalar
# verification child, zero failures).
echo "== go vet + go test (bench module) =="
go -C bench vet ./...
go -C bench test -timeout 5m ./...

# Kernel gates without -race: the race detector's overhead would skew the
# in-process timing ratios (fast-forward speedup floor, window and column
# scaling, the compiled scenario walk against its reference) and its
# instrumentation adds allocations to the cold MeasurePreSense ceiling, so
# those build only without it. The exact hot-path allocation ceilings run
# in both modes.
echo "== kernel gates (go test -run '^TestGate', no -race) =="
go test -count=1 -run '^TestGate' . ./internal/scenario ./internal/sim

# The periodic skip's long equivalence gate: auto against scalar over 100
# hyperperiods (307.2 s) under seed 42 and a random seed, with checkpoint
# and resume checks. Too slow for every go test run, so it is opt-in.
echo "== periodic skip long equivalence (go test -long) =="
go test -count=1 -run '^TestPeriodicSkipLongEquivalence$' ./internal/sim -long

# Report gate: regenerate docs/REPORT.md with the default configuration and
# diff it against the committed file. Only wall-clock fields change from run
# to run - each section's "regenerated in" line and tab1's three time
# columns - so those are masked on both sides before the diff.
echo "== docs/REPORT.md regeneration =="
REPORT_DIR=$(mktemp -d /tmp/vrlreport-check.XXXXXX)
TMP_PATHS="$TMP_PATHS $REPORT_DIR"
go build -o "$REPORT_DIR/vrlreport" ./cmd/vrlreport
"$REPORT_DIR/vrlreport" -o "$REPORT_DIR/REPORT.md"
mask_report() {
    awk -F'|' -v OFS='|' '
        /^## / { tab1 = ($0 ~ /^## tab1 /) }
        tab1 && $2 ~ /^ [0-9]+x[0-9]+ $/ { $6 = " T "; $7 = " T "; $8 = " T " }
        { sub(/regenerated in [^ ]+ by/, "regenerated in T by"); print }
    ' "$1"
}
mask_report docs/REPORT.md >"$REPORT_DIR/want.md"
mask_report "$REPORT_DIR/REPORT.md" >"$REPORT_DIR/got.md"
if ! diff -u "$REPORT_DIR/want.md" "$REPORT_DIR/got.md"; then
    echo "docs/REPORT.md differs from a fresh vrlreport run beyond its wall-clock fields;"
    echo "regenerate it with: go run ./cmd/vrlreport -o docs/REPORT.md"
    exit 1
fi

# Short-budget fuzz passes: regression corpora plus a few seconds of new
# coverage-guided inputs per target. 'go test -fuzz' accepts one target per
# invocation, so one pkg:target list drives one loop - add new targets here,
# not as new stanzas.
FUZZ_TARGETS="
internal/trace:FuzzReader
internal/trace:FuzzBinaryReader
internal/trace:FuzzGenerate
internal/circuit/spice:FuzzParseDeck
internal/circuit/spice:FuzzParseValue
internal/checkpoint:FuzzCheckpointDecode
internal/checkpoint:FuzzManagerGenerations
internal/scrub:FuzzScrubStateDecode
internal/serve:FuzzFrameDecode
internal/fleet:FuzzManifestDecode
internal/scenario:FuzzScenarioDecode
internal/scenario:FuzzEnvDecayFactor
internal/scenario:FuzzStressorSegment
internal/scenario:FuzzSenseBound
internal/sim:FuzzFastForwardPlan
internal/sim:FuzzRunEquivalence
internal/fleet:FuzzDeviceEquivalence
internal/retention:FuzzExp2
internal/memctrl:FuzzControllerEquivalence
"
# The checkpoint targets write and delete synced files in t.TempDir; where
# the default temporary directory sits on a file system that discards
# blocks at unlink, each exec waits tens of milliseconds on it, so they run
# on tmpfs (/dev/shm) when it is writable.
for entry in $FUZZ_TARGETS; do
    pkg=${entry%%:*}
    target=${entry##*:}
    echo "== fuzz $target ($pkg) =="
    if [ "$pkg" = internal/checkpoint ] && [ -w /dev/shm ]; then
        TMPDIR=/dev/shm go test -run='^$' -fuzz="^${target}\$" -fuzztime=3s "./$pkg"
    else
        go test -run='^$' -fuzz="^${target}\$" -fuzztime=3s "./$pkg"
    fi
done

# Drain smoke: a live vrlserved on an ephemeral port runs one tiny remote
# campaign, takes a SIGTERM, and must exit 0 (clean drain) promptly.
echo "== vrlserved drain smoke =="
SERVED_DATA=$(mktemp -d /tmp/vrlserved-smoke.XXXXXX)
SERVED_OUT=$(mktemp /tmp/vrlserved-smoke-out.XXXXXX)
TMP_PATHS="$TMP_PATHS $SERVED_DATA $SERVED_OUT"
go build -o "$SERVED_DATA/vrlserved" ./cmd/vrlserved
"$SERVED_DATA/vrlserved" -data "$SERVED_DATA/state" -listen 127.0.0.1:0 >"$SERVED_OUT" 2>&1 &
SERVED_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^listening //p' "$SERVED_OUT")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "vrlserved never reported its address"; cat "$SERVED_OUT"; exit 1; }
go run ./cmd/vrlexp -remote "$ADDR" -exp fig1a -duration 0.05 >/dev/null
kill -TERM "$SERVED_PID"
SERVED_STATUS=0
wait "$SERVED_PID" || SERVED_STATUS=$?
if [ "$SERVED_STATUS" -ne 0 ]; then
    echo "vrlserved did not drain cleanly (exit $SERVED_STATUS)"
    cat "$SERVED_OUT"
    exit 1
fi

# Local resume smoke: a campaign whose only experiment times out (tab1 runs
# six SPICE transients, so it cannot finish in 1ms) exits 4 with the failure
# in its log; resuming without a timeout must re-run it and exit 0.
echo "== vrlexp resume smoke =="
EXP_DIR=$(mktemp -d /tmp/vrlexp-smoke.XXXXXX)
TMP_PATHS="$TMP_PATHS $EXP_DIR"
# Built, not 'go run', for the real exit status.
go build -o "$EXP_DIR/vrlexp" ./cmd/vrlexp
EXP_STATUS=0
"$EXP_DIR/vrlexp" -exp tab1 -timeout 1ms -checkpoint "$EXP_DIR/c" >/dev/null 2>&1 || EXP_STATUS=$?
if [ "$EXP_STATUS" -ne 4 ]; then
    echo "vrlexp -timeout 1ms must exit 4 (experiment failed), got $EXP_STATUS"
    exit 1
fi
EXP_OUT=$("$EXP_DIR/vrlexp" -exp tab1 -checkpoint "$EXP_DIR/c" -resume 2>&1) || {
    echo "resumed vrlexp campaign did not exit 0:"
    echo "$EXP_OUT"
    exit 1
}
if echo "$EXP_OUT" | grep -q "ERROR:"; then
    echo "resumed vrlexp campaign replayed the stored failure:"
    echo "$EXP_OUT"
    exit 1
fi

# Fleet resume smoke: a tiny campaign takes an induced shard failure plus a
# driver interrupt (-fail-shard makes vrlfleet cancel itself, exit 3), then
# a rerun over the same manifest must resume and finish with full coverage.
echo "== vrlfleet resume smoke =="
FLEET_DIR=$(mktemp -d /tmp/vrlfleet-smoke.XXXXXX)
TMP_PATHS="$TMP_PATHS $FLEET_DIR"
# Built, not 'go run': go run reports exit 1 for any nonzero child status,
# and this smoke needs the real exit 3.
go build -o "$FLEET_DIR/vrlfleet" ./cmd/vrlfleet
FLEET_ARGS="-devices 4 -shard-size 2 -duration 0.05 -rows 256 -cols 4 -manifest $FLEET_DIR/fleet.manifest -quiet"
FLEET_STATUS=0
"$FLEET_DIR/vrlfleet" $FLEET_ARGS -fail-shard 1 || FLEET_STATUS=$?
if [ "$FLEET_STATUS" -ne 3 ]; then
    echo "vrlfleet -fail-shard must exit 3 (interrupted), got $FLEET_STATUS"
    exit 1
fi
FLEET_OUT=$("$FLEET_DIR/vrlfleet" $FLEET_ARGS)
echo "$FLEET_OUT" | grep -q "coverage: 2/2 shards done" || {
    echo "resumed vrlfleet campaign did not reach full coverage:"
    echo "$FLEET_OUT"
    exit 1
}

# Scenario catalog smoke: the same built binary runs a fresh campaign over a
# mixed workload catalog with the guard and scrub pipelines on, and the
# report must show full coverage plus the scenario/guard/scrub lines.
echo "== vrlfleet scenario smoke =="
SCEN_OUT=$("$FLEET_DIR/vrlfleet" -devices 4 -shard-size 2 -duration 0.05 -rows 256 -cols 4 \
    -scenarios "diurnal=2,vrt-storm=1,kitchen-sink=1" -guard -scrub -quiet)
echo "$SCEN_OUT" | grep -q "coverage: 2/2 shards done" || {
    echo "scenario campaign did not reach full coverage:"
    echo "$SCEN_OUT"
    exit 1
}
for want in "scenario catalog:" "guard:" "scrub:"; do
    echo "$SCEN_OUT" | grep -q "$want" || {
        echo "scenario campaign report misses \"$want\":"
        echo "$SCEN_OUT"
        exit 1
    }
done

echo "== all checks passed =="
