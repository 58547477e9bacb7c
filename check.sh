#!/bin/sh
# Pre-merge gate: vet, build, race-enabled tests, the benchmark module's
# smoke test, and short fuzz budgets on the input parsers (trace files, SPICE
# decks), the checkpoint container decoder, and the scrubber snapshot
# decoder. Run from the repo root; any failure aborts the merge.
set -eu

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

# bench/ is a nested module, so the ./... above skips it. Its smoke test runs
# every benchmark workload once with all output and verification checks
# (digests, the auto-vs-scalar verification child, zero failures).
echo "== go test (bench module) =="
go -C bench test -timeout 5m ./...

# Bench regression smoke: re-measure the kernel benchmarks quickly and gate
# them against the committed baselines through vrlbench -compare - the PR5
# ledger for the circuit/sim kernels, the PR9 ledger for the columnar bank
# kernels. The 1.5x tolerance is deliberately generous - it catches hard
# regressions (an accidental O(n^2), lost buffer reuse, new allocations on
# the hot path) without flaking on runner noise. Alloc counts are
# deterministic and gate at the same ratio plus a small absolute slack.
# Each compare only gates the benchmarks its baseline snapshot holds, so one
# smoke run feeds both.
echo "== bench smoke (vrlbench -compare vs BENCH_PR5.json + BENCH_PR9.json) =="
SMOKE_LEDGER=$(mktemp /tmp/vrlbench-smoke.XXXXXX.json)
rm -f "$SMOKE_LEDGER" # vrlbench creates it; mktemp only reserved the name
trap 'rm -f "$SMOKE_LEDGER"' EXIT
go run ./cmd/vrlbench -label smoke -o "$SMOKE_LEDGER" -count 1 -benchtime 5x \
    -bench '^(BenchmarkSpicePreSense|BenchmarkSpicePreSenseCold|BenchmarkSimRefreshOnly|BenchmarkSimRefreshOnlyReusable|BenchmarkComputeMPRSF|BenchmarkBankBatchRefresh|BenchmarkDeviceYear|BenchmarkDeviceYearActive)$'
go run ./cmd/vrlbench -compare -base-label pr5 -head-label smoke -tolerance 1.5 \
    BENCH_PR5.json "$SMOKE_LEDGER"
go run ./cmd/vrlbench -compare -base-label pr9 -head-label smoke -tolerance 1.5 \
    BENCH_PR9.json "$SMOKE_LEDGER"

# Device-year gates: the north-star benchmarks get their own min-of-5 capture
# (single runs swing 2x on noisy runners; the min is the stable statistic)
# and two compares against committed ledgers. The first is the usual 1.5x
# regression gate on both device-year benchmarks vs the PR10 baselines. The
# second inverts the tolerance into a floor: head must stay at or below 2/3
# of the PR9 BenchmarkDeviceYear time, i.e. the fast-forward engine must keep
# a >=1.5x speedup over the pre-fast-forward batch path or the gate fails
# (the huge -alloc-slack disarms the alloc check there: a sub-1 tolerance
# would otherwise demand an alloc *reduction*, which is not what the floor
# is about - the pr10 compare above already gates allocs at 1.5x).
echo "== device-year gates (vrlbench -compare vs BENCH_PR10.json + speedup floor vs BENCH_PR9.json) =="
go run ./cmd/vrlbench -label smoke -o "$SMOKE_LEDGER" -count 5 -benchtime 5x \
    -bench '^BenchmarkDeviceYear(Active)?$'
go run ./cmd/vrlbench -compare -base-label pr10 -head-label smoke -tolerance 1.5 \
    -benchmarks '^BenchmarkDeviceYear' BENCH_PR10.json "$SMOKE_LEDGER"
go run ./cmd/vrlbench -compare -base-label pr9 -head-label smoke -tolerance 0.6667 \
    -benchmarks '^BenchmarkDeviceYear$' -alloc-slack 1000000 BENCH_PR9.json "$SMOKE_LEDGER"

# Short-budget fuzz passes: regression corpora plus a few seconds of new
# coverage-guided inputs per target. 'go test -fuzz' accepts one target per
# invocation, so one pkg:target list drives one loop - add new targets here,
# not as new stanzas.
FUZZ_TARGETS="
internal/trace:FuzzReader
internal/trace:FuzzBinaryReader
internal/circuit/spice:FuzzParseDeck
internal/circuit/spice:FuzzParseValue
internal/checkpoint:FuzzCheckpointDecode
internal/scrub:FuzzScrubStateDecode
internal/serve:FuzzFrameDecode
internal/fleet:FuzzManifestDecode
internal/scenario:FuzzScenarioDecode
internal/scenario:FuzzEnvDecayFactor
internal/scenario:FuzzStressorSegment
internal/dram:FuzzRefreshBatch
internal/sim:FuzzFastForwardPlan
internal/sim:FuzzRunEquivalence
"
for entry in $FUZZ_TARGETS; do
    pkg=${entry%%:*}
    target=${entry##*:}
    echo "== fuzz $target ($pkg) =="
    go test -run='^$' -fuzz="^${target}\$" -fuzztime=3s "./$pkg"
done

# Drain smoke: a live vrlserved on an ephemeral port runs one tiny remote
# campaign, takes a SIGTERM, and must exit 0 (clean drain) promptly.
echo "== vrlserved drain smoke =="
SERVED_DATA=$(mktemp -d /tmp/vrlserved-smoke.XXXXXX)
SERVED_OUT=$(mktemp /tmp/vrlserved-smoke-out.XXXXXX)
trap 'rm -f "$SMOKE_LEDGER" "$SERVED_OUT"; rm -rf "$SERVED_DATA"; kill "$SERVED_PID" 2>/dev/null || true' EXIT
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

# Fleet resume smoke: a tiny campaign takes an induced shard failure plus a
# driver interrupt (-fail-shard makes vrlfleet cancel itself, exit 3), then
# a rerun over the same manifest must resume and finish with full coverage.
echo "== vrlfleet resume smoke =="
FLEET_DIR=$(mktemp -d /tmp/vrlfleet-smoke.XXXXXX)
trap 'rm -f "$SMOKE_LEDGER" "$SERVED_OUT"; rm -rf "$SERVED_DATA" "$FLEET_DIR"; kill "$SERVED_PID" 2>/dev/null || true' EXIT
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
