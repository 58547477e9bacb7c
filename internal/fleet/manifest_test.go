package fleet

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vrldram/internal/sim"
)

func TestManifestPersistsTransitions(t *testing.T) {
	spec := testFleetSpec()
	path := filepath.Join(t.TempDir(), "fleet.manifest")
	m, err := NewManifest(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	shards := spec.Shards()
	if err := m.MarkRunning(0); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDone(0, fakeResult(shards[0])); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkRunning(1); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkFailed(1, "wobble"); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkRunning(2); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkQuarantined(2, "poison"); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkRunning(3); err != nil {
		t.Fatal(err)
	}
	// Shard 3 was mid-attempt when the "driver died"; nothing durable exists
	// for it, so the reloaded manifest must not believe it is running.

	m2, err := NewManifest(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	snap := m2.Snapshot()
	if snap[0].State != ShardDone || m2.ResumedDone() != 1 {
		t.Fatalf("shard 0 reloaded as %s (resumed=%d), want done/1", snap[0].State, m2.ResumedDone())
	}
	if snap[1].State != ShardRetrying || snap[1].Attempts != 1 {
		t.Fatalf("shard 1 reloaded as %s/%d attempts, want retrying/1", snap[1].State, snap[1].Attempts)
	}
	if snap[2].State != ShardQuarantined {
		t.Fatalf("shard 2 reloaded as %s, want quarantined", snap[2].State)
	}
	if snap[3].State != ShardRetrying || snap[3].Attempts != 1 {
		t.Fatalf("mid-attempt shard 3 reloaded as %s/%d, want retrying/1", snap[3].State, snap[3].Attempts)
	}
	r, ok, err := m2.Result(0)
	if err != nil || !ok {
		t.Fatalf("shard 0 result: ok=%v err=%v", ok, err)
	}
	if string(r.Encode()) != string(fakeResult(shards[0]).Encode()) {
		t.Fatal("reloaded shard 0 result not byte-identical")
	}
	qs := m2.Quarantines()
	if len(qs) != 1 || qs[0].Shard != 2 || qs[0].LastErr != "poison" {
		t.Fatalf("quarantines reloaded as %+v", qs)
	}
}

func TestManifestFirstResultWins(t *testing.T) {
	spec := testFleetSpec()
	m, err := NewManifest(spec, "")
	if err != nil {
		t.Fatal(err)
	}
	ss := spec.Shards()[0]
	if err := m.MarkRunning(0); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDone(0, fakeResult(ss)); err != nil {
		t.Fatal(err)
	}
	// The hedge twin lands second: silently dropped.
	if err := m.MarkDone(0, fakeResult(ss)); err != nil {
		t.Fatal(err)
	}
	// And a late failure from the loser must not un-finish the shard.
	if err := m.MarkFailed(0, "loser"); err != nil {
		t.Fatal(err)
	}
	if st := m.Snapshot()[0].State; st != ShardDone {
		t.Fatalf("shard 0 state %s after hedge race, want done", st)
	}
	// A result claiming the wrong shard index is refused loudly.
	wrong := fakeResult(spec.Shards()[1])
	if err := m.MarkDone(0, wrong); err == nil {
		t.Fatal("result for shard 1 must not land in slot 0")
	}
}

func TestManifestRefusesForeignSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fleet.manifest")
	specA := testFleetSpec()
	m, err := NewManifest(specA, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MarkRunning(0); err != nil { // first transition persists the manifest
		t.Fatal(err)
	}
	specB := specA
	specB.Seed++
	_, err = NewManifest(specB, path)
	if err == nil || !strings.Contains(err.Error(), "different campaign") {
		t.Fatalf("foreign-spec manifest open returned %v, want refusal", err)
	}
}

func TestManifestAllGenerationsCorruptStartsFresh(t *testing.T) {
	spec := testFleetSpec()
	path := filepath.Join(t.TempDir(), "fleet.manifest")
	m, err := NewManifest(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.MarkRunning(0); err != nil {
		t.Fatal(err)
	}
	if err := m.MarkDone(0, fakeResult(spec.Shards()[0])); err != nil {
		t.Fatal(err)
	}
	// Torch every generation on disk.
	matches, err := filepath.Glob(path + "*")
	if err != nil || len(matches) == 0 {
		t.Fatalf("no manifest generations on disk (err=%v)", err)
	}
	for _, p := range matches {
		if err := os.WriteFile(p, []byte("not a manifest at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := NewManifest(spec, path)
	if err != nil {
		t.Fatalf("all-corrupt manifest must start fresh, got %v", err)
	}
	if m2.ResumedDone() != 0 {
		t.Fatalf("fresh manifest claims %d resumed shards", m2.ResumedDone())
	}
	// And the fresh manifest must rotate cleanly past the wreckage.
	if err := m2.MarkRunning(1); err != nil {
		t.Fatal(err)
	}
	if err := m2.MarkDone(1, fakeResult(spec.Shards()[1])); err != nil {
		t.Fatal(err)
	}
	m3, err := NewManifest(spec, path)
	if err != nil {
		t.Fatal(err)
	}
	if m3.ResumedDone() != 1 {
		t.Fatalf("post-wreckage save not recoverable: resumed=%d", m3.ResumedDone())
	}
}

// TestDecodeRejectsUndefinedBackends covers specs that arrive encoded - a
// manifest on disk, a shard spec over the wire - carrying a backend value
// that names no runner: 99, or 4, which an older build wrote for the
// retired fast-forward backend. Both must fail decoding with an error that
// names the backend, rather than run some default path.
func TestDecodeRejectsUndefinedBackends(t *testing.T) {
	for _, b := range []sim.Backend{99, 4} {
		spec := testFleetSpec()
		spec.Backend = b
		want := fmt.Sprintf("undefined backend %d", b)
		entries := make([]shardEntry, spec.NumShards())
		for i := range entries {
			entries[i].state = ShardPlanned
		}
		if _, _, err := decodeManifestPayload(encodeManifestPayload(spec, entries)); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("manifest with backend %d decoded with %v, want %q", b, err, want)
		}
		if _, err := DecodeShardSpec(spec.Shards()[0].Encode()); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("shard spec with backend %d decoded with %v, want %q", b, err, want)
		}
	}
}

// FuzzManifestDecode drives the manifest payload codec with arbitrary bytes:
// it must never panic, and any payload it accepts must be internally
// consistent and re-encode to something it accepts again.
func FuzzManifestDecode(f *testing.F) {
	spec := testFleetSpec()
	blank := make([]shardEntry, spec.NumShards())
	for i := range blank {
		blank[i].state = ShardPlanned
	}
	f.Add(encodeManifestPayload(spec, blank))

	busy := make([]shardEntry, spec.NumShards())
	for i := range busy {
		busy[i] = shardEntry{state: ShardRetrying, attempts: 2, lastErr: "wobble"}
	}
	busy[0] = shardEntry{state: ShardDone, result: fakeResult(spec.Shards()[0]).Encode()}
	busy[2] = shardEntry{state: ShardQuarantined, attempts: 3, lastErr: "poison"}
	f.Add(encodeManifestPayload(spec, busy))
	f.Add([]byte{})
	f.Add([]byte("fman3"))

	f.Fuzz(func(t *testing.T, payload []byte) {
		decSpec, shards, err := decodeManifestPayload(payload)
		if err != nil {
			return
		}
		if err := decSpec.Validate(); err != nil {
			t.Fatalf("accepted payload carries invalid spec: %v", err)
		}
		if len(shards) != decSpec.NumShards() {
			t.Fatalf("accepted payload holds %d shards, spec plans %d", len(shards), decSpec.NumShards())
		}
		for i, s := range shards {
			if s.state < ShardPlanned || s.state > ShardDone {
				t.Fatalf("accepted shard %d in invalid state %d", i, s.state)
			}
			if s.attempts < 0 {
				t.Fatalf("accepted shard %d with negative attempts", i)
			}
			if s.state == ShardDone {
				if _, err := DecodeShardResult(s.result); err != nil {
					t.Fatalf("accepted done shard %d with undecodable result: %v", i, err)
				}
			}
		}
		re := encodeManifestPayload(decSpec, shards)
		if _, _, err := decodeManifestPayload(re); err != nil {
			t.Fatalf("re-encoded accepted payload no longer decodes: %v", err)
		}
	})
}
