package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// corruptFile flips one byte in the middle of the file.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestManagerAllGenerationsCorrupt pins the start-fresh contract: when every
// retained generation is corrupt, Load does not hand the caller the last
// decode error to guess about - it returns an error wrapping ErrNoSnapshot,
// the same clean signal as an empty directory, so the caller starts cold.
// The manager must remain fully usable afterwards: the next Save rotates the
// corpses aside and the fresh snapshot loads.
func TestManagerAllGenerationsCorrupt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	mgr, err := NewManager(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		cp := sampleSim()
		cp.Time = int64(i)
		saveSim(t, mgr, cp)
	}
	for _, name := range []string{path, path + ".1", path + ".2"} {
		corruptFile(t, name)
	}

	_, _, err = loadSim(mgr)
	if err == nil {
		t.Fatal("load with every generation corrupt unexpectedly succeeded")
	}
	if !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("all-corrupt load error %v does not wrap ErrNoSnapshot", err)
	}

	// The same signal when nothing exists at all: callers need one check,
	// not two.
	empty, err := NewManager(filepath.Join(dir, "missing.ckpt"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSim(empty); !errors.Is(err, ErrNoSnapshot) {
		t.Fatalf("missing-snapshot load error %v does not wrap ErrNoSnapshot", err)
	}

	// Start fresh over the wreckage: Save must rotate the corrupt newest
	// generation into .1 and land the new snapshot at the primary path.
	fresh := sampleSim()
	fresh.Time = 42
	saveSim(t, mgr, fresh)

	cp, from, err := loadSim(mgr)
	if err != nil {
		t.Fatalf("load after start-fresh save: %v", err)
	}
	if from != path {
		t.Errorf("loaded from %s, want the primary path %s", from, path)
	}
	if cp.Time != 42 {
		t.Errorf("fresh snapshot t=%v, want 42", cp.Time)
	}

	// Rotation happened: the corrupt ex-primary moved to .1, the previous .1
	// to .2, and nothing beyond keep=3 remains.
	for _, name := range []string{path + ".1", path + ".2"} {
		if _, err := os.Stat(name); err != nil {
			t.Errorf("rotated generation %s missing: %v", name, err)
		}
	}
	if _, err := os.Stat(path + ".3"); !os.IsNotExist(err) {
		t.Errorf("generation beyond keep survived rotation (stat err %v)", err)
	}

	// A second save keeps rotating: the fresh snapshot of t=42 becomes .1
	// and still decodes (rotation moves good files intact).
	fresh2 := sampleSim()
	fresh2.Time = 43
	saveSim(t, mgr, fresh2)
	f, err := os.Open(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	prev, err := DecodeSim(f)
	f.Close()
	if err != nil {
		t.Fatalf("rotated good generation no longer decodes: %v", err)
	}
	if prev.Time != 42 {
		t.Errorf("rotated generation t=%v, want 42", prev.Time)
	}
}
