package checkpoint

import (
	"bytes"
	"io"
	"maps"
	"os"
	"path/filepath"
	"testing"
)

// dirContents maps every file name in dir to its bytes.
func dirContents(t testing.TB, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestManagerRecyclesOldestGeneration: once the ring is full, every Save
// writes into the file that was the oldest generation and renames it into
// place, instead of creating a new file and deleting the oldest one.
func TestManagerRecyclesOldestGeneration(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	const keep = 3
	mgr, err := NewManager(path, keep)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= keep; i++ {
		cp := sampleSim()
		cp.Time = int64(i)
		saveSim(t, mgr, cp)
	}
	for i := keep + 1; i <= keep+3; i++ {
		oldest, err := os.Stat(mgr.generation(keep - 1))
		if err != nil {
			t.Fatal(err)
		}
		cp := sampleSim()
		cp.Time = int64(i)
		saveSim(t, mgr, cp)
		newest, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if !os.SameFile(oldest, newest) {
			t.Errorf("save %d: %s is a new file, not the recycled oldest generation", i, path)
		}
		if files := dirContents(t, dir); len(files) != keep {
			t.Errorf("save %d: dir holds %d files, want exactly %d", i, len(files), keep)
		}
		got, from, err := loadSim(mgr)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if from != path || got.Time != int64(i) {
			t.Errorf("save %d: loaded t=%v from %s, want t=%d from %s", i, got.Time, from, i, path)
		}
	}
}

// TestManagerFailedSaveLeavesFullRingIntact: with the ring full, a failing
// encoder must not touch any generation, not even the oldest one Save
// would have recycled.
func TestManagerFailedSaveLeavesFullRingIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	mgr, err := NewManager(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		cp := sampleSim()
		cp.Time = int64(i)
		saveSim(t, mgr, cp)
	}
	before := dirContents(t, dir)
	err = mgr.Save(func(w io.Writer) error {
		if _, err := w.Write([]byte("partial snapshot")); err != nil {
			return err
		}
		return io.ErrClosedPipe
	})
	if err == nil {
		t.Fatal("failing encoder did not fail Save")
	}
	if after := dirContents(t, dir); !maps.Equal(before, after) {
		for name := range after {
			if _, ok := before[name]; !ok {
				t.Errorf("failed save left a new file %s", name)
			}
		}
		t.Fatal("failed save changed the directory")
	}
	for g, want := range []int64{4, 3, 2} {
		f, err := os.Open(mgr.generation(g))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeSim(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", mgr.generation(g), err)
		}
		if cp.Time != want {
			t.Errorf("%s holds t=%v, want %v", mgr.generation(g), cp.Time, want)
		}
	}
}

// TestManagerOverwritesStaleTemp: a Save killed mid-write leaves
// <path>.tmp behind, possibly longer than the next snapshot. Whether the
// next Save reuses that file (ring still filling, or keep = 1) or recycles
// the oldest generation over it (ring full), the new generation must hold
// exactly the new snapshot.
func TestManagerOverwritesStaleTemp(t *testing.T) {
	for _, tc := range []struct {
		name        string
		keep, prior int
	}{
		{"filling", 3, 1},
		{"full", 3, 3},
		{"single", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.ckpt")
			mgr, err := NewManager(path, tc.keep)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= tc.prior; i++ {
				cp := sampleSim()
				cp.Time = int64(i)
				saveSim(t, mgr, cp)
			}
			next := sampleSim()
			next.Time = 99
			want := encodeSim(t, next)
			stale := bytes.Repeat([]byte{0xA5}, 4*len(want))
			if err := os.WriteFile(path+".tmp", stale, 0o644); err != nil {
				t.Fatal(err)
			}
			saveSim(t, mgr, next)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s holds %d bytes, want the %d-byte new snapshot exactly", path, len(got), len(want))
			}
			cp, from, err := loadSim(mgr)
			if err != nil {
				t.Fatal(err)
			}
			if from != path || cp.Time != 99 {
				t.Errorf("loaded t=%v from %s, want t=99 from %s", cp.Time, from, path)
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Errorf("%s.tmp survived the save (stat err %v)", path, err)
			}
		})
	}
}
