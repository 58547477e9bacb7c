package checkpoint

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/exp"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// sampleSim builds a small but fully-populated checkpoint so codec tests
// cover every field, including the optional ones.
func sampleSim() *sim.Checkpoint {
	return &sim.Checkpoint{
		Time:      100_000_000,
		Duration:  0.768,
		Scheduler: "VRL",
		Stats: sim.Stats{
			Scheduler:        "VRL",
			Duration:         0.125,
			FullRefreshes:    41,
			PartialRefreshes: 7,
			BusyCycles:       12345,
			Accesses:         99,
			ChargeRestored:   dram.ChargeSum{Hi: 3, Lo: 1 << 63},
		},
		Events: []sim.PendingEvent{{Time: 100_800_000, Row: 0}, {Time: 101_600_000, Row: 2}},
		Bank: dram.State{
			Charge: []float64{1, 0.5, 0.25},
			LastT:  []int64{80_000_000, 96_000_000, 88_000_000},
			Violations: []dram.Violation{
				{Row: 1, Time: 0.09, Charge: 0.01},
			},
		},
		TraceRead:     99,
		HavePending:   true,
		Pending:       trace.Record{Time: 0.13, Op: trace.Write, Row: 1},
		LastTraceTime: 0.1299,
		BusyUntil:     100_000_011,
		SchedState:    []byte("opaque scheduler blob"),
	}
}

func encodeSim(t *testing.T, cp *sim.Checkpoint) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeSim(&buf, cp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSimCodecRoundTrip(t *testing.T) {
	cp := sampleSim()
	got, err := DecodeSim(bytes.NewReader(encodeSim(t, cp)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, cp)
	}
}

// TestDecodeRejectsEveryFlippedByte is the acceptance criterion in its
// strongest form: flipping ANY single byte of a snapshot makes DecodeSim
// fail - nothing in the container escapes the magic/header/CRC envelope.
func TestDecodeRejectsEveryFlippedByte(t *testing.T) {
	good := encodeSim(t, sampleSim())
	if _, err := DecodeSim(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := DecodeSim(bytes.NewReader(bad)); err == nil {
			t.Errorf("byte %d flipped: decode unexpectedly succeeded", i)
		}
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	good := encodeSim(t, sampleSim())
	for _, n := range []int{0, 3, headerLen - 1, headerLen, len(good) / 2, len(good) - 1} {
		if _, err := DecodeSim(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("truncated to %d bytes: decode unexpectedly succeeded", n)
		}
	}
}

func TestDecodeRejectsWrongVersionAndKind(t *testing.T) {
	good := encodeSim(t, sampleSim())

	bad := append([]byte(nil), good...)
	bad[4] = 0xFF // version low byte (little-endian)
	_, err := DecodeSim(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("wrong version: err = %v, want a version error", err)
	}

	bad = append([]byte(nil), good...)
	bad[6] = KindCampaign // valid kind, wrong codec
	if _, err := DecodeSim(bytes.NewReader(bad)); err == nil {
		t.Error("campaign kind fed to DecodeSim unexpectedly succeeded")
	}

	bad = append([]byte(nil), good...)
	copy(bad, "NOPE")
	_, err = DecodeSim(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("wrong magic: err = %v, want a magic error", err)
	}
}

// TestDecodeRejectsPreviousSimFormat: a sim3 snapshot (float64 seconds
// and a float ChargeRestored) cannot resume under integer-tick time, and
// the error must say so rather than report a garbled field.
func TestDecodeRejectsPreviousSimFormat(t *testing.T) {
	var e core.StateEncoder
	e.Tag("sim3")
	e.Float(0.125)
	e.Float(0.768)
	var buf bytes.Buffer
	if err := EncodeBlob(&buf, KindSim, e.Data()); err != nil {
		t.Fatal(err)
	}
	_, err := DecodeSim(&buf)
	if err == nil || !strings.Contains(err.Error(), `"sim3"`) || !strings.Contains(err.Error(), `"sim4"`) {
		t.Fatalf("sim3 snapshot: err = %v, want a format error naming sim3 and sim4", err)
	}
}

// TestDecodeRejectsOutOfRangeCharge: no bank holds a charge outside [0,1],
// and a NaN one would sense clean against every limit.
func TestDecodeRejectsOutOfRangeCharge(t *testing.T) {
	for _, c := range []float64{math.NaN(), -0.25, 1.5} {
		cp := sampleSim()
		cp.Bank.Charge[1] = c
		if _, err := DecodeSim(bytes.NewReader(encodeSim(t, cp))); err == nil {
			t.Errorf("charge %v: decode unexpectedly succeeded", c)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	good := encodeSim(t, sampleSim())
	if _, err := DecodeSim(bytes.NewReader(append(good, 0xAA))); err == nil {
		t.Error("trailing byte after container unexpectedly accepted")
	}
}

func TestCampaignCodecRoundTrip(t *testing.T) {
	results := []*exp.Result{
		{
			ID:      "fig4",
			Title:   "Refresh overhead",
			Headers: []string{"sched", "overhead"},
			Rows:    [][]string{{"vrl", "0.1"}, {"raidr", "0.2"}},
			Notes:   []string{"note one", "note, with comma"},
		},
		{ID: "tab3", Title: "Empty result"},
	}
	var buf bytes.Buffer
	if err := EncodeCampaign(&buf, results); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeCampaign(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, results) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, results)
	}

	// The two kinds must not be confusable.
	buf.Reset()
	if err := EncodeCampaign(&buf, results); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeSim(&buf); err == nil {
		t.Fatal("campaign container decoded as a sim checkpoint")
	}
}

// saveSim persists a checkpoint through a Manager the way the facade does.
func saveSim(t *testing.T, mgr *Manager, cp *sim.Checkpoint) {
	t.Helper()
	if err := mgr.Save(func(w io.Writer) error { return EncodeSim(w, cp) }); err != nil {
		t.Fatal(err)
	}
}

func loadSim(mgr *Manager) (*sim.Checkpoint, string, error) {
	var cp *sim.Checkpoint
	from, err := mgr.Load(func(r io.Reader) error {
		var derr error
		cp, derr = DecodeSim(r)
		return derr
	})
	return cp, from, err
}

func TestManagerRotatesGenerations(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(filepath.Join(dir, "run.ckpt"), 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 4; i++ {
		cp := sampleSim()
		cp.Time = int64(i)
		saveSim(t, mgr, cp)
	}
	// After 4 saves with keep=3: newest at run.ckpt, then .1, .2; the first
	// save has been rotated off the end.
	wantTimes := map[string]int64{"run.ckpt": 4, "run.ckpt.1": 3, "run.ckpt.2": 2}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != len(wantTimes) {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("dir holds %v, want exactly %d generations", names, len(wantTimes))
	}
	for name, want := range wantTimes {
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		cp, err := DecodeSim(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cp.Time != want {
			t.Errorf("%s holds t=%v, want %v", name, cp.Time, want)
		}
	}
}

// TestManagerFallsBackPastCorruption is the ISSUE's acceptance criterion:
// a snapshot with a flipped byte is rejected by checksum and the loader
// falls back to the previous good generation.
func TestManagerFallsBackPastCorruption(t *testing.T) {
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

	// Flip one byte in the middle of the newest snapshot.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cp, from, err := loadSim(mgr)
	if err != nil {
		t.Fatal(err)
	}
	if from != path+".1" {
		t.Errorf("loaded from %s, want fallback to %s", from, path+".1")
	}
	if cp.Time != 2 {
		t.Errorf("fallback snapshot t=%v, want 2 (previous good generation)", cp.Time)
	}

	// Corrupt the fallback too: the loader keeps walking to .2.
	data, err = os.ReadFile(path + ".1")
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path+".1", data, 0o644); err != nil {
		t.Fatal(err)
	}
	cp, from, err = loadSim(mgr)
	if err != nil {
		t.Fatal(err)
	}
	if from != path+".2" || cp.Time != 1 {
		t.Errorf("second fallback loaded t=%v from %s, want t=1 from %s", cp.Time, from, path+".2")
	}
}

func TestManagerLoadReportsAllFailures(t *testing.T) {
	dir := t.TempDir()
	mgr, err := NewManager(filepath.Join(dir, "none.ckpt"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loadSim(mgr); err == nil {
		t.Fatal("load with no generations on disk unexpectedly succeeded")
	}
}

func TestManagerFailedSaveLeavesGenerationsIntact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	mgr, err := NewManager(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := sampleSim()
	good.Time = 7
	saveSim(t, mgr, good)

	if err := mgr.Save(func(w io.Writer) error { return io.ErrClosedPipe }); err == nil {
		t.Fatal("failing encoder did not fail Save")
	}
	cp, from, err := loadSim(mgr)
	if err != nil {
		t.Fatal(err)
	}
	if from != path && from != path+".1" {
		t.Errorf("loaded from %s", from)
	}
	if cp.Time != 7 {
		t.Errorf("surviving snapshot t=%v, want 7", cp.Time)
	}
}
