package dram

import (
	"testing"

	"vrldram/internal/ecc"
	"vrldram/internal/retention"
)

func newDataBank(t *testing.T) *DataBank {
	t.Helper()
	db, err := NewDataBank(smallProfile(t), retention.ExpDecay{}, retention.PatternAllZeros)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestDataBankCleanRoundTrip(t *testing.T) {
	db := newDataBank(t)
	const word = 0xDEADBEEFCAFEF00D
	if err := db.WriteWord(5, 0.001, word); err != nil {
		t.Fatal(err)
	}
	// Read well within the retention time.
	res, err := db.ReadWord(5, 0.010)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != word || res.Result != ecc.OK {
		t.Fatalf("clean read: %x, %v", res.Data, res.Result)
	}
}

func TestDataBankCorrectableSag(t *testing.T) {
	db := newDataBank(t)
	row := 0 // true retention 128 ms
	const word = 0x0123456789ABCDEF
	if err := db.WriteWord(row, 0, word); err != nil {
		t.Fatal(err)
	}
	// Read in the correctable window: charge in [0.35, 0.5) means
	// t in (tret, tret*log2(1/0.35)) ~ (128ms, 194ms).
	res, err := db.ReadWord(row, 0.150)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != ecc.Corrected {
		t.Fatalf("want corrected read, got %v (charge %v)", res.Result, res.Charge)
	}
	if res.Data != word {
		t.Fatalf("ECC failed to repair: %x != %x", res.Data, word)
	}
	// The read scrubbed the row: an immediate re-read is clean.
	res2, err := db.ReadWord(row, 0.151)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Result != ecc.OK || res2.Data != word {
		t.Fatalf("scrub failed: %v %x", res2.Result, res2.Data)
	}
}

func TestDataBankUncorrectableSag(t *testing.T) {
	db := newDataBank(t)
	row := 0
	const word = 0x1122334455667788
	if err := db.WriteWord(row, 0, word); err != nil {
		t.Fatal(err)
	}
	// Deep sag: charge below 0.35 (t > tret*log2(1/0.35) ~ 194ms).
	res, err := db.ReadWord(row, 0.250)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != ecc.Uncorrectable {
		t.Fatalf("want uncorrectable, got %v (charge %v)", res.Result, res.Charge)
	}
}

func TestDataBankRowBounds(t *testing.T) {
	db := newDataBank(t)
	if err := db.WriteWord(-1, 0, 0); err == nil {
		t.Fatal("negative row must be rejected")
	}
	if _, err := db.ReadWord(1000, 0); err == nil {
		t.Fatal("out-of-range row must be rejected")
	}
}

func TestDataBankRefreshKeepsDataReadable(t *testing.T) {
	db := newDataBank(t)
	row := 0 // 128 ms retention
	const word = 0xA5A5A5A5A5A5A5A5
	if err := db.WriteWord(row, 0, word); err != nil {
		t.Fatal(err)
	}
	// Refresh on the 64 ms schedule, then read at 200 ms: without the
	// refreshes this read would be uncorrectable (see the test above).
	for _, rt := range []float64{0.064, 0.128, 0.192} {
		if _, err := db.Refresh(row, Ticks(rt), 0.999); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.ReadWord(row, 0.200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Result != ecc.OK || res.Data != word {
		t.Fatalf("refreshed row unreadable: %v %x", res.Result, res.Data)
	}
}

func TestDataBankWeakBitsSpread(t *testing.T) {
	db := newDataBank(t)
	seen := map[int]bool{}
	for _, b := range db.weakBit {
		if b < 0 || b >= ecc.DataBits {
			t.Fatalf("weak bit %d out of range", b)
		}
		seen[b] = true
	}
	if len(seen) < 2 {
		t.Fatal("weak bits should vary across rows")
	}
}
