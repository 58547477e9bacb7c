package ecc

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeClean(t *testing.T) {
	f := func(data uint64) bool {
		cw := Encode(data)
		got, res := Decode(cw)
		return got == data && res == OK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleDataBitFlipCorrected(t *testing.T) {
	f := func(data uint64, bit uint8) bool {
		cw := Encode(data).FlipDataBit(int(bit))
		got, res := Decode(cw)
		return got == data && res == Corrected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSingleCheckBitFlipCorrected(t *testing.T) {
	f := func(data uint64, bit uint8) bool {
		cw := Encode(data).FlipCheckBit(int(bit))
		got, res := Decode(cw)
		// A flipped check bit never corrupts the data.
		return got == data && res == Corrected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleDataBitFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		data := rng.Uint64()
		b1 := rng.Intn(DataBits)
		b2 := rng.Intn(DataBits)
		if b1 == b2 {
			continue
		}
		cw := Encode(data).FlipDataBit(b1).FlipDataBit(b2)
		_, res := Decode(cw)
		if res != Uncorrectable {
			t.Fatalf("double flip (%d,%d) of %x classified %v", b1, b2, data, res)
		}
	}
}

func TestDataPlusCheckDoubleFlipDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	miss := 0
	const n = 500
	for i := 0; i < n; i++ {
		data := rng.Uint64()
		cw := Encode(data).FlipDataBit(rng.Intn(DataBits)).FlipCheckBit(rng.Intn(7))
		got, res := Decode(cw)
		// SECDED guarantees detection of any double error; it must never
		// silently return wrong data as OK or "correct" to a wrong value.
		if res == OK && got != data {
			t.Fatalf("silent corruption")
		}
		if res == Corrected && got != data {
			miss++
		}
	}
	if miss > 0 {
		t.Fatalf("%d/%d data+check double flips miscorrected", miss, n)
	}
}

func TestHammingPositionsUnique(t *testing.T) {
	seen := map[uint8]bool{}
	for i, p := range hammingPositions {
		if p == 0 || p&(p-1) == 0 {
			t.Fatalf("data bit %d at invalid position %d", i, p)
		}
		if seen[p] {
			t.Fatalf("duplicate position %d", p)
		}
		seen[p] = true
	}
}

func TestDecodeResultString(t *testing.T) {
	if OK.String() != "ok" || Corrected.String() != "corrected" || Uncorrectable.String() != "uncorrectable" {
		t.Fatal("result names wrong")
	}
	if DecodeResult(9).String() == "" {
		t.Fatal("unknown result must still stringify")
	}
}

func TestChargeClassifier(t *testing.T) {
	c := DefaultClassifier()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		charge float64
		want   DecodeResult
	}{
		{0.9, OK},
		{0.5, OK},                           // exactly at the sensing limit: a correct read, not an error
		{math.Nextafter(0.5, 0), Corrected}, // first representable charge below the limit
		{0.49, Corrected},
		{0.35, Corrected}, // exactly at the correctable floor: still single-bit
		{math.Nextafter(0.35, 0), Uncorrectable},
		{0.34, Uncorrectable},
		{0.0, Uncorrectable},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.charge); got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.charge, got, tc.want)
		}
	}
	bad := ChargeClassifier{SenseLimit: 0.3, CorrectableFloor: 0.5}
	if err := bad.Validate(); err == nil {
		t.Fatal("inverted thresholds must be rejected")
	}
}
