package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// recordsDigest hashes a record sequence field by field: the time's IEEE
// bits, the op and the row, each little-endian.
func recordsDigest(recs []Record) string {
	h := sha256.New()
	var buf [17]byte
	for _, r := range recs {
		binary.LittleEndian.PutUint64(buf[0:8], math.Float64bits(r.Time))
		buf[8] = byte(r.Op)
		binary.LittleEndian.PutUint64(buf[9:17], uint64(r.Row))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateDigestPinned pins one generated trace bit for bit, so that a
// change to the generator - its random draws, its record order, or the sort
// that puts records in time order - cannot alter a trace silently. The digest
// was taken from the generator as it stood when it still sorted through
// sort.Slice.
func TestGenerateDigestPinned(t *testing.T) {
	spec, err := FindBenchmark("streamcluster")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(8192, 0.768, 42)
	if err != nil {
		t.Fatal(err)
	}
	const (
		wantLen    = 184632
		wantDigest = "478f17f7dac49e82336a06577179709a27dce0f205da49153d8097ad6ff9e6be"
	)
	if got := recordsDigest(recs); len(recs) != wantLen || got != wantDigest {
		t.Fatalf("streamcluster 8192 rows 0.768 s seed 42: %d records, sha256 %s; want %d records, sha256 %s",
			len(recs), got, wantLen, wantDigest)
	}
}
