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

// parsecPins are the 14 PARSEC traces at the report's shape (8192 rows,
// 0.256 s, seed 42), taken from the generator while it still sorted each
// trace with one global sort.
var parsecPins = []struct {
	name    string
	records int
	digest  string
}{
	{"blackscholes", 14108, "4fa1a6e0b5f5914353e288017e43b4927d5bc8f7fe7eef4acf1c209115cb2b93"},
	{"bodytrack", 20816, "b9bf7c4b6e88dc2612817fd0eaa6386513a9dd7e28054c16d1d7987afc32cc55"},
	{"canneal", 47348, "5382be88267d8cd19a2513ebf389dceee06ed3c0090255da585abd3227ae8083"},
	{"dedup", 42280, "c9d2f4b5fdf5f59dfc7395d016586b7dc02878e2a10e7f2368796e99ddd9200f"},
	{"facesim", 28908, "6c95b58940b158e4170ea54f55928af106396bc23072c64fb2f401aa01fce218"},
	{"ferret", 24780, "fafb44fcda014dd2e77cb2929ef9e59ea2ee1c79e0eb87667c0d6d31a8dce8ad"},
	{"fluidanimate", 33204, "1cd20b335974bf5a88cb227ee3e513cf78e3aa792f267feda094c134ad9430d8"},
	{"freqmine", 19012, "e3d3f438b59277425891994896a340f05985470d1dbf65391fa048b1e7ccbf4e"},
	{"raytrace", 14552, "833a749b7676bdc2f204bd5860cea16278b06aa67fa5db9699b6de56a8a595f8"},
	{"streamcluster", 61544, "997a09f77308527d798fc3b0b03523a9d150269efbbb62b81c450bdd3fbf08b3"},
	{"swaptions", 4380, "623846a9afcd4e11ba0f8afacf41f8f472f5e4109e3ccac082b1ea9698eca018"},
	{"vips", 24780, "c3c06f0bb6d82c593b2882a987e2b02af3554930a33f3004c90fb88b7a1112d5"},
	{"x264", 28908, "34d74c4614db667952029b5669557574ef07467c6a648e34dc5c233a2cf6db56"},
	{"bgsave", 67144, "7f54f48792e670337a3003b3860e7f0743fe2d30c08493743d91695152d04437"},
}

// TestGenerateDigestPinnedPARSEC pins every PARSEC trace the report
// replays, bit for bit.
func TestGenerateDigestPinnedPARSEC(t *testing.T) {
	specs := PARSEC()
	if len(specs) != len(parsecPins) {
		t.Fatalf("%d PARSEC specs, %d pins", len(specs), len(parsecPins))
	}
	for i, pin := range parsecPins {
		if specs[i].Name != pin.name {
			t.Fatalf("spec %d is %s, pin is %s", i, specs[i].Name, pin.name)
		}
		recs, err := specs[i].Generate(8192, 0.256, 42)
		if err != nil {
			t.Fatal(err)
		}
		if got := recordsDigest(recs); len(recs) != pin.records || got != pin.digest {
			t.Errorf("%s 8192 rows 0.256 s seed 42: %d records, sha256 %s; want %d records, sha256 %s",
				pin.name, len(recs), got, pin.records, pin.digest)
		}
	}
}

// TestGenerateTieFreePARSEC requires strictly increasing times in the
// pinned traces. With no two records at one time the sorted order is
// unique, so any exact sort reproduces the global unstable sort the pins
// were taken from.
func TestGenerateTieFreePARSEC(t *testing.T) {
	for _, spec := range PARSEC() {
		recs, err := spec.Generate(8192, 0.256, 42)
		if err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].Time <= recs[i-1].Time {
				t.Fatalf("%s: records %d and %d at %v and %v", spec.Name, i-1, i, recs[i-1].Time, recs[i].Time)
			}
		}
	}
}
