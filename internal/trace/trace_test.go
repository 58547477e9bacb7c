package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRecordValidate(t *testing.T) {
	good := Record{Time: 1, Op: Read, Row: 3}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Record{
		{Time: -1, Op: Read, Row: 0},
		{Time: 0, Op: 'X', Row: 0},
		{Time: 0, Op: Write, Row: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad record %d not caught", i)
		}
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Comment("hello")
	in := []Record{
		{Time: 0.001, Op: Read, Row: 7},
		{Time: 0.002, Op: Write, Row: 8191},
		{Time: 0.002, Op: Read, Row: 0},
	}
	for _, r := range in {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != len(in) {
		t.Fatalf("count %d, want %d", w.Count(), len(in))
	}
	out, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("read %d records, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Op != in[i].Op || out[i].Row != in[i].Row {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestWriterRejectsBadRecord(t *testing.T) {
	w := NewWriter(io.Discard)
	if err := w.Write(Record{Time: -1, Op: Read}); err == nil {
		t.Fatal("bad record must be rejected")
	}
	// The writer stays failed.
	if err := w.Write(Record{Time: 0, Op: Read}); err == nil {
		t.Fatal("writer must stick to its first error")
	}
	if err := w.Flush(); err == nil {
		t.Fatal("flush must report the error")
	}
}

func TestReaderParseErrors(t *testing.T) {
	cases := []string{
		"0.1 R",            // missing field
		"x R 1",            // bad time
		"0.1 RW 1",         // bad op length
		"0.1 R x",          // bad row
		"0.1 Z 1",          // unknown op
		"0.2 R 1\n0.1 R 1", // time goes backwards
		"0.1 R -5",         // negative row
	}
	for _, c := range cases {
		if _, err := ReadAll(strings.NewReader(c)); err == nil {
			t.Errorf("input %q not rejected", c)
		}
	}
}

func TestReaderSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n0.1 R 1\n   \n# mid\n0.2 W 2\n"
	recs, err := ReadAll(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records", len(recs))
	}
}

func TestSliceSource(t *testing.T) {
	src := NewSliceSource([]Record{{Time: 1, Op: Read, Row: 2}})
	r, err := src.Next()
	if err != nil || r.Row != 2 {
		t.Fatalf("%+v, %v", r, err)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
	if _, err := (Empty{}).Next(); err != io.EOF {
		t.Fatal("Empty must EOF")
	}
}

func TestPARSECSpecsValid(t *testing.T) {
	specs := PARSEC()
	if len(specs) != 14 {
		t.Fatalf("want 13 PARSEC benchmarks + bgsave, got %d", len(specs))
	}
	names := map[string]bool{}
	for _, b := range specs {
		if err := b.Validate(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
		if names[b.Name] {
			t.Errorf("duplicate benchmark %s", b.Name)
		}
		names[b.Name] = true
	}
	for _, must := range []string{"blackscholes", "streamcluster", "swaptions", "bgsave", "x264"} {
		if !names[must] {
			t.Errorf("missing benchmark %s", must)
		}
	}
}

func TestFindBenchmark(t *testing.T) {
	b, err := FindBenchmark("canneal")
	if err != nil || b.Name != "canneal" {
		t.Fatalf("%+v, %v", b, err)
	}
	if _, err := FindBenchmark("nope"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestSpecValidation(t *testing.T) {
	base := BenchmarkSpec{Name: "x", FootprintFrac: 0.5, SweepFrac: 0.5,
		HotRows: 10, HotAccessesPerWindow: 10, ZipfS: 1, WriteFrac: 0.1}
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	muts := []func(*BenchmarkSpec){
		func(b *BenchmarkSpec) { b.Name = "" },
		func(b *BenchmarkSpec) { b.FootprintFrac = 0 },
		func(b *BenchmarkSpec) { b.FootprintFrac = 1.5 },
		func(b *BenchmarkSpec) { b.SweepFrac = -0.1 },
		func(b *BenchmarkSpec) { b.HotRows = -1 },
		func(b *BenchmarkSpec) { b.HotAccessesPerWindow = -1 },
		func(b *BenchmarkSpec) { b.ZipfS = 0 },
		func(b *BenchmarkSpec) { b.WriteFrac = 2 },
	}
	for i, mut := range muts {
		b := base
		mut(&b)
		if err := b.Validate(); err == nil {
			t.Errorf("mutation %d not caught", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec, err := FindBenchmark("dedup")
	if err != nil {
		t.Fatal(err)
	}
	a, err := spec.Generate(1024, 0.128, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := spec.Generate(1024, 0.128, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatal("nondeterministic length")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic records")
		}
	}
	c, err := spec.Generate(1024, 0.128, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestGenerateWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		spec, err := FindBenchmark("ferret")
		if err != nil {
			return false
		}
		const rows, dur = 512, 0.1
		recs, err := spec.Generate(rows, dur, seed)
		if err != nil {
			return false
		}
		last := -1.0
		for _, r := range recs {
			if r.Validate() != nil || r.Time < last || r.Time >= dur || r.Row >= rows {
				return false
			}
			last = r.Time
		}
		return len(recs) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestGenerateErrors(t *testing.T) {
	vips, _ := FindBenchmark("vips")
	badSpec := vips
	badSpec.ZipfS = 0
	flood := vips
	flood.HotAccessesPerWindow = math.MaxInt
	for _, tc := range []struct {
		name     string
		spec     BenchmarkSpec
		rows     int
		duration float64
	}{
		{"zero rows", vips, 0, 0.1},
		{"zero duration", vips, 10, 0},
		{"negative duration", vips, 10, -0.1},
		{"NaN duration", vips, 10, math.NaN()},
		{"+Inf duration", vips, 10, math.Inf(1)},
		{"-Inf duration", vips, 10, math.Inf(-1)},
		{"window count overflows int", vips, 10, 1e300},
		{"record count overflows int", vips, 10, 1e17},
		{"per-window count overflows int", flood, 10, 0.1},
		{"invalid spec", badSpec, 10, 0.1},
	} {
		if recs, err := tc.spec.Generate(tc.rows, tc.duration, 1); err == nil {
			t.Errorf("%s: got %d records, want an error", tc.name, len(recs))
		}
	}
}

func TestCoverageOrdering(t *testing.T) {
	// Memory-resident workloads must cover far more rows per window than
	// compute-bound ones - the property Figure 4's VRL-Access spread needs.
	const rows, dur = 8192, 0.256
	cov := func(name string) float64 {
		spec, err := FindBenchmark(name)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := spec.Generate(rows, dur, 5)
		if err != nil {
			t.Fatal(err)
		}
		return Analyze(recs, rows, dur).MeanCoverage
	}
	heavy := cov("streamcluster")
	light := cov("swaptions")
	if heavy < 2*light {
		t.Fatalf("streamcluster coverage %v should dwarf swaptions %v", heavy, light)
	}
	if heavy < 0.5 {
		t.Fatalf("streamcluster coverage %v too low", heavy)
	}
}

func TestAnalyze(t *testing.T) {
	recs := []Record{
		{Time: 0.01, Op: Read, Row: 1},
		{Time: 0.02, Op: Write, Row: 1},
		{Time: 0.07, Op: Read, Row: 2},
	}
	st := Analyze(recs, 4, 0.128)
	if st.Records != 3 || st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("%+v", st)
	}
	if st.UniqueRows != 2 {
		t.Fatalf("unique = %d", st.UniqueRows)
	}
	// Window 1 touches 1/4 rows, window 2 touches 1/4.
	if st.MeanCoverage != 0.25 {
		t.Fatalf("coverage = %v", st.MeanCoverage)
	}
	empty := Analyze(nil, 4, 0)
	if empty.Records != 0 {
		t.Fatal("empty analyze broken")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	in := []Record{
		{Time: 0.001, Op: Read, Row: 7},
		{Time: 0.002, Op: Write, Row: 8191},
		{Time: 0.002, Op: Read, Row: 0},
	}
	for _, r := range in {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if bw.Count() != len(in) {
		t.Fatalf("count = %d", bw.Count())
	}
	// 5-byte header + 13 bytes per record.
	if want := 5 + 13*len(in); buf.Len() != want {
		t.Fatalf("encoded %d bytes, want %d", buf.Len(), want)
	}
	br := NewBinaryReader(&buf)
	for i, want := range in {
		got, err := br.Next()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: %+v != %+v", i, got, want)
		}
	}
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	br := NewBinaryReader(&buf)
	if _, err := br.Next(); err != io.EOF {
		t.Fatalf("want EOF, got %v", err)
	}
}

func TestBinaryReaderErrors(t *testing.T) {
	// Bad magic.
	if _, err := NewBinaryReader(strings.NewReader("XXXX\x01")).Next(); err == nil {
		t.Fatal("bad magic must be rejected")
	}
	// Bad version.
	if _, err := NewBinaryReader(strings.NewReader("VRLT\x09")).Next(); err == nil {
		t.Fatal("bad version must be rejected")
	}
	// Truncated header.
	if _, err := NewBinaryReader(strings.NewReader("VR")).Next(); err == nil {
		t.Fatal("truncated header must be rejected")
	}
	// Truncated record.
	var buf bytes.Buffer
	bw := NewBinaryWriter(&buf)
	if err := bw.Write(Record{Time: 1, Op: Read, Row: 2}); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	if _, err := NewBinaryReader(bytes.NewReader(trunc)).Next(); err == nil {
		t.Fatal("truncated record must be rejected")
	}
	// Time going backwards.
	buf.Reset()
	bw = NewBinaryWriter(&buf)
	_ = bw.Write(Record{Time: 2, Op: Read, Row: 1})
	_ = bw.Flush()
	raw := append([]byte{}, buf.Bytes()...)
	// Append a second record with an earlier time by hand.
	var second bytes.Buffer
	bw2 := NewBinaryWriter(&second)
	_ = bw2.Write(Record{Time: 1, Op: Read, Row: 1})
	_ = bw2.Flush()
	full := append(raw, second.Bytes()[5:]...)
	br := NewBinaryReader(bytes.NewReader(full))
	if _, err := br.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Next(); err == nil {
		t.Fatal("backwards time must be rejected")
	}
}

func TestBinaryWriterRejectsBadRecord(t *testing.T) {
	bw := NewBinaryWriter(io.Discard)
	if err := bw.Write(Record{Time: -1, Op: Read}); err == nil {
		t.Fatal("bad record must be rejected")
	}
	if err := bw.Flush(); err == nil {
		t.Fatal("writer must stick to its error")
	}
}

func TestBinaryIsSmallerThanText(t *testing.T) {
	spec, err := FindBenchmark("dedup")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(2048, 0.128, 1)
	if err != nil {
		t.Fatal(err)
	}
	var text, bin bytes.Buffer
	tw := NewWriter(&text)
	bw := NewBinaryWriter(&bin)
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = tw.Flush()
	_ = bw.Flush()
	if bin.Len() >= text.Len() {
		t.Fatalf("binary (%d B) not smaller than text (%d B)", bin.Len(), text.Len())
	}
}

func TestOpenSourceAutodetect(t *testing.T) {
	recs := []Record{
		{Time: 0.001, Op: Read, Row: 3},
		{Time: 0.002, Op: Write, Row: 4},
	}
	drain := func(src Source) []Record {
		var out []Record
		for {
			r, err := src.Next()
			if err == io.EOF {
				return out
			}
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r)
		}
	}

	// Plain text.
	var text bytes.Buffer
	tw := NewWriter(&text)
	for _, r := range recs {
		if err := tw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = tw.Flush()
	src, err := OpenSource(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(src); len(got) != 2 || got[1].Row != 4 {
		t.Fatalf("text autodetect: %+v", got)
	}

	// Plain binary.
	var bin bytes.Buffer
	bw := NewBinaryWriter(&bin)
	for _, r := range recs {
		if err := bw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	_ = bw.Flush()
	src, err = OpenSource(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(src); len(got) != 2 || got[0].Row != 3 {
		t.Fatalf("binary autodetect: %+v", got)
	}

	// Gzip-compressed binary.
	var gz bytes.Buffer
	cw := NewCompressedWriter(&gz)
	for _, r := range recs {
		if err := cw.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	src, err = OpenSource(bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(src); len(got) != 2 || got[1].Op != Write {
		t.Fatalf("gzip autodetect: %+v", got)
	}

	// Truncated gzip header is rejected.
	if _, err := OpenSource(bytes.NewReader([]byte{0x1f, 0x8b, 0x00})); err == nil {
		t.Fatal("corrupt gzip must be rejected")
	}

	// Empty input: a source that immediately EOFs.
	src, err = OpenSource(bytes.NewReader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(src); len(got) != 0 {
		t.Fatal("empty input should yield nothing")
	}
}

func TestCompressedSmallerForLargeTraces(t *testing.T) {
	spec, err := FindBenchmark("canneal")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := spec.Generate(4096, 0.128, 2)
	if err != nil {
		t.Fatal(err)
	}
	var raw, gz bytes.Buffer
	bw := NewBinaryWriter(&raw)
	cw := NewCompressedWriter(&gz)
	for _, r := range recs {
		_ = bw.Write(r)
		_ = cw.Write(r)
	}
	_ = bw.Flush()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if gz.Len() >= raw.Len() {
		t.Fatalf("gzip (%d B) not smaller than raw binary (%d B)", gz.Len(), raw.Len())
	}
}
