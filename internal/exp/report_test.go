package exp

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// withRegistry replaces the registry with the given entries for one test.
func withRegistry(t *testing.T, entries ...struct {
	ID    string
	Title string
	Run   Runner
}) {
	t.Helper()
	saved := Registry
	Registry = entries
	t.Cleanup(func() { Registry = saved })
}

var regeneratedIn = regexp.MustCompile("regenerated in [^ ]+")

// maskWallClock blanks a report's host-time fields: every section's
// "regenerated in" duration and tab1's three time columns.
func maskWallClock(report string) string {
	lines := strings.Split(regeneratedIn.ReplaceAllString(report, "regenerated in X"), "\n")
	inTab1 := false
	for i, l := range lines {
		if strings.HasPrefix(l, "## ") {
			inTab1 = strings.HasPrefix(l, "## tab1 ")
			continue
		}
		if !inTab1 || !strings.HasPrefix(l, "| ") || strings.HasPrefix(l, "| Bank ") || strings.HasPrefix(l, "| --- ") {
			continue
		}
		cells := strings.Split(l, " | ")
		if len(cells) != 7 {
			continue
		}
		cells[4], cells[5], cells[6] = "T", "T", "T |"
		lines[i] = strings.Join(cells, " | ")
	}
	return strings.Join(lines, "\n")
}

// TestWriteMarkdownReportWorkerInvariant: the experiments run concurrently
// but render in registry order, so the report at Workers=4 is the report at
// Workers=1 apart from its wall-clock fields.
func TestWriteMarkdownReportWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates the full report twice")
	}
	render := func(workers int) string {
		cfg := Default()
		cfg.Duration = 0.064
		cfg.Workers = workers
		var buf bytes.Buffer
		if err := WriteMarkdownReport(&buf, cfg); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return buf.String()
	}
	seq, par := maskWallClock(render(1)), maskWallClock(render(4))
	if !strings.Contains(seq, " | T | T | T |") {
		t.Fatalf("tab1's time columns were not masked; the comparison would be vacuous:\n%s", seq)
	}
	if seq != par {
		t.Fatalf("Workers=1 and Workers=4 reports differ:\n--- workers=1\n%s\n--- workers=4\n%s", seq, par)
	}
}

// TestWriteMarkdownReportFirstErrorInRegistryOrder: when two experiments
// fail, the error returned is the earlier one in registry order even when
// the later one fails first, and rendering stops before the failed section.
func TestWriteMarkdownReportFirstErrorInRegistryOrder(t *testing.T) {
	laterFailed := make(chan struct{})
	withRegistry(t,
		entry("t-ok", okRunner("t-ok")),
		entry("t-first", func(Config) (*Result, error) {
			<-laterFailed
			return nil, errors.New("first failure")
		}),
		entry("t-second", func(Config) (*Result, error) {
			defer close(laterFailed)
			return nil, errors.New("second failure")
		}),
	)
	cfg := Default()
	cfg.Workers = 4
	var buf bytes.Buffer
	err := WriteMarkdownReport(&buf, cfg)
	if err == nil || !strings.HasPrefix(err.Error(), "t-first: ") {
		t.Fatalf("error %v, want the t-first failure", err)
	}
	out := buf.String()
	if !strings.Contains(out, "## t-ok — ") || strings.Contains(out, "## t-first") {
		t.Fatalf("rendering should stop at the failed section:\n%s", out)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) <= f.n {
		f.n -= len(p)
		return len(p), nil
	}
	k := f.n
	f.n = 0
	return k, errWriteFailed
}

// TestWriteMarkdownReportWriteErrors: a writer that fails anywhere in the
// report, the trailing "regenerated in" line of the last section included,
// makes WriteMarkdownReport fail with the writer's error.
func TestWriteMarkdownReportWriteErrors(t *testing.T) {
	withRegistry(t, entry("t-a", okRunner("t-a")), entry("t-b", okRunner("t-b")))
	cfg := Default()
	var full bytes.Buffer
	if err := WriteMarkdownReport(&full, cfg); err != nil {
		t.Fatal(err)
	}
	report := full.String()
	firstSection := strings.Index(report, "## t-a")
	lastLine := strings.LastIndex(report, "- regenerated in")
	if firstSection < 0 || lastLine < firstSection {
		t.Fatalf("unexpected report layout:\n%s", report)
	}
	for _, n := range []int{firstSection + 3, lastLine + 5} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			if err := WriteMarkdownReport(&failAfter{n: n}, cfg); !errors.Is(err, errWriteFailed) {
				t.Fatalf("writer failing after %d of %d bytes: error %v, want %v", n, len(report), err, errWriteFailed)
			}
		})
	}
	// Slack for a "regenerated in" duration that renders longer this time.
	if err := WriteMarkdownReport(&failAfter{n: len(report) + 64}, cfg); err != nil {
		t.Fatalf("writer with room for the whole report: %v", err)
	}
}
