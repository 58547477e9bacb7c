package exp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteMarkdownReport runs every registered experiment and renders the
// results as a Markdown document: the generator behind EXPERIMENTS.md and
// the cmd/vrlreport binary.
//
// The experiments run through the campaign driver on cfg.workers()
// goroutines (each one fans its own cells out on the same bound) and render
// in registry order, so the text is the same at every Workers value apart
// from the wall-clock fields. Every experiment runs even if another fails;
// rendering stops at the first failed one in registry order and returns its
// error, as a sequential loop would. Otherwise it returns the first write
// error.
func WriteMarkdownReport(w io.Writer, cfg Config) error {
	// No hook and no cancellation, so the driver cannot fail.
	outs, _ := drive(context.Background(), cfg, CampaignOptions{})

	// bufio's write error is sticky, so Flush reports the first failed write
	// of any line below.
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# VRL-DRAM reproduction report\n\n")
	fmt.Fprintf(bw, "Generated by `vrlreport` against the in-repository simulator.\n\n")
	fmt.Fprintf(bw, "Configuration: bank %s at 90 nm, seed %d, simulation window %.0f ms,\n",
		cfg.Geom, cfg.Seed, cfg.Duration*1000)
	fmt.Fprintf(bw, "tCK %.3g ns, guardband %.2f, nbits 2.\n\n", cfg.Params.TCK*1e9, 0.86)
	for _, o := range outs {
		if o.err != nil {
			// Keep the sections rendered so far; the experiment error takes
			// precedence over a write error.
			_ = bw.Flush()
			return fmt.Errorf("%s: %w", o.ID, o.err)
		}
		fmt.Fprintf(bw, "## %s — %s\n\n", o.res.ID, o.Title)
		writeMarkdownTable(bw, o.res)
		for _, n := range o.res.Notes {
			fmt.Fprintf(bw, "- %s\n", n)
		}
		fmt.Fprintf(bw, "- regenerated in %s by `vrlexp -exp %s`\n\n", o.elapsed.Round(time.Millisecond), o.res.ID)
	}
	return bw.Flush()
}

// writeMarkdownTable renders r's table; w's sticky error carries any write
// failure to the caller's Flush.
func writeMarkdownTable(w *bufio.Writer, r *Result) {
	if len(r.Headers) == 0 {
		return
	}
	esc := func(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
	row := func(cells []string) string {
		parts := make([]string, len(r.Headers))
		for i := range r.Headers {
			if i < len(cells) {
				parts[i] = esc(cells[i])
			}
		}
		return "| " + strings.Join(parts, " | ") + " |"
	}
	fmt.Fprintln(w, row(r.Headers))
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	fmt.Fprintln(w, "| "+strings.Join(sep, " | ")+" |")
	// Cap very long tables (fig1a/fig1b/fig3a/fig5 curves) at a readable
	// excerpt; the full series regenerates via vrlexp.
	const maxRows = 24
	rows := r.Rows
	truncated := false
	if len(rows) > maxRows {
		rows = rows[:maxRows]
		truncated = true
	}
	for _, cells := range rows {
		fmt.Fprintln(w, row(cells))
	}
	if truncated {
		fmt.Fprintf(w, "| ... %d more rows ... |\n", len(r.Rows)-maxRows)
	}
	fmt.Fprintln(w)
}
