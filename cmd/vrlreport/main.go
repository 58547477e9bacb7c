// Command vrlreport runs every experiment of the reproduction and emits a
// Markdown report of the regenerated tables and figures - the generator
// behind EXPERIMENTS.md.
//
// Usage:
//
//	vrlreport > report.md
//	vrlreport -seed 7 -duration 0.768 -o report.md
package main

import (
	"flag"
	"os"

	"vrldram/internal/cli"
	"vrldram/internal/exp"
)

func main() {
	var (
		seed     = flag.Int64("seed", 0, "override the deterministic seed (0 = paper default)")
		duration = flag.Float64("duration", 0, "override the simulation window in seconds (0 = paper default)")
		out      = flag.String("o", "", "output file (default stdout)")
	)
	flag.Parse()
	cli.InterruptExit("vrlreport")

	cfg := exp.DefaultWith(*seed, *duration)

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}
	if err := exp.WriteMarkdownReport(w, cfg); err != nil {
		fatal(err)
	}
}

func fatal(err error) { cli.Fatal("vrlreport", err) }
