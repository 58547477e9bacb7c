// Command vrlmodel queries the circuit-level analytical refresh model
// (paper Section 2): latency breakdowns, restore coefficients, and the
// pre-sensing latency of arbitrary bank geometries, optionally validated
// against the transient circuit simulator.
//
// Usage:
//
//	vrlmodel -rows 8192 -cols 32
//	vrlmodel -rows 16384 -cols 128 -spice
package main

import (
	"flag"
	"fmt"

	"vrldram/internal/circuit/analytic"
	"vrldram/internal/circuit/netlists"
	"vrldram/internal/cli"
	"vrldram/internal/device"
)

func main() {
	var (
		rows     = flag.Int("rows", device.PaperBank.Rows, "bank rows")
		cols     = flag.Int("cols", device.PaperBank.Cols, "bank columns")
		runSpice = flag.Bool("spice", false, "validate pre-sensing against the transient circuit simulator")
		target   = flag.Float64("target", 0.95, "restore/signal development target fraction")
	)
	flag.Parse()
	cli.InterruptExit("vrlmodel")
	if !(*target > 0 && *target < 1) {
		fatal(fmt.Errorf("-target %g outside (0, 1)", *target))
	}

	p := device.Default90nm()
	geom := device.BankGeometry{Rows: *rows, Cols: *cols}
	m, err := analytic.New(p, geom)
	if err != nil {
		fatal(err)
	}

	fmt.Printf("bank %s at 90nm (tCK = %.3g ns)\n\n", geom, p.TCK*1e9)

	tauEq := m.TauEq(analytic.EqTolDefault)
	tauPre := m.TauPre(*target)
	dv, err := m.DefaultDvbl()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("equalization delay:   %.3f ns (%d cycles)\n", tauEq*1e9, p.Cycles(tauEq))
	fmt.Printf("pre-sensing delay:    %.3f ns (%d cycles) to %.0f%% signal\n", tauPre*1e9, p.Cycles(tauPre), *target*100)
	fmt.Printf("sense-amp input:      %.1f mV (95%% of worst-case coupled asymptote)\n", dv*1e3)
	fmt.Printf("sense phases t1+t2+t3: %.3f ns\n", m.SensePhaseDelay(dv)*1e9)
	fmt.Printf("restore time constant: %.3f ns\n\n", m.RestoreTau()*1e9)

	fmt.Println("scheduled operating point (paper Section 3.1):")
	fmt.Printf("  tau_partial = %d cycles (alpha = %.3f)\n", analytic.TauPartialCycles,
		m.RestoreAlpha(float64(analytic.TauPostPartialCycles)*p.TCK, dv))
	fmt.Printf("  tau_full    = %d cycles (alpha = %.5f)\n", analytic.TauFullCycles,
		m.RestoreAlpha(float64(analytic.TauPostFullCycles)*p.TCK, dv))

	t95, err := m.TimeToChargeFraction(0.5, 0.95)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  95%% of charge restored at %.0f%% of tRFC (Observation 1)\n", t95*100)

	if *runSpice {
		fmt.Println("\ntransient circuit validation:")
		meas, err := netlists.MeasurePreSense(p, geom, "ones", *target)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("  SPICE pre-sensing: %.3f ns (%d cycles), simulated in %v\n",
			meas.T95*1e9, meas.Cycles, meas.WallClock)
		diff := 100 * (tauPre - meas.T95) / meas.T95
		fmt.Printf("  model vs SPICE: %+.1f%%\n", diff)
	}
}

func fatal(err error) { cli.Fatal("vrlmodel", err) }
