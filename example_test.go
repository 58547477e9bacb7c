package vrldram_test

import (
	"fmt"
	"log"

	"vrldram"
)

// The zero-value options reproduce the paper's evaluation setup; a
// refresh-only simulation of one bin hyperperiod shows the headline
// comparison.
func ExampleNewSystem() {
	sys, err := vrldram.NewSystem(vrldram.Options{})
	if err != nil {
		log.Fatal(err)
	}
	raidr, err := sys.Simulate(vrldram.SchedRAIDR, nil, 0.768)
	if err != nil {
		log.Fatal(err)
	}
	vrl, err := sys.Simulate(vrldram.SchedVRL, nil, 0.768)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("VRL/RAIDR = %.3f, violations = %d\n",
		float64(vrl.BusyCycles)/float64(raidr.BusyCycles), vrl.Violations)
	// Output:
	// VRL/RAIDR = 0.787, violations = 0
}

// The evaluation bank reproduces the paper's Figure 3b binning exactly.
func ExampleSystem_BinCounts() {
	sys, err := vrldram.NewSystem(vrldram.Options{})
	if err != nil {
		log.Fatal(err)
	}
	counts, err := sys.BinCounts()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("64ms:%d 128ms:%d 192ms:%d 256ms:%d\n",
		counts[0.064], counts[0.128], counts[0.192], counts[0.256])
	// Output:
	// 64ms:68 128ms:101 192ms:145 256ms:7878
}

// The scheduled refresh latencies match the paper's Section 3.1 operating
// point.
func ExampleSystem_RefreshLatencies() {
	sys, err := vrldram.NewSystem(vrldram.Options{})
	if err != nil {
		log.Fatal(err)
	}
	partial, full := sys.RefreshLatencies()
	fmt.Printf("tau_partial=%d tau_full=%d\n", partial, full)
	// Output:
	// tau_partial=11 tau_full=19
}
