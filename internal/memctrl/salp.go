package memctrl

import (
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/dram"
)

// Subarray-level parallelism (SALP, Kim et al. ISCA'12 - reference [21] of
// the paper): a bank's rows live in physically independent subarrays, each
// with its own local row buffer, so a refresh can proceed in one subarray
// while requests are served from the others. This is the natural companion
// to VRL: SALP hides refreshes from *other* subarrays, VRL shortens the
// blocking seen by the refreshed one.
//
// The model here is SALP-ideal: subarrays operate fully independently
// (no shared-bus serialization), so the results are an upper bound on the
// technique - stated in the experiment notes.

// SALPStats reports a subarray-parallel run.
type SALPStats struct {
	Scheduler string
	Subarrays int

	Requests   int64
	RowHits    int64
	AvgLatency float64
	P95Latency int64
	MaxLatency int64

	RefreshOps        int64
	RefreshBusyCycles int64
	StalledByRefresh  int64 // requests that waited on a refresh in THEIR subarray

	Violations int
}

// RunSALP services the request stream against one bank whose rows are
// spread over nSub independent subarrays (contiguous row ranges). nSub = 1
// reduces to a single-row-buffer bank. Of opts it reads Timing, TCK and
// Duration; setting ElasticSlack, ECC, DemoteOnCorrect or Scrub is an
// error.
func RunSALP(bank *dram.Bank, sched core.Scheduler, reqs []Request, opts Options, nSub int) (SALPStats, []Request, error) {
	// The subarray study leaves out Run's elastic, ECC and scrub extensions;
	// reject them rather than run as if they were off.
	for _, o := range []struct {
		set  bool
		name string
	}{
		{opts.ElasticSlack != 0, "ElasticSlack"},
		{opts.ECC != nil, "ECC"},
		{opts.DemoteOnCorrect, "DemoteOnCorrect"},
		{opts.Scrub != nil, "Scrub"},
	} {
		if o.set {
			return SALPStats{}, nil, fmt.Errorf("memctrl: RunSALP does not support Options.%s", o.name)
		}
	}
	if nSub < 1 || nSub > bank.Geom.Rows {
		return SALPStats{}, nil, fmt.Errorf("memctrl: subarray count %d outside [1,%d]", nSub, bank.Geom.Rows)
	}
	st, out, err := run([]*dram.Bank{bank}, []core.Scheduler{sched}, reqs, opts, nSub, PerBankRefresh)
	if err != nil {
		return SALPStats{}, nil, err
	}
	return SALPStats{
		Scheduler:         st.Scheduler,
		Subarrays:         nSub,
		Requests:          st.Requests,
		RowHits:           st.RowHits,
		AvgLatency:        st.AvgLatency,
		P95Latency:        st.P95Latency,
		MaxLatency:        st.MaxLatency,
		RefreshOps:        st.RefreshOps,
		RefreshBusyCycles: st.RefreshBusyCycles,
		StalledByRefresh:  st.StalledByRefresh,
		Violations:        st.Violations,
	}, out, nil
}
