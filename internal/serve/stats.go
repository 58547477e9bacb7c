package serve

import (
	"fmt"

	"vrldram/internal/core"
	"vrldram/internal/sim"
)

// statsTag versions the stats blob: sta2 carries ChargeRestored as its
// 128-bit fixed-point sum, sta1 carried a float.
const statsTag = "sta2"

// EncodeStats flattens a sim.Stats into a tagged binary blob (the ResultMsg
// payload for JobSim). The field order mirrors the stats section of the
// internal/checkpoint sim codec so the two stay reviewable side by side.
func EncodeStats(s sim.Stats) []byte {
	var e core.StateEncoder
	e.Tag(statsTag)
	e.Bytes([]byte(s.Scheduler))
	e.Float(s.Duration)
	e.Int(s.FullRefreshes)
	e.Int(s.PartialRefreshes)
	e.Int(s.BusyCycles)
	e.Int(s.Accesses)
	e.Uint64(s.ChargeRestored.Hi)
	e.Uint64(s.ChargeRestored.Lo)
	e.Int(int64(s.Violations))
	e.Int(s.CorrectedErrors)
	e.Int(s.UncorrectableErrors)
	e.Int(s.RowsUpgraded)
	e.Int(s.FaultsInjected)
	e.Int(s.Guard.Alarms)
	e.Int(s.Guard.Demotions)
	e.Int(s.Guard.Promotions)
	e.Int(s.Guard.Escalations)
	e.Int(s.Guard.BreakerTrips)
	e.Float(s.Guard.TimeDegraded)
	e.Int(s.Scrub.RowsPatrolled)
	e.Int(s.Scrub.Corrected)
	e.Int(s.Scrub.Uncorrectable)
	e.Int(s.Scrub.Reprofiles)
	e.Int(s.Scrub.RowsHealed)
	e.Int(s.Scrub.RowsRemapped)
	e.Int(s.Scrub.HardFails)
	e.Int(s.Scrub.BusyRetries)
	e.Int(s.Scrub.SLOMisses)
	e.Int(int64(s.Scrub.SparesLeft))
	return e.Data()
}

// DecodeStats reverses EncodeStats.
func DecodeStats(p []byte) (sim.Stats, error) {
	d := core.NewStateDecoder(p)
	var s sim.Stats
	if tag := string(d.Bytes()); d.Err() == nil && tag != statsTag {
		return s, fmt.Errorf("serve: stats blob format %q, this build reads %q (a peer from before the fixed-point charge sum)", tag, statsTag)
	}
	s.Scheduler = string(d.Bytes())
	s.Duration = d.Float()
	s.FullRefreshes = d.Int()
	s.PartialRefreshes = d.Int()
	s.BusyCycles = d.Int()
	s.Accesses = d.Int()
	s.ChargeRestored.Hi = d.Uint64()
	s.ChargeRestored.Lo = d.Uint64()
	s.Violations = int(d.Int())
	s.CorrectedErrors = d.Int()
	s.UncorrectableErrors = d.Int()
	s.RowsUpgraded = d.Int()
	s.FaultsInjected = d.Int()
	s.Guard.Alarms = d.Int()
	s.Guard.Demotions = d.Int()
	s.Guard.Promotions = d.Int()
	s.Guard.Escalations = d.Int()
	s.Guard.BreakerTrips = d.Int()
	s.Guard.TimeDegraded = d.Float()
	s.Scrub.RowsPatrolled = d.Int()
	s.Scrub.Corrected = d.Int()
	s.Scrub.Uncorrectable = d.Int()
	s.Scrub.Reprofiles = d.Int()
	s.Scrub.RowsHealed = d.Int()
	s.Scrub.RowsRemapped = d.Int()
	s.Scrub.HardFails = d.Int()
	s.Scrub.BusyRetries = d.Int()
	s.Scrub.SLOMisses = d.Int()
	s.Scrub.SparesLeft = int(d.Int())
	return s, finish(d)
}
