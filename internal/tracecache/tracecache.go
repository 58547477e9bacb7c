// Package tracecache memoizes synthetic trace generation. The experiment
// grids in internal/exp run the same (benchmark, rows, duration, seed)
// workload against several schedulers - the Figure 4 grid alone used to
// regenerate each benchmark's trace once per scheduler - and trace synthesis
// (tens of thousands of records, drawn and sorted one 64 ms window at a time)
// is one of the larger setup steps a cell pays. The cache generates each
// distinct trace once and hands every caller a shared, read-only view, safe
// under the parallel sweep engine's concurrent cells.
//
// As with internal/profcache, the package-level functions use one
// process-wide default cache (right for a one-shot CLI run); long-lived
// processes serving many independent clients own Cache instances so trace
// memory stays scoped to the service that generated it and can be bounded
// with Flush.
package tracecache

import (
	"vrldram/internal/memo"
	"vrldram/internal/trace"
)

// key is the full identity of a generated trace. The whole BenchmarkSpec
// participates (not just its name) so ad-hoc specs - e.g. the coverage
// sweep's synthetic workloads - can never collide with each other or with a
// PARSEC spec that happens to share a name.
type key struct {
	spec     trace.BenchmarkSpec
	rows     int
	duration float64
	seed     int64
}

// Cache is one memoization scope for generated traces. The zero value is
// ready to use; all methods are safe for concurrent use.
type Cache struct {
	m memo.Map[key, []trace.Record]
}

// defaultCache backs the package-level functions.
var defaultCache Cache

// Records returns the records of spec.Generate(rows, duration, seed),
// generating them on first use and returning the same shared slice
// afterwards. The slice is READ-ONLY: callers must not modify, sort, or
// append to it (append aliases the backing array). Wrap it in a
// trace.NewSliceSource - the source keeps its own cursor - or copy it before
// mutating.
func (c *Cache) Records(spec trace.BenchmarkSpec, rows int, duration float64, seed int64) ([]trace.Record, error) {
	return c.m.Get(key{spec: spec, rows: rows, duration: duration, seed: seed}, func() ([]trace.Record, error) {
		return spec.Generate(rows, duration, seed)
	})
}

// Source returns a fresh single-use trace.Source over the memoized records.
func (c *Cache) Source(spec trace.BenchmarkSpec, rows int, duration float64, seed int64) (trace.Source, error) {
	recs, err := c.Records(spec, rows, duration, seed)
	if err != nil {
		return nil, err
	}
	return trace.NewSliceSource(recs), nil
}

// Len reports the number of cached traces.
func (c *Cache) Len() int { return c.m.Len() }

// Flush drops every cached trace.
func (c *Cache) Flush() { c.m.Flush() }

// Records is Cache.Records on the process-wide default cache.
func Records(spec trace.BenchmarkSpec, rows int, duration float64, seed int64) ([]trace.Record, error) {
	return defaultCache.Records(spec, rows, duration, seed)
}

// Source is Cache.Source on the process-wide default cache.
func Source(spec trace.BenchmarkSpec, rows int, duration float64, seed int64) (trace.Source, error) {
	return defaultCache.Source(spec, rows, duration, seed)
}

// Len reports the default cache's trace count.
func Len() int { return defaultCache.Len() }

// Flush drops every trace of the default cache. Long-lived processes can
// call it between campaigns to bound memory; tests use it for isolation.
func Flush() { defaultCache.Flush() }
