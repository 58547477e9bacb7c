package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// public function it names. Times are seconds since the child process that
// recorded it was spawned.
type Span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for a root span
	Iter   int     `json:"iter"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

func (s Span) dur() float64 { return s.End - s.Start }

// tracer keeps the spans of one iteration in memory. When off, begin and
// end cost one branch, so untraced iterations run the same code.
type tracer struct {
	on     bool
	iter   int
	base   time.Time // monotonic reading taken when main started
	offset float64   // seconds from spawn to base

	mu    sync.Mutex
	spans []Span
}

func (t *tracer) now() float64 { return t.offset + time.Since(t.base).Seconds() }

// begin opens a span under parent and returns its id (-1 when off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	return t.beginAt(name, parent, t.now())
}

func (t *tracer) beginAt(name string, parent int, now float64) int {
	if !t.on {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Iter: t.iter, Name: name, Start: now})
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// selfTimes sums, per span name, each span's duration minus the part of it
// its children cover. Children running in parallel (fleet shards on two
// slots) are covered once, by the union of their intervals.
func selfTimes(spans []Span) map[string]float64 {
	kids := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s, kids[s.ID])
	}
	return self
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p Span, kids []Span) float64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	total, curS, curE := 0.0, 0.0, -1.0
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > curE {
			if curE > curS {
				total += curE - curS
			}
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	if curE > curS {
		total += curE - curS
	}
	return total
}
