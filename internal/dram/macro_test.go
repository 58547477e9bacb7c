package dram

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"slices"
	"testing"
)

// macroFixture is a small steady window: two period lanes over the 16-row
// test bank (rows 0-7 every 64 ms, rows 8-15 every 128 ms), each lane's
// events spread across one period in (time, row) order, with VRL-style
// partial-refresh counters.
type macroFixture struct {
	bank  *Bank
	lanes []RefreshLane
	cfg   StreamConfig
}

func newMacroFixture(t *testing.T) *macroFixture {
	t.Helper()
	b := newBank(t)
	rows := b.Geom.Rows
	cfg := StreamConfig{
		Periods:       make([]int64, rows),
		RCount:        make([]int, rows),
		MPRSF:         make([]int, rows),
		AlphaFull:     1,
		AlphaPartial:  0.9,
		CyclesFull:    12,
		CyclesPartial: 8,
	}
	lanes := []RefreshLane{{Delta: Ticks(0.064)}, {Delta: Ticks(0.128)}}
	for r := 0; r < rows; r++ {
		li, j := r/8, r%8
		l := &lanes[li]
		l.Events = append(l.Events, StreamEvent{T: l.Delta * (2*int64(j) + 1) / 16, Row: r})
		cfg.Periods[r] = l.Delta
		cfg.RCount[r] = r % 3
		cfg.MPRSF[r] = 2 + r%2
	}
	return &macroFixture{bank: b, lanes: lanes, cfg: cfg}
}

// snapshot serializes everything a bailing window must leave alone: the
// bank state, every lane (consumed prefix, head, and key included), and
// the scheduler's counter column.
func (f *macroFixture) snapshot(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	for _, v := range []interface{}{f.bank.State(), f.lanes, f.cfg.RCount} {
		if err := enc.Encode(v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestRefreshMacroBailLeavesStateUntouched pins the refusal contract the
// simulator's fallback relies on: when the kernel meets a lane shape it
// cannot replay - a row whose configured period disagrees with its lane's
// Delta, or a row queued twice - it reports Bailed with zero events and
// leaves bank state, lanes, and counters byte-identical. The offending row
// sits in the last lane, so the refusal comes after the first lane has
// already passed the planning pass.
func TestRefreshMacroBailLeavesStateUntouched(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*macroFixture)
	}{
		{"period-disagrees-with-lane", func(f *macroFixture) { f.cfg.Periods[13] = Ticks(0.256) }},
		{"row-queued-twice", func(f *macroFixture) {
			l := &f.lanes[1]
			l.Events = append(l.Events, StreamEvent{T: l.Delta, Row: 10})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newMacroFixture(t)
			// Age the bank first so the window would have real work.
			if _, err := f.bank.Refresh(4, Ticks(0.001), 0.5); err != nil {
				t.Fatal(err)
			}
			c.mut(f)
			before := f.snapshot(t)
			var sc StreamScratch
			res, err := f.bank.RefreshMacro(&sc, f.lanes, Ticks(0.5), &f.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Bailed || res.Events != 0 || res.ChargeRestored != (ChargeSum{}) {
				t.Fatalf("window did not bail cleanly: %+v", res)
			}
			if after := f.snapshot(t); !bytes.Equal(before, after) {
				t.Fatal("bailing window mutated bank, lanes, or counters")
			}
		})
	}
}

// TestRefreshMacroMatchesPerEventRefresh is the kernel's direct
// equivalence check: a window the kernel accepts must leave the bank, the
// counters, and the ChargeRestored sum exactly as a per-event replay
// through Bank.Refresh in (time, row) order would, and the lanes holding
// each row's first event past the horizon.
func TestRefreshMacroMatchesPerEventRefresh(t *testing.T) {
	horizon := Ticks(0.5)
	got, want := newMacroFixture(t), newMacroFixture(t)
	// Age one row so its first interval differs from its period.
	for _, f := range []*macroFixture{got, want} {
		if _, err := f.bank.Refresh(4, Ticks(0.001), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	var sc StreamScratch
	res, err := got.bank.RefreshMacro(&sc, got.lanes, horizon, &got.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bailed || res.Events == 0 {
		t.Fatalf("steady window was not replayed: %+v", res)
	}

	// Reference: pop the (time, row) minimum across the lanes one event at
	// a time, refresh it through the scalar bank path, and re-arm it.
	var pending []StreamEvent
	for _, l := range want.lanes {
		pending = append(pending, l.Events[l.Head:]...)
	}
	less := func(a, b StreamEvent) int {
		return cmp.Or(cmp.Compare(a.T, b.T), a.Row-b.Row)
	}
	var acc ChargeSum
	events, fulls := int64(0), int64(0)
	lastT, lastCycles := int64(-1), 0
	for {
		slices.SortFunc(pending, less)
		ev := pending[0]
		if ev.T >= horizon {
			break
		}
		alpha, cyc := want.cfg.AlphaPartial, want.cfg.CyclesPartial
		if want.cfg.RCount[ev.Row] == want.cfg.MPRSF[ev.Row] {
			alpha, cyc = want.cfg.AlphaFull, want.cfg.CyclesFull
			want.cfg.RCount[ev.Row] = 0
			fulls++
		} else {
			want.cfg.RCount[ev.Row]++
		}
		r, err := want.bank.Refresh(ev.Row, ev.T, alpha)
		if err != nil {
			t.Fatal(err)
		}
		acc.Add(r.ChargeRestored)
		events++
		lastT, lastCycles = ev.T, cyc
		pending[0].T = ev.T + want.cfg.Periods[ev.Row]
	}

	if res.Events != events || res.Fulls != fulls || res.Partials != events-fulls {
		t.Fatalf("counts: kernel %+v, reference events=%d fulls=%d", res, events, fulls)
	}
	if res.ChargeRestored != acc {
		t.Fatalf("ChargeRestored %+v, reference %+v", res.ChargeRestored, acc)
	}
	if res.LastTime != lastT || res.LastCycles != lastCycles {
		t.Fatalf("last event (%d, %d cycles), reference (%d, %d)", res.LastTime, res.LastCycles, lastT, lastCycles)
	}
	var gotState, wantState bytes.Buffer
	if err := gob.NewEncoder(&gotState).Encode(got.bank.State()); err != nil {
		t.Fatal(err)
	}
	if err := gob.NewEncoder(&wantState).Encode(want.bank.State()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotState.Bytes(), wantState.Bytes()) {
		t.Fatal("bank state diverged from the per-event replay")
	}
	if !slices.Equal(got.cfg.RCount, want.cfg.RCount) {
		t.Fatalf("counters %v, reference %v", got.cfg.RCount, want.cfg.RCount)
	}
	var next []StreamEvent
	for _, l := range got.lanes {
		next = append(next, l.Events[l.Head:]...)
	}
	slices.SortFunc(next, less)
	slices.SortFunc(pending, less)
	if !slices.Equal(next, pending) {
		t.Fatalf("lanes hold %v, reference pending %v", next, pending)
	}
}

// TestRefreshMacroGrowsScratchColumnsIndependently reuses a StreamScratch
// whose row and count columns have different capacities - what append
// leaves behind, since it rounds an int32 and an int64 column to different
// size classes - and requires the window to replay exactly as on a fresh
// scratch. A check of one column's capacity standing in for both slices
// the shorter column past its capacity.
func TestRefreshMacroGrowsScratchColumnsIndependently(t *testing.T) {
	horizon := Ticks(0.5)
	ref := newMacroFixture(t)
	var fresh StreamScratch
	want, err := ref.bank.RefreshMacro(&fresh, ref.lanes, horizon, &ref.cfg)
	if err != nil {
		t.Fatal(err)
	}
	rows := ref.bank.Geom.Rows
	for _, c := range []struct {
		name             string
		rowsCap, cntsCap int
	}{
		{"counts-shorter", rows, rows / 4},
		{"rows-shorter", rows / 4, rows},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newMacroFixture(t)
			sc := StreamScratch{mrows: make([]int32, 0, c.rowsCap), mcnt: make([]int64, 0, c.cntsCap)}
			got, err := f.bank.RefreshMacro(&sc, f.lanes, horizon, &f.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("window %+v, fresh scratch %+v", got, want)
			}
			var gotState, wantState bytes.Buffer
			if err := gob.NewEncoder(&gotState).Encode(f.bank.State()); err != nil {
				t.Fatal(err)
			}
			if err := gob.NewEncoder(&wantState).Encode(ref.bank.State()); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotState.Bytes(), wantState.Bytes()) {
				t.Fatal("bank state diverged from the fresh-scratch window")
			}
		})
	}
}
