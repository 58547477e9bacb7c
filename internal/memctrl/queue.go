package memctrl

// event kinds for the unified timeline, in their tie-break order: at one
// cycle a refresh is served before a request (the controller must not starve
// refreshes) and a patrol read after both.
type evKind int

const (
	evRefresh evKind = iota
	evRequest
	evScrub // patrol read: background priority, loses every arbitration tie
)

type event struct {
	cycle int64
	kind  evKind
	row   int   // refresh row
	due   int64 // refresh: originally scheduled cycle (for elastic postponement)
	req   int   // request index; refresh: the unit it addresses, or -1 for all-bank
	seq   int64 // push order among refresh and scrub events
}

// eventQueue is a controller's timeline. It merges two sources in
// (cycle, kind, seq) order: a binary min-heap of refresh and scrub events,
// and a cursor over the requests, whose arrival cycles the engine has
// validated as nondecreasing. The order compares seq only between events of
// one kind and requests leave in index order, so the merge pops exactly the
// sequence of one heap holding every event, requests numbered in arrival
// order.
type eventQueue struct {
	heap     []event
	arrivals []int64 // request arrival cycles, nondecreasing
	next     int     // first request not yet popped
	seq      int64
	horizon  int64 // events at or past this cycle are dropped
}

// newEventQueue sizes the queue for up to events pending refresh and scrub
// events and requests requests.
func newEventQueue(horizon int64, events, requests int) *eventQueue {
	return &eventQueue{
		heap:     make([]event, 0, events),
		arrivals: make([]int64, 0, requests),
		horizon:  horizon,
	}
}

// pushRequest appends the next request, numbered in call order. Arrivals
// must be nondecreasing; the engine drops requests past the horizon first.
func (q *eventQueue) pushRequest(arrival int64) {
	q.arrivals = append(q.arrivals, arrival)
}

func eventLess(a, b *event) bool {
	if a.cycle != b.cycle {
		return a.cycle < b.cycle
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// push schedules a refresh or scrub event, dropping it past the horizon.
func (q *eventQueue) push(ev event) {
	if ev.cycle >= q.horizon {
		return
	}
	q.seq++
	ev.seq = q.seq
	h := append(q.heap, ev)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !eventLess(&h[i], &h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	q.heap = h
}

// requestNext reports whether the next request precedes the heap's top.
func (q *eventQueue) requestNext() bool {
	if q.next == len(q.arrivals) {
		return false
	}
	if len(q.heap) == 0 {
		return true
	}
	a, top := q.arrivals[q.next], &q.heap[0]
	return a < top.cycle || (a == top.cycle && evRequest < top.kind)
}

// peek returns the event pop would return next, without removing it.
func (q *eventQueue) peek() (event, bool) {
	if q.requestNext() {
		return event{cycle: q.arrivals[q.next], kind: evRequest, req: q.next}, true
	}
	if len(q.heap) == 0 {
		return event{}, false
	}
	return q.heap[0], true
}

// pop removes and returns the earliest event; ok is false once both sources
// are empty. It repeats peek's choice rather than calling it: copying the
// event out of peek cost about 8 % of BenchmarkControllerRun.
func (q *eventQueue) pop() (ev event, ok bool) {
	if q.requestNext() {
		ev = event{cycle: q.arrivals[q.next], kind: evRequest, req: q.next}
		q.next++
		return ev, true
	}
	h := q.heap
	n := len(h) - 1
	if n < 0 {
		return event{}, false
	}
	ev = h[0]
	h[0] = h[n]
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(&h[r], &h[c]) {
			c = r
		}
		if !eventLess(&h[c], &h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	q.heap = h
	return ev, true
}
