package serve

import (
	"context"
	"net"
	"path/filepath"
	"testing"
	"time"

	"vrldram/internal/exp"
	"vrldram/internal/fault"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// TestChaosKillRestartEquivalence is the service's core robustness claim:
// kill the server (no graceful shutdown, no final checkpoint - Crash
// suppresses every durable write from the moment it fires) several times in
// the middle of a streaming simulation session, restart it over the same
// data directory each time, and the statistics the client eventually
// receives are bit-identical to an uninterrupted in-process run - for every
// scheduler.
func TestChaosKillRestartEquivalence(t *testing.T) {
	const kills = 3
	for _, sched := range schedulerNames {
		sched := sched
		t.Run(sched, func(t *testing.T) {
			spec := SimSpec{Scheduler: sched, Seed: 11, Duration: 0.768, Rows: 2048, Cols: 8}
			recs := mkRecords(6000, spec.Rows, spec.Duration)
			want, err := RunLocal(spec, trace.NewSliceSource(recs))
			if err != nil {
				t.Fatal(err)
			}

			// Frequent checkpoints so every kill window has fresh durable
			// state to recover from.
			h := newHarness(t, Options{CheckpointEvery: spec.Duration / 64})

			resCh := make(chan struct{})
			var got sim.Stats
			var runErr error
			go func() {
				defer close(resCh)
				got, runErr = h.client().RunSim(context.Background(), spec, recs)
			}()

			since := time.Time{}
			for k := 0; k < kills; k++ {
				// Only crash after the current generation has provably made
				// durable progress, so recovery is exercised, not luck.
				since = h.waitCheckpoint(since, resCh)
				select {
				case <-resCh:
					k = kills // job finished early; equality check still runs
				default:
					h.crash()
					h.restart()
				}
			}

			<-resCh
			if runErr != nil {
				t.Fatalf("client did not survive %d kills: %v", kills, runErr)
			}
			if got != want {
				t.Fatalf("stats after %d kill/restart cycles diverge from uninterrupted run:\n got %+v\nwant %+v", kills, got, want)
			}
		})
	}
}

// TestChaosCampaignKillRestart does the same for a campaign session: each
// completed experiment checkpoints, a crash loses at most the experiment in
// flight, and the final result set matches an uninterrupted run.
func TestChaosCampaignKillRestart(t *testing.T) {
	// Deterministic experiments only (tab1 embeds wall-clock timings).
	spec := CampaignSpec{IDs: []string{"fig1a", "fig1b", "fig5"}, Duration: 0.1}
	want, err := exp.RunCampaign(context.Background(), spec.config(1), exp.CampaignOptions{IDs: spec.IDs})
	if err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, Options{})
	resCh := make(chan struct{})
	var got []*exp.Result
	var runErr error
	go func() {
		defer close(resCh)
		got, runErr = h.client().RunCampaign(context.Background(), spec)
	}()

	// Kill once mid-campaign, as soon as the first per-experiment
	// checkpoint proves durable progress.
	deadline := time.After(30 * time.Second)
poll:
	for {
		if paths, _ := filepath.Glob(filepath.Join(h.dir, "sess-*", "camp.ckpt")); len(paths) > 0 {
			break
		}
		select {
		case <-resCh:
			break poll
		case <-deadline:
			t.Fatal("no campaign checkpoint appeared within 30s")
		case <-time.After(2 * time.Millisecond):
		}
	}
	select {
	case <-resCh:
	default:
		h.crash()
		h.restart()
	}
	<-resCh
	if runErr != nil {
		t.Fatal(runErr)
	}
	if g, w := renderResults(t, got), renderResults(t, want); g != w {
		t.Fatalf("campaign after kill/restart diverges:\n got:\n%s\nwant:\n%s", g, w)
	}
}

// TestFlakyConnectionsStillConverge drives a full remote simulation through
// a deliberately hostile transport: the first connections are cut mid-frame
// at various depths, later ones corrupt bytes in flight (which the CRC layer
// must reject), and only then does a clean connection get through. The final
// statistics must still match the uninterrupted local run exactly.
func TestFlakyConnectionsStillConverge(t *testing.T) {
	spec := testSpec("vrl")
	recs := mkRecords(5000, spec.Rows, spec.Duration)
	want, err := RunLocal(spec, trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}

	h := newHarness(t, Options{CheckpointEvery: 0.02})
	dial := fault.NewFlakyDialer(
		func() (net.Conn, error) { return net.DialTimeout("tcp", h.addr, 5*time.Second) },
		func(attempt int) fault.ConnFaults {
			switch attempt {
			case 0:
				return fault.ConnFaults{CutAfterBytes: 900, Seed: 1} // dies mid-stream
			case 1:
				return fault.ConnFaults{CutAfterBytes: 7000, Seed: 2} // dies deeper mid-frame
			case 2:
				return fault.ConnFaults{GarbageRate: 0.2, Seed: 3} // CRC violations
			case 3:
				// Stalls every 2KB; slow but survivable - the per-session
				// ingest buffer absorbs it without touching the pool.
				return fault.ConnFaults{StallEvery: 2048, StallFor: 20 * time.Millisecond, Seed: 4}
			default:
				return fault.ConnFaults{}
			}
		})

	cl := NewClient(ClientOptions{
		Dial:           func(ctx context.Context) (net.Conn, error) { return dial() },
		MaxAttempts:    50,
		BaseBackoff:    5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		HeartbeatEvery: 200 * time.Millisecond,
		IdleTimeout:    2 * time.Second,
		Seed:           9,
		Logf:           t.Logf,
	})
	got, err := cl.RunSim(context.Background(), spec, recs)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("stats over a flaky transport diverge:\n got %+v\nwant %+v", got, want)
	}
}

// TestCrashDuringRecovery crashes a server while its Serve loop is still
// re-enqueueing recovered ready sessions onto a one-worker pool, so Submit
// is blocked on a full queue when the crash lands. The crash must wait for
// that loop before it closes the pool; under -race a Submit racing the
// pool's Close is reported (or panics with a send on a closed channel).
func TestCrashDuringRecovery(t *testing.T) {
	const ready = 48
	opts := Options{DataDir: t.TempDir(), Workers: 1}
	prev, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ready; i++ {
		sess, err := newSession(prev)
		if err != nil {
			t.Fatal(err)
		}
		sess.mu.Lock()
		sess.haveSpec, sess.state = true, StateReady
		sess.spec = Submit{Kind: JobCampaign, Campaign: CampaignSpec{IDs: []string{"fig1a"}, Duration: 0.05}}
		err = sess.saveMetaLocked()
		sess.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	}
	prev.Crash() // never served: this only stops its pool

	srv, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(context.Background(), ln)
	}()
	// Crash once the worker is busy and the queue is full, i.e. while the
	// recovery loop is blocked in Submit.
	deadline := time.Now().Add(10 * time.Second)
	for queued(srv) < 2 && time.Now().Before(deadline) {
		time.Sleep(100 * time.Microsecond)
	}
	srv.Crash()
	<-done
}

// queued counts the sessions whose job is in the pool's queue or running.
func queued(s *Server) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, sess := range s.sessions {
		sess.mu.Lock()
		if sess.queued {
			n++
		}
		sess.mu.Unlock()
	}
	return n
}
