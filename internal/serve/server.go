package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"vrldram/internal/exp"
	"vrldram/internal/profcache"
)

// Options configures a Server. The zero value of every field resolves to a
// usable default; DataDir is required.
type Options struct {
	// DataDir is the root of all durable session state.
	DataDir string
	// MaxSessions bounds concurrently live (non-terminal) sessions; a new
	// Hello beyond it is refused with ErrCodeFull. Default 16.
	MaxSessions int
	// Workers sizes the shared simulation worker pool every session's job is
	// multiplexed onto. Default GOMAXPROCS.
	Workers int
	// JobWorkers is the per-campaign parallelism (exp.Config.Workers): the
	// concurrent experiments, and the concurrent cells in each. Default 1:
	// the pool bounds total concurrency, each campaign runs its experiments
	// and their cells sequentially inside its one slot.
	JobWorkers int
	// IdleTimeout is how long a connection may stay silent (no frames, no
	// pings) before the server considers it half-open and drops it. The
	// session survives; only the connection dies. Default 2 minutes.
	IdleTimeout time.Duration
	// CheckpointEvery is the simulated time between durable sim checkpoints;
	// 0 means one eighth of each job's duration.
	CheckpointEvery float64
	// IngestBuffer is the per-session ingest queue depth in batches; a
	// session whose spool (fsync) falls behind blocks its own connection's
	// reads once the buffer fills, throttling exactly that client via TCP
	// flow control. Default 8.
	IngestBuffer int
	// Logf receives operational one-liners (nil = silent).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.JobWorkers <= 0 {
		o.JobWorkers = 1
	}
	if o.IdleTimeout <= 0 {
		o.IdleTimeout = 2 * time.Minute
	}
	if o.IngestBuffer <= 0 {
		o.IngestBuffer = 8
	}
	return o
}

// Server is the simulation service: one worker pool, one cache scope, many
// sessions. See the package comment for the protocol and crash model.
type Server struct {
	opts   Options
	pool   *exp.WorkerPool
	caches *profcache.Cache // session-scoped memoization: dies with the server, not the process

	lifeCtx  context.Context // cancelled at drain or crash; parks jobs and stops spoolers
	lifeStop context.CancelFunc
	crashed  atomic.Bool

	mu       sync.Mutex
	sessions map[string]*session
	conns    map[*conn]struct{}
	ln       net.Listener
	draining bool

	wg sync.WaitGroup // conn handlers, spoolers, the recovery loop; the pool tracks its own workers
}

// New creates a server and recovers every session found under DataDir: torn
// spool tails are truncated, metadata loads from its newest good generation,
// and a directory too damaged to load is skipped with a log line rather than
// blocking the rest.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	if opts.DataDir == "" {
		return nil, fmt.Errorf("serve: Options.DataDir is required")
	}
	if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:     opts,
		pool:     exp.NewWorkerPool(opts.Workers),
		caches:   &profcache.Cache{},
		lifeCtx:  ctx,
		lifeStop: cancel,
		sessions: map[string]*session{},
		conns:    map[*conn]struct{}{},
	}
	entries, err := os.ReadDir(opts.DataDir)
	if err != nil {
		cancel()
		return nil, err
	}
	for _, ent := range entries {
		if !ent.IsDir() || len(ent.Name()) < 6 || ent.Name()[:5] != "sess-" {
			continue
		}
		sess, err := loadSession(s, filepath.Join(opts.DataDir, ent.Name()))
		if err != nil {
			s.logf("skipping unrecoverable session dir %s: %v", ent.Name(), err)
			continue
		}
		s.sessions[sess.token] = sess
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Serve accepts connections on ln until ctx is cancelled, then drains:
// stops accepting, cancels running jobs so they write a final checkpoint and
// park, tells attached clients to retry later, waits for every connection
// and worker, and returns nil. The listener is closed by Serve.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	if s.crashed.Load() {
		// Crash() ran before we stored the listener (it found s.ln nil and
		// could not close it); honor it now or Accept would block forever.
		ln.Close()
	}

	// Recovered sessions resume exactly where their durable state says:
	// mid-ingest sessions get their spooler back, ready sessions re-enter
	// the job queue and continue from their last periodic checkpoint. The
	// loop submits to the pool, so it counts in wg under the same draining
	// check as a connection: a drain or crash that lands meanwhile waits for
	// it before closing the pool, and one that came first skips it.
	s.mu.Lock()
	var recovered []*session
	if !s.draining {
		s.wg.Add(1)
		recovered = make([]*session, 0, len(s.sessions))
		for _, sess := range s.sessions {
			recovered = append(recovered, sess)
		}
	}
	s.mu.Unlock()
	for _, sess := range recovered {
		sess.mu.Lock()
		state := sess.state
		sess.mu.Unlock()
		switch state {
		case StateIngest:
			sess.startSpooler()
		case StateReady:
			s.enqueue(sess)
		}
	}
	if recovered != nil {
		s.wg.Done()
	}

	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close() // unblocks Accept; drain or crash proceeds below
	}()

	for {
		nc, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || s.crashed.Load() {
				break
			}
			if errors.Is(err, net.ErrClosed) {
				break
			}
			s.logf("accept: %v", err)
			continue
		}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			// No conn machinery yet, so write the refusal directly.
			nc.SetWriteDeadline(time.Now().Add(time.Second))
			WriteFrame(nc, FrameError, ErrorInfo{Code: ErrCodeRetry, Msg: "server is draining"}.encode())
			nc.Close()
			continue
		}
		c := newConn(s, nc)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			c.serve()
		}()
	}
	close(stop)
	s.shutdown(!s.crashed.Load())
	return nil
}

// shutdown runs the common drain/crash teardown. graceful controls whether
// clients are told to come back (drain) or simply cut (crash).
func (s *Server) shutdown(graceful bool) {
	s.mu.Lock()
	s.draining = true
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	// Park everything: running sims observe the cancel at their next event
	// boundary and (on a graceful drain) write one final checkpoint; queued
	// jobs see the cancelled context and return untouched.
	s.lifeStop()
	for _, c := range conns {
		if graceful {
			c.sendError(ErrCodeRetry, "server is draining; reconnect to resume")
		}
		c.close()
	}
	s.wg.Wait()
	s.pool.Close()
	s.mu.Lock()
	for _, sess := range s.sessions {
		if sess.sp != nil {
			sess.sp.close()
		}
	}
	s.mu.Unlock()
}

// Crash simulates kill -9 for the recovery tests: from the moment it is
// called, no further checkpoint or metadata save succeeds (so recovery can
// only rely on state that was already durable), every connection is cut
// without courtesy, and the call returns once all goroutines have stopped -
// the "dead" process's file handles are closed so a successor server can
// take over the data directory.
func (s *Server) Crash() {
	s.crashed.Store(true)
	s.lifeStop()
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.shutdown(false)
}

// enqueue hands a ready session's job to the shared pool. Submission blocks
// only the calling session's goroutine when the queue is full (never another
// session's connection), and a drain unblocks it via the lifecycle context.
func (s *Server) enqueue(sess *session) {
	sess.mu.Lock()
	if sess.queued || sess.state != StateReady {
		sess.mu.Unlock()
		return
	}
	sess.queued = true
	sess.mu.Unlock()
	if err := s.pool.Submit(s.lifeCtx, func() { sess.run(s.lifeCtx) }); err != nil {
		// Drain won the race: leave the session ready; the next server
		// generation re-enqueues it.
		sess.mu.Lock()
		sess.queued = false
		sess.mu.Unlock()
	}
}

// admit applies admission control for a new session under the lock: the
// bound counts sessions that can still consume pool or ingest resources.
func (s *Server) admit() (*session, error) {
	s.mu.Lock()
	live := 0
	for _, sess := range s.sessions {
		if !sess.terminal() {
			live++
		}
	}
	if live >= s.opts.MaxSessions {
		s.mu.Unlock()
		return nil, fmt.Errorf("serve: at capacity (%d live sessions)", live)
	}
	s.mu.Unlock()

	sess, err := newSession(s)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.sessions[sess.token] = sess
	s.mu.Unlock()
	return sess, nil
}

// lookup finds a session by token.
func (s *Server) lookup(token string) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sessions[token]
}

// forget removes a connection from the tracking set.
func (s *Server) forget(c *conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}
