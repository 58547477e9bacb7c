package serve

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"vrldram/internal/checkpoint"
	"vrldram/internal/core"
	"vrldram/internal/exp"
	"vrldram/internal/fleet"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

// session is one client workload's full lifetime on the server, across any
// number of connections, restarts, and crashes. Its durable footprint is one
// directory under the server's data dir:
//
//	sess-<token>/
//	  meta        session state machine (checkpoint container, KindSession)
//	  trace.vrlt  the spooled trace stream (sim sessions)
//	  sim.ckpt    periodic simulation checkpoints (while a sim job runs)
//	  camp.ckpt   completed-experiment checkpoints (campaign sessions)
//
// The durable state machine has no "running" state: a session on disk is
// ingesting, ready, done, or failed, and a job in flight leaves the state at
// StateReady. A crash therefore requires no state transition at all - on
// restart, ready sessions are simply re-enqueued and resume from their last
// periodic checkpoint.
type session struct {
	token string
	dir   string
	srv   *Server
	meta  *checkpoint.Manager

	mu         sync.Mutex
	state      byte
	haveSpec   bool
	spec       Submit
	traceTotal int64 // expected records per TraceEOF; -1 until known
	result     ResultMsg
	haveResult bool
	failMsg    string
	sp         *spool
	attached   *conn // current connection, nil when detached
	queued     bool  // job handed to the pool (in-memory only)

	ingest     chan ingestItem
	spoolerRun bool // spooler goroutine alive (in-memory only)
}

// ingestItem is one unit of the session's ingest pipeline: a batch of
// validated records at an absolute stream position (or the end-of-stream
// marker) plus the connection to ack on once the batch is durable.
type ingestItem struct {
	start   int64 // absolute index of recs[0] in the session's stream
	recs    []trace.Record
	eof     bool
	total   int64
	replyTo *conn
}

// newToken mints a session token. Tokens are capability handles, not
// predictions the simulation depends on, so real randomness is fine here -
// determinism lives in the specs and seeds.
func newToken() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", err
	}
	return hex.EncodeToString(b[:]), nil
}

// --- durable metadata --------------------------------------------------------

// encodeMeta flattens the durable state under the session lock.
func (s *session) encodeMetaLocked() []byte {
	var e core.StateEncoder
	e.Tag("ses1")
	e.Uint64(uint64(s.state))
	e.Bool(s.haveSpec)
	if s.haveSpec {
		e.Bytes(s.spec.encode())
	} else {
		e.Bytes(nil)
	}
	e.Int(s.traceTotal)
	e.Bool(s.haveResult)
	e.Uint64(uint64(s.result.Kind))
	e.Bytes(s.result.Blob)
	e.Bytes([]byte(s.failMsg))
	return e.Data()
}

func (s *session) decodeMeta(p []byte) error {
	d := core.NewStateDecoder(p)
	d.ExpectTag("ses1")
	s.state = byte(d.Uint64())
	s.haveSpec = d.Bool()
	specBytes := d.Bytes()
	s.traceTotal = d.Int()
	s.haveResult = d.Bool()
	s.result.Kind = byte(d.Uint64())
	s.result.Blob = append([]byte(nil), d.Bytes()...)
	s.failMsg = string(d.Bytes())
	if err := d.Finish(); err != nil {
		return err
	}
	if s.haveSpec {
		spec, err := decodeSubmit(specBytes)
		if err != nil {
			return fmt.Errorf("serve: session %s spec: %w", s.token, err)
		}
		s.spec = spec
	}
	return nil
}

// saveMetaLocked durably persists the state machine. Callers hold s.mu;
// every externally visible transition (ingest, ready, done, failed) goes
// through here before it is acknowledged to anyone.
func (s *session) saveMetaLocked() error {
	payload := s.encodeMetaLocked()
	return s.meta.Save(func(w io.Writer) error {
		return checkpoint.EncodeBlob(w, checkpoint.KindSession, payload)
	})
}

// loadSession reconstructs a session from its directory, recovering the
// trace spool (including torn-tail truncation) when the spec streams one.
func loadSession(srv *Server, dir string) (*session, error) {
	token := filepath.Base(dir)
	const prefix = "sess-"
	if len(token) <= len(prefix) || token[:len(prefix)] != prefix {
		return nil, fmt.Errorf("serve: not a session directory: %s", dir)
	}
	token = token[len(prefix):]
	meta, err := checkpoint.NewManager(filepath.Join(dir, "meta"), 2)
	if err != nil {
		return nil, err
	}
	s := &session{token: token, dir: dir, srv: srv, meta: meta, traceTotal: -1}
	if _, err := meta.Load(func(r io.Reader) error {
		payload, derr := checkpoint.DecodeBlob(r, checkpoint.KindSession)
		if derr != nil {
			return derr
		}
		return s.decodeMeta(payload)
	}); err != nil {
		return nil, err
	}
	if s.haveSpec && s.spec.Kind == JobSim {
		if s.sp, err = openSpool(dir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// newSession mints a token and creates the durable directory.
func newSession(srv *Server) (*session, error) {
	token, err := newToken()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(srv.opts.DataDir, "sess-"+token)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	meta, err := checkpoint.NewManager(filepath.Join(dir, "meta"), 2)
	if err != nil {
		return nil, err
	}
	s := &session{token: token, dir: dir, srv: srv, meta: meta, state: StateNew, traceTotal: -1}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s, s.saveMetaLocked()
}

// --- wire-facing operations --------------------------------------------------

// welcomeLocked builds the Welcome for the current durable state.
func (s *session) welcomeLocked() Welcome {
	w := Welcome{Token: s.token, State: s.state, HaveSpec: s.haveSpec}
	if s.sp != nil {
		w.Watermark = s.sp.watermark()
	}
	return w
}

// attach makes c the session's connection, superseding (and closing) any
// previous one: the newest reconnect wins, so a half-open old connection can
// never wedge a session.
func (s *session) attach(c *conn) (Welcome, *ResultMsg, string) {
	s.mu.Lock()
	prev := s.attached
	s.attached = c
	w := s.welcomeLocked()
	var res *ResultMsg
	if s.haveResult {
		r := s.result
		res = &r
	}
	fail := ""
	if s.state == StateFailed {
		fail = s.failMsg
	}
	s.mu.Unlock()
	if prev != nil && prev != c {
		prev.sendError(ErrCodeRetry, "superseded by a newer connection for this session")
		prev.close()
	}
	return w, res, fail
}

// detach clears the attachment if c still owns it.
func (s *session) detach(c *conn) {
	s.mu.Lock()
	if s.attached == c {
		s.attached = nil
	}
	s.mu.Unlock()
}

// notify best-effort sends a frame to the attached connection. Durable state
// is the source of truth; a dropped notification is re-derived at the next
// reconnect, so nothing here may block a worker.
func (s *session) notify(typ byte, payload []byte) {
	s.mu.Lock()
	c := s.attached
	s.mu.Unlock()
	if c != nil {
		c.trySend(typ, payload)
	}
}

// TerminalStateError rejects a frame addressed to a session that is already
// done or failed. It is deliberately NOT a job failure: the session's
// durable verdict (Result or fatal Error) is replayed at the next attach,
// and the connection relays it as ErrCodeState so the client reconnects for
// the authoritative answer instead of giving up.
type TerminalStateError struct {
	State byte   // StateDone or StateFailed
	Op    string // what the client tried ("submit", "trace batch", "trace EOF")
}

func (e *TerminalStateError) Error() string {
	name := "failed"
	if e.State == StateDone {
		name = "done"
	}
	return fmt.Sprintf("serve: %s on a %s session; reconnect for its result", e.Op, name)
}

// terminalErrLocked returns the typed rejection when the session's state is
// terminal; callers hold s.mu.
func (s *session) terminalErrLocked(op string) *TerminalStateError {
	if s.state == StateDone || s.state == StateFailed {
		return &TerminalStateError{State: s.state, Op: op}
	}
	return nil
}

// submit accepts a job specification. A duplicate Submit on a session that
// already has one is ignored (the client races Welcome.HaveSpec against its
// own send); a conflicting one is a client bug and fails the connection.
func (s *session) submit(sub Submit, c *conn) error {
	switch sub.Kind {
	case JobSim:
		if err := sub.Sim.Validate(); err != nil {
			return err
		}
		sub.Sim = sub.Sim.withDefaults()
	case JobCampaign:
		if err := sub.Campaign.Validate(); err != nil {
			return err
		}
		sub.Campaign = sub.Campaign.withDefaults()
	case JobShard:
		if err := validateShard(sub.Shard); err != nil {
			return err
		}
	default:
		return fmt.Errorf("serve: unknown job kind %d", sub.Kind)
	}

	s.mu.Lock()
	// Terminal wins over duplicate-tolerance: a submit addressed to a done
	// or failed session - always a reconnect race, since a live client only
	// submits right after a HaveSpec=false Welcome - is pointed back at the
	// handshake, where the durable verdict is replayed.
	if terr := s.terminalErrLocked("submit"); terr != nil {
		s.mu.Unlock()
		return terr
	}
	if s.haveSpec {
		s.mu.Unlock()
		return nil
	}
	if s.state != StateNew {
		st := s.state
		s.mu.Unlock()
		return fmt.Errorf("serve: submit in state %d", st)
	}
	s.haveSpec = true
	s.spec = sub
	var err error
	if sub.Kind == JobSim {
		s.state = StateIngest
		if s.sp == nil {
			s.sp, err = openSpool(s.dir)
		}
	} else {
		s.state = StateReady
	}
	if err == nil {
		err = s.saveMetaLocked()
	}
	if err != nil {
		// Leave the session pristine: the client may retry the submit.
		s.haveSpec = false
		s.state = StateNew
		s.mu.Unlock()
		return err
	}
	kind := sub.Kind
	s.mu.Unlock()

	if kind == JobSim {
		s.startSpooler()
	} else {
		s.srv.enqueue(s)
	}
	return nil
}

// pushBatch validates and hands one trace batch to the ingest pipeline,
// blocking when the per-session buffer is full - that block propagates
// through the connection's read loop into TCP flow control, throttling
// exactly this client. next is the connection's stream cursor (initialized
// from the watermark its Welcome advertised): a batch past it is a gap the
// client must reconnect to repair, a batch behind it (a resend) is trimmed.
// The cursor only orders this connection's stream; the spooler re-trims
// against the durable count at apply time, which is what makes batches
// queued by a superseded connection and the resends of its successor
// converge without duplication.
func (s *session) pushBatch(ctx context.Context, b TraceBatch, c *conn, next *int64) error {
	recs, err := decodeBatchBlob(b.Blob)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if !s.haveSpec || s.spec.Kind != JobSim {
		s.mu.Unlock()
		return fmt.Errorf("serve: trace batch without a sim spec")
	}
	if s.state != StateIngest {
		terr := s.terminalErrLocked("trace batch")
		st := s.state
		s.mu.Unlock()
		if terr != nil {
			return terr // the job already settled; send the client back for its verdict
		}
		if st == StateReady {
			return nil // late resend after EOF; the stream is already complete
		}
		return fmt.Errorf("serve: trace batch in state %d", st)
	}
	ch := s.ingest
	s.mu.Unlock()

	if b.Start > *next {
		return fmt.Errorf("serve: trace batch starts at %d but the stream is at %d (resync from the watermark)", b.Start, *next)
	}
	start := b.Start
	if skip := *next - start; skip > 0 {
		if skip >= int64(len(recs)) {
			c.trySend(FrameAck, Ack{Watermark: s.sp.watermark()}.encode())
			return nil
		}
		recs = recs[skip:]
		start = *next
	}
	select {
	case ch <- ingestItem{start: start, recs: recs, replyTo: c}:
		*next = start + int64(len(recs))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// pushEOF queues the end-of-stream marker behind every pending batch.
func (s *session) pushEOF(ctx context.Context, total int64, c *conn) error {
	s.mu.Lock()
	if !s.haveSpec || s.spec.Kind != JobSim {
		s.mu.Unlock()
		return fmt.Errorf("serve: trace EOF without a sim spec")
	}
	if s.state != StateIngest {
		terr := s.terminalErrLocked("trace EOF")
		st := s.state
		s.mu.Unlock()
		if terr != nil {
			return terr
		}
		if st == StateReady {
			return nil // duplicate EOF after a reconnect race
		}
		return fmt.Errorf("serve: trace EOF in state %d", st)
	}
	ch := s.ingest
	s.mu.Unlock()
	select {
	case ch <- ingestItem{eof: true, total: total, replyTo: c}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// decodeBatchBlob parses one TraceBatch blob (a complete binary trace) into
// records, enforcing the trace codec's validation and intra-batch ordering.
func decodeBatchBlob(blob []byte) ([]trace.Record, error) {
	br := trace.NewBinaryReader(bytes.NewReader(blob))
	var recs []trace.Record
	for {
		rec, err := br.Next()
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return nil, &ProtocolError{Msg: "trace batch: " + err.Error()}
		}
		recs = append(recs, rec)
	}
}

// --- ingest spooler ----------------------------------------------------------

// startSpooler launches the session's spooler goroutine if it is not already
// running: the single writer of the trace spool, fed by the bounded ingest
// channel. One goroutine per actively ingesting session, none once the
// stream completes.
func (s *session) startSpooler() {
	s.mu.Lock()
	if s.spoolerRun || s.state != StateIngest || s.sp == nil {
		s.mu.Unlock()
		return
	}
	s.spoolerRun = true
	buf := s.srv.opts.IngestBuffer
	s.ingest = make(chan ingestItem, buf)
	ch := s.ingest
	s.mu.Unlock()

	s.srv.wg.Add(1)
	go func() {
		defer s.srv.wg.Done()
		defer func() {
			s.mu.Lock()
			s.spoolerRun = false
			s.mu.Unlock()
		}()
		for {
			select {
			case item := <-ch:
				if done := s.spoolOne(item); done {
					return
				}
			case <-s.srv.lifeCtx.Done():
				return // drain or crash: unacked batches are the client's to resend
			}
		}
	}()
}

// spoolOne applies one ingest item; it reports true when the spooler should
// exit (stream complete or session failed).
func (s *session) spoolOne(item ingestItem) bool {
	if item.eof {
		have := s.sp.watermark()
		if have != item.total {
			s.fail(fmt.Errorf("serve: trace EOF claims %d records but %d are durable", item.total, have))
			return true
		}
		s.mu.Lock()
		s.traceTotal = item.total
		s.state = StateReady
		err := s.saveMetaLocked()
		s.mu.Unlock()
		if err != nil {
			s.fail(err)
			return true
		}
		s.srv.enqueue(s)
		return true
	}
	// Authoritative duplicate trim: a superseded connection's still-queued
	// batches and the resends of its successor overlap here, and only the
	// durable count decides what is genuinely new.
	have := s.sp.watermark()
	recs := item.recs
	if item.start > have {
		s.fail(fmt.Errorf("serve: ingest gap: batch at %d but only %d records durable", item.start, have))
		return true
	}
	if skip := have - item.start; skip > 0 {
		if skip >= int64(len(recs)) {
			if item.replyTo != nil {
				item.replyTo.trySend(FrameAck, Ack{Watermark: have}.encode())
			}
			return false
		}
		recs = recs[skip:]
	}
	wm, err := s.sp.append(recs)
	if err != nil {
		s.fail(err)
		return true
	}
	if item.replyTo != nil {
		item.replyTo.trySend(FrameAck, Ack{Watermark: wm}.encode())
	}
	return false
}

// --- job execution -----------------------------------------------------------

// errCrashed marks checkpoint writes suppressed by the crash test hook.
var errCrashed = errors.New("serve: server crashed (checkpoint suppressed)")

// run executes the session's job on a pool worker. Panics are contained to
// the session; cancellation (drain or crash) parks the job with its durable
// state intact for the next server generation.
func (s *session) run(ctx context.Context) {
	defer func() {
		if r := recover(); r != nil {
			s.fail(fmt.Errorf("serve: session job panicked: %v", r))
		}
	}()
	s.mu.Lock()
	s.queued = false
	if s.state != StateReady {
		s.mu.Unlock()
		return
	}
	spec := s.spec
	s.mu.Unlock()
	if ctx.Err() != nil {
		return // parked before it started; re-enqueued on restart
	}

	var err error
	switch spec.Kind {
	case JobSim:
		err = s.runSim(ctx, spec.Sim)
	case JobCampaign:
		err = s.runCampaign(ctx, spec.Campaign)
	case JobShard:
		err = s.runShard(ctx, spec.Shard)
	default:
		err = fmt.Errorf("serve: unknown job kind %d", spec.Kind)
	}
	switch {
	case err == nil:
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded), errors.Is(err, errCrashed):
		// Parked: state stays StateReady, checkpoints stay on disk.
	default:
		s.fail(err)
	}
}

// runSim executes a sim job with periodic durable checkpoints, resuming from
// the newest good one when the directory holds any.
func (s *session) runSim(ctx context.Context, spec SimSpec) error {
	bank, sched, opts, err := buildSim(spec, s.srv.caches)
	if err != nil {
		return err
	}
	mgr, err := checkpoint.NewManager(filepath.Join(s.dir, "sim.ckpt"), 0)
	if err != nil {
		return err
	}
	opts.CheckpointEvery = s.srv.opts.CheckpointEvery
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = opts.Duration / 8
	}
	duration := opts.Duration
	opts.CheckpointSink = func(cp *sim.Checkpoint) error {
		if s.srv.crashed.Load() {
			return errCrashed // a real kill -9 would not have written this
		}
		if err := mgr.Save(func(w io.Writer) error { return checkpoint.EncodeSim(w, cp) }); err != nil {
			return err
		}
		s.notify(FrameProgress, Progress{T: cp.Time, Duration: duration}.encode())
		return nil
	}
	if _, statErr := os.Stat(mgr.Path()); statErr == nil {
		var cp *sim.Checkpoint
		if _, err := mgr.Load(func(r io.Reader) error {
			var derr error
			cp, derr = checkpoint.DecodeSim(r)
			return derr
		}); err == nil {
			opts.Resume = cp
		}
		// A directory where every generation is corrupt restarts cold: the
		// spool still holds the full input, so the result is unchanged.
	}

	src, closer, err := s.sp.openReader()
	if err != nil {
		return err
	}
	defer closer.Close()
	st, err := sim.RunContext(ctx, bank, sched, src, opts)
	if err != nil {
		return err
	}
	return s.finish(ResultMsg{Kind: JobSim, Blob: EncodeStats(st)})
}

// runCampaign executes a campaign job, checkpointing after every completed
// experiment so a restart replays none that succeeded.
func (s *session) runCampaign(ctx context.Context, spec CampaignSpec) error {
	progress, err := checkpoint.NewCampaignLog(filepath.Join(s.dir, "camp.ckpt"))
	if err != nil {
		return err
	}
	// A missing or wholly corrupt log restarts cold: every experiment is a
	// pure function of the spec, so the result is unchanged.
	_, _ = progress.Load()
	total := float64(len(spec.IDs))
	results, err := exp.RunCampaign(ctx, spec.config(s.srv.opts.JobWorkers), exp.CampaignOptions{
		IDs:     spec.IDs,
		Restore: progress.Restore,
		OnResult: func(r *exp.Result) error {
			if s.srv.crashed.Load() {
				return errCrashed
			}
			if err := progress.OnResult(r); err != nil {
				return err
			}
			s.notify(FrameProgress, Progress{T: float64(progress.Len()), Duration: total}.encode())
			return nil
		},
	})
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := checkpoint.EncodeCampaign(&buf, results); err != nil {
		return err
	}
	return s.finish(ResultMsg{Kind: JobCampaign, Blob: buf.Bytes()})
}

// runShard executes a fleet shard job. No mid-shard checkpoint exists or is
// needed: a shard is a pure function of its spec, so a parked or crashed
// shard job recomputes from scratch on the next server generation and lands
// on the same bytes.
func (s *session) runShard(ctx context.Context, blob []byte) error {
	ss, err := fleet.DecodeShardSpec(blob)
	if err != nil {
		return err
	}
	res, err := fleet.RunShard(ctx, ss, s.srv.caches)
	if err != nil {
		return err
	}
	return s.finish(ResultMsg{Kind: JobShard, Blob: res.Encode()})
}

// finish records a successful result durably, then announces it.
func (s *session) finish(res ResultMsg) error {
	s.mu.Lock()
	s.state = StateDone
	s.result = res
	s.haveResult = true
	err := s.saveMetaLocked()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	s.notify(FrameResult, res.encode())
	return nil
}

// fail records a terminal failure durably, then announces it. If even the
// metadata write fails the session stays in its previous durable state and
// the failure is surfaced on the next attach instead.
func (s *session) fail(cause error) {
	s.mu.Lock()
	s.state = StateFailed
	s.failMsg = cause.Error()
	saveErr := s.saveMetaLocked()
	s.mu.Unlock()
	if saveErr != nil {
		s.srv.logf("session %s: failed (%v) and could not persist failure: %v", s.token, cause, saveErr)
	}
	s.notify(FrameError, ErrorInfo{Code: ErrCodeFatal, Msg: cause.Error()}.encode())
}

// terminal reports whether the session can no longer consume resources.
func (s *session) terminal() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == StateDone || s.state == StateFailed
}
