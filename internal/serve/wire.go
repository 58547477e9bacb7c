// Package serve turns the batch simulator into a long-running service: a
// TCP daemon (cmd/vrlserved) that accepts concurrent campaign submissions
// over a versioned, length-framed, CRC-checked wire protocol, ingests
// streamed memory traces with per-session backpressure, multiplexes sessions
// onto a bounded exp.WorkerPool, and survives bad clients, half-open
// connections, and its own crashes: every session's trace spool, metadata,
// and simulation checkpoints are durable (internal/checkpoint containers +
// the internal/trace binary codec), so a killed server resumes every
// in-flight session bit-identically on restart and a disconnected client
// reconnects with a server-issued token and picks up where it left off.
//
// Lifecycle of a simulation session:
//
//	client                         server
//	 | -- Hello{token?} ------------> |  admission check; create/attach session
//	 | <------ Welcome{token, wmark} |  (plus Result immediately if already done)
//	 | -- Submit{spec} ------------> |  validated, persisted
//	 | -- Trace{start, records} ---> |  bounded ingest buffer -> spool -> Ack
//	 | <-------------- Ack{wmark}    |  watermark = records durable on disk
//	 | -- TraceEOF{total} ---------> |  session becomes runnable, queued on pool
//	 | <------------- Progress ...   |  checkpoint cadence (advisory)
//	 | -- Ping / <- Pong             |  both ends detect half-open connections
//	 | <------------- Result{stats}  |  also persisted; re-sent on reconnect
//
// A campaign session skips the trace stream: Submit carries experiment IDs
// and the server runs them as a crash-tolerant exp.RunCampaign whose
// completed results checkpoint per session.
package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"vrldram/internal/core"
)

// ProtocolVersion is negotiated in Hello; a server rejects clients speaking
// a different version with a fatal error frame.
const ProtocolVersion = 1

// helloMagic opens every Hello payload, so a stray connection speaking some
// other protocol is rejected before any state is allocated for it.
var helloMagic = [4]byte{'V', 'R', 'L', 'S'}

// Frame types.
const (
	FrameHello    byte = 1  // client -> server: version, optional resume token
	FrameWelcome  byte = 2  // server -> client: token, session state, durable watermark
	FrameSubmit   byte = 3  // client -> server: job specification
	FrameTrace    byte = 4  // client -> server: a batch of trace records
	FrameTraceEOF byte = 5  // client -> server: end of stream + total record count
	FrameAck      byte = 6  // server -> client: durable ingest watermark
	FrameProgress byte = 7  // server -> client: advisory job progress
	FrameResult   byte = 8  // server -> client: final job result
	FrameError    byte = 9  // server -> client: fatal or retryable failure
	FramePing     byte = 10 // either direction: heartbeat probe
	FramePong     byte = 11 // either direction: heartbeat answer
)

// maxFramePayload bounds a frame payload; a length beyond it marks a corrupt
// or hostile stream and is rejected before any allocation.
const maxFramePayload = 1 << 24

// frameHeaderLen is type (1) + payload length (4).
const frameHeaderLen = 5

// frameChunk is the first allocation for a frame body (see ReadFrame).
const frameChunk = 64 << 10

// AppendFrame appends one encoded frame to dst: type, little-endian payload
// length, payload, and an IEEE CRC-32 over everything before it.
func AppendFrame(dst []byte, typ byte, payload []byte) ([]byte, error) {
	if len(payload) > maxFramePayload {
		return dst, fmt.Errorf("serve: frame payload %d bytes exceeds limit %d", len(payload), maxFramePayload)
	}
	start := len(dst)
	var hdr [frameHeaderLen]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	dst = append(dst, hdr[:]...)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	return append(dst, tail[:]...), nil
}

// WriteFrame writes one frame as a single Write call (one frame, one write:
// a writer goroutine never interleaves partial frames).
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	buf, err := AppendFrame(nil, typ, payload)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads and verifies one frame. I/O errors (including timeouts,
// io.EOF for a stream that ends cleanly before a frame, and mid-frame cuts,
// surfaced as io.ErrUnexpectedEOF) pass through; framing violations
// (oversized length, CRC mismatch) return a *ProtocolError so the caller can
// distinguish a sick connection from a sick peer.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	plen := binary.LittleEndian.Uint32(hdr[1:5])
	if plen > maxFramePayload {
		return 0, nil, &ProtocolError{Msg: fmt.Sprintf("frame payload %d bytes exceeds limit %d", plen, maxFramePayload)}
	}
	// The body buffer starts at frameChunk and doubles as bytes arrive, so
	// memory tracks what the peer sent, not what its header claims.
	n := int(plen) + 4
	body := make([]byte, min(n, frameChunk))
	for got := 0; ; {
		m, err := io.ReadFull(r, body[got:])
		got += m
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF // header arrived, body did not: a cut, not a clean close
			}
			return 0, nil, err
		}
		if got == n {
			break
		}
		body = append(body, make([]byte, min(n-got, got))...)
	}
	crc := crc32.ChecksumIEEE(hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:plen])
	if want := binary.LittleEndian.Uint32(body[plen:]); crc != want {
		return 0, nil, &ProtocolError{Msg: fmt.Sprintf("frame CRC mismatch (wire %08x, computed %08x)", want, crc)}
	}
	return hdr[0], body[:plen], nil
}

// ProtocolError marks a violation of the wire framing or payload encoding -
// garbage where a frame should be. Connections die on it; sessions survive.
type ProtocolError struct{ Msg string }

func (e *ProtocolError) Error() string { return "serve: protocol error: " + e.Msg }

// --- session states on the wire ---------------------------------------------

// Session states reported in Welcome. Only durable states appear on the
// wire; "queued" and "running" are server-internal refinements of StateReady.
const (
	StateNew    byte = 1 // session exists, no spec yet
	StateIngest byte = 2 // spec accepted, trace stream incomplete
	StateReady  byte = 3 // inputs complete; job queued, running, or parked
	StateDone   byte = 4 // result available
	StateFailed byte = 5 // job failed; Welcome is followed by a fatal Error frame
)

// Job kinds.
const (
	JobSim      byte = 1 // one scheduler over a streamed trace -> sim.Stats
	JobCampaign byte = 2 // experiment IDs -> exp.Results (no trace stream)
	JobShard    byte = 3 // a fleet shard blob -> fleet.ShardResult (no trace stream)
)

// Error codes.
const (
	ErrCodeFatal byte = 1 // the session cannot succeed; give up
	ErrCodeRetry byte = 2 // transient (draining, superseded connection); back off and reconnect
	ErrCodeFull  byte = 3 // admission control refused a new session; back off and retry
	// ErrCodeState rejects a frame addressed to a session that is already
	// done or failed. It is not a verdict on the job - the authoritative
	// Result or fatal Error is replayed at the next attach - so clients
	// treat it as a cue to reconnect, never as a failure of the work.
	ErrCodeState byte = 4
)

// --- payload messages --------------------------------------------------------

// Hello is the first frame of every connection.
type Hello struct {
	Proto int64
	Token string // empty = new session; else resume
}

// Welcome answers Hello.
type Welcome struct {
	Token     string
	State     byte
	Watermark int64 // trace records durably spooled (sim sessions)
	HaveSpec  bool  // a Submit has been accepted; do not resend
}

// Submit carries a job specification; exactly one of Sim/Campaign/Shard is
// meaningful, selected by Kind. Shard is an encoded fleet.ShardSpec kept
// opaque at the wire layer (the job layer validates it), so the protocol
// does not chase the fleet codec.
type Submit struct {
	Kind     byte
	Sim      SimSpec
	Campaign CampaignSpec
	Shard    []byte
}

// TraceBatch is a contiguous run of trace records, encoded with the
// internal/trace binary codec (a complete VRLT blob per batch). Start is the
// absolute index of the first record, so a reconnecting client can resend
// from the server's watermark and the server can discard duplicated or
// stale batches exactly.
type TraceBatch struct {
	Start int64
	Blob  []byte
}

// TraceEOF ends a trace stream; Total must equal the records spooled.
type TraceEOF struct{ Total int64 }

// Ack reports the durable ingest watermark.
type Ack struct{ Watermark int64 }

// Progress is an advisory job progress note (dropped under outbound
// backpressure rather than ever stalling a worker).
type Progress struct {
	T        float64 // simulated seconds completed (sim) or experiments done (campaign)
	Duration float64 // simulated duration (sim) or experiments total (campaign)
}

// ResultMsg carries the final job artifact: a stats blob (JobSim) or a
// checkpoint campaign container (JobCampaign).
type ResultMsg struct {
	Kind byte
	Blob []byte
}

// ErrorInfo reports a failure with retryability.
type ErrorInfo struct {
	Code byte
	Msg  string
}

// --- payload codecs ----------------------------------------------------------

func (h Hello) encode() []byte {
	var e core.StateEncoder
	e.Bytes(helloMagic[:])
	e.Int(h.Proto)
	e.Bytes([]byte(h.Token))
	return e.Data()
}

func decodeHello(p []byte) (Hello, error) {
	d := core.NewStateDecoder(p)
	var h Hello
	if magic := d.Bytes(); d.Err() == nil && string(magic) != string(helloMagic[:]) {
		return h, &ProtocolError{Msg: fmt.Sprintf("bad hello magic %q", magic)}
	}
	h.Proto = d.Int()
	h.Token = string(d.Bytes())
	return h, finish(d)
}

func (w Welcome) encode() []byte {
	var e core.StateEncoder
	e.Tag("wel1")
	e.Bytes([]byte(w.Token))
	e.Uint64(uint64(w.State))
	e.Int(w.Watermark)
	e.Bool(w.HaveSpec)
	return e.Data()
}

func decodeWelcome(p []byte) (Welcome, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("wel1")
	var w Welcome
	w.Token = string(d.Bytes())
	w.State = byte(d.Uint64())
	w.Watermark = d.Int()
	w.HaveSpec = d.Bool()
	return w, finish(d)
}

func (s Submit) encode() []byte {
	var e core.StateEncoder
	e.Tag("sub1")
	e.Uint64(uint64(s.Kind))
	switch s.Kind {
	case JobSim:
		e.Bytes([]byte(s.Sim.Scheduler))
		e.Int(s.Sim.Seed)
		e.Float(s.Sim.Duration)
		e.Int(int64(s.Sim.Rows))
		e.Int(int64(s.Sim.Cols))
	case JobCampaign:
		e.Int(int64(len(s.Campaign.IDs)))
		for _, id := range s.Campaign.IDs {
			e.Bytes([]byte(id))
		}
		e.Int(s.Campaign.Seed)
		e.Float(s.Campaign.Duration)
	case JobShard:
		e.Bytes(s.Shard)
	}
	return e.Data()
}

func decodeSubmit(p []byte) (Submit, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("sub1")
	var s Submit
	s.Kind = byte(d.Uint64())
	switch s.Kind {
	case JobSim:
		s.Sim.Scheduler = string(d.Bytes())
		s.Sim.Seed = d.Int()
		s.Sim.Duration = d.Float()
		s.Sim.Rows = int(d.Int())
		s.Sim.Cols = int(d.Int())
	case JobCampaign:
		n := d.Int()
		if n < 0 || n > int64(len(p)) {
			return s, &ProtocolError{Msg: fmt.Sprintf("campaign id count %d impossible in %d-byte payload", n, len(p))}
		}
		for i := int64(0); i < n && d.Err() == nil; i++ {
			s.Campaign.IDs = append(s.Campaign.IDs, string(d.Bytes()))
		}
		s.Campaign.Seed = d.Int()
		s.Campaign.Duration = d.Float()
	case JobShard:
		s.Shard = append([]byte(nil), d.Bytes()...)
	default:
		if d.Err() == nil {
			return s, &ProtocolError{Msg: fmt.Sprintf("unknown job kind %d", s.Kind)}
		}
	}
	return s, finish(d)
}

func (b TraceBatch) encode() []byte {
	var e core.StateEncoder
	e.Tag("trb1")
	e.Int(b.Start)
	e.Bytes(b.Blob)
	return e.Data()
}

func decodeTraceBatch(p []byte) (TraceBatch, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("trb1")
	var b TraceBatch
	b.Start = d.Int()
	b.Blob = d.Bytes()
	return b, finish(d)
}

func (t TraceEOF) encode() []byte {
	var e core.StateEncoder
	e.Tag("eof1")
	e.Int(t.Total)
	return e.Data()
}

func decodeTraceEOF(p []byte) (TraceEOF, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("eof1")
	t := TraceEOF{Total: d.Int()}
	return t, finish(d)
}

func (a Ack) encode() []byte {
	var e core.StateEncoder
	e.Tag("ack1")
	e.Int(a.Watermark)
	return e.Data()
}

func decodeAck(p []byte) (Ack, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("ack1")
	a := Ack{Watermark: d.Int()}
	return a, finish(d)
}

func (pr Progress) encode() []byte {
	var e core.StateEncoder
	e.Tag("prg1")
	e.Float(pr.T)
	e.Float(pr.Duration)
	return e.Data()
}

func decodeProgress(p []byte) (Progress, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("prg1")
	pr := Progress{T: d.Float(), Duration: d.Float()}
	return pr, finish(d)
}

func (r ResultMsg) encode() []byte {
	var e core.StateEncoder
	e.Tag("res1")
	e.Uint64(uint64(r.Kind))
	e.Bytes(r.Blob)
	return e.Data()
}

func decodeResult(p []byte) (ResultMsg, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("res1")
	var r ResultMsg
	r.Kind = byte(d.Uint64())
	r.Blob = d.Bytes()
	return r, finish(d)
}

func (ei ErrorInfo) encode() []byte {
	var e core.StateEncoder
	e.Tag("err1")
	e.Uint64(uint64(ei.Code))
	e.Bytes([]byte(ei.Msg))
	return e.Data()
}

func decodeError(p []byte) (ErrorInfo, error) {
	d := core.NewStateDecoder(p)
	d.ExpectTag("err1")
	var ei ErrorInfo
	ei.Code = byte(d.Uint64())
	ei.Msg = string(d.Bytes())
	return ei, finish(d)
}

// finish converts a decoder's terminal state into a ProtocolError, so every
// malformed payload is classified as a connection-level violation.
func finish(d *core.StateDecoder) error {
	if err := d.Finish(); err != nil {
		return &ProtocolError{Msg: err.Error()}
	}
	return nil
}
