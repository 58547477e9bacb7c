// Package checkpoint persists simulation and campaign state across process
// deaths: a versioned, CRC-32-checksummed container written atomically
// (temp file + rename) with N-generation retention, so a crash mid-write
// never destroys the last good snapshot, and a corrupted newest generation
// falls back to the one before it.
//
// Several payload kinds share the container: a sim.Checkpoint (the full
// resumable state of one RunContext invocation), a campaign progress record
// (the completed exp.Results of a vrlexp run), and the service session
// metadata of internal/serve (framed via EncodeBlob). The container is
//
//	magic   "VRLC"    [4]byte
//	version uint16    little-endian
//	kind    uint8     1 = sim checkpoint, 2 = campaign progress
//	length  uint64    payload bytes
//	payload []byte
//	crc     uint32    IEEE CRC-32 over version..payload
//
// so every field that matters is covered by the checksum and a flipped byte
// anywhere is detected before any of the payload is trusted.
package checkpoint

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"

	"vrldram/internal/core"
	"vrldram/internal/dram"
	"vrldram/internal/exp"
	"vrldram/internal/sim"
	"vrldram/internal/trace"
)

var magic = [4]byte{'V', 'R', 'L', 'C'}

// Version is the container format version this package reads and writes.
const Version = 1

// Payload kinds. The container framing is shared by every durable artifact
// in the repository; new subsystems claim a kind here so a file of one kind
// can never be decoded as another (the kind byte is covered by the CRC).
const (
	KindSim      = 1 // a sim.Checkpoint (EncodeSim/DecodeSim)
	KindCampaign = 2 // completed exp.Results of a campaign (EncodeCampaign/DecodeCampaign)
	KindSession  = 3 // a service session's metadata record (internal/serve)
	KindManifest = 4 // a fleet campaign manifest (internal/fleet)
)

const headerLen = 4 + 2 + 1 + 8 // magic + version + kind + length

// maxPayload caps how much DecodeSim/DecodeCampaign will buffer; real
// snapshots are a few hundred KiB, so 1 GiB only guards against a corrupt
// or hostile length field.
const maxPayload = 1 << 30

// EncodeBlob frames and checksums an opaque payload as one container of the
// given kind. Callers that define their own payload codecs (e.g. the service
// session records in internal/serve) use this to inherit the container's
// atomicity-friendly framing, version check, and CRC coverage.
func EncodeBlob(w io.Writer, kind byte, payload []byte) error {
	return writeContainer(w, kind, payload)
}

// DecodeBlob reads and verifies a container of the given kind, returning its
// payload. It is the read side of EncodeBlob.
func DecodeBlob(r io.Reader, kind byte) ([]byte, error) {
	return readContainer(r, kind)
}

// writeContainer frames and checksums a payload.
func writeContainer(w io.Writer, kind byte, payload []byte) error {
	hdr := make([]byte, headerLen)
	copy(hdr, magic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], Version)
	hdr[6] = kind
	binary.LittleEndian.PutUint64(hdr[7:15], uint64(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[4:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc)
	for _, b := range [][]byte{hdr, payload, tail[:]} {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// readContainer reads and verifies a container, returning its payload.
func readContainer(r io.Reader, wantKind byte) ([]byte, error) {
	data, err := io.ReadAll(io.LimitReader(r, headerLen+maxPayload+4+1))
	if err != nil {
		return nil, err
	}
	if len(data) < headerLen+4 {
		return nil, fmt.Errorf("checkpoint: file truncated (%d bytes)", len(data))
	}
	if [4]byte{data[0], data[1], data[2], data[3]} != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q", data[:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:6]); v != Version {
		return nil, fmt.Errorf("checkpoint: unsupported version %d (this build reads %d)", v, Version)
	}
	if k := data[6]; k != wantKind {
		return nil, fmt.Errorf("checkpoint: payload kind %d, want %d", k, wantKind)
	}
	plen := binary.LittleEndian.Uint64(data[7:15])
	if plen != uint64(len(data)-headerLen-4) {
		return nil, fmt.Errorf("checkpoint: payload length %d does not match file size", plen)
	}
	body := data[4 : len(data)-4]
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("checkpoint: CRC mismatch (file %08x, computed %08x): snapshot is corrupt", want, got)
	}
	return data[headerLen : len(data)-4], nil
}

// --- sim.Checkpoint codec ---------------------------------------------------

// EncodeSim writes a simulation checkpoint as one container.
func EncodeSim(w io.Writer, cp *sim.Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("checkpoint: nil checkpoint")
	}
	var e core.StateEncoder
	e.Tag("sim3")
	e.Float(cp.Time)
	e.Float(cp.Duration)
	e.Bytes([]byte(cp.Scheduler))

	s := cp.Stats
	e.Bytes([]byte(s.Scheduler))
	e.Float(s.Duration)
	e.Int(s.FullRefreshes)
	e.Int(s.PartialRefreshes)
	e.Int(s.BusyCycles)
	e.Int(s.Accesses)
	e.Float(s.ChargeRestored)
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

	e.Int(int64(len(cp.Events)))
	for _, ev := range cp.Events {
		e.Float(ev.Time)
		e.Int(int64(ev.Row))
	}

	e.Floats(cp.Bank.Charge)
	e.Floats(cp.Bank.LastT)
	e.Int(int64(len(cp.Bank.Violations)))
	for _, v := range cp.Bank.Violations {
		e.Int(int64(v.Row))
		e.Float(v.Time)
		e.Float(v.Charge)
	}
	e.Ints(cp.Bank.Retired)

	e.Int(cp.TraceRead)
	e.Bool(cp.HavePending)
	e.Float(cp.Pending.Time)
	e.Uint64(uint64(cp.Pending.Op))
	e.Int(int64(cp.Pending.Row))
	e.Float(cp.LastTraceTime)
	e.Float(cp.BusyUntil)

	e.Bytes(cp.SchedState)
	e.Bytes(cp.ScrubState)
	e.Bytes(cp.ScenarioState)
	return writeContainer(w, KindSim, e.Data())
}

// DecodeSim reads and verifies a simulation checkpoint.
func DecodeSim(r io.Reader) (*sim.Checkpoint, error) {
	payload, err := readContainer(r, KindSim)
	if err != nil {
		return nil, err
	}
	d := core.NewStateDecoder(payload)
	d.ExpectTag("sim3")
	cp := &sim.Checkpoint{}
	cp.Time = d.Float()
	cp.Duration = d.Float()
	cp.Scheduler = string(d.Bytes())

	s := &cp.Stats
	s.Scheduler = string(d.Bytes())
	s.Duration = d.Float()
	s.FullRefreshes = d.Int()
	s.PartialRefreshes = d.Int()
	s.BusyCycles = d.Int()
	s.Accesses = d.Int()
	s.ChargeRestored = d.Float()
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

	if n := sliceLen(d, payload, 16); n > 0 {
		cp.Events = make([]sim.PendingEvent, n)
		for i := range cp.Events {
			cp.Events[i] = sim.PendingEvent{Time: d.Float(), Row: int(d.Int())}
		}
	}

	cp.Bank.Charge = d.Floats()
	cp.Bank.LastT = d.Floats()
	if n := sliceLen(d, payload, 24); n > 0 {
		cp.Bank.Violations = make([]dram.Violation, n)
		for i := range cp.Bank.Violations {
			cp.Bank.Violations[i] = dram.Violation{Row: int(d.Int()), Time: d.Float(), Charge: d.Float()}
		}
	}
	if retired := d.Ints(); len(retired) > 0 {
		cp.Bank.Retired = retired
	}

	cp.TraceRead = d.Int()
	cp.HavePending = d.Bool()
	cp.Pending.Time = d.Float()
	cp.Pending.Op = trace.OpKind(d.Uint64())
	cp.Pending.Row = int(d.Int())
	cp.LastTraceTime = d.Float()
	cp.BusyUntil = d.Float()

	cp.SchedState = d.Bytes()
	cp.ScrubState = d.Bytes()
	cp.ScenarioState = d.Bytes()
	if err := d.Finish(); err != nil {
		return nil, err
	}
	if err := validateSim(cp); err != nil {
		return nil, err
	}
	return cp, nil
}

// sliceLen reads a length prefix for records of elemSize encoded bytes,
// rejecting lengths the remaining payload cannot possibly hold (so a fuzzed
// or corrupt-but-CRC-colliding length cannot force a huge allocation).
func sliceLen(d *core.StateDecoder, payload []byte, elemSize int) int {
	n := d.Int()
	if d.Err() != nil {
		return 0
	}
	if n < 0 || n > int64(len(payload))/int64(elemSize) {
		d.Fail("checkpoint: slice length %d impossible in a %d-byte payload", n, len(payload))
		return 0
	}
	return int(n)
}

// validateSim applies the structural sanity checks decode-level framing
// cannot express; resume-time validation (row counts against the live bank
// and scheduler) happens in sim.RunContext.
func validateSim(cp *sim.Checkpoint) error {
	switch {
	case math.IsNaN(cp.Time) || cp.Time < 0:
		return fmt.Errorf("checkpoint: snapshot time %g invalid", cp.Time)
	case math.IsNaN(cp.Duration) || cp.Duration <= 0:
		return fmt.Errorf("checkpoint: snapshot duration %g invalid", cp.Duration)
	case len(cp.Bank.Charge) != len(cp.Bank.LastT):
		return fmt.Errorf("checkpoint: bank state has %d charges but %d restore times", len(cp.Bank.Charge), len(cp.Bank.LastT))
	case cp.TraceRead < 0:
		return fmt.Errorf("checkpoint: negative trace position %d", cp.TraceRead)
	}
	for _, ev := range cp.Events {
		if ev.Row < 0 || ev.Row >= len(cp.Bank.Charge) {
			return fmt.Errorf("checkpoint: event row %d outside bank of %d rows", ev.Row, len(cp.Bank.Charge))
		}
		if math.IsNaN(ev.Time) {
			return fmt.Errorf("checkpoint: event time NaN for row %d", ev.Row)
		}
	}
	for _, r := range cp.Bank.Retired {
		if r < 0 || r >= len(cp.Bank.Charge) {
			return fmt.Errorf("checkpoint: retired row %d outside bank of %d rows", r, len(cp.Bank.Charge))
		}
	}
	if math.IsNaN(cp.BusyUntil) || cp.BusyUntil < 0 {
		return fmt.Errorf("checkpoint: busy-until time %g invalid", cp.BusyUntil)
	}
	return nil
}

// --- campaign progress codec ------------------------------------------------

// EncodeCampaign writes the completed results of an experiment campaign.
func EncodeCampaign(w io.Writer, results []*exp.Result) error {
	var e core.StateEncoder
	e.Tag("camp1")
	e.Int(int64(len(results)))
	strs := func(v []string) {
		e.Int(int64(len(v)))
		for _, s := range v {
			e.Bytes([]byte(s))
		}
	}
	for _, res := range results {
		if res == nil {
			return fmt.Errorf("checkpoint: nil campaign result")
		}
		e.Bytes([]byte(res.ID))
		e.Bytes([]byte(res.Title))
		strs(res.Headers)
		e.Int(int64(len(res.Rows)))
		for _, row := range res.Rows {
			strs(row)
		}
		strs(res.Notes)
	}
	return writeContainer(w, KindCampaign, e.Data())
}

// DecodeCampaign reads and verifies a campaign progress record.
func DecodeCampaign(r io.Reader) ([]*exp.Result, error) {
	payload, err := readContainer(r, KindCampaign)
	if err != nil {
		return nil, err
	}
	d := core.NewStateDecoder(payload)
	d.ExpectTag("camp1")
	strs := func() []string {
		n := sliceLen(d, payload, 8)
		if d.Err() != nil || n == 0 {
			return nil
		}
		out := make([]string, n)
		for i := range out {
			out[i] = string(d.Bytes())
		}
		return out
	}
	n := sliceLen(d, payload, 8)
	var results []*exp.Result
	for i := 0; i < n && d.Err() == nil; i++ {
		res := &exp.Result{
			ID:      string(d.Bytes()),
			Title:   string(d.Bytes()),
			Headers: strs(),
		}
		rows := sliceLen(d, payload, 8)
		for j := 0; j < rows && d.Err() == nil; j++ {
			res.Rows = append(res.Rows, strs())
		}
		res.Notes = strs()
		results = append(results, res)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return results, nil
}

// CampaignLog is a campaign's durable progress: one result per experiment
// ID, saved through a Manager after every fresh result, so a killed
// campaign loses at most the experiments in flight. Restore and OnResult
// are the exp.CampaignOptions hooks; the campaign driver never calls them
// concurrently.
type CampaignLog struct {
	mgr     *Manager
	results []*exp.Result
}

// NewCampaignLog returns an empty log that saves to path.
func NewCampaignLog(path string) (*CampaignLog, error) {
	mgr, err := NewManager(path, 0)
	return &CampaignLog{mgr: mgr}, err
}

// Load replaces the log's results with the newest good generation on disk
// and returns that generation's path. On error (wrapping ErrNoSnapshot) the
// log is empty.
func (l *CampaignLog) Load() (string, error) {
	return l.mgr.Load(func(r io.Reader) error {
		var err error
		l.results, err = DecodeCampaign(r)
		return err
	})
}

// Len reports how many experiments have a result in the log.
func (l *CampaignLog) Len() int { return len(l.results) }

// Restore returns the logged result for id, or nil.
func (l *CampaignLog) Restore(id string) *exp.Result {
	if i := l.index(id); i >= 0 {
		return l.results[i]
	}
	return nil
}

// OnResult records res, replacing any earlier result for its ID, and saves
// the log.
func (l *CampaignLog) OnResult(res *exp.Result) error {
	if i := l.index(res.ID); i >= 0 {
		l.results[i] = res
	} else {
		l.results = append(l.results, res)
	}
	return l.mgr.Save(func(w io.Writer) error { return EncodeCampaign(w, l.results) })
}

func (l *CampaignLog) index(id string) int {
	return slices.IndexFunc(l.results, func(r *exp.Result) bool { return r.ID == id })
}
