package checkpoint

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// ErrNoSnapshot is the start-fresh signal: every error Load returns wraps
// it, whether no generation exists at all or every generation on disk is
// corrupt. Callers that can rebuild their state from scratch test
// errors.Is(err, ErrNoSnapshot) and begin cold; the error text still carries
// the newest per-generation failure for diagnostics, but no caller has to
// parse it to decide what to do.
var ErrNoSnapshot = errors.New("checkpoint: no usable snapshot")

// DefaultGenerations is how many snapshot generations Manager retains in
// total when the caller does not say.
const DefaultGenerations = 3

// Manager owns one checkpoint file and its retained generations: <path> is
// the newest snapshot, <path>.1 the one before it, up to <path>.<keep-1>.
// Save writes each new snapshot into a scratch file, fsyncs it, shifts every
// generation one place older and renames the scratch file into place, so
// <path> always names a complete snapshot.
//
// The scratch file is the oldest generation itself: Save renames
// <path>.<keep-1> to <path>.tmp and overwrites it in place instead of
// deleting it. On file systems where freeing a synced file's blocks is slow
// (ext4 with online discard takes tens of milliseconds per unlink), a
// steady-state Save therefore frees nothing: no unlink, no rename onto an
// existing name, and no shrinking truncate unless the snapshot got smaller.
// The price is the crash window: while a Save is writing, the oldest
// generation is its buffer, so a crash mid-write leaves keep-1 intact
// generations, the newest among them. With keep = 1 there is no spare
// generation; the snapshot is written beside the only one and renamed over
// it.
//
// Load walks the generations newest-first and returns the first one that
// decodes cleanly, skipping corrupt or truncated files.
type Manager struct {
	path string
	keep int
}

// NewManager returns a manager for the given checkpoint path, retaining
// keep generations in total (DefaultGenerations if keep <= 0).
func NewManager(path string, keep int) (*Manager, error) {
	if path == "" {
		return nil, fmt.Errorf("checkpoint: empty path")
	}
	if keep <= 0 {
		keep = DefaultGenerations
	}
	return &Manager{path: path, keep: keep}, nil
}

// Path returns the primary checkpoint file path.
func (m *Manager) Path() string { return m.path }

func (m *Manager) generation(i int) string {
	if i == 0 {
		return m.path
	}
	return fmt.Sprintf("%s.%d", m.path, i)
}

// Save writes a new snapshot via the encode callback (e.g.
// func(w io.Writer) error { return EncodeSim(w, cp) }) and makes it the
// newest generation. The snapshot is encoded into memory first, so an
// encoder error leaves every file on disk unchanged. An I/O error after the
// oldest generation has been taken as the write buffer costs that generation
// only; the newer ones stay intact and loadable.
func (m *Manager) Save(encode func(io.Writer) error) error {
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	tmp := m.path + ".tmp"
	// Recycle the oldest generation as the write buffer. It is missing while
	// the ring is still filling; then writeSynced creates <path>.tmp, or
	// reuses one a killed Save left behind.
	if m.keep > 1 {
		if err := os.Rename(m.generation(m.keep-1), tmp); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if err := writeSynced(tmp, buf.Bytes()); err != nil {
		return err
	}
	// Rotate <path>.<keep-2> -> <path>.<keep-1>, ..., <path> -> <path>.1.
	// Each target was just vacated, so no rename lands on an existing name.
	// A missing link in the chain is normal early in a run's life.
	for i := m.keep - 2; i >= 0; i-- {
		if err := os.Rename(m.generation(i), m.generation(i+1)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return os.Rename(tmp, m.path)
}

// writeSynced overwrites name with data in place and fsyncs it. The file is
// opened without O_TRUNC and truncated to len(data) only after the write, so
// a recycled file that is at least as long as data frees no blocks.
func writeSynced(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE, 0o666)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if err == nil {
		err = f.Truncate(int64(len(data)))
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Load opens the newest good generation and decodes it via the callback.
// A generation that fails to open or decode (bad CRC, truncation, wrong
// version) is skipped in favor of the one before it. It returns the path of
// the generation that loaded; if every generation is missing or corrupt the
// error wraps ErrNoSnapshot (the clean start-fresh signal), with the newest
// failure preserved in the message for diagnostics.
func (m *Manager) Load(decode func(io.Reader) error) (string, error) {
	var firstErr error
	tried := 0
	for i := 0; i < m.keep; i++ {
		name := m.generation(i)
		f, err := os.Open(name)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			if firstErr == nil {
				firstErr = err
			}
			tried++
			continue
		}
		err = decode(f)
		f.Close()
		if err == nil {
			return name, nil
		}
		if firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", name, err)
		}
		tried++
	}
	if firstErr != nil {
		return "", fmt.Errorf("%w among %d candidate(s); newest failure: %v", ErrNoSnapshot, tried, firstErr)
	}
	return "", fmt.Errorf("%w at %s", ErrNoSnapshot, m.path)
}
