package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"vrldram/internal/exp"
)

// FuzzCheckpointDecode throws arbitrary bytes at both container decoders.
// The invariants: no panic, no unbounded allocation (the codecs validate
// length prefixes against the remaining payload before allocating), and
// anything that decodes cleanly must re-encode to a byte-identical
// container (the formats are canonical).
func FuzzCheckpointDecode(f *testing.F) {
	var sim1 bytes.Buffer
	if err := EncodeSim(&sim1, sampleSim()); err != nil {
		f.Fatal(err)
	}
	var camp bytes.Buffer
	err := EncodeCampaign(&camp, []*exp.Result{
		{ID: "fig4", Title: "t", Headers: []string{"h"}, Rows: [][]string{{"v"}}, Notes: []string{"n"}},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(sim1.Bytes())
	f.Add(camp.Bytes())
	f.Add([]byte("VRLC"))
	f.Add(sim1.Bytes()[:headerLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if cp, err := DecodeSim(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := EncodeSim(&out, cp); err != nil {
				t.Fatalf("decoded checkpoint failed to re-encode: %v", err)
			}
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("sim container is not canonical:\n in  %x\n out %x", data, out.Bytes())
			}
		}
		if results, err := DecodeCampaign(bytes.NewReader(data)); err == nil {
			var out bytes.Buffer
			if err := EncodeCampaign(&out, results); err != nil {
				t.Fatalf("decoded campaign failed to re-encode: %v", err)
			}
			back, err := DecodeCampaign(&out)
			if err != nil {
				t.Fatalf("re-encoded campaign failed to decode: %v", err)
			}
			if !reflect.DeepEqual(back, results) {
				t.Fatal("campaign round trip diverged")
			}
		}
	})
}

// FuzzManagerGenerations drives one Manager through a drawn script of saves
// whose payloads grow and shrink, failing encoders, and byte flips in
// random generations. After every step Load must return the newest
// generation that is still intact, or an error wrapping ErrNoSnapshot when
// none is, and a failed encoder must leave every file byte-identical.
func FuzzManagerGenerations(f *testing.F) {
	f.Add(byte(2), []byte{0, 40, 0, 200, 0, 3, 2, 0, 1, 9, 0, 90, 2, 1, 0, 0})
	f.Add(byte(0), []byte{0, 255, 0, 1, 1, 0, 0, 128, 2, 2, 2, 0, 0, 7, 0, 6, 0, 5})
	f.Add(byte(3), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 2, 3, 2, 2, 2, 1, 2, 0, 1, 4, 0, 0})

	f.Fuzz(func(t *testing.T, keepSeed byte, script []byte) {
		keep := 1 + int(keepSeed%4)
		dir := t.TempDir()
		mgr, err := NewManager(filepath.Join(dir, "gen.ckpt"), keep)
		if err != nil {
			t.Fatal(err)
		}
		type generation struct {
			payload []byte
			intact  bool
		}
		var ring []generation // newest first; ring[i] is mgr.generation(i)
		saves := 0
		for ; len(script) >= 2; script = script[2:] {
			op, arg := script[0]%3, script[1]
			switch op {
			case 0: // save a payload of 4 + 7*arg bytes, unique to this save
				saves++
				payload := make([]byte, 4+7*int(arg))
				binary.LittleEndian.PutUint32(payload, uint32(saves))
				for i := 4; i < len(payload); i++ {
					payload[i] = byte(saves*31 + i)
				}
				if err := mgr.Save(func(w io.Writer) error { return EncodeBlob(w, KindSession, payload) }); err != nil {
					t.Fatal(err)
				}
				ring = append([]generation{{payload, true}}, ring...)
				ring = ring[:min(len(ring), keep)]
			case 1: // an encoder that writes arg bytes, then fails
				before := dirContents(t, dir)
				err := mgr.Save(func(w io.Writer) error {
					if _, err := w.Write(make([]byte, arg)); err != nil {
						return err
					}
					return io.ErrUnexpectedEOF
				})
				if err == nil {
					t.Fatal("failing encoder did not fail Save")
				}
				if !maps.Equal(before, dirContents(t, dir)) {
					t.Fatal("failed save changed a file on disk")
				}
			case 2: // flip one byte of an intact generation, in place
				if len(ring) == 0 || !ring[int(arg)%len(ring)].intact {
					continue
				}
				g := int(arg) % len(ring)
				fh, err := os.OpenFile(mgr.generation(g), os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				info, err := fh.Stat()
				if err != nil {
					t.Fatal(err)
				}
				off := int64(arg) * 131 % info.Size()
				var b [1]byte
				if _, err := fh.ReadAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				b[0] ^= arg | 1
				if _, err := fh.WriteAt(b[:], off); err != nil {
					t.Fatal(err)
				}
				fh.Close()
				ring[g].intact = false
			}

			var got []byte
			from, err := mgr.Load(func(r io.Reader) error {
				var derr error
				got, derr = DecodeBlob(r, KindSession)
				return derr
			})
			want := slices.IndexFunc(ring, func(g generation) bool { return g.intact })
			if want < 0 {
				if !errors.Is(err, ErrNoSnapshot) {
					t.Fatalf("no intact generation, yet Load returned %s (err %v)", from, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("Load failed with %s intact: %v", mgr.generation(want), err)
			}
			if from != mgr.generation(want) || !bytes.Equal(got, ring[want].payload) {
				t.Fatalf("Load returned %d bytes from %s, want the %d-byte payload of %s",
					len(got), from, len(ring[want].payload), mgr.generation(want))
			}
		}
	})
}
