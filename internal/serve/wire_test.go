package serve

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"vrldram/internal/core"
)

func TestFrameRoundTrip(t *testing.T) {
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xAB}, 4096)}
	for _, p := range payloads {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, FrameTrace, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		if typ != FrameTrace || !bytes.Equal(got, p) {
			t.Fatalf("round trip mismatch: type %d, %d bytes", typ, len(got))
		}
	}
}

func TestFrameCRCFlip(t *testing.T) {
	raw, err := AppendFrame(nil, FrameAck, []byte("watermark"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range raw {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		_, _, err := ReadFrame(bytes.NewReader(bad))
		if err == nil {
			// Flipping a length byte may convert the frame into a shorter
			// valid-looking one only if the CRC happens to match - which it
			// cannot, because the CRC covers the length bytes.
			t.Fatalf("bit flip at offset %d went undetected", i)
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	raw, err := AppendFrame(nil, FrameResult, bytes.Repeat([]byte{7}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
	for n := 1; n < len(raw); n++ {
		_, _, err := ReadFrame(bytes.NewReader(raw[:n]))
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrUnexpectedEOF", n, err)
		}
	}
}

func TestFrameOversizedLengthRejected(t *testing.T) {
	raw := []byte{FrameTrace, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	var pe *ProtocolError
	if _, _, err := ReadFrame(bytes.NewReader(raw)); !errors.As(err, &pe) {
		t.Fatalf("oversized length: got %v, want a ProtocolError before any allocation", err)
	}
}

func TestPayloadCodecs(t *testing.T) {
	hello := Hello{Proto: ProtocolVersion, Token: "abc123"}
	if got, err := decodeHello(hello.encode()); err != nil || got != hello {
		t.Fatalf("hello: %+v, %v", got, err)
	}
	if _, err := decodeHello([]byte("GET / HTTP/1.1\r\n")); err == nil {
		t.Fatal("a non-protocol hello must be rejected")
	}

	w := Welcome{Token: "t", State: StateIngest, Watermark: 12345, HaveSpec: true}
	if got, err := decodeWelcome(w.encode()); err != nil || got != w {
		t.Fatalf("welcome: %+v, %v", got, err)
	}

	sim := Submit{Kind: JobSim, Sim: SimSpec{Scheduler: "vrl", Seed: 7, Duration: 0.5, Rows: 1024, Cols: 8}}
	if got, err := decodeSubmit(sim.encode()); err != nil || got.Sim != sim.Sim || got.Kind != JobSim {
		t.Fatalf("sim submit: %+v, %v", got, err)
	}

	camp := Submit{Kind: JobCampaign, Campaign: CampaignSpec{IDs: []string{"fig1a", "tab1"}, Seed: 3, Duration: 0.1}}
	got, err := decodeSubmit(camp.encode())
	if err != nil || got.Kind != JobCampaign || len(got.Campaign.IDs) != 2 || got.Campaign.IDs[1] != "tab1" {
		t.Fatalf("campaign submit: %+v, %v", got, err)
	}

	if _, err := decodeSubmit(Submit{Kind: 99}.encode()); err == nil {
		t.Fatal("unknown job kind must be rejected")
	}

	ei := ErrorInfo{Code: ErrCodeRetry, Msg: "draining"}
	if got, err := decodeError(ei.encode()); err != nil || got != ei {
		t.Fatalf("error: %+v, %v", got, err)
	}
}

func TestStatsBlobRoundTrip(t *testing.T) {
	st, err := RunLocal(SimSpec{Scheduler: "raidr", Duration: 0.05, Rows: 1024, Cols: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeStats(EncodeStats(st))
	if err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("stats round trip mismatch:\n got %+v\nwant %+v", got, st)
	}
}

// TestStatsBlobRejectsPreviousVersion: a sta1 blob (float ChargeRestored)
// from a peer built before the fixed-point sum must be refused by name,
// not misread as sta2 fields.
func TestStatsBlobRejectsPreviousVersion(t *testing.T) {
	var e core.StateEncoder
	e.Tag("sta1")
	e.Bytes([]byte("RAIDR"))
	e.Float(0.05)
	_, err := DecodeStats(e.Data())
	if err == nil || !strings.Contains(err.Error(), `"sta1"`) || !strings.Contains(err.Error(), `"sta2"`) {
		t.Fatalf("sta1 blob: err = %v, want a version error naming sta1 and sta2", err)
	}
}

// FuzzFrameDecode asserts the frame reader the server and client run is
// total: any byte stream is a sequence of verified frames ended by io.EOF at
// a frame boundary or by a classified error, without panics or unbounded
// allocation.
func FuzzFrameDecode(f *testing.F) {
	seed, _ := AppendFrame(nil, FrameHello, Hello{Proto: 1, Token: "tok"}.encode())
	f.Add(seed)
	f.Add([]byte{})
	f.Add([]byte{FrameTrace, 0xFF, 0xFF, 0xFF, 0x7F})
	multi, _ := AppendFrame(seed, FrameAck, Ack{Watermark: 9}.encode())
	f.Add(multi)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			start := len(data) - r.Len()
			typ, payload, err := ReadFrame(r)
			if err == io.EOF && start == len(data) {
				return
			}
			if err != nil {
				var pe *ProtocolError
				if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.As(err, &pe) {
					t.Fatalf("unclassified decode error: %v", err)
				}
				return
			}
			if len(payload) > maxFramePayload {
				t.Fatalf("payload %d exceeds the declared limit", len(payload))
			}
			// Whatever decodes must re-encode to the same bytes.
			re, err := AppendFrame(nil, typ, payload)
			if err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			if !bytes.Equal(re, data[start:len(data)-r.Len()]) {
				t.Fatal("decode/encode round trip changed the frame bytes")
			}
			// Payload decoders must be total too, whatever the frame type says.
			decodeHello(payload)
			decodeWelcome(payload)
			decodeSubmit(payload)
			decodeTraceBatch(payload)
			decodeTraceEOF(payload)
			decodeAck(payload)
			decodeProgress(payload)
			decodeResult(payload)
			decodeError(payload)
		}
	})
}
