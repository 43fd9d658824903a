package wire_test

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/dandelion"
	"repro/internal/dcnet"
	"repro/internal/flood"
	"repro/internal/node"
	"repro/internal/stack"
	"repro/internal/wire"
	"repro/internal/workload"
)

// FuzzWireDecode feeds arbitrary bytes to the codec: Unmarshal must
// never panic — a hostile peer controls every byte after the frame
// header — and anything it accepts must reach an encode/decode fixpoint
// in one step: re-marshaling the decoded message yields canonical bytes
// that decode back to the same canonical bytes. (Exact input identity
// is too strong: varint length prefixes admit non-canonical spellings,
// which decode fine but re-encode canonically.)
func FuzzWireDecode(f *testing.F) {
	// The full wire surface of a live node: every message family a
	// hostile peer could target over TCP.
	codec := stack.Codec()
	// Seed with one valid encoding per family plus degenerate inputs.
	seeds := []wire.Encodable{
		&flood.DataMsg{ID: [16]byte{1}, Hops: 3, Payload: []byte("tx")},
		&adaptive.InfectMsg{ID: [16]byte{2}, TTL: 2, Round: 1, Payload: []byte("p")},
		&adaptive.TokenMsg{ID: [16]byte{3}, Round: 2, H: 1},
		&dcnet.ShareMsg{Round: 7, Data: bytes.Repeat([]byte{0xaa}, 32)},
		&dandelion.StemMsg{ID: [16]byte{4}, Payload: []byte("stem")},
		&node.BlockMsg{Height: 1, Miner: 3, Txs: [][]byte{{0x01}}},
		&workload.SubmitMsg{Payload: []byte("submit")},
	}
	for _, m := range seeds {
		enc, err := codec.Marshal(m)
		if err != nil {
			f.Fatalf("seeding: %v", err)
		}
		f.Add(enc)
	}
	f.Add([]byte{})
	f.Add([]byte{0x01})
	f.Add([]byte{0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := codec.Unmarshal(data)
		if err != nil {
			return // rejected input: the only requirement is "no panic"
		}
		enc, err := codec.Marshal(msg)
		if err != nil {
			t.Fatalf("decoded message failed to re-marshal: %v", err)
		}
		msg2, err := codec.Unmarshal(enc)
		if err != nil {
			t.Fatalf("canonical re-encoding failed to decode: %v\n enc %x", err, enc)
		}
		enc2, err := codec.Marshal(msg2)
		if err != nil {
			t.Fatalf("second-generation re-marshal failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("encode/decode did not reach a fixpoint:\n in   %x\n enc  %x\n enc2 %x", data, enc, enc2)
		}
	})
}

// FuzzFrameRoundTrip checks the framing layer both ways: any payload
// must round-trip through WriteFrame/ReadFrame unchanged, and ReadFrame
// must never panic on an arbitrary stream prefix (truncated headers,
// hostile length fields, trailing garbage).
func FuzzFrameRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hello"))
	f.Add(bytes.Repeat([]byte{0xff}, 300))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Add([]byte{0x00, 0x00, 0x00, 0x02, 0xab})

	f.Fuzz(func(t *testing.T, data []byte) {
		// Forward: frame the payload, read it back.
		var buf bytes.Buffer
		if err := wire.WriteFrame(&buf, data); err != nil {
			t.Fatalf("WriteFrame(%d bytes): %v", len(data), err)
		}
		got, err := wire.ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame after WriteFrame: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("frame round-trip changed payload: %x -> %x", data, got)
		}
		if buf.Len() != 0 {
			t.Fatalf("%d trailing bytes after one frame", buf.Len())
		}

		// Adversarial: the same bytes interpreted as a raw stream must
		// decode or error, never panic; a clean EOF only at offset 0.
		r := bytes.NewReader(data)
		for {
			frame, err := wire.ReadFrame(r)
			if err != nil {
				if err == io.EOF && len(data) != 0 && r.Len() == len(data) {
					// EOF at a frame boundary with unconsumed bytes is
					// impossible: ReadFrame consumed the header.
					t.Fatalf("clean EOF without consuming header bytes")
				}
				break
			}
			_ = frame
		}
	})
}
