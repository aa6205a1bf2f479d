package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"repro/internal/astopo"
)

// FuzzBatchDecoder hammers the binary batch decoder with arbitrary body
// bytes — torn tails, bit flips, hostile lengths, concatenated batches —
// in the FuzzScanSegment corpus style. Whatever the input, Decode must
// not panic, must bound its reads (no allocation driven by a hostile
// length field beyond the frame cap), and on success every decoded
// record must re-encode to exactly the payload bytes the decoder reports
// (the WAL passthrough invariant).
func FuzzBatchDecoder(f *testing.F) {
	mk := func(attacks ...Attack) []byte {
		var buf bytes.Buffer
		enc := NewBatchEncoder(&buf)
		for i := range attacks {
			if err := enc.Encode(&attacks[i]); err != nil {
				f.Fatal(err)
			}
		}
		return buf.Bytes()
	}
	t0 := time.Date(2012, 8, 3, 14, 0, 0, 0, time.UTC)
	a1 := Attack{ID: 1, Family: "DirtJumper", Start: t0, DurationSec: 900,
		TargetIP: 0x0a000001, TargetAS: 64512, Bots: []astopo.IPv4{1, 2, 3}}
	a2 := Attack{ID: 2, Family: "Optima", Start: t0.Add(time.Hour), DurationSec: 60,
		TargetIP: 0x0a000002, TargetAS: 64513}
	valid := mk(a1, a2)

	f.Add([]byte{})
	f.Add([]byte("ddosbat1"))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                               // torn payload
	f.Add(valid[:len(batchMagic)+3])                          // torn frame header
	f.Add(append(append([]byte{}, valid...), 0x01))           // trailing garbage
	f.Add(append(append([]byte{}, valid...), valid...))       // concatenated batches
	f.Add([]byte("ddosbat1\xff\xff\xff\xff\x00\x00\x00\x00")) // hostile length
	f.Add([]byte(`[{"id":1}]`))                               // JSON mislabeled as batch
	bitflip := bytes.Clone(valid)
	bitflip[len(bitflip)-1] ^= 0x40
	f.Add(bitflip)
	hugeBots := bytes.Clone(valid)
	// Corrupt record 1's bot count without fixing the CRC: must be caught.
	binary.LittleEndian.PutUint32(hugeBots[len(batchMagic)+frameHeaderLen+44+10:], 0xfffffff0)
	f.Add(hugeBots)

	dec := NewBatchDecoder()
	f.Fuzz(func(t *testing.T, data []byte) {
		dec.Reset(bytes.NewReader(data))
		err := dec.Decode(64)
		if err != nil {
			var fe *BatchFrameError
			var te *BatchTooLargeError
			if !errors.Is(err, ErrBatchMagic) && !errors.As(err, &fe) && !errors.As(err, &te) {
				t.Fatalf("in-memory decode returned a transport error: %v", err)
			}
			if errors.As(err, &fe) && fe.Index != dec.Len()+1 {
				t.Fatalf("frame error index %d, decoded %d records", fe.Index, dec.Len())
			}
			return
		}
		// Success: the WAL passthrough invariant — every record re-encodes
		// byte-identically to its reported payload, and replays through
		// UnmarshalRecord to an equal record.
		for i := 0; i < dec.Len(); i++ {
			rec := dec.Records()[i]
			enc, encErr := AppendRecord(nil, &rec)
			if encErr != nil {
				t.Fatalf("record %d does not re-encode: %v", i, encErr)
			}
			if !bytes.Equal(enc, dec.Payload(i)) {
				t.Fatalf("record %d re-encoding differs from wire payload", i)
			}
			var back Attack
			if err := UnmarshalRecord(dec.Payload(i), &back); err != nil {
				t.Fatalf("record %d payload does not replay: %v", i, err)
			}
			if back.ID != rec.ID || !back.Start.Equal(rec.Start) || back.Family != rec.Family {
				t.Fatalf("record %d replay mismatch: %+v vs %+v", i, back, rec)
			}
		}

		// A valid prefix followed by this fuzz input never mangles the
		// prefix's records.
		combined := append(bytes.Clone(valid), data...)
		dec.Reset(bytes.NewReader(combined))
		decErr := dec.Decode(0)
		if decErr == nil && dec.Len() < 2 {
			t.Fatalf("valid 2-record prefix decoded to %d records", dec.Len())
		}
		if dec.Len() >= 2 {
			if dec.Records()[0].ID != 1 || dec.Records()[1].ID != 2 {
				t.Fatalf("valid prefix mangled under trailing fuzz bytes: %+v", dec.Records()[:2])
			}
		}
	})
}
