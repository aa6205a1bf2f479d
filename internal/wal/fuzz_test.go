package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"
)

// frame builds one valid wire frame for fuzz seeds.
func frame(payload []byte) []byte {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint32(b, crc32.Checksum(payload, castagnoli))
	return append(b, payload...)
}

// FuzzScanSegment hammers the frame decoder with arbitrary segment bytes —
// torn tails, bit flips, concatenated segments, hostile lengths (the
// mirror of trace.FuzzStreamDecoder for the WAL wire format). Whatever the
// input, ScanSegment must not panic, must deliver only checksum-valid
// frames, and must stop at the first bad frame: when the input is a valid
// prefix plus garbage, exactly the prefix's records come back.
func FuzzScanSegment(f *testing.F) {
	valid := append(append([]byte{}, segmentMagic...), frame([]byte(`{"id":1}`))...)
	valid = append(valid, frame([]byte(`{"id":2,"pad":"xxxxxxxxxxxxxxxx"}`))...)

	f.Add([]byte{})
	f.Add(append([]byte{}, segmentMagic...))
	f.Add(valid)
	f.Add(valid[:len(valid)-3])                               // torn payload
	f.Add(valid[:len(segmentMagic)+3])                        // torn frame header
	f.Add(append(append([]byte{}, valid...), 0x01))           // trailing garbage byte
	f.Add(append(append([]byte{}, valid...), valid...))       // concatenated segments
	f.Add([]byte("ddoswal1\xff\xff\xff\xff\x00\x00\x00\x00")) // hostile length
	f.Add([]byte("notmagic" + "rest"))
	bitflip := append([]byte{}, valid...)
	bitflip[len(bitflip)-1] ^= 0x40
	f.Add(bitflip)

	f.Fuzz(func(t *testing.T, data []byte) {
		var got [][]byte
		records, off, clean, err := ScanSegment(bytes.NewReader(data), func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("in-memory scan returned an I/O error: %v", err)
		}
		if records != len(got) {
			t.Fatalf("records=%d but delivered %d", records, len(got))
		}
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("offset %d outside input of %d bytes", off, len(data))
		}
		if clean && len(data) >= len(segmentMagic) && off != int64(len(data)) {
			t.Fatalf("clean scan stopped at %d of %d bytes", off, len(data))
		}
		// Every delivered frame must re-verify against the raw input at the
		// offsets the decoder claims, with a matching checksum.
		cursor := int64(len(segmentMagic))
		for i, p := range got {
			hdr := data[cursor : cursor+frameHeaderLen]
			length := binary.LittleEndian.Uint32(hdr[0:4])
			sum := binary.LittleEndian.Uint32(hdr[4:8])
			if int(length) != len(p) {
				t.Fatalf("frame %d length %d != payload %d", i, length, len(p))
			}
			if crc32.Checksum(p, castagnoli) != sum {
				t.Fatalf("frame %d delivered with a bad checksum", i)
			}
			if !bytes.Equal(p, data[cursor+frameHeaderLen:cursor+frameHeaderLen+int64(length)]) {
				t.Fatalf("frame %d payload does not match input bytes", i)
			}
			cursor += frameHeaderLen + int64(length)
		}
		if cursor != off && records > 0 {
			t.Fatalf("decoder offset %d disagrees with recomputed %d", off, cursor)
		}

		// Append-then-scan round trip: a valid prefix followed by this fuzz
		// input yields at least the prefix's records, unmangled.
		combined := append(append([]byte{}, valid...), data...)
		var first2 [][]byte
		_, _, _, err = ScanSegment(bytes.NewReader(combined), func(p []byte) error {
			if len(first2) < 2 {
				first2 = append(first2, append([]byte(nil), p...))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(first2) < 2 ||
			!bytes.Equal(first2[0], []byte(`{"id":1}`)) ||
			!bytes.Equal(first2[1], []byte(`{"id":2,"pad":"xxxxxxxxxxxxxxxx"}`)) {
			t.Fatalf("valid prefix lost under trailing fuzz bytes: %q", first2)
		}
	})
}
