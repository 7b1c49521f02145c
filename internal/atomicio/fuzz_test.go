package atomicio

import (
	"bytes"
	"testing"
)

// FuzzSlotRecord drives the slot record decoder with arbitrary bytes.
// Property: it never panics, and a record it accepts re-encodes to its own
// bytes: the prefix of the input that the record spans.
func FuzzSlotRecord(f *testing.F) {
	rec, err := appendSlot(nil, 7, []byte("rrdispatch-state/v3\n"), []byte{3, 0, 0, 0, 0, 0, 0, 0}, []byte("bundle"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(rec)
	f.Add(append(append([]byte(nil), rec...), "stale tail"...))
	f.Add(rec[:len(rec)-1])
	f.Add(rec[:slotHeader])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		seq, payload, n, ok := decodeSlot(data)
		if !ok {
			return
		}
		enc, err := appendSlot(nil, seq, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, data[:n]) {
			t.Fatalf("accepted record of %d bytes re-encodes to %d different bytes", n, len(enc))
		}
	})
}
