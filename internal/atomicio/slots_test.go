package atomicio

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// slotPaths returns the two slot paths of a pair in dir.
func slotPaths(dir string) (string, string) {
	return filepath.Join(dir, "s.a.state"), filepath.Join(dir, "s.b.state")
}

// mustOpen opens the slot pair in dir and fails the test on an error.
func mustOpen(t *testing.T, dir string) (*Slots, Record) {
	t.Helper()
	a, b := slotPaths(dir)
	s, rec, err := OpenSlots(a, b, 0o644)
	if err != nil {
		t.Fatalf("OpenSlots: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() }) // test cleanup; a failed close fails nothing here
	return s, rec
}

// commit writes and syncs one record, failing the test on an error.
func commit(t *testing.T, s *Slots, parts ...[]byte) {
	t.Helper()
	if err := s.Write(parts...); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

// payload returns the k-th payload of a test stream: lengths that rise and
// fall, so records overwrite both longer and shorter ones, and bytes that
// differ from every other payload's at every offset.
func payload(k int) []byte {
	n := 40 + (k*37)%90
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(k*53 + i*7 + 1)
	}
	return p
}

func TestSlotsRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state") // the first Write makes it
	s, rec := mustOpen(t, dir)
	if rec.Path != "" || rec.Data != nil {
		t.Fatalf("a missing pair holds %+v, want no record", rec)
	}
	if err := s.Sync(); err != nil {
		t.Fatalf("Sync with nothing written: %v", err)
	}
	a, b := slotPaths(dir)
	for k := 1; k <= 5; k++ {
		commit(t, s, []byte("head|"), payload(k))
		_, rec := mustOpen(t, dir)
		want := append([]byte("head|"), payload(k)...)
		if !bytes.Equal(rec.Data, want) {
			t.Fatalf("after record %d OpenSlots read %q, want %q", k, rec.Data, want)
		}
		// Records alternate between the slots, the first in a.
		if wantPath := map[bool]string{true: a, false: b}[k%2 == 1]; rec.Path != wantPath {
			t.Fatalf("record %d read from %s, want %s", k, rec.Path, wantPath)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// A reopened pair continues the stream in the slot after the newest.
	s2, _ := mustOpen(t, dir)
	commit(t, s2, payload(6))
	if _, rec := mustOpen(t, dir); !bytes.Equal(rec.Data, payload(6)) || rec.Path != b {
		t.Fatalf("record 6 read as %d bytes from %s, want payload 6 from %s", len(rec.Data), rec.Path, b)
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 2 {
		t.Fatalf("slot dir holds %v (err %v), want exactly the two slot files", entries, err)
	}
}

// TestSlotsTornWriteBattery is the crash-point battery of the slot write.
// For every record of a stream, the write of that record is torn at every
// byte offset, in two shapes (only its head landed; only its tail landed),
// or dropped entirely. The pair must then read as the previous record: the
// last one acknowledged, never an older one, never garbage, never an error.
func TestSlotsTornWriteBattery(t *testing.T) {
	var slots [2][]byte // the slot files' bytes after each acknowledged record
	var acked []byte    // the newest acknowledged payload (nil: none yet)
	for k := 1; k <= 8; k++ {
		next := (k - 1) % 2
		rec, err := appendSlot(nil, uint64(k), payload(k))
		if err != nil {
			t.Fatal(err)
		}
		old := slots[next]
		check := func(shape string, at int, torn []byte) {
			t.Helper()
			state := slots
			state[next] = torn
			slot, _, got, err := newest(state)
			if err != nil {
				t.Fatalf("record %d %s at byte %d: %v", k, shape, at, err)
			}
			// Bytes that never landed may equal the ones they would have
			// overwritten (every record opens with the same magic): then
			// the whole record is in place, and it is the newest.
			want := acked
			if len(torn) >= len(rec) && bytes.Equal(torn[:len(rec)], rec) {
				want = payload(k)
			}
			switch {
			case want == nil && slot >= 0:
				t.Fatalf("record %d %s at byte %d read %q, want no record", k, shape, at, got)
			case !bytes.Equal(got, want):
				t.Fatalf("record %d %s at byte %d read %q, want %q", k, shape, at, got, want)
			}
		}
		check("dropped", 0, old)
		for at := 0; at < len(rec); at++ {
			// Only the first at bytes landed.
			head := append([]byte(nil), old...)
			if len(head) < at {
				head = append(head, make([]byte, at-len(head))...)
			}
			copy(head, rec[:at])
			check("head torn", at, head)
			if at == 0 {
				continue // the tail from byte 0 on is the whole record
			}
			// Only the bytes from at on landed; a file the write extends
			// reads zeros where nothing landed.
			tail := append([]byte(nil), old...)
			if len(tail) < len(rec) {
				tail = append(tail, make([]byte, len(rec)-len(tail))...)
			}
			copy(tail[at:], rec[at:])
			check("tail torn", at, tail)
		}
		// The whole record landed: it is the newest.
		whole := append([]byte(nil), old...)
		if len(whole) < len(rec) {
			whole = whole[:0]
			whole = append(whole, rec...)
		} else {
			copy(whole, rec)
		}
		slots[next] = whole
		acked = payload(k)
		if _, _, got, err := newest(slots); err != nil || !bytes.Equal(got, acked) {
			t.Fatalf("record %d written whole reads %q (err %v)", k, got, err)
		}
	}
}

// TestSlotsTornOnDisk runs torn writes through real files: a pair whose
// newest record is torn reads as the record before it, and the next Write
// goes to the torn slot, never over the record the pair fell back to.
func TestSlotsTornOnDisk(t *testing.T) {
	dir := t.TempDir()
	a, b := slotPaths(dir)
	s, _ := mustOpen(t, dir)
	commit(t, s, payload(1)) // slot a
	commit(t, s, payload(2)) // slot b
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, good[:len(good)-1], 0o644); err != nil { // the last byte of record 2 never landed
		t.Fatal(err)
	}
	s2, rec := mustOpen(t, dir)
	if !bytes.Equal(rec.Data, payload(1)) || rec.Path != a {
		t.Fatalf("torn newest slot read %q from %s, want record 1 from %s", rec.Data, rec.Path, a)
	}
	commit(t, s2, payload(3))
	if _, rec := mustOpen(t, dir); !bytes.Equal(rec.Data, payload(3)) || rec.Path != b {
		t.Fatalf("write after a torn slot read %q from %s, want record 3 in the torn slot %s", rec.Data, rec.Path, b)
	}
	kept, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, p, _, ok := decodeSlot(kept); !ok || !bytes.Equal(p, payload(1)) {
		t.Fatal("the write after a torn slot overwrote the record the pair fell back to")
	}
}

// TestSlotsRefuseTwoBadSlots pins that a pair whose slots are both
// non-empty and neither verifies is refused, naming both files, while a
// torn first write (the other slot still empty) reads as no record.
func TestSlotsRefuseTwoBadSlots(t *testing.T) {
	dir := t.TempDir()
	a, b := slotPaths(dir)
	rec1, err := appendSlot(nil, 1, payload(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(a, rec1[:len(rec1)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, rec := mustOpen(t, dir); rec.Path != "" {
		t.Fatalf("a torn first write read as %+v, want no record", rec)
	}
	for name, garbage := range map[string][]byte{
		"torn":    rec1[:len(rec1)-3],
		"garbled": bytes.Repeat([]byte{0x5a}, 64),
		"zeros":   make([]byte, 64),
	} {
		if err := os.WriteFile(b, garbage, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := OpenSlots(a, b, 0o644)
		if err == nil || !strings.Contains(err.Error(), a) || !strings.Contains(err.Error(), b) {
			t.Fatalf("%s second slot beside a torn one: err = %v, want a refusal naming %s and %s", name, err, a, b)
		}
	}
}

// TestSlotsNewestPicksHigherSequence pins the choice between two slots that
// both verify, whatever slot holds the newer record, and the tie-break.
func TestSlotsNewestPicksHigherSequence(t *testing.T) {
	r3, _ := appendSlot(nil, 3, []byte("three"))
	r4, _ := appendSlot(nil, 4, []byte("four"))
	for _, c := range []struct {
		data [2][]byte
		slot int
		want string
	}{
		{[2][]byte{r3, r4}, 1, "four"},
		{[2][]byte{r4, r3}, 0, "four"},
		{[2][]byte{r3, r3}, 0, "three"},
		{[2][]byte{nil, r3}, 1, "three"},
		{[2][]byte{nil, nil}, -1, ""},
	} {
		slot, _, p, err := newest(c.data)
		if err != nil || slot != c.slot || string(p) != c.want {
			t.Fatalf("newest = slot %d %q (err %v), want slot %d %q", slot, p, err, c.slot, c.want)
		}
	}
}

// TestDecodeSlotRefusals pins what a record must be to verify.
func TestDecodeSlotRefusals(t *testing.T) {
	rec, err := appendSlot(nil, 9, []byte("payload"), []byte("-two"))
	if err != nil {
		t.Fatal(err)
	}
	seq, p, n, ok := decodeSlot(append(append([]byte(nil), rec...), "stale tail"...))
	if !ok || seq != 9 || string(p) != "payload-two" || n != len(rec) {
		t.Fatalf("decodeSlot = %d %q %d %v, want record 9 of %d bytes, stale tail ignored", seq, p, n, ok, len(rec))
	}
	flip := func(i int) []byte {
		d := append([]byte(nil), rec...)
		d[i] ^= 0x01
		return d
	}
	for name, d := range map[string][]byte{
		"empty":          nil,
		"short":          rec[:slotHeader-1],
		"bad magic":      flip(0),
		"bad sequence":   flip(len(slotMagic)),
		"long length":    flip(len(slotMagic) + 8 + 1),
		"short length":   flip(len(slotMagic) + 8),
		"bad checksum":   flip(slotHeader - 1),
		"bad payload":    flip(slotHeader),
		"missing a byte": rec[:len(rec)-1],
	} {
		if _, _, _, ok := decodeSlot(d); ok {
			t.Errorf("%s: decodeSlot accepted it", name)
		}
	}
}

// TestSlotsDirRemovedAtRunTime pins that a Write whose slot file was
// unlinked makes the directory and the files again, and the record lands.
func TestSlotsDirRemovedAtRunTime(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "state")
	s, _ := mustOpen(t, dir)
	commit(t, s, payload(1))
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	commit(t, s, payload(2))
	if _, rec := mustOpen(t, dir); !bytes.Equal(rec.Data, payload(2)) {
		t.Fatalf("after the dir was removed the pair reads %q, want record 2", rec.Data)
	}
}

// TestSlotsRemove pins that a removed pair is gone from its directory,
// reads as holding no record, and is created again by the next Write; a
// slot path that cannot be removed is reported.
func TestSlotsRemove(t *testing.T) {
	dir := t.TempDir()
	_, b := slotPaths(dir)
	s, _ := mustOpen(t, dir)
	commit(t, s, payload(1)) // slot a; slot b stays empty
	if err := s.Remove(); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("removed pair left %v (err %v)", entries, err)
	}
	if _, rec := mustOpen(t, dir); rec.Path != "" {
		t.Fatalf("removed pair reads %+v, want no record", rec)
	}
	commit(t, s, payload(2))
	if _, rec := mustOpen(t, dir); !bytes.Equal(rec.Data, payload(2)) {
		t.Fatalf("the first record after Remove reads %q, want record 2", rec.Data)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(b); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(b, "busy"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Remove(); err == nil {
		t.Fatal("Remove of a slot path that is a non-empty directory succeeded")
	}
}

// TestSlotsErrors covers every failure of the slot writer: a slot that
// cannot be read, a directory that cannot be made, a slot path that cannot
// be opened, a closed file, a read-only slot, a failed sync, and a record
// too long for its header. A failed write or sync leaves the previous
// record the newest.
func TestSlotsErrors(t *testing.T) {
	t.Run("unreadable slot", func(t *testing.T) {
		dir := t.TempDir()
		a, b := slotPaths(dir)
		if err := os.Mkdir(a, 0o755); err != nil {
			t.Fatal(err)
		}
		if _, _, err := OpenSlots(a, b, 0o644); err == nil || !strings.Contains(err.Error(), a) {
			t.Fatalf("a slot that is a directory: err = %v, want a read error naming it", err)
		}
	})
	t.Run("directory cannot be made", func(t *testing.T) {
		file := filepath.Join(t.TempDir(), "file")
		if err := os.WriteFile(file, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		a, b := slotPaths(filepath.Join(file, "state"))
		s := &Slots{paths: [2]string{a, b}, perm: 0o644}
		if err := s.Write(payload(1)); err == nil || !strings.Contains(err.Error(), "opening slot") {
			t.Fatalf("Write under a regular file: err = %v, want an open error", err)
		}
	})
	t.Run("slot cannot be opened", func(t *testing.T) {
		dir := t.TempDir()
		_, b := slotPaths(dir)
		if err := os.Mkdir(b, 0o755); err != nil {
			t.Fatal(err)
		}
		s := &Slots{paths: [2]string{filepath.Join(dir, "s.a.state"), b}, perm: 0o644}
		if err := s.Write(payload(1)); err == nil {
			t.Fatal("Write with a slot path that is a directory succeeded")
		}
		if s.files != [2]*os.File{} {
			t.Fatal("a failed open left files open")
		}
	})
	t.Run("closed file", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir)
		commit(t, s, payload(1))
		if err := s.files[s.next].Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(payload(2)); err == nil {
			t.Fatal("Write to a closed slot file succeeded")
		}
		if _, rec := mustOpen(t, dir); !bytes.Equal(rec.Data, payload(1)) {
			t.Fatalf("after a failed write the pair reads %q, want record 1", rec.Data)
		}
	})
	t.Run("read-only slot", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir)
		commit(t, s, payload(1))
		ro, err := os.Open(s.paths[s.next])
		if err != nil {
			t.Fatal(err)
		}
		_ = s.files[s.next].Close() // replaced by the read-only handle below
		s.files[s.next] = ro
		if err := s.Write(payload(2)); err == nil || !strings.Contains(err.Error(), "writing slot") {
			t.Fatalf("Write to a read-only slot: err = %v, want a write error", err)
		}
		if err := s.Sync(); err != nil {
			t.Fatalf("Sync after a failed write: %v, want nothing to sync", err)
		}
		if s.seq != 1 {
			t.Fatalf("a failed write advanced the stream to record %d", s.seq)
		}
	})
	t.Run("failed sync", func(t *testing.T) {
		dir := t.TempDir()
		s, _ := mustOpen(t, dir)
		commit(t, s, payload(1))
		if err := s.Write(payload(2)); err != nil {
			t.Fatal(err)
		}
		slot := s.next
		if err := s.files[slot].Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Sync(); err == nil || !strings.Contains(err.Error(), "syncing slot") {
			t.Fatalf("Sync of a closed slot file: err = %v, want a sync error", err)
		}
		if s.next != slot || s.seq != 1 {
			t.Fatalf("a failed sync moved the stream on: next slot %d (was %d), record %d", s.next, slot, s.seq)
		}
	})
	t.Run("record too long", func(t *testing.T) {
		s, _ := mustOpen(t, t.TempDir())
		mib := make([]byte, 1<<20)
		parts := make([][]byte, 4097) // 4 GiB + 1 MiB, all one buffer
		for i := range parts {
			parts[i] = mib
		}
		if err := s.Write(parts...); !errors.Is(err, errRecordTooLarge) {
			t.Fatalf("Write of a record past 4 GiB: err = %v, want %v", err, errRecordTooLarge)
		}
	})
	t.Run("directory to sync is gone", func(t *testing.T) {
		if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
			t.Fatal("syncDir of a missing directory succeeded")
		}
	})
}

// ExampleSlots shows a slot pair's life: records written and synced, then
// the newest read back when the pair is opened again.
func ExampleSlots() {
	dir, err := os.MkdirTemp("", "slots")
	if err != nil {
		fmt.Println(err)
		return
	}
	defer os.RemoveAll(dir)
	a, b := filepath.Join(dir, "shard.a.state"), filepath.Join(dir, "shard.b.state")
	s, _, err := OpenSlots(a, b, 0o644)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, rec := range []string{"round 1", "round 2", "round 3"} {
		if err := s.Write([]byte(rec)); err != nil {
			fmt.Println(err)
			return
		}
		if err := s.Sync(); err != nil { // durable from here on
			fmt.Println(err)
			return
		}
	}
	if err := s.Close(); err != nil {
		fmt.Println(err)
		return
	}
	_, rec, err := OpenSlots(a, b, 0o644)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("%s from %s\n", rec.Data, filepath.Base(rec.Path))
	// Output: round 3 from shard.a.state
}
