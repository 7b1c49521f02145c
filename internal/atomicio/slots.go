package atomicio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// A slot record is a 24-byte header, then the payload:
//
//	magic "rrslot1\n" | seq uint64 | length uint32 | crc uint32 | payload
//
// integers little-endian, crc the CRC-32C of the first 20 header bytes and
// the payload. Records are written in place, so a slot file may hold stale
// bytes past its record's end; they are not part of the record.
const (
	slotMagic  = "rrslot1\n"
	slotHeader = len(slotMagic) + 8 + 4 + 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errRecordTooLarge refuses a record whose length does not fit the header.
var errRecordTooLarge = errors.New("atomicio: slot record longer than 4 GiB")

// appendSlot appends the record of payload parts under sequence number seq.
func appendSlot(b []byte, seq uint64, parts ...[]byte) ([]byte, error) {
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	if uint64(n) > math.MaxUint32 {
		return b, errRecordTooLarge
	}
	start := len(b)
	b = append(b, slotMagic...)
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	crc := crc32.Update(0, castagnoli, b[start:])
	for _, p := range parts {
		crc = crc32.Update(crc, castagnoli, p)
	}
	b = binary.LittleEndian.AppendUint32(b, crc)
	for _, p := range parts {
		b = append(b, p...)
	}
	return b, nil
}

// decodeSlot reads the record at the start of a slot file's bytes: its
// sequence number, its payload (aliasing b) and its length in b. ok is false
// when b holds no record that verifies.
func decodeSlot(b []byte) (seq uint64, payload []byte, n int, ok bool) {
	if len(b) < slotHeader || string(b[:len(slotMagic)]) != slotMagic {
		return 0, nil, 0, false
	}
	seq = binary.LittleEndian.Uint64(b[len(slotMagic):])
	size := binary.LittleEndian.Uint32(b[len(slotMagic)+8:])
	if uint64(size) > uint64(len(b)-slotHeader) {
		return 0, nil, 0, false
	}
	n = slotHeader + int(size)
	crc := crc32.Update(0, castagnoli, b[:slotHeader-4])
	crc = crc32.Update(crc, castagnoli, b[slotHeader:n])
	if crc != binary.LittleEndian.Uint32(b[slotHeader-4:]) {
		return 0, nil, 0, false
	}
	return seq, b[slotHeader:n:n], n, true
}

// Record is a record read back from a slot pair: its payload and the slot
// file that holds it. Path is empty when the pair holds no record.
type Record struct {
	Data []byte
	Path string
}

// Slots is one record stream kept durably in two slot files, written
// alternately and in place. Write puts the next record into the slot that
// does not hold the newest durable record, and Sync makes it durable with
// fdatasync; a record is durable, and the other slot becomes the next one
// written, only once its Sync returned. So a crash can tear at most the
// record being written, and the other slot still holds the one before it.
// Every record is checksummed, and OpenSlots returns the newest one that
// verifies.
//
// The files are created at the first Write, with their directory synced
// after, and then held open: a record costs one in-place write and one
// fdatasync, with no temp file, rename or directory update. A Write that
// finds its slot file unlinked (the directory was removed) makes the
// directory and both files again. A Slots is not safe for concurrent use.
type Slots struct {
	paths   [2]string
	perm    os.FileMode
	files   [2]*os.File // nil until the first Write opens them
	seq     uint64      // sequence number of the newest durable record, 0 before the first
	next    int         // the slot the next record goes to
	written bool        // a record is written to next and not yet synced
	buf     []byte      // the record being written, reused
}

// OpenSlots reads the slot pair at paths a and b, two files in one
// directory, and returns it ready to write the record after the newest one
// that verifies, which it also returns. A missing or empty slot holds no
// record. Two non-empty slots of which neither verifies are refused, naming
// both files: they are not a torn first write, and booting as if they held
// nothing would drop the stream they held.
func OpenSlots(a, b string, perm os.FileMode) (*Slots, Record, error) {
	s := &Slots{paths: [2]string{a, b}, perm: perm}
	var data [2][]byte
	for i, p := range s.paths {
		d, err := os.ReadFile(p)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, Record{}, fmt.Errorf("atomicio: reading slot: %w", err)
		}
		data[i] = d
	}
	slot, seq, payload, err := newest(data)
	if err != nil {
		return nil, Record{}, fmt.Errorf("atomicio: %s and %s: %w", a, b, err)
	}
	if slot < 0 {
		return s, Record{}, nil
	}
	s.seq, s.next = seq, 1-slot
	return s, Record{Data: payload, Path: s.paths[slot]}, nil
}

// errNoSlotVerifies refuses a pair of non-empty slots neither of which
// holds a record that verifies.
var errNoSlotVerifies = errors.New("neither slot holds a record that verifies")

// newest picks the slot holding the newest record that verifies, with its
// sequence number and payload; slot is -1 when neither does. Ties go to the
// first slot.
func newest(data [2][]byte) (slot int, seq uint64, payload []byte, err error) {
	slot = -1
	for i, d := range data {
		q, p, _, ok := decodeSlot(d)
		if ok && (slot < 0 || q > seq) {
			slot, seq, payload = i, q, p
		}
	}
	if slot < 0 && len(data[0]) > 0 && len(data[1]) > 0 {
		return -1, 0, nil, errNoSlotVerifies
	}
	return slot, seq, payload, nil
}

// Write writes the record of parts' concatenation into the next slot, in
// place, without syncing it. Until a Sync returns, the record is not
// durable and every Write goes to the same slot, so the other slot's record
// is never overwritten before the record after it is durable.
func (s *Slots) Write(parts ...[]byte) error {
	rec, err := appendSlot(s.buf[:0], s.seq+1, parts...)
	if err != nil {
		return err
	}
	s.buf = rec
	if err := s.ensureOpen(); err != nil {
		return fmt.Errorf("atomicio: opening slot %s: %w", s.paths[s.next], err)
	}
	s.written = false
	if _, err := s.files[s.next].WriteAt(rec, 0); err != nil {
		return fmt.Errorf("atomicio: writing slot: %w", err)
	}
	s.written = true
	return nil
}

// Sync makes the record Write wrote durable with fdatasync, and then turns
// to the other slot for the next record. With no record written since the
// last Sync it does nothing.
func (s *Slots) Sync() error {
	if !s.written {
		return nil
	}
	if err := fdatasync(s.files[s.next]); err != nil {
		return fmt.Errorf("atomicio: syncing slot %s: %w", s.paths[s.next], err)
	}
	s.written = false
	s.seq++
	s.next = 1 - s.next
	return nil
}

// Close closes the slot files. A later Write opens them again.
func (s *Slots) Close() error {
	var err error
	for i, f := range s.files {
		if f != nil {
			err = errors.Join(err, f.Close())
			s.files[i] = nil
		}
	}
	return err
}

// Remove closes the slot files, removes them and syncs their directory, so
// the pair holds no record from then on; a later Write creates the files
// again. Files already missing are fine.
func (s *Slots) Remove() error {
	err := s.Close()
	for _, p := range s.paths {
		if rerr := os.Remove(p); rerr != nil && !errors.Is(rerr, fs.ErrNotExist) {
			err = errors.Join(err, rerr)
		}
	}
	return errors.Join(err, syncDir(filepath.Dir(s.paths[0])))
}

// ensureOpen opens the slot files unless they are open and the next slot's
// file is still linked. Opening makes the directory, creates the files
// where they are missing, and syncs both files and the directory, so the
// files' names and the records already in them are durable before either
// slot is overwritten.
func (s *Slots) ensureOpen() error {
	if f := s.files[s.next]; f != nil {
		gone, err := unlinked(f)
		if err != nil || !gone {
			return err
		}
	}
	_ = s.Close() // files about to be reopened: nothing written through them is lost by a failed close
	dir := filepath.Dir(s.paths[0])
	err := os.MkdirAll(dir, 0o755)
	for i := 0; i < len(s.files) && err == nil; i++ {
		s.files[i], err = os.OpenFile(s.paths[i], os.O_RDWR|os.O_CREATE, s.perm)
	}
	if err == nil {
		err = syncDir(dir)
	}
	for _, f := range s.files {
		if err == nil {
			err = fdatasync(f)
		}
	}
	if err != nil {
		_ = s.Close() // the open already failed; that error is the one to report
	}
	return err
}

// syncDir makes the entries of directory dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}
