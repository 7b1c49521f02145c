// Package varint is the small codec under the repository's binary state
// images: zigzag varints, unsigned-varint counts and lengths, length-prefixed
// byte strings, and a Reader with a sticky error that never panics on
// arbitrary input.
//
// Writers append to a caller-owned slice. A Reader reads fields in order;
// the first malformed or truncated field sets its error and every later read
// returns a zero value, so a decoder reads a whole record and checks Err (or
// Done) once instead of after every field.
package varint

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// errMalformed marks an input that is not a well-formed sequence of the
// fields the decoder asked for.
var errMalformed = errors.New("varint: malformed input")

// AppendInt appends v as a zigzag varint.
func AppendInt(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// AppendLen appends a count or length.
func AppendLen(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// AppendBytes appends p prefixed with its length.
func AppendBytes(b, p []byte) []byte { return append(AppendLen(b, len(p)), p...) }

// AppendString appends s prefixed with its length.
func AppendString(b []byte, s string) []byte { return append(AppendLen(b, len(s)), s...) }

// Reader decodes fields from a byte slice in order.
type Reader struct {
	buf []byte
	off int
	err error
}

// NewReader returns a Reader over b. Bytes results alias b.
func NewReader(b []byte) *Reader { return &Reader{buf: b} }

// fail records the first error, naming the offset it occurred at.
func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("%w at byte %d: %s", errMalformed, r.off, fmt.Sprintf(format, args...))
	}
}

// Err returns the first decoding error, or nil.
func (r *Reader) Err() error { return r.err }

// Done returns the first decoding error, or an error when input remains
// unread: a record is well formed only if it is consumed exactly.
func (r *Reader) Done() error {
	if r.err == nil && r.off != len(r.buf) {
		r.fail("%d trailing bytes", len(r.buf)-r.off)
	}
	return r.err
}

// uint reads an unsigned varint: the encoding of counts and lengths.
func (r *Reader) uint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

// Int reads a zigzag varint.
func (r *Reader) Int() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated or overlong varint")
		return 0
	}
	r.off += n
	return v
}

// Int32 reads a zigzag varint that must fit in an int32.
func (r *Reader) Int32() int32 {
	v := r.Int()
	if v < math.MinInt32 || v > math.MaxInt32 {
		r.fail("value %d overflows int32", v)
		return 0
	}
	return int32(v)
}

// IntN reads a zigzag varint that must fit in an int.
func (r *Reader) IntN() int {
	v := r.Int()
	if int64(int(v)) != v {
		r.fail("value %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	if r.err != nil {
		return false
	}
	if r.off >= len(r.buf) {
		r.fail("truncated bool")
		return false
	}
	b := r.buf[r.off]
	if b > 1 {
		r.fail("bool byte 0x%02x", b)
		return false
	}
	r.off++
	return b == 1
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte")
		return 0
	}
	r.off++
	return r.buf[r.off-1]
}

// Len reads a count of items that each take at least minSize bytes. A count
// the remaining input cannot hold is an error, so a hostile count never
// drives an allocation larger than the input.
func (r *Reader) Len(minSize int) int {
	v := r.uint()
	if r.err != nil {
		return 0
	}
	if minSize < 1 {
		minSize = 1
	}
	if v > uint64((len(r.buf)-r.off)/minSize) {
		r.fail("count %d exceeds the %d bytes left", v, len(r.buf)-r.off)
		return 0
	}
	return int(v)
}

// Bytes reads a length-prefixed byte string. The result aliases the input.
func (r *Reader) Bytes() []byte {
	n := r.Len(1)
	if r.err != nil {
		return nil
	}
	p := r.buf[r.off : r.off+n : r.off+n]
	r.off += n
	return p
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }
