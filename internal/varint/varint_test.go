package varint

import (
	"errors"
	"math"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var b []byte
	b = AppendInt(b, -5)
	b = AppendInt(b, math.MaxInt64)
	b = AppendInt(b, math.MinInt32)
	b = AppendInt(b, 7)
	b = AppendBool(b, true)
	b = AppendBool(b, false)
	b = append(b, 0xab)
	b = AppendBytes(b, []byte{1, 2, 3})
	b = AppendString(b, "tenant")
	b = AppendLen(b, 2)
	b = append(b, 9, 9)
	r := NewReader(b)
	if v := r.Int(); v != -5 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Int(); v != math.MaxInt64 {
		t.Fatalf("Int = %d", v)
	}
	if v := r.Int32(); v != math.MinInt32 {
		t.Fatalf("Int32 = %d", v)
	}
	if v := r.IntN(); v != 7 {
		t.Fatalf("IntN = %d", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool round trip")
	}
	if v := r.Byte(); v != 0xab {
		t.Fatalf("Byte = %x", v)
	}
	if p := r.Bytes(); string(p) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", p)
	}
	if s := r.Str(); s != "tenant" {
		t.Fatalf("Str = %q", s)
	}
	if n := r.Len(1); n != 2 {
		t.Fatalf("Len = %d", n)
	}
	r.Byte()
	r.Byte()
	if err := r.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestRejects(t *testing.T) {
	for name, read := range map[string]func(*Reader){
		"empty int":        func(r *Reader) { r.Int() },
		"empty count":      func(r *Reader) { r.Len(1) },
		"empty bool":       func(r *Reader) { r.Bool() },
		"empty byte":       func(r *Reader) { r.Byte() },
		"int32 overflow":   func(r *Reader) { r.Int32() },
		"bool byte":        func(r *Reader) { r.Bool() },
		"count past input": func(r *Reader) { r.Len(4) },
		"bytes past input": func(r *Reader) { r.Bytes() },
	} {
		var in []byte
		switch name {
		case "int32 overflow":
			in = AppendInt(nil, math.MaxInt32+1)
		case "bool byte":
			in = []byte{2}
		case "count past input", "bytes past input":
			in = AppendLen(nil, 3)
			in = append(in, 0, 0)
		}
		r := NewReader(in)
		read(r)
		if err := r.Err(); !errors.Is(err, errMalformed) {
			t.Errorf("%s: err = %v, want errMalformed", name, err)
		}
		// The error is sticky: later reads return zero values.
		if v := r.Int(); v != 0 || r.Err() == nil {
			t.Errorf("%s: read after an error returned %d", name, v)
		}
	}
	overlong := []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}
	if r := NewReader(overlong); r.Len(1) != 0 || r.Err() == nil {
		t.Error("overlong varint accepted")
	}
	if r := NewReader([]byte{0, 0}); r.Int() != 0 || r.Done() == nil {
		t.Error("Done accepted trailing bytes")
	}
}
