package stream

import (
	"bytes"
	"testing"
)

// FuzzRestoreStreamBinary drives the binary image decoder with arbitrary
// bytes. Property: it never panics, and an image it accepts re-encodes to
// bytes that decode and re-encode to themselves, with a Snapshot equal to the
// accepted scheduler's; the accepted scheduler also survives its next round.
func FuzzRestoreStreamBinary(f *testing.F) {
	for _, shape := range imageShapes {
		seq := shape.seq(f, 1)
		s, err := New(Config{Delta: seq.Delta(), Resources: shape.resources})
		if err != nil {
			f.Fatal(err)
		}
		for r := int64(0); r < 48; r++ {
			if _, err := s.Push(r, seq.Request(r)); err != nil {
				f.Fatal(err)
			}
		}
		img, err := s.AppendBinary(nil)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(img)
		f.Add(img[:len(img)/2])
		f.Add(append(append([]byte{}, img[len(img)/3:]...), img[:len(img)/3]...))
	}
	fresh, err := New(Config{Delta: 4, Resources: 8})
	if err != nil {
		f.Fatal(err)
	}
	img, err := fresh.AppendBinary(nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(img)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := RestoreBinary(data)
		if err != nil {
			return // refused gracefully
		}
		if err := CheckBinary(data); err != nil {
			t.Fatalf("RestoreBinary accepted what CheckBinary refuses: %v", err)
		}
		enc, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		again, err := RestoreBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded image refused: %v", err)
		}
		enc2, err := again.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("re-encoding is not a fixed point")
		}
		a, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := again.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatal("re-decoded scheduler snapshots differently")
		}
		// One step at the resume round: errors are allowed, panics are not.
		_, _ = s.Push(s.Round(), nil)
	})
}
