package stream

import (
	"bytes"
	"fmt"
	"testing"
)

// FuzzRestoreStreamBinary drives the binary image decoder with arbitrary
// bytes. Property: it never panics; CheckBinary and decodeImage accept the
// same inputs and refuse the rest with the same error; and an image
// RestoreBinary accepts re-encodes to bytes that decode and re-encode to
// themselves, equal to the oracle encoding of its image struct, with a
// Snapshot equal to the accepted scheduler's; the accepted scheduler also
// survives its next round.
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
		_, decodeErr := decodeImage(data)
		checkErr := CheckBinary(data)
		if fmt.Sprint(decodeErr) != fmt.Sprint(checkErr) {
			t.Fatalf("decodeImage says %v, CheckBinary says %v", decodeErr, checkErr)
		}
		s, err := RestoreBinary(data)
		if err != nil {
			return // refused gracefully
		}
		enc, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("accepted image does not re-encode: %v", err)
		}
		cp, err := s.image()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, appendImage(nil, cp)) {
			t.Fatal("AppendBinary differs from the oracle encoding of the image struct")
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
