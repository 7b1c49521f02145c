package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/workload"
)

// imageShape is one tenant shape of the differential battery.
type imageShape struct {
	name      string
	resources int
	seq       func(t testing.TB, seed int64) *model.Sequence
}

// imageShapes are the fleet tenant (n=8, 8 colors, delays 4..32) and the
// dense tenant (n=128, 96 colors, delays 4..64) of the end-to-end benchmark.
var imageShapes = []imageShape{
	{"fleet", 8, func(t testing.TB, seed int64) *model.Sequence {
		t.Helper()
		seq, err := workload.RandomGeneral(workload.RandomConfig{
			Seed: seed, Delta: 4, Colors: 8, Rounds: 160,
			MinDelayExp: 2, MaxDelayExp: 5, Load: 0.6,
		})
		if err != nil {
			t.Fatal(err)
		}
		return seq.Canonical()
	}},
	{"dense", denseResources, func(t testing.TB, seed int64) *model.Sequence {
		return denseSequence(t, seed, 160)
	}},
}

// binaryRoundTrip encodes s, restores the image, and checks the restored
// scheduler against the source: identical Snapshot JSON (the oracle) and
// identical bytes when the restored scheduler is encoded again. The image
// must also equal the oracle encoding of the struct Snapshot builds.
func binaryRoundTrip(t *testing.T, what string, s *Scheduler) *Scheduler {
	t.Helper()
	img, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatalf("%s: AppendBinary: %v", what, err)
	}
	cp, err := s.image()
	if err != nil {
		t.Fatal(err)
	}
	if oracle := appendImage(nil, cp); !bytes.Equal(img, oracle) {
		t.Fatalf("%s: AppendBinary wrote %d bytes that differ from the %d-byte oracle encoding of the image struct", what, len(img), len(oracle))
	}
	restored, err := RestoreBinary(img)
	if err != nil {
		t.Fatalf("%s: RestoreBinary: %v", what, err)
	}
	want, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: restored Snapshot differs from the source's", what)
	}
	again, err := restored.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, img) {
		t.Fatalf("%s: re-encoding the restored scheduler changed the image", what)
	}
	if err := CheckBinary(img); err != nil {
		t.Fatalf("%s: CheckBinary refused a valid image: %v", what, err)
	}
	return restored
}

// TestBinaryImageDifferential is the differential battery of the binary
// codec against the JSON oracle, on seeded fleet- and dense-shaped
// schedulers at round 0, at several depths, and after Drain: every image
// restores to a scheduler whose Snapshot equals the source's and whose image
// equals the one it came from, and the restored scheduler's next rounds
// decide exactly as the source's.
func TestBinaryImageDifferential(t *testing.T) {
	for _, shape := range imageShapes {
		for seed := int64(1); seed <= 3; seed++ {
			seq := shape.seq(t, seed)
			s, err := New(Config{Delta: seq.Delta(), Resources: shape.resources})
			if err != nil {
				t.Fatal(err)
			}
			binaryRoundTrip(t, shape.name+" round 0", s)
			depths := map[int64]bool{1: true, 7: true, 33: true, 100: true, 159: true}
			for r := int64(0); r < 160; r++ {
				if _, err := s.Push(r, seq.Request(r)); err != nil {
					t.Fatal(err)
				}
				if !depths[r+1] {
					continue
				}
				restored := binaryRoundTrip(t, shape.name, s)
				// Both continue from here on the same input: the restored
				// scheduler must decide identically.
				src, err := s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				twin, err := Restore(src)
				if err != nil {
					t.Fatal(err)
				}
				for k := r + 1; k < r+9 && k < 160; k++ {
					a, err := twin.Push(k, seq.Request(k))
					if err != nil {
						t.Fatal(err)
					}
					b, err := restored.Push(k, seq.Request(k))
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(decisionBytes(t, []Decision{a}), decisionBytes(t, []Decision{b})) {
						t.Fatalf("%s seed %d: restored scheduler decides round %d differently", shape.name, seed, k)
					}
				}
			}
			if _, err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			binaryRoundTrip(t, shape.name+" drained", s)
		}
	}
}

// TestBinaryImageSmallerThanSnapshot pins the point of the codec on the
// shapes it serves: the binary image of a warmed tenant is a small fraction
// of its JSON snapshot.
func TestBinaryImageSmallerThanSnapshot(t *testing.T) {
	for _, shape := range imageShapes {
		seq := shape.seq(t, 1)
		s, err := New(Config{Delta: seq.Delta(), Resources: shape.resources})
		if err != nil {
			t.Fatal(err)
		}
		for r := int64(0); r < 128; r++ {
			if _, err := s.Push(r, seq.Request(r)); err != nil {
				t.Fatal(err)
			}
		}
		img, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if 4*len(img) > len(snap) {
			t.Errorf("%s: binary image %d bytes, JSON snapshot %d: want at most a quarter", shape.name, len(img), len(snap))
		}
	}
}

// goldenBinaryImages pins the binary images of the golden dense input, cut
// at the same rounds the golden stream test snapshots.
var goldenBinaryImages = map[int64]string{
	1: "dac573c8e61f0a5b62e40d60edd80d4d2addf0b2eec94ae8ae21d74e80544755",
	2: "7984ff42ff79fa5543099038bd4c7191fa37652e032e2098e024eaadc3a75aa7",
	3: "945747053323130f58926d057ace17866cde9b7442c685eac865cfab0dab58d9",
}

func TestGoldenBinaryImageDigests(t *testing.T) {
	const rounds, cutEvery = 384, 64
	for seed := int64(1); seed <= 3; seed++ {
		seq := denseSequence(t, seed, rounds)
		s, err := New(Config{Delta: seq.Delta(), Resources: denseResources})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		cut := func() {
			img, err := s.AppendBinary(nil)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(img)
		}
		for r := int64(0); r < rounds; r++ {
			if _, err := s.Push(r, seq.Request(r)); err != nil {
				t.Fatal(err)
			}
			if r%cutEvery == cutEvery-1 {
				cut()
			}
		}
		if _, err := s.Drain(); err != nil {
			t.Fatal(err)
		}
		cut()
		if got, want := hex.EncodeToString(h.Sum(nil)), goldenBinaryImages[seed]; got != want {
			t.Errorf("seed %d: binary image digest %s, pinned %s", seed, got, want)
		}
	}
}

// TestRestoreBinaryRejectsMalformedImages pins the structural refusals of
// the binary decoder: truncation, trailing bytes, a count the input cannot
// hold, JSON, and a non-boolean flag byte.
func TestRestoreBinaryRejectsMalformedImages(t *testing.T) {
	seq := imageShapes[0].seq(t, 1)
	s, err := New(Config{Delta: seq.Delta(), Resources: 8})
	if err != nil {
		t.Fatal(err)
	}
	for r := int64(0); r < 40; r++ {
		if _, err := s.Push(r, seq.Request(r)); err != nil {
			t.Fatal(err)
		}
	}
	img, err := s.AppendBinary(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"truncated", img[:len(img)-1]},
		{"trailing byte", append(append([]byte(nil), img...), 0)},
		{"huge count", append([]byte{2, 8, 16, 0, 0, 0, 0, 0, 0, 0}, 0xff, 0xff, 0xff, 0xff, 0x0f)},
		{"json", []byte(`{"version":1}`)},
	} {
		if _, err := RestoreBinary(c.data); err == nil {
			t.Errorf("%s: RestoreBinary accepted a malformed image", c.name)
		}
		if err := CheckBinary(c.data); err == nil {
			t.Errorf("%s: CheckBinary accepted a malformed image", c.name)
		}
	}
	// A flag byte other than 0 or 1. The tracker is the image's last
	// section, so with the last color's wraps cleared the image ends in its
	// eligible byte, its seen byte, and a zero wraps count.
	cp, err := decodeImage(img)
	if err != nil {
		t.Fatal(err)
	}
	colors := cp.Inner.Tracker.Colors
	if len(colors) == 0 {
		t.Fatal("fixture tracker has no colors")
	}
	colors[len(colors)-1].Wraps = nil
	flagged := appendImage(nil, cp)
	flagged[len(flagged)-3] = 2
	if _, err := RestoreBinary(flagged); err == nil {
		t.Error("RestoreBinary accepted a flag byte of 2")
	}
}
