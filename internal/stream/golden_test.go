package stream

// Golden pin across versions: SHA-256 digests of the streaming scheduler's
// decisions and periodic Snapshot bytes on a dense-shaped input, computed
// once and committed. The checkpoint and determinism tests compare the
// current code with itself; these digests also catch a rewrite that changes
// a decision or a snapshot byte. internal/core's golden test pins sim.Run.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"rrsched/internal/model"
	"rrsched/internal/workload"
)

// goldenStreams maps an input seed to the digest of its decision stream and
// snapshots.
var goldenStreams = map[int64]string{
	1: "2ed45c6046770a0e9e67bbda103755ba75173d714de75e1afc0de9c01503aace",
	2: "dc56a3b2bfb5d2e2161ab7a36f61f023e006eee5b930edd2a9282501bc4efaba",
	3: "19cd9aa895dc6f9c489f725b584a79dc18563a46e0150f5c653c6fbba532bab5",
}

// denseSequence is the benchmark's dense tenant shape: n=128 resources, 96
// colors, delay bounds 4..64, load 0.6, Δ = 4, general (unbatched) arrivals.
func denseSequence(t testing.TB, seed, rounds int64) *model.Sequence {
	t.Helper()
	seq, err := workload.RandomGeneral(workload.RandomConfig{
		Seed: seed, Delta: 4, Colors: 96, Rounds: rounds,
		MinDelayExp: 2, MaxDelayExp: 6, Load: 0.6,
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq.Canonical()
}

const denseResources = 128

func TestGoldenStreamDigests(t *testing.T) {
	const rounds, snapEvery = 384, 64
	for seed := int64(1); seed <= 3; seed++ {
		seq := denseSequence(t, seed, rounds)
		s, err := New(Config{Delta: seq.Delta(), Resources: denseResources})
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		emit := func(v any) {
			b, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		snap := func() {
			b, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
		for r := int64(0); r < rounds; r++ {
			dec, err := s.Push(r, seq.Request(r))
			if err != nil {
				t.Fatal(err)
			}
			emit(dec)
			if r%snapEvery == snapEvery-1 {
				snap()
			}
		}
		tail, err := s.Drain()
		if err != nil {
			t.Fatal(err)
		}
		emit(tail)
		snap()
		fmt.Fprintf(h, "cost=%+v executed=%d dropped=%d", s.Cost(), s.Executed(), s.Dropped())
		if got, want := hex.EncodeToString(h.Sum(nil)), goldenStreams[seed]; got != want {
			t.Errorf("seed %d: stream digest %s, pinned %s", seed, got, want)
		}
	}
}

// TestResolvedLendsDecisionJobs pins the in-flight contract on the golden
// dense input. After every Push, Resolved lends the jobs of the round's
// Dropped and Executions, in the same order, each with the color, arrival
// and delay it was pushed with; Pending is pushed minus executed minus
// dropped and survives Snapshot/Restore and AppendBinary/RestoreBinary; a
// restored scheduler lends nothing until its first Push, which lends what
// the uninterrupted scheduler's did.
func TestResolvedLendsDecisionJobs(t *testing.T) {
	const rounds, snapEvery = 384, 64
	seq := denseSequence(t, 1, rounds)
	s, err := New(Config{Delta: seq.Delta(), Resources: denseResources})
	if err != nil {
		t.Fatal(err)
	}
	pushed := map[int64]model.Job{}
	check := func(what string, s *Scheduler, dec Decision) {
		t.Helper()
		dropped, executed := s.Resolved()
		if len(dropped) != len(dec.Dropped) || len(executed) != len(dec.Executions) {
			t.Fatalf("%s round %d: resolved %d dropped and %d executed, decision has %d and %d",
				what, dec.Round, len(dropped), len(executed), len(dec.Dropped), len(dec.Executions))
		}
		for i, j := range dropped {
			if j.ID != dec.Dropped[i] || j != pushed[j.ID] {
				t.Fatalf("%s round %d: dropped job %d is %+v, decision drops %d pushed as %+v",
					what, dec.Round, i, j, dec.Dropped[i], pushed[dec.Dropped[i]])
			}
		}
		for i, j := range executed {
			if id := dec.Executions[i].JobID; j.ID != id || j != pushed[id] {
				t.Fatalf("%s round %d: executed job %d is %+v, decision executes %d pushed as %+v",
					what, dec.Round, i, j, id, pushed[id])
			}
		}
	}
	var twins []*Scheduler // restored copies, checked on their first Push
	want := 0
	for r := int64(0); r < rounds; r++ {
		jobs := seq.Request(r)
		for _, j := range jobs {
			pushed[j.ID] = j
		}
		dec, err := s.Push(r, jobs)
		if err != nil {
			t.Fatal(err)
		}
		check("live", s, dec)
		for _, tw := range twins {
			if _, err := tw.Push(r, jobs); err != nil {
				t.Fatal(err)
			}
			check("restored", tw, dec)
		}
		twins = twins[:0]
		want += len(jobs) - len(dec.Dropped) - len(dec.Executions)
		if s.Pending() != want {
			t.Fatalf("round %d: Pending %d, want %d", r, s.Pending(), want)
		}
		if r%snapEvery != snapEvery-1 {
			continue
		}
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		img, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		fromJSON, err := Restore(snap)
		if err != nil {
			t.Fatal(err)
		}
		fromBinary, err := RestoreBinary(img)
		if err != nil {
			t.Fatal(err)
		}
		for _, tw := range []*Scheduler{fromJSON, fromBinary} {
			if tw.Pending() != want {
				t.Fatalf("round %d: restored Pending %d, want %d", r, tw.Pending(), want)
			}
			if dropped, executed := tw.Resolved(); len(dropped)+len(executed) > 0 {
				t.Fatalf("round %d: a restored scheduler lends %d dropped and %d executed jobs before its first Push",
					r, len(dropped), len(executed))
			}
		}
		twins = append(twins, fromJSON, fromBinary)
	}
	tail, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 {
		t.Fatal("the golden input drained no rounds")
	}
	check("drain", s, tail[len(tail)-1])
	if s.Pending() != 0 {
		t.Fatalf("Pending %d after Drain", s.Pending())
	}
}
