package core

// Property tests on random tracker states, each against a brute-force
// reference: the two rankings against a full sort and the pairwise EDF
// order, and the Section 3.1 state machine (counter wrapping modulo Δ,
// eligibility reset only at multiples of D_ℓ and only for uncached colors)
// against a direct transcription of its rules. Half the trackers use a
// universe of colors 0..N-1 and half sparse colors registered out of order,
// so both ways of finding a color's slot are exercised.

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rrsched/internal/model"
)

// less is the EDF order of Section 3.1.2 written out field by field: the
// specification rankEDF (and so edfUpdate's cmpEDF) is checked against.
func (a edfRank) less(b edfRank) bool {
	if a.idle != b.idle {
		return !a.idle // nonidle first
	}
	if a.dd != b.dd {
		return a.dd < b.dd
	}
	if a.delay != b.delay {
		return a.delay < b.delay
	}
	return a.color < b.color
}

// specTimestamp is the ΔLRU-K timestamp by definition: the K-th latest wrap
// strictly before the latest multiple of D_ℓ at or before now, 0 if none.
func specTimestamp(wraps []int64, delay, now int64, k int) int64 {
	boundary := now - now%delay
	var visible []int64
	for _, w := range wraps {
		if w < boundary {
			visible = append(visible, w)
		}
	}
	if len(visible) < k {
		return 0
	}
	return visible[len(visible)-k]
}

// randomUniverse registers n colors on a fresh tracker: 0..n-1 in order, or
// distinct sparse colors in random order. Delay bounds are 1..32.
func randomUniverse(rng *rand.Rand, tr *Tracker, n int) []model.Color {
	colors := make([]model.Color, 0, n)
	if rng.Intn(2) == 0 {
		for c := 0; c < n; c++ {
			colors = append(colors, model.Color(c))
		}
	} else {
		seen := map[model.Color]bool{}
		for len(colors) < n {
			c := model.Color(rng.Intn(4 * n))
			if !seen[c] {
				seen[c] = true
				colors = append(colors, c)
			}
		}
	}
	for _, c := range colors {
		tr.Register(c, 1+rng.Int63n(32))
	}
	return colors
}

// randomTracker returns a tracker over a random universe whose per-color
// states (counter, deadline, eligibility, wraps) are drawn at random.
func randomTracker(rng *rand.Rand) (*Tracker, []model.Color) {
	tr := NewDynamicTracker(1 + rng.Int63n(6))
	tr.SetTimestampK(1 + rng.Intn(3))
	colors := randomUniverse(rng, tr, 1+rng.Intn(48))
	for _, c := range colors {
		cs := tr.state(c)
		cs.cnt = rng.Int63n(tr.delta)
		cs.dd = rng.Int63n(64)
		cs.eligible = rng.Intn(3) > 0
		w := int64(0)
		for j := rng.Intn(tr.tsK + 3); j > 0; j-- {
			w += rng.Int63n(12) // repeated rounds give timestamp ties
			cs.wrap(w, tr.tsK+1)
		}
	}
	return tr, colors
}

func TestTopByTimestampMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		tr, colors := randomTracker(rng)
		now := rng.Int63n(96)
		q := rng.Intn(len(colors) + 2)
		var elig []model.Color
		for _, c := range colors {
			if tr.Eligible(c) {
				elig = append(elig, c)
			}
		}
		ts := func(c model.Color) int64 {
			cs := tr.state(c)
			return specTimestamp(cs.wraps, cs.delay, now, tr.tsK)
		}
		sort.Slice(elig, func(i, j int) bool {
			if ti, tj := ts(elig[i]), ts(elig[j]); ti != tj {
				return ti > tj
			}
			return elig[i] < elig[j]
		})
		want := elig[:min(q, len(elig))]
		if got := tr.topByTimestamp(now, q); !slices.Equal(got, want) {
			t.Fatalf("iter %d (now %d, q %d, K %d): topByTimestamp = %v, full sort gives %v", iter, now, q, tr.tsK, got, want)
		}
	}
}

func TestRankEDFMatchesPairwiseOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for iter := 0; iter < 2000; iter++ {
		tr, colors := randomTracker(rng)
		v := &fakeView{pending: map[model.Color]int{}}
		for _, c := range colors {
			if rng.Intn(2) == 0 {
				v.pending[c] = 1 + rng.Intn(3)
			}
		}
		subset := slices.Clone(colors)
		rng.Shuffle(len(subset), func(i, j int) { subset[i], subset[j] = subset[j], subset[i] })
		subset = subset[:rng.Intn(len(subset)+1)]

		got := tr.rankEDF(v, subset)
		a, b := slices.Clone(got), slices.Clone(subset)
		slices.Sort(a)
		slices.Sort(b)
		if !slices.Equal(a, b) {
			t.Fatalf("iter %d: rankEDF(%v) = %v is not a permutation", iter, subset, got)
		}
		key := func(c model.Color) edfRank {
			return edfRank{idle: v.pending[c] == 0, dd: tr.Deadline(c), delay: tr.DelayBoundOf(c), color: c}
		}
		for i := range got {
			for j := i + 1; j < len(got); j++ {
				if !key(got[i]).less(key(got[j])) {
					t.Fatalf("iter %d: rankEDF puts %v before %v against the EDF order", iter, got[i], got[j])
				}
			}
		}
	}
}

// specColor is one color's Section 3.1 state in the reference model.
type specColor struct {
	delay, cnt, dd int64
	eligible, seen bool
	wraps          []int64
}

// TestStateMachineMatchesSpec drives random trackers through random rounds
// of batched arrivals, drops and cached sets, and after every phase compares
// each color with a model that applies the Section 3.1 rules directly. It
// also asserts the two rules on their own: a counter always lies in [0, Δ)
// and wraps modulo Δ, and a color loses eligibility only at a multiple of
// its delay bound and only while uncached.
func TestStateMachineMatchesSpec(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 200; iter++ {
		delta := 1 + rng.Int63n(6)
		tr := NewDynamicTracker(delta)
		tr.SetTimestampK(1 + rng.Intn(2))
		colors := randomUniverse(rng, tr, 1+rng.Intn(24))
		spec := map[model.Color]*specColor{}
		for _, c := range colors {
			spec[c] = &specColor{delay: tr.DelayBoundOf(c)}
		}
		var completed, eligDrops, inelDrops int64
		check := func(phase string, k int64) {
			t.Helper()
			for _, c := range colors {
				cs, sc := tr.state(c), spec[c]
				if cs.cnt != sc.cnt || cs.dd != sc.dd || cs.eligible != sc.eligible || cs.seen != sc.seen || !slices.Equal(cs.wraps, sc.wraps) {
					t.Fatalf("iter %d round %d after %s: color %v is %+v, spec %+v", iter, k, phase, c, *cs, *sc)
				}
				if cs.cnt < 0 || cs.cnt >= delta {
					t.Fatalf("iter %d round %d: color %v counter %d outside [0,%d)", iter, k, c, cs.cnt, delta)
				}
			}
			if tr.completedEpochs != completed || tr.eligibleDrops != eligDrops || tr.ineligibleDrops != inelDrops {
				t.Fatalf("iter %d round %d after %s: accounting (%d,%d,%d), spec (%d,%d,%d)", iter, k, phase,
					tr.completedEpochs, tr.eligibleDrops, tr.ineligibleDrops, completed, eligDrops, inelDrops)
			}
		}
		for k := int64(0); k < 160; k++ {
			v := &fakeView{round: k, cached: map[model.Color]bool{}}
			dropped := map[model.Color]int{}
			var arrivals []model.Job
			for _, c := range colors {
				v.cached[c] = rng.Intn(3) == 0
				if rng.Intn(4) == 0 {
					dropped[c] = 1 + rng.Intn(3)
				}
				if k%spec[c].delay == 0 && rng.Intn(2) == 0 {
					arrivals = append(arrivals, jobs(c, spec[c].delay, k, rng.Intn(int(2*delta)+1))...)
				}
			}
			wasEligible := map[model.Color]bool{}
			for _, c := range colors {
				wasEligible[c] = tr.Eligible(c)
			}

			tr.DropPhase(v, dropped)
			for c, n := range dropped {
				if spec[c].eligible {
					eligDrops += int64(n)
				} else {
					inelDrops += int64(n)
				}
			}
			for _, c := range colors {
				sc := spec[c]
				if k%sc.delay == 0 && sc.eligible && !v.cached[c] {
					sc.eligible, sc.cnt = false, 0
					completed++
				}
				if wasEligible[c] && !tr.Eligible(c) && (k%sc.delay != 0 || v.cached[c]) {
					t.Fatalf("iter %d round %d: color %v lost eligibility off its period boundary or while cached", iter, k, c)
				}
			}
			check("drop phase", k)

			tr.ArrivalPhase(v, arrivals)
			for _, c := range colors {
				sc := spec[c]
				if k%sc.delay != 0 {
					continue
				}
				sc.dd = k + sc.delay
				n := int64(0)
				for _, j := range arrivals {
					if j.Color == c {
						n++
					}
				}
				if n > 0 {
					sc.seen = true
				}
				before := sc.cnt + n
				sc.cnt = before
				if sc.cnt >= delta {
					sc.cnt = before % delta
					sc.wraps = append(sc.wraps, k)
					if len(sc.wraps) > tr.tsK+1 {
						sc.wraps = sc.wraps[len(sc.wraps)-(tr.tsK+1):]
					}
					sc.eligible = true
				}
			}
			check("arrival phase", k)
		}
	}
}
