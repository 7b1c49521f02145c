package stream

import (
	"testing"

	"rrsched/internal/model"
)

func TestReleaseRound(t *testing.T) {
	cases := []struct {
		arrival, delay, want int64
	}{
		{0, 8, 4},   // h=4: arrival in halfBlock 0 -> release 4
		{3, 8, 4},   //
		{4, 8, 8},   // halfBlock 1 -> release 8
		{5, 1, 5},   // unit delay: immediate
		{3, 7, 4},   // h = floor-pow2(7)/2 = 2: arrival in [2,4) -> release 4
		{10, 2, 11}, // h=1: release next round
	}
	for _, c := range cases {
		j := model.Job{Arrival: c.arrival, Delay: c.delay}
		if got := releaseRound(j); got != c.want {
			t.Errorf("releaseRound(arrival=%d, D=%d) = %d, want %d", c.arrival, c.delay, got, c.want)
		}
	}
}

func TestInnerSubcolorMapping(t *testing.T) {
	st := newInnerState(Config{Delta: 2, Resources: 8})
	a := st.subcolor(5, 0, 4)
	b := st.subcolor(5, 1, 4)
	c := st.subcolor(7, 0, 2)
	if a == b || a == c || b == c {
		t.Fatalf("subcolors collide: %v %v %v", a, b, c)
	}
	// Stable on re-lookup.
	if st.subcolor(5, 0, 4) != a {
		t.Error("subcolor not stable")
	}
	if st.outerOf(a) != 5 || st.outerOf(b) != 5 || st.outerOf(c) != 7 {
		t.Error("outer mapping wrong")
	}
	if st.tracker.DelayBoundOf(a) != 4 || st.tracker.DelayBoundOf(c) != 2 {
		t.Error("tracker registration wrong")
	}
}

func TestInnerRoundBookkeeping(t *testing.T) {
	st := newInnerState(Config{Delta: 2, Resources: 8})
	// Release a batch of 5 jobs of outer color 0 with D=8 (h=4): buckets 4+1.
	released := make([]model.Job, 5)
	for i := range released {
		released[i] = model.Job{ID: int64(i), Color: 0, Arrival: 0, Delay: 8}
	}
	st.round(4, released) // releases land at round 4 in practice
	v := st.view()
	ic0, _ := st.inner[subKey{outer: 0, j: 0}]
	ic1, _ := st.inner[subKey{outer: 0, j: 1}]
	// The engine executed up to one job per configured location this round;
	// pending = 5 − executed.
	total := v.Pending(ic0) + v.Pending(ic1)
	if total > 5 || total < 0 {
		t.Fatalf("pending total = %d", total)
	}
	if v.Slots() != 4 || v.Resources() != 8 || v.Delta() != 2 {
		t.Error("view dimensions wrong")
	}
	if got := len(v.Universe()); got != 2 {
		t.Errorf("universe = %d", got)
	}
}

func TestInnerPlacePrefersSameColor(t *testing.T) {
	st := newInnerState(Config{Delta: 2, Resources: 4})
	st.subcolor(0, 0, 2) // place takes minted inner colors
	st.place([]model.Color{0})
	locsBefore := append([]int(nil), st.colorLocs[0]...)
	st.place([]model.Color{})  // evict
	st.place([]model.Color{0}) // re-admit: must reuse the same locations
	locsAfter := st.colorLocs[0]
	match := 0
	for _, a := range locsBefore {
		for _, b := range locsAfter {
			if a == b {
				match++
			}
		}
	}
	if match != 2 {
		t.Errorf("re-admission reused %d of 2 locations", match)
	}
}
