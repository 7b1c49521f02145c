package queue

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func intLess(a, b int) bool { return a < b }

func TestHeapBasics(t *testing.T) {
	h := NewHeap[int](intLess)
	if h.Len() != 0 {
		t.Fatalf("empty heap Len = %d", h.Len())
	}
	for _, v := range []int{5, 1, 4, 1, 3} {
		h.Push(v)
	}
	if h.Peek() != 1 {
		t.Errorf("Peek = %d", h.Peek())
	}
	got := []int{}
	for h.Len() > 0 {
		got = append(got, h.Pop())
	}
	want := []int{1, 1, 3, 4, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pop order = %v, want %v", got, want)
		}
	}
}

func TestHeapPanics(t *testing.T) {
	h := NewHeap[int](intLess)
	for _, f := range []func(){func() { h.Pop() }, func() { h.Peek() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty-heap operation did not panic")
				}
			}()
			f()
		}()
	}
	defer func() {
		if recover() == nil {
			t.Error("NewHeap(nil) did not panic")
		}
	}()
	NewHeap[int](nil)
}

// TestHeapSortsProperty: popping everything yields a sorted permutation of
// the input (property-based).
func TestHeapSortsProperty(t *testing.T) {
	f := func(vals []int16) bool {
		h := NewHeap[int](intLess)
		in := make([]int, len(vals))
		for i, v := range vals {
			in[i] = int(v)
			h.Push(int(v))
		}
		sort.Ints(in)
		for _, want := range in {
			if h.Pop() != want {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIndexedHeapBasics(t *testing.T) {
	h := NewIndexedHeap[string, int](intLess)
	h.Push("a", 3)
	h.Push("b", 1)
	h.Push("c", 2)
	if k, p := h.Peek(); k != "b" || p != 1 {
		t.Errorf("Peek = %s,%d", k, p)
	}
	if !h.Contains("a") || h.Contains("z") {
		t.Error("Contains wrong")
	}
	if p, ok := h.Priority("c"); !ok || p != 2 {
		t.Errorf("Priority(c) = %d,%v", p, ok)
	}
	// Decrease key.
	h.Push("a", 0)
	if k, _ := h.Peek(); k != "a" {
		t.Errorf("after decrease-key Peek = %s", k)
	}
	// Increase key.
	h.Push("a", 10)
	if k, _ := h.Peek(); k != "b" {
		t.Errorf("after increase-key Peek = %s", k)
	}
	if !h.Remove("b") || h.Remove("b") {
		t.Error("Remove wrong")
	}
	order := []string{}
	for h.Len() > 0 {
		k, _ := h.Pop()
		order = append(order, k)
	}
	if len(order) != 2 || order[0] != "c" || order[1] != "a" {
		t.Errorf("pop order = %v", order)
	}
}

// TestIndexedHeapMatchesSortProperty: a random op sequence ends with pops in
// priority order, matching a map-based model.
func TestIndexedHeapMatchesSortProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewIndexedHeap[int, int](intLess)
		ref := map[int]int{}
		for i := 0; i < 200; i++ {
			k := rng.Intn(30)
			switch rng.Intn(3) {
			case 0, 1: // push/update
				p := rng.Intn(100)
				h.Push(k, p)
				ref[k] = p
			case 2:
				want := false
				if _, ok := ref[k]; ok {
					want = true
					delete(ref, k)
				}
				if h.Remove(k) != want {
					return false
				}
			}
			if h.Len() != len(ref) {
				return false
			}
		}
		// Drain: priorities must come out nondecreasing and match ref.
		prev := -1
		for h.Len() > 0 {
			k, p := h.Pop()
			if p < prev || ref[k] != p {
				return false
			}
			delete(ref, k)
			prev = p
		}
		return len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestRingFIFO(t *testing.T) {
	var r Ring[int]
	if r.Len() != 0 {
		t.Fatal("fresh ring non-empty")
	}
	for i := 0; i < 20; i++ {
		r.Push(i)
	}
	if r.Peek() != 0 {
		t.Errorf("Peek = %d", r.Peek())
	}
	for i := 0; i < 20; i++ {
		if got := r.Pop(); got != i {
			t.Fatalf("Pop = %d, want %d", got, i)
		}
	}
}

func TestRingInterleaved(t *testing.T) {
	var r Ring[int]
	next, expect := 0, 0
	for i := 0; i < 1000; i++ {
		if i%3 != 0 {
			r.Push(next)
			next++
		} else if r.Len() > 0 {
			if got := r.Pop(); got != expect {
				t.Fatalf("Pop = %d, want %d", got, expect)
			}
			expect++
		}
	}
	for r.Len() > 0 {
		if got := r.Pop(); got != expect {
			t.Fatalf("drain Pop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("lost items: %d != %d", expect, next)
	}
}

func TestRingClearAndDrain(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	got := r.Drain()
	if len(got) != 5 || got[0] != 0 || got[4] != 4 {
		t.Errorf("Drain = %v", got)
	}
	for i := 0; i < 5; i++ {
		r.Push(i)
	}
	r.Clear()
	if r.Len() != 0 {
		t.Errorf("after Clear Len = %d", r.Len())
	}
	r.Push(42)
	if r.Pop() != 42 {
		t.Error("ring unusable after Clear")
	}
}

func TestRingPanics(t *testing.T) {
	var r Ring[int]
	for _, f := range []func(){func() { r.Pop() }, func() { r.Peek() }} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("empty-ring operation did not panic")
				}
			}()
			f()
		}()
	}
}

// TestRingMatchesSliceProperty: the ring behaves exactly like a slice-based
// FIFO under random operations.
func TestRingMatchesSliceProperty(t *testing.T) {
	f := func(ops []bool) bool {
		var r Ring[int]
		var ref []int
		next := 0
		for _, push := range ops {
			if push || len(ref) == 0 {
				r.Push(next)
				ref = append(ref, next)
				next++
			} else {
				if r.Pop() != ref[0] {
					return false
				}
				ref = ref[1:]
			}
			if r.Len() != len(ref) {
				return false
			}
			for i, v := range ref {
				if r.At(i) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBucketQueueBasics(t *testing.T) {
	q := NewBucketQueue[string]()
	if q.Len() != 0 {
		t.Fatal("fresh queue non-empty")
	}
	q.Push(5, "e")
	q.Push(3, "c")
	q.Push(5, "e2")
	q.Push(9, "i")
	if k, ok := q.MinKey(); !ok || k != 3 {
		t.Errorf("MinKey = %d %v", k, ok)
	}
	k, v := q.PopMin()
	if k != 3 || v != "c" {
		t.Errorf("PopMin = %d %q", k, v)
	}
	// PopMin does not certify a floor: re-pushing key 3 is legal.
	q.Push(3, "late-ok")
	got := []int64{}
	for q.Len() > 0 {
		k, _ := q.PopMin()
		got = append(got, k)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("pop keys not monotone: %v", got)
		}
	}
}

func TestBucketQueuePanics(t *testing.T) {
	q := NewBucketQueue[int]()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PopMin on empty did not panic")
			}
		}()
		q.PopMin()
	}()
	q.Push(5, 1)
	q.PopMin()
	// PopMin does not certify anything: pushing an earlier key is legal.
	q.Push(2, 2)
	q.PopMin()
	// PopUpTo certifies its bound: keys <= 7 are finished afterwards.
	q.Push(9, 3)
	q.PopUpTo(7, 100)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("push below certified floor did not panic")
			}
		}()
		q.Push(6, 4)
	}()
}

func TestBucketQueuePopUpTo(t *testing.T) {
	q := NewBucketQueue[int]()
	for i := 0; i < 10; i++ {
		q.Push(int64(i%3), i)
	}
	// Pop everything with key <= 1, capped at 4.
	got := q.PopUpTo(1, 4)
	if len(got) != 4 {
		t.Fatalf("popped %d, want 4", len(got))
	}
	rest := q.PopUpTo(1, 100)
	// keys 0,1 have ceil(10/3 accounting): keys 0:4 items(0,3,6,9) 1:3 items, total 7; popped 4 then 3.
	if len(rest) != 3 {
		t.Fatalf("rest = %d, want 3", len(rest))
	}
	if q.Len() != 3 {
		t.Fatalf("remaining = %d, want 3 (key 2)", q.Len())
	}
	if got := q.PopUpTo(1, 10); len(got) != 0 {
		t.Fatalf("key-2 items popped at bound 1: %v", got)
	}
	if got := q.PopUpTo(2, 10); len(got) != 3 {
		t.Fatalf("final pop = %d", len(got))
	}
}

// TestBucketQueueMatchesHeapProperty: on monotone random workloads the
// bucket queue pops the same key sequence as a binary heap.
func TestBucketQueueMatchesHeapProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		bq := NewBucketQueue[int]()
		h := NewHeap[int64](func(a, b int64) bool { return a < b })
		for i := 0; i < 300; i++ {
			if rng.Intn(3) != 0 || bq.Len() == 0 {
				key := int64(rng.Intn(50))
				bq.Push(key, i)
				h.Push(key)
			} else {
				k, _ := bq.PopMin()
				if hk := h.Pop(); hk != k {
					return false
				}
			}
		}
		for bq.Len() > 0 {
			k, _ := bq.PopMin()
			if h.Pop() != k {
				return false
			}
		}
		return h.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
