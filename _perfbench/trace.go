package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rrsched/internal/serve"
)

// span is one timed call into a layer. Spans of one round share Round; a
// server-side span's Parent is the client call that caused it.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Round  int64  `json:"round"`
	Tenant string `json:"tenant,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// callKey links a client call to the handler span it causes: the handler
// sees the round (from the tracer) and the tenant (from the frame), never
// the client's span ID.
type callKey struct {
	path   string
	round  int64
	tenant string
}

// tracer keeps spans in memory; they are written out when the run ends.
// Recording is switched per block of rounds (on), so one traced run also
// measures its own overhead against its untraced blocks.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ids   atomic.Int64
	round atomic.Int64 // the round in flight
	// parent is the span ID handler spans attach to when no client call
	// matches them (dispatcher calls made inside Driver.Round).
	parent atomic.Int64
	// unmatched counts submit handler spans no client span claimed; a
	// traced run with any is rejected, since its self times would be wrong.
	unmatched atomic.Int64

	mu      sync.Mutex
	spans   []span
	pending map[callKey]int64
}

func newTracer(t0 time.Time) *tracer {
	return &tracer{t0: t0, pending: map[callKey]int64{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) id() int64 { return t.ids.Add(1) }

// expect registers a client call the server side will match by key.
func (t *tracer) expect(k callKey, id int64) {
	t.mu.Lock()
	t.pending[k] = id
	t.mu.Unlock()
}

func (t *tracer) claim(k callKey) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.pending[k]
	delete(t.pending, k)
	return id
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap puts a span around every request the handler serves while recording
// is on. A submit's span is matched to its client span by round and tenant;
// the tenant is decoded from the frame after the span ends. Worker
// heartbeats are not part of any round, so they get no parent.
func (t *tracer) wrap(prefix string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		k := callKey{path: r.URL.Path, round: t.round.Load()}
		var body []byte
		if r.Method == http.MethodPost {
			var err error
			if body, err = io.ReadAll(r.Body); err == nil {
				r.Body = io.NopCloser(bytes.NewReader(body))
			}
		}
		h.ServeHTTP(w, r)
		end := t.now()
		if k.path == "/v1/jobs" {
			var req serve.SubmitRequest
			if serve.DecodeSubmitBinaryInto(&req, body) == nil {
				k.tenant = req.Tenant
			}
		}
		parent := t.claim(k)
		switch {
		case parent != 0:
		case k.path == "/v1/jobs":
			t.unmatched.Add(1)
		case k.path != "/v1/heartbeat":
			parent = t.parent.Load()
		}
		t.add(span{ID: t.id(), Parent: parent, Name: prefix + r.URL.Path, Round: k.round, Tenant: k.tenant, Start: start, End: end, Bytes: int64(len(body))})
	})
}

func (t *tracer) writeFile(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// spanStats summarizes the spans of one name.
type spanStats struct {
	n          int
	p50, mean  float64 // ns
	selfMean   float64 // ns: duration minus the time its children cover
	bytesMean  float64
	durations  []int64
	totalBytes int64
}

// analyze groups spans by name and computes each span's self time: its
// duration minus the union of its children's intervals (clipped to it).
func (t *tracer) analyze() (map[string]*spanStats, map[int64][]span) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	by := map[string]*spanStats{}
	selfSum := map[string]int64{}
	for _, s := range spans {
		st := by[s.Name]
		if st == nil {
			st = &spanStats{}
			by[s.Name] = st
		}
		st.n++
		st.durations = append(st.durations, s.dur())
		st.totalBytes += s.Bytes
		selfSum[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	for name, st := range by {
		var sum int64
		for _, d := range st.durations {
			sum += d
		}
		st.mean = float64(sum) / float64(st.n)
		st.p50 = float64(percentile(st.durations, 50))
		st.selfMean = float64(selfSum[name]) / float64(st.n)
		st.bytesMean = float64(st.totalBytes) / float64(st.n)
	}
	return by, children
}

// covered is the length of the union of the children's intervals within s.
func covered(s span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, s.Start), min(k.End, s.End)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for i, x := range iv {
		if i == 0 || x[0] > curB {
			total += curB - curA
			curA, curB = x[0], x[1]
			continue
		}
		curB = max(curB, x[1])
	}
	return total + curB - curA
}

// roundCoverage is the median share of a root span's wall time that its
// child spans (the calls along the round's blocking path) account for.
func (t *tracer) roundCoverage(root string, children map[int64][]span) (float64, int) {
	t.mu.Lock()
	var fracs []float64
	for _, s := range t.spans {
		if s.Name == root && s.dur() > 0 {
			fracs = append(fracs, float64(covered(s, children[s.ID]))/float64(s.dur()))
		}
	}
	t.mu.Unlock()
	if len(fracs) == 0 {
		return 0, 0
	}
	sort.Float64s(fracs)
	return fracs[len(fracs)/2], len(fracs)
}
