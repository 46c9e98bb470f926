package main

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"madave/internal/memnet"
)

// tracer keeps spans in memory for one traced run. A span is recorded in
// benchmark code around a call into one layer's public function; its parent
// is the span on the context the call was given, so a memnet round trip made
// during a crawler visit is that visit's child.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

type span struct {
	name   string
	req    string // visit key or ad hash
	parent int32  // -1 for a root span
	start  int64  // ns since epoch
	end    int64
}

type spanKey struct{}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span and returns the context its children must be given.
func (t *tracer) start(ctx context.Context, name, req string) (context.Context, int32) {
	parent := int32(-1)
	if p, ok := ctx.Value(spanKey{}).(int32); ok {
		parent = p
		if req == "" {
			req = t.req(p)
		}
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, req: req, parent: parent, start: now})
	t.mu.Unlock()
	return context.WithValue(ctx, spanKey{}, id), id
}

func (t *tracer) req(id int32) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].req
}

func (t *tracer) end(id int32) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTotals is one layer's aggregate over a traced run.
type layerTotals struct {
	count int64
	busy  time.Duration // sum of span durations
	self  time.Duration // busy minus the time child spans cover
}

// totals aggregates every span by name. Self time subtracts the union of a
// span's children's intervals, so overlapping children are counted once.
func (t *tracer) totals() map[string]*layerTotals {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]int32{}
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	out := map[string]*layerTotals{}
	for i, s := range t.spans {
		lt := out[s.name]
		if lt == nil {
			lt = &layerTotals{}
			out[s.name] = lt
		}
		d := time.Duration(s.end - s.start)
		lt.count++
		lt.busy += d
		lt.self += d - t.covered(s, children[int32(i)])
	}
	return out
}

// covered is the length of the union of the child intervals inside s.
func (t *tracer) covered(s span, kids []int32) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := t.spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return time.Duration(total + curHi - curLo)
}

// dump writes every span as one tab-separated line:
// id, parent, name, request id, start ns, end ns.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%s\t%s\t%d\t%d\n", i, s.parent, s.name, s.req, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// seam wraps the base transport of the crawler or the honeyclient: one
// "memnet" span per round trip (the handler time includes the ad server),
// the bytes served, and a sample of the HTML documents and scripts that
// passed through, for the parse/script/match replay.
type seam struct {
	t *tracer

	fetches, bytes, retries atomic.Int64
	capture                 *capture // nil: count only
}

type seamRT struct {
	s    *seam
	next http.RoundTripper
}

func (s *seam) wrap(next http.RoundTripper) http.RoundTripper { return &seamRT{s: s, next: next} }

func (rt *seamRT) RoundTrip(req *http.Request) (*http.Response, error) {
	s := rt.s
	_, id := s.t.start(req.Context(), "memnet", "")
	resp, err := rt.next.RoundTrip(req)
	s.t.end(id)
	s.fetches.Add(1)
	if memnet.AttemptFrom(req.Context()) > 1 {
		s.retries.Add(1)
	}
	if err != nil {
		return resp, err
	}
	if resp.ContentLength > 0 {
		s.bytes.Add(resp.ContentLength)
	}
	if s.capture != nil {
		resp = s.capture.observe(s.t, req, resp)
	}
	return resp, nil
}
