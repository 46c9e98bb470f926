package main

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"madave/internal/journal"
)

// tinyOptions shrinks every workload so the whole suite runs in seconds.
func tinyOptions(t *testing.T, workload string) options {
	o := defaultOptions()
	o.workload = workload
	o.seed = 3
	o.seconds = 300 * time.Millisecond
	o.sites = 1200 // the smallest shape whose paper checks pass at this seed
	o.refreshes = 1
	o.serveRate = 400
	o.setups = 2
	o.workDir = t.TempDir()
	return o
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, wl := range []string{"study", "stream", "serve"} {
		for _, traced := range []bool{false, true} {
			o := tinyOptions(t, wl)
			o.trace = traced
			res, _, err := run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl, traced, err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) || res.Attempted < 1 || !res.Correct {
				t.Fatalf("%s trace=%v: %d metrics (want %d), attempted %d", wl, traced, len(res.Metrics), len(defs), res.Attempted)
			}
			if !traced {
				for _, d := range defs {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: %s = %v, want > 0", wl, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// lossy drops the n-th append while reporting success: a journal that
// silently loses a commit.
type lossy struct {
	journal.Backend
	n, seen atomic.Int64
}

func (l *lossy) Append(frame []byte) error {
	if l.seen.Add(1) == l.n.Load() {
		return nil
	}
	return l.Backend.Append(frame)
}

func (l *lossy) CompactTo(recs []journal.Record) error {
	return l.Backend.(journal.Compactor).CompactTo(recs)
}

func TestLossyJournalFailsChecks(t *testing.T) {
	// The stream drops a record after its last checkpoint (a checkpoint
	// carries the folded state, so an earlier loss is healed by design).
	for wl, drop := range map[string]int64{"stream": 1100, "serve": 3} {
		o := tinyOptions(t, wl)
		o.wrapJournal = func(b journal.Backend) journal.Backend {
			l := &lossy{Backend: b}
			l.n.Store(drop)
			return l
		}
		if _, _, err := run(o); err == nil || !strings.Contains(err.Error(), "journal holds") {
			t.Fatalf("%s with a lossy journal: err = %v, want a journal check failure", wl, err)
		}
	}
}

func TestFrameSeq(t *testing.T) {
	for frame, want := range map[string]int64{
		"0123456789abcdef visit {\"seq\":42,\"key\":\"a|d1r0\"}\n": 42,
		"0123456789abcdef visit {\"seq\":0,\"key\":\"x\"}\n":       0,
	} {
		if got, ok := frameSeq([]byte(frame)); !ok || got != want {
			t.Errorf("frameSeq(%q) = %d, %v; want %d", frame, got, ok, want)
		}
	}
	if _, ok := frameSeq([]byte("0123456789abcdef checkpoint {\"done\":[]}\n")); ok {
		t.Error("frameSeq accepted a checkpoint frame")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	ctx, root := tr.start(context.Background(), "crawler", "v")
	_, a := tr.start(ctx, "memnet", "")
	_, b := tr.start(ctx, "memnet", "")
	// Fix the intervals: root [0,100], children [10,40] and [30,60] overlap.
	tr.spans[root].start, tr.spans[root].end = 0, 100
	tr.spans[a].start, tr.spans[a].end = 10, 40
	tr.spans[b].start, tr.spans[b].end = 30, 60
	tot := tr.totals()
	if got := tot["crawler"].self; got != 50 {
		t.Errorf("crawler self = %d, want 50", got)
	}
	if got := tot["memnet"].busy; got != 60 {
		t.Errorf("memnet busy = %d, want 60", got)
	}
	if tr.spans[a].req != "v" {
		t.Errorf("child request id = %q, want the parent's", tr.spans[a].req)
	}
}
