package main

import (
	"bytes"
	"errors"
	"strconv"
	"sync"
	"time"

	"madave/internal/journal"
	"madave/internal/stream"
)

// commitTap wraps the stream service's journal backend. Every successful
// Append of a visit record is a commit: the tap decodes the record's seq
// from the frame and stamps the time the append returned. With timed set it
// also times appends and compactions for the journal layer of the ledger.
//
// It implements journal.Compactor by forwarding, so the service checkpoints
// exactly as it would on the bare backend.
type commitTap struct {
	inner journal.Backend
	timed bool

	mu       sync.Mutex
	commits  []commit
	appends  int64
	bytes    int64
	appendNS int64
	// Checkpoint cost runs from the triggering Append returning to CompactTo
	// returning: the service builds and marshals the checkpoint in between.
	lastAppend   time.Time
	checkpoints  int64
	checkpointNS int64
}

// commit is one journaled visit record.
type commit struct {
	seq     int64
	at      time.Time
	errored bool // the visit's page load failed
}

func newCommitTap(inner journal.Backend, timed bool) *commitTap {
	return &commitTap{inner: inner, timed: timed}
}

var (
	visitPrefix = []byte(" " + stream.RecordKind + " {\"seq\":")
	errField    = []byte(`,"err":"`) // VisitRecord.ErrCause, omitted when empty
)

// frameSeq decodes the seq of a visit frame ("<hash> visit {"seq":N,...").
func frameSeq(frame []byte) (int64, bool) {
	i := bytes.Index(frame, visitPrefix)
	if i < 0 {
		return 0, false
	}
	rest := frame[i+len(visitPrefix):]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	n, err := strconv.ParseInt(string(rest[:j]), 10, 64)
	return n, err == nil
}

func (t *commitTap) Append(frame []byte) error {
	var start time.Time
	if t.timed {
		start = time.Now()
	}
	err := t.inner.Append(frame)
	now := time.Now()
	if err != nil {
		return err
	}
	seq, ok := frameSeq(frame)
	t.mu.Lock()
	if ok {
		t.commits = append(t.commits, commit{seq: seq, at: now, errored: bytes.Contains(frame, errField)})
	}
	if t.timed {
		t.appends++
		t.bytes += int64(len(frame))
		t.appendNS += int64(now.Sub(start))
		t.lastAppend = now
	}
	t.mu.Unlock()
	return nil
}

func (t *commitTap) ReadAll() ([][]byte, error) { return t.inner.ReadAll() }
func (t *commitTap) Close() error               { return t.inner.Close() }

func (t *commitTap) CompactTo(recs []journal.Record) error {
	c, ok := t.inner.(journal.Compactor)
	if !ok {
		return errors.New("perfbench: journal backend cannot compact")
	}
	err := c.CompactTo(recs)
	if t.timed && err == nil {
		now := time.Now()
		t.mu.Lock()
		t.checkpoints++
		t.checkpointNS += int64(now.Sub(t.lastAppend))
		t.mu.Unlock()
	}
	return err
}

// snapshot returns the commits recorded so far.
func (t *commitTap) snapshot() []commit {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]commit(nil), t.commits...)
}
