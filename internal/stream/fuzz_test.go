package stream

// FuzzCheckpointRestore feeds arbitrary checkpoint payloads, followed by two
// visit records, through NewService's journal recovery. The oracles:
//
//   - recovery never panics and never hangs: a payload is either rejected
//     with an error or restored in O(payload) time, whatever ranges and
//     values it claims;
//   - an accepted state is a fixed point: its checkpoint encodes exactly as
//     json.Marshal does, and a service recovered from that checkpoint alone
//     reports the same summary and graph summary and re-encodes the same
//     bytes.

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"madave/internal/core"
	"madave/internal/journal"
)

var (
	fuzzStudyOnce sync.Once
	fuzzStudy     *core.Study
	fuzzStudyErr  error
)

// fuzzTail is the two visit records each fuzz input is followed by: one
// extending a small done-set, one far above it, both with ads.
var fuzzTail = []VisitRecord{
	{Seq: 2, Key: "a", Frames: 3, Ads: []AdRecord{
		{Hash: testHash(1), Category: "clean", Network: "adserv.a.com", ChainLen: 2, Day: 1},
		{Hash: testHash(7), Category: "drive-by", Network: "adserv.b.com", ChainLen: 3, Day: 2,
			Graph: &AdGraphRecord{Flagged: true, Chain: 2, XOrigin: 3, Edges: 5}},
	}},
	{Seq: 1 << 20, Key: "b", ErrCause: "timeout", Frames: 1, Ads: []AdRecord{
		{Hash: testHash(1), Category: "clean", ChainLen: 0, Day: 0, Sandboxed: true},
	}},
}

func FuzzCheckpointRestore(f *testing.F) {
	st := validState()
	valid, err := json.Marshal(st)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		string(valid),
		`{}`,
		`{"done":[{"lo":0,"hi":1000000000000}],"visits":1000000000001}`,
		`{"done":[{"lo":0,"hi":1099511627776}],"visits":2}`,
		`{"done":[{"lo":0,"hi":1}],"visits":2,"ad_frames":1,"unique_ads":[{"h":"<x>","n":1}],"day_ads":[{"v":3,"n":1}]}`,
		`{"visits":0,"chain_hist":[{"v":-1,"n":1}]}`,
		`{"visits":0,"graph_chain_hist":[{"v":65536,"n":-3}],"graph_scanned":-1}`,
		`{"visits":0,"err_causes":[{"Key":"a","Count":0},{"Key":"a","Count":2}]}`,
		`null`,
		`[]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		study := sharedFuzzStudy(t)
		mem := journal.NewMem()
		if err := mem.CompactTo([]journal.Record{{Kind: CheckpointKind, Payload: payload}}); err != nil {
			t.Fatal(err)
		}
		log := journal.NewLog(mem)
		for _, r := range fuzzTail {
			if err := log.Append(RecordKind, r); err != nil {
				t.Fatal(err)
			}
		}
		svc, err := NewService(study, ServiceConfig{Journal: mem, CheckpointEvery: -1})
		if err != nil {
			return // rejected: the only other allowed outcome
		}
		st := svc.agg.checkpoint()
		ckpt := encodeAggState(&st)
		if want, err := json.Marshal(st); err != nil || !bytes.Equal(ckpt, want) {
			t.Fatalf("encoder differs from json.Marshal (err %v):\n got %s\nwant %s", err, ckpt, want)
		}
		again := journal.NewMem()
		if err := again.CompactTo([]journal.Record{{Kind: CheckpointKind, Payload: ckpt}}); err != nil {
			t.Fatal(err)
		}
		svc2, err := NewService(study, ServiceConfig{Journal: again, CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("own checkpoint rejected: %v\n%s", err, ckpt)
		}
		if got, want := svc2.Summary().JSON(), svc.Summary().JSON(); !bytes.Equal(got, want) {
			t.Fatalf("summary changed across re-checkpoint:\n got %s\nwant %s", got, want)
		}
		if got, want := svc2.GraphSummary().JSON(), svc.GraphSummary().JSON(); !bytes.Equal(got, want) {
			t.Fatalf("graph summary changed across re-checkpoint:\n got %s\nwant %s", got, want)
		}
		st2 := svc2.agg.checkpoint()
		if got := encodeAggState(&st2); !bytes.Equal(got, ckpt) {
			t.Fatalf("checkpoint is not a fixed point:\n got %s\nwant %s", got, ckpt)
		}
	})
}

// sharedFuzzStudy builds the study NewService needs once per process:
// recovery never crawls, so every input can share it.
func sharedFuzzStudy(t *testing.T) *core.Study {
	fuzzStudyOnce.Do(func() { fuzzStudy, fuzzStudyErr = core.NewStudy(testStudyConfig(1)) })
	if fuzzStudyErr != nil {
		t.Fatal(fuzzStudyErr)
	}
	return fuzzStudy
}
