package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"madave/internal/core"
	"madave/internal/journal"
	"madave/internal/stats"
)

// testHash is a hex ad hash, the shape corpus.Ad.Hash has in production.
func testHash(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprint("ad-", i)))
	return hex.EncodeToString(sum[:])
}

// oddHashes need JSON escaping: HTML-escaped bytes, quotes, control
// characters, U+2028. badUTF8 is escaped too, but lossily: it decodes as
// U+FFFD, so it cannot round-trip through any JSON checkpoint.
var (
	oddHashes = []string{"<script>", "a&b", `q"uote`, `back\slash`, "tab\there", "nl\n", "\x00\x1f", "line\u2028sep", "é", ""}
	badUTF8   = "bad\xffutf8"
)

// randomRecords builds n visit records over a seq space with gaps, in a
// shuffled order with some records repeated, so folds arrive out of order
// and replay as duplicates.
func randomRecords(rng *rand.Rand, n int, graph, odd, bad bool) []VisitRecord {
	cats := []string{"clean", "blacklists", "drive-by", "scam<&>"}
	nets := []string{"", "adserv.a.com", "adserv.b.com", "net\"x"}
	var recs []VisitRecord
	for seq := int64(0); len(recs) < n; seq++ {
		if rng.IntN(4) == 0 {
			continue // a gap: this seq is never committed
		}
		r := VisitRecord{Seq: seq, Key: fmt.Sprint("v", seq), Frames: rng.IntN(6), NonAd: rng.IntN(3), Degraded: rng.IntN(9) == 0}
		if rng.IntN(7) == 0 {
			r.ErrCause = []string{"timeout", "nx<dns>", "http"}[rng.IntN(3)]
		}
		for range rng.IntN(4) {
			h := testHash(rng.IntN(3 * n)) // collisions make repeat impressions
			if odd && rng.IntN(5) == 0 {
				h = oddHashes[rng.IntN(len(oddHashes))]
			}
			if bad && rng.IntN(20) == 0 {
				h = badUTF8
			}
			ad := AdRecord{Hash: h, Category: cats[rng.IntN(len(cats))], Network: nets[rng.IntN(len(nets))],
				ChainLen: rng.IntN(6), Day: rng.IntN(4), Sandboxed: rng.IntN(3) == 0}
			if graph {
				ad.Graph = &AdGraphRecord{Flagged: rng.IntN(2) == 0, Chain: rng.IntN(5), XOrigin: rng.IntN(9), Edges: rng.IntN(20)}
			}
			r.Ads = append(r.Ads, ad)
		}
		recs = append(recs, r)
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return append(recs, recs[:n/10]...)
}

// referenceState computes the done ranges and unique-ad table the way the
// checkpoint format defines them: from a plain seq set and hash counts,
// fully sorted.
func referenceState(recs []VisitRecord) ([]seqRange, []adCount) {
	done := map[int64]bool{}
	ads := map[string]int{}
	for _, r := range recs {
		if done[r.Seq] {
			continue
		}
		done[r.Seq] = true
		for _, ad := range r.Ads {
			ads[ad.Hash]++
		}
	}
	seqs := make([]int64, 0, len(done))
	for s := range done {
		seqs = append(seqs, s)
	}
	slices.Sort(seqs)
	var ranges []seqRange
	for _, s := range seqs {
		if n := len(ranges); n > 0 && ranges[n-1].Hi == s-1 {
			ranges[n-1].Hi = s
			continue
		}
		ranges = append(ranges, seqRange{Lo: s, Hi: s})
	}
	var table []adCount
	for h, n := range ads {
		table = append(table, adCount{Hash: h, N: n})
	}
	slices.SortFunc(table, func(x, y adCount) int { return strings.Compare(x.Hash, y.Hash) })
	return ranges, table
}

// TestCheckpointEncoderMatchesJSONMarshal is the encoder's byte-identity
// property: over random states — gaps, out-of-order and duplicate folds,
// graph on and off, hashes and keys that need escaping, checkpoints taken
// mid-stream so the sorted ad table is merged into repeatedly — the direct
// encoding equals json.Marshal of the same snapshot and the snapshot equals
// the fully sorted reference. Unless it holds invalid UTF-8, the payload
// also restores to the same state.
func TestCheckpointEncoderMatchesJSONMarshal(t *testing.T) {
	for trial := range 40 {
		rng := rand.New(rand.NewPCG(uint64(trial), 0x5eed))
		graph, odd, bad := trial%2 == 0, trial%4 < 2, trial%8 == 1
		recs := randomRecords(rng, 1+rng.IntN(300), graph, odd, bad)
		a := NewAgg()
		every := 1 + rng.IntN(40)
		for i, r := range recs {
			a.Fold(r)
			if i%every != 0 && i != len(recs)-1 {
				continue
			}
			st := a.checkpoint()
			got := encodeAggState(&st)
			want, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("trial %d fold %d: encoder differs from json.Marshal:\n got %s\nwant %s", trial, i, got, want)
			}
			done, table := referenceState(recs[:i+1])
			if !slices.Equal(st.Done, done) || !slices.Equal(st.UniqueAds, table) {
				t.Fatalf("trial %d fold %d: snapshot differs from the sorted reference", trial, i)
			}
			if bad {
				continue
			}
			var back aggState
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			b := NewAgg()
			if err := b.restore(back); err != nil {
				t.Fatalf("trial %d fold %d: restore of own checkpoint: %v", trial, i, err)
			}
			st2 := b.checkpoint()
			if again := encodeAggState(&st2); !bytes.Equal(again, got) {
				t.Fatalf("trial %d fold %d: restore changed the checkpoint", trial, i)
			}
			if !bytes.Equal(b.Summary().JSON(), a.Summary().JSON()) {
				t.Fatalf("trial %d fold %d: restore changed the summary", trial, i)
			}
		}
	}
}

// TestDoneSetAgreesWithSeqSet checks Fold's duplicate detection, Done and
// DoneCount against a plain set under random fold orders.
func TestDoneSetAgreesWithSeqSet(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	a := NewAgg()
	set := map[int64]bool{}
	for range 5000 {
		seq := rng.Int64N(700)
		if got := a.Fold(VisitRecord{Seq: seq}); got == set[seq] {
			t.Fatalf("Fold(%d) = %v with seq already done = %v", seq, got, set[seq])
		}
		set[seq] = true
	}
	for seq := int64(-2); seq < 705; seq++ {
		if a.Done(seq) != set[seq] {
			t.Fatalf("Done(%d) = %v, want %v", seq, a.Done(seq), set[seq])
		}
	}
	if a.DoneCount() != len(set) {
		t.Fatalf("DoneCount = %d, want %d", a.DoneCount(), len(set))
	}
}

// parentCheckpoint reads a journal written by the pre-range-set encoder:
// one checkpoint frame, plus the summary and graph summary JSON its run
// reported.
func parentCheckpoint(t *testing.T, name string) (frame []byte, payload []byte, summary, graph string) {
	t.Helper()
	frame, err := os.ReadFile(filepath.Join("testdata", "checkpoints", name+".wal"))
	if err != nil {
		t.Fatal(err)
	}
	sums, err := os.ReadFile(filepath.Join("testdata", "checkpoints", name+".summary"))
	if err != nil {
		t.Fatal(err)
	}
	prefix := frame[:17] // "<16 hex> "
	rest, ok := bytes.CutPrefix(frame[len(prefix):], []byte(CheckpointKind+" "))
	if !ok || !bytes.HasSuffix(rest, []byte("\n")) {
		t.Fatalf("%s: not a single checkpoint frame", name)
	}
	lines := strings.Split(strings.TrimSpace(string(sums)), "\n")
	return frame, rest[:len(rest)-1], lines[0], lines[1]
}

// TestParentCheckpointsRestore: checkpoints the previous encoder wrote — one
// contiguous with repeat impressions and malicious networks, one from a
// shedding serve run with graph verdicts and gaps in its done-set — restore
// to the summaries their runs reported, and re-encode to the same bytes.
func TestParentCheckpointsRestore(t *testing.T) {
	study, err := core.NewStudy(testStudyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"schedule", "graph-serve"} {
		frame, payload, summary, graph := parentCheckpoint(t, name)
		mem := journal.NewMem()
		if err := mem.CompactTo([]journal.Record{{Kind: CheckpointKind, Payload: payload}}); err != nil {
			t.Fatal(err)
		}
		if frames, _ := mem.ReadAll(); len(frames) != 1 || !bytes.Equal(frames[0], frame) {
			t.Fatalf("%s: reframed checkpoint differs from the file", name)
		}
		svc, err := NewService(study, ServiceConfig{Journal: mem, CheckpointEvery: -1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := string(svc.Summary().JSON()); got != summary {
			t.Fatalf("%s: summary\n got %s\nwant %s", name, got, summary)
		}
		if got := string(svc.GraphSummary().JSON()); got != graph {
			t.Fatalf("%s: graph summary\n got %s\nwant %s", name, got, graph)
		}
		st := svc.agg.checkpoint()
		if got := encodeAggState(&st); !bytes.Equal(got, payload) {
			t.Fatalf("%s: re-encoded checkpoint differs from the parent's bytes", name)
		}
	}
}

// validState is a small consistent checkpoint the rejection cases perturb.
func validState() aggState {
	return aggState{
		Done:      []seqRange{{Lo: 0, Hi: 3}, {Lo: 5, Hi: 6}},
		Visits:    6,
		AdFrames:  4,
		UniqueAds: []adCount{{Hash: testHash(1), N: 1}, {Hash: testHash(2), N: 3}},
		Chain:     stats.IntMoments{N: 4, Sum: 8, SumSq: 16, Min: 2, Max: 2},
		ChainHist: []kvInt{{V: 2, N: 4}},
		DayAds:    []kvInt{{V: 1, N: 4}},
	}
}

// TestRestoreRejectsInconsistentCheckpoints: a hash-valid checkpoint whose
// parts disagree fails recovery with an error. It must neither restore
// silently nor expand a huge done range seq by seq.
func TestRestoreRejectsInconsistentCheckpoints(t *testing.T) {
	study, err := core.NewStudy(testStudyConfig(23))
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*aggState){
		"unsorted ranges":     func(s *aggState) { s.Done = []seqRange{{5, 6}, {0, 3}} },
		"overlapping ranges":  func(s *aggState) { s.Done = []seqRange{{0, 3}, {3, 4}} },
		"unmerged ranges":     func(s *aggState) { s.Done = []seqRange{{0, 3}, {4, 5}} },
		"negative range":      func(s *aggState) { s.Done = []seqRange{{-1, 4}} },
		"inverted range":      func(s *aggState) { s.Done = []seqRange{{4, 0}, {5, 6}} },
		"too few visits":      func(s *aggState) { s.Visits = 5 },
		"too many visits":     func(s *aggState) { s.Visits = 7 },
		"negative visits":     func(s *aggState) { s.Done, s.Visits = nil, -1 },
		"huge range":          func(s *aggState) { s.Done = []seqRange{{0, 1 << 40}} },
		"max range":           func(s *aggState) { s.Done, s.Visits = []seqRange{{0, 1<<63 - 1}}, 1<<63-1 },
		"unsorted ads":        func(s *aggState) { s.UniqueAds[0], s.UniqueAds[1] = s.UniqueAds[1], s.UniqueAds[0] },
		"duplicate ads":       func(s *aggState) { s.UniqueAds[1].Hash = s.UniqueAds[0].Hash },
		"impressions < frame": func(s *aggState) { s.AdFrames = 5 },
		"impressions > frame": func(s *aggState) { s.AdFrames = 3 },
		"zero impressions":    func(s *aggState) { s.UniqueAds[0].N, s.UniqueAds[1].N = 0, 4 },
		"overflowing counts":  func(s *aggState) { s.UniqueAds[0].N, s.UniqueAds[1].N = 1<<62, 1<<62 },
		"negative hist value": func(s *aggState) { s.ChainHist = []kvInt{{V: -1, N: 4}} },
		"huge hist value":     func(s *aggState) { s.DayAds = []kvInt{{V: 1 << 40, N: 4}} },
	}
	for name, mutate := range bad {
		t.Run(name, func(t *testing.T) {
			st := validState()
			mutate(&st)
			payload, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			mem := journal.NewMem()
			if err := mem.CompactTo([]journal.Record{{Kind: CheckpointKind, Payload: payload}}); err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := NewService(study, ServiceConfig{Journal: mem, CheckpointEvery: -1})
				errc <- err
			}()
			select {
			case err := <-errc:
				if err == nil || !strings.Contains(err.Error(), "checkpoint") {
					t.Fatalf("recovery accepted an inconsistent checkpoint (err = %v)", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("recovery did not return")
			}
		})
	}
	st := validState()
	if err := NewAgg().restore(st); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

// TestCheckpointFlatInVisits: a contiguous stream's done-set is one range
// however long it runs, so checkpoint+encode allocates the same at 1e3 and
// 1e6 visits, and restoring a 1e12-visit range costs nothing.
func TestCheckpointFlatInVisits(t *testing.T) {
	var allocs []float64
	for _, n := range []int64{1_000, 1_000_000} {
		a := NewAgg()
		for seq := range n {
			a.Fold(VisitRecord{Seq: seq})
		}
		if st := a.checkpoint(); !slices.Equal(st.Done, []seqRange{{Lo: 0, Hi: n - 1}}) {
			t.Fatalf("%d folds: done = %v, want one range", n, st.Done)
		}
		allocs = append(allocs, testing.AllocsPerRun(20, func() {
			st := a.checkpoint()
			encodeAggState(&st)
		}))
	}
	if allocs[0] != allocs[1] {
		t.Fatalf("checkpoint+encode allocs grow with visits: %v at 1e3, %v at 1e6", allocs[0], allocs[1])
	}

	const hi = int64(1e12)
	a := NewAgg()
	errc := make(chan error, 1)
	go func() { errc <- a.restore(aggState{Done: []seqRange{{Lo: 0, Hi: hi}}, Visits: int(hi + 1)}) }()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("restoring a [0, 1e12] done range did not return")
	}
	if !a.Done(hi) || a.Done(hi+1) || a.DoneCount() != int(hi+1) {
		t.Fatalf("restored range: Done(hi)=%v Done(hi+1)=%v DoneCount=%d", a.Done(hi), a.Done(hi+1), a.DoneCount())
	}
}

// cloneState copies the slices restore adopts, so one state can seed many
// aggregates.
func cloneState(st aggState) aggState {
	st.Done = slices.Clone(st.Done)
	st.UniqueAds = slices.Clone(st.UniqueAds)
	return st
}

// BenchmarkCheckpoint measures one checkpoint at the service's cadence:
// snapshot plus encoding of a state holding n unique ads, after 256 visits
// that brought 600 new ones — the shape of the stream workload, whose ads
// are nearly all unique at about 2.4 per visit.
func BenchmarkCheckpoint(b *testing.B) {
	for _, n := range []int{10_000, 40_000} {
		b.Run(fmt.Sprintf("ads=%d", n), func(b *testing.B) {
			base := NewAgg()
			visits := n * 10 / 24
			for v := range visits {
				base.Fold(visitWithAds(v, v*n/visits, (v+1)*n/visits))
			}
			st := base.checkpoint()
			var tail []VisitRecord
			for v := range 256 {
				tail = append(tail, visitWithAds(visits+v, n+v*600/256, n+(v+1)*600/256))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				b.StopTimer()
				a := NewAgg()
				if err := a.restore(cloneState(st)); err != nil {
					b.Fatal(err)
				}
				for _, r := range tail {
					a.Fold(r)
				}
				b.StartTimer()
				st := a.checkpoint()
				encodeAggState(&st)
			}
		})
	}
}

// visitWithAds is visit seq carrying one impression each of ads [lo, hi).
func visitWithAds(seq, lo, hi int) VisitRecord {
	r := VisitRecord{Seq: int64(seq), Key: fmt.Sprint("v", seq), Frames: hi - lo + 1, NonAd: 1}
	for i := lo; i < hi; i++ {
		r.Ads = append(r.Ads, AdRecord{Hash: testHash(i), Category: "clean", Network: "adserv.a.com", ChainLen: 2, Day: 1})
	}
	return r
}
