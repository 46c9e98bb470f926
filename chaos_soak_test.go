package madave

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"madave/internal/fuzzutil/leakcheck"
	"madave/internal/journal"
	"madave/internal/memnet"
	"madave/internal/resilient"
	"madave/internal/stream"
)

// chaosStudyConfig is the soak configuration: a third of all requests are
// faulted (latency on top), four racing workers, fast retry policy so the
// soak finishes in seconds. VisitTimeout is disabled — the per-attempt
// deadline bounds stalls deterministically. That deadline (250ms) is far
// above any real in-memory dispatch and far below nothing a stall won't
// hit, so which attempts time out never depends on machine speed.
func chaosStudyConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.CrawlSites = 80
	cfg.Crawl.Days = 1
	cfg.Crawl.Refreshes = 2
	cfg.Crawl.Parallelism = 4
	cfg.Crawl.VisitTimeout = -1
	cfg.Crawl.Retry = resilient.Policy{
		MaxAttempts:    3,
		BaseDelay:      time.Microsecond,
		MaxDelay:       20 * time.Microsecond,
		AttemptTimeout: 250 * time.Millisecond,
	}
	cfg.AnalysisRetry = cfg.Crawl.Retry
	cfg.OracleParallelism = 4
	prof := memnet.UniformProfile(0.35)
	cfg.Chaos = &prof
	return cfg
}

// chaosRun executes crawl + classification under chaos and returns the
// stats string, the sorted corpus hash digest, and the oracle result.
func chaosRun(t *testing.T, seed uint64) (string, string, *Results) {
	t.Helper()
	s, err := NewStudy(chaosStudyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	corp, st := s.Crawl()
	res := s.Classify(corp)
	rep := s.Analyze(corp, res, st)

	hashes := make([]string, 0, corp.Len())
	for _, ad := range corp.All() {
		hashes = append(hashes, ad.Hash)
	}
	sort.Strings(hashes)
	return fmt.Sprintf("%+v", *st), strings.Join(hashes, "\n"),
		&Results{Corpus: corp, CrawlStats: st, Oracle: res, Report: rep}
}

// TestChaosSoak is the acceptance gate for the fault-injection substrate:
// with ≥30% of requests faulted, the full pipeline (crawl → oracle) must
//
//   - complete without deadlock and leak no goroutines,
//   - produce a non-empty deduplicated corpus,
//   - produce byte-identical crawl statistics and the same corpus across
//     two same-seed runs, and
//   - classify the corpus, counting degraded verdicts instead of dying.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short mode")
	}
	snap := leakcheck.Before()

	s1, h1, r1 := chaosRun(t, 777)
	s2, h2, _ := chaosRun(t, 777)

	if s1 != s2 {
		t.Fatalf("crawl stats diverged across same-seed chaos runs:\n%s\n%s", s1, s2)
	}
	if h1 != h2 {
		t.Fatal("corpus diverged across same-seed chaos runs")
	}
	if r1.Corpus.Len() == 0 {
		t.Fatal("chaos starved the corpus")
	}
	st := r1.CrawlStats
	if st.Retries == 0 {
		t.Fatalf("no retries under 35%% faults: %+v", st)
	}
	if st.PageErrors != st.NXDomainErrors+st.TimeoutErrors+st.HTTPErrors+st.OtherErrors {
		t.Fatalf("error split does not sum: %+v", st)
	}
	if r1.Oracle.Scanned != r1.Corpus.Len() {
		t.Fatalf("oracle scanned %d of %d", r1.Oracle.Scanned, r1.Corpus.Len())
	}

	// The pipeline must wind down completely: back near the goroutine
	// baseline once the run returns.
	snap.Check(t)
}

// TestBatchWorkerInvarianceUnderChaos pins the batch crawl's determinism
// across worker counts: under the chaos profile, 1, 4 and 8 workers must
// produce identical crawl statistics, corpus and report, and the same
// counts as the streaming service running the same schedule.
func TestBatchWorkerInvarianceUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos invariance skipped in -short mode")
	}
	const seed = 2014
	var wantStats, wantHashes, wantReport string
	var ref *Results
	for _, workers := range []int{1, 4, 8} {
		cfg := chaosStudyConfig(seed)
		cfg.Crawl.Parallelism = workers
		cfg.OracleParallelism = workers
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		corp, st := s.Crawl()
		res := s.Classify(corp)
		rep := s.Analyze(corp, res, st)
		hashes := make([]string, 0, corp.Len())
		for _, ad := range corp.All() {
			hashes = append(hashes, ad.Hash)
		}
		sort.Strings(hashes)
		gotStats, gotHashes, gotReport := fmt.Sprintf("%+v", *st), strings.Join(hashes, "\n"), rep.RenderText()
		if ref == nil {
			wantStats, wantHashes, wantReport = gotStats, gotHashes, gotReport
			ref = &Results{Corpus: corp, CrawlStats: st, Oracle: res, Report: rep}
			continue
		}
		if gotStats != wantStats {
			t.Errorf("%d workers: crawl stats differ from 1 worker:\n%s\n%s", workers, gotStats, wantStats)
		}
		if gotHashes != wantHashes {
			t.Errorf("%d workers: corpus (%d ads) differs from 1 worker (%d ads)", workers, corp.Len(), ref.Corpus.Len())
		}
		if gotReport != wantReport {
			t.Errorf("%d workers: report differs from 1 worker", workers)
		}
	}

	// The streaming service runs the same visits hermetically; the batch
	// crawl must agree with it.
	study, err := NewStudy(chaosStudyConfig(seed))
	if err != nil {
		t.Fatal(err)
	}
	svc, err := stream.NewService(study, stream.ServiceConfig{Journal: journal.NewMem()})
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	sum, st := run.Summary, ref.CrawlStats
	batch := [6]int{int(st.PagesVisited), int(st.PageErrors), int(st.AdFrames),
		ref.Corpus.Len(), int(st.DegradedPages), ref.Oracle.MaliciousCount()}
	streamed := [6]int{sum.Visits, sum.PageErrors, sum.AdFrames,
		sum.UniqueAds, sum.DegradedPages, sum.Malicious}
	if batch != streamed {
		t.Fatalf("visits, page errors, ad frames, unique ads, degraded pages, malicious:\nbatch  %v\nstream %v", batch, streamed)
	}
	t.Logf("visits, page errors, ad frames, unique ads, degraded pages, malicious: %v", batch)
}
