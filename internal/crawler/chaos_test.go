package crawler

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"madave/internal/corpus"
	"madave/internal/memnet"
	"madave/internal/resilient"
)

// fastRetry keeps chaos tests quick: microsecond backoffs, and an attempt
// deadline that bounds injected stalls while staying far above any real
// in-memory dispatch — so which attempts time out never depends on
// scheduler luck, only on the seeded fault decisions.
func fastRetry() resilient.Policy {
	return resilient.Policy{
		MaxAttempts:    3,
		BaseDelay:      time.Microsecond,
		MaxDelay:       20 * time.Microsecond,
		AttemptTimeout: 250 * time.Millisecond,
	}
}

// chaosCrawl runs one crawl over the shared fixture with the given fault
// rate and returns the stats rendered to a string plus the sorted corpus
// hashes — the two artefacts that must be byte-identical across runs.
func chaosCrawl(t *testing.T, seed uint64, rate float64) (string, string, *Stats) {
	t.Helper()
	u, web, list := fixture(t)
	cfg := Config{
		Days: 1, Refreshes: 2, Parallelism: 4, Seed: seed,
		VisitTimeout: -1, // attempt timeouts bound stalls deterministically
		Retry:        fastRetry(),
	}
	c := New(u, list, web, cfg)
	c.Transport = func() http.RoundTripper {
		return memnet.NewChaos(&memnet.Transport{U: u}, seed, memnet.UniformProfile(rate))
	}
	corp, st := c.Run(web.TopSlice(12))
	hashes := make([]string, 0, corp.Len())
	for _, ad := range corp.All() {
		hashes = append(hashes, ad.Hash)
	}
	sort.Strings(hashes)
	return fmt.Sprintf("%+v", *st), strings.Join(hashes, "\n"), st
}

// TestCrawlDeterministicUnderChaos is the heart of the fault-injection
// design: with ≥30% of requests faulted and four workers racing, two
// same-seed crawls must still produce byte-identical statistics and the
// same deduplicated corpus.
func TestCrawlDeterministicUnderChaos(t *testing.T) {
	s1, h1, st := chaosCrawl(t, 42, 0.35)
	s2, h2, _ := chaosCrawl(t, 42, 0.35)
	if s1 != s2 {
		t.Fatalf("stats diverged across same-seed runs:\n%s\n%s", s1, s2)
	}
	if h1 != h2 {
		t.Fatal("corpus hashes diverged across same-seed runs")
	}
	if h1 == "" {
		t.Fatal("chaos starved the corpus entirely")
	}
	// The fault rate is high enough that the resilience layer must have
	// worked for a living.
	if st.Retries == 0 {
		t.Fatalf("no retries recorded under 35%% faults: %+v", st)
	}
	if st.PageErrors != st.NXDomainErrors+st.TimeoutErrors+st.HTTPErrors+st.OtherErrors {
		t.Fatalf("error split does not sum: %+v", st)
	}

	// A different seed sees different faults.
	s3, _, _ := chaosCrawl(t, 43, 0.35)
	if s1 == s3 {
		t.Fatal("different seeds produced identical stats — chaos is not seeded")
	}
}

// TestCrawlBreakerCutsOffDeadHost kills one publisher host outright (every
// request resets) and checks the circuit breaker opens, sheds requests,
// and the rest of the crawl still collects ads. Breakers live for one
// visit, so the threshold sits below the retry budget: one dead document's
// retries open the breaker and its last attempt is shed.
func TestCrawlBreakerCutsOffDeadHost(t *testing.T) {
	u, web, list := fixture(t)
	sites := web.TopSlice(8)
	dead := sites[0].Host
	crawl := func(parallelism int) (*corpus.Corpus, *Stats) {
		cfg := Config{
			Days: 1, Refreshes: 8, Parallelism: parallelism, Seed: 7,
			VisitTimeout:     -1,
			Retry:            fastRetry(), // 3 attempts
			BreakerThreshold: 2,
		}
		c := New(u, list, web, cfg)
		c.Transport = func() http.RoundTripper {
			ch := memnet.NewChaos(&memnet.Transport{U: u}, 7, memnet.FaultProfile{})
			ch.SetHostProfile(dead, memnet.FaultProfile{ResetRate: 1})
			return ch
		}
		return c.Run(sites)
	}
	corp, st := crawl(1)

	if st.CircuitOpens == 0 {
		t.Fatalf("breaker never opened for the dead host: %+v", st)
	}
	if st.CircuitShortCircuits == 0 {
		t.Fatalf("open breaker shed nothing: %+v", st)
	}
	if st.OtherErrors == 0 {
		t.Fatalf("reset pages not classified: %+v", st)
	}
	// The other seven sites keep producing.
	if corp.Len() == 0 {
		t.Fatal("dead host starved the whole crawl")
	}
	for _, ad := range corp.All() {
		if ad.PubHost == dead {
			t.Fatalf("harvested an ad from the dead host %s", dead)
		}
	}
	// Breaker trips are per visit, so the worker count cannot move them.
	if _, st4 := crawl(4); *st4 != *st {
		t.Fatalf("stats differ across worker counts:\n1: %+v\n4: %+v", st, st4)
	}
}

// TestCrawlStalledHostCountsTimeouts stalls one publisher completely: each
// attempt is broken by the per-attempt deadline, the visit fails as a
// timeout, and the timeout counters record the work.
func TestCrawlStalledHostCountsTimeouts(t *testing.T) {
	u, web, list := fixture(t)
	sites := web.TopSlice(3)
	stalled := sites[0].Host
	cfg := Config{
		Days: 1, Refreshes: 2, Parallelism: 2, Seed: 9,
		VisitTimeout: -1,
		Retry:        fastRetry(),
	}
	c := New(u, list, web, cfg)
	c.Transport = func() http.RoundTripper {
		ch := memnet.NewChaos(&memnet.Transport{U: u}, 9, memnet.FaultProfile{})
		ch.SetHostProfile(stalled, memnet.FaultProfile{StallRate: 1})
		return ch
	}
	start := time.Now()
	_, st := c.Run(sites)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("stalled host was not bounded: crawl took %v", elapsed)
	}

	if st.TimeoutErrors != 2 {
		t.Fatalf("timeout errors = %d, want 2 (one per visit to the stalled host): %+v", st.TimeoutErrors, st)
	}
	if st.Timeouts < 2 {
		t.Fatalf("attempt timeouts = %d, want >= 2: %+v", st.Timeouts, st)
	}
	// Healthy sites were visited and error-free.
	if st.PagesVisited != 6 || st.PageErrors != 2 {
		t.Fatalf("visits/errors = %d/%d: %+v", st.PagesVisited, st.PageErrors, st)
	}
}
