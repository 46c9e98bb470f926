// Package core is the study engine: it assembles the full simulation (the
// synthetic web, the ad ecosystem, the HTTP universe), runs the paper's
// two-phase methodology — crawl (§3.1) then oracle classification (§3.2) —
// and produces the analysis report reproducing §4's tables and figures.
//
// The root package madave wraps this engine with the public API.
package core

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"madave/internal/adnet"
	"madave/internal/adserver"
	"madave/internal/analysis"
	"madave/internal/avscan"
	"madave/internal/blacklist"
	"madave/internal/cachex"
	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/easylist"
	"madave/internal/flowgraph"
	"madave/internal/honeyclient"
	"madave/internal/memnet"
	"madave/internal/netcap"
	"madave/internal/oracle"
	"madave/internal/resilient"
	"madave/internal/telemetry"
	"madave/internal/webgen"
)

// Config parameterizes a study run.
type Config struct {
	// Seed drives all randomness: generation, serving, crawling.
	Seed uint64
	// Web and Ads configure the synthetic populations.
	Web webgen.Config
	Ads adnet.Config
	// Crawl configures the collection phase.
	Crawl crawler.Config
	// CrawlSites caps how many sites of the paper-style crawl set are
	// visited (0 = all of them). Scaling down samples the set uniformly so
	// cluster proportions are preserved.
	CrawlSites int
	// RandomSites is the size of the random middle sample in the crawl set
	// (the paper used 20,000 over a 1M population).
	RandomSites int
	// OracleParallelism bounds concurrent oracle classifications.
	OracleParallelism int
	// Chaos, when non-nil, wraps every pipeline transport (crawler workers
	// and the honeyclient) in the seeded fault-injection layer with this
	// profile. Faults are a pure function of (Seed, URL, attempt), so a
	// chaotic study is as reproducible as a calm one.
	Chaos *memnet.FaultProfile
	// AnalysisRetry configures the honeyclient's resilience layer (zero
	// fields take resilient defaults) and AnalysisTimeout bounds each
	// instrumented execution (0 = none).
	AnalysisRetry   resilient.Policy
	AnalysisTimeout time.Duration
	// Telemetry, when non-nil, instruments the whole pipeline — crawler,
	// browser, resilience layer, in-memory network, EasyList matcher,
	// honeyclient, and oracle all record into it. Telemetry is strictly
	// observational: a study produces byte-identical stats and corpus with
	// it on or off.
	Telemetry *telemetry.Set
	// Cache configures the oracle-side memoization layer. Every cached
	// value is a pure function of its key, so a study with caches on is
	// byte-identical to one with caches off — they only change how fast
	// repeated artefacts classify.
	Cache CacheConfig
	// GraphOracle enables the flow-graph fourth oracle component: every
	// honeyclient report carries a structural flowgraph.Summary and the
	// oracle Result gains GraphScanned/GraphFindings. Strictly additive —
	// base stats, incidents, and the analysis report are byte-identical
	// with it on or off.
	GraphOracle bool
}

// CacheConfig holds the memoization knobs for the three hot oracle layers.
type CacheConfig struct {
	// Enabled turns all three caches on with the sizes below.
	Enabled bool
	// HoneyclientEntries caps the honeyclient report cache
	// (0 = honeyclient.DefaultCacheEntries).
	HoneyclientEntries int
	// BlacklistEntries caps the per-(host, day) verdict memo
	// (0 = blacklist.DefaultMemoEntries).
	BlacklistEntries int
	// AVScanEntries caps the content-hash scan report cache
	// (0 = avscan.DefaultCacheEntries).
	AVScanEntries int
}

// DefaultConfig returns a laptop-scale study that finishes in seconds while
// preserving every distributional property the paper measures. Scale
// CrawlSites / Crawl.Days up toward the paper's three-month crawl as budget
// allows.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		Web:               webgen.DefaultConfig(),
		Ads:               adnet.DefaultConfig(),
		Crawl:             crawler.Config{Days: 1, Refreshes: 5, Parallelism: 8},
		CrawlSites:        800,
		RandomSites:       3000,
		OracleParallelism: 8,
	}
}

// Study is an assembled simulation ready to run.
type Study struct {
	Cfg      Config
	Web      *webgen.Web
	Eco      *adnet.Ecosystem
	Server   *adserver.Server
	Universe *memnet.Universe
	List     *easylist.List
	Oracle   *oracle.Oracle
}

// NewStudy builds the full simulation.
func NewStudy(cfg Config) (*Study, error) {
	if cfg.Seed != 0 {
		cfg.Web.Seed = cfg.Seed
		cfg.Ads.Seed = cfg.Seed
		cfg.Crawl.Seed = cfg.Seed
	}
	web, err := webgen.Generate(cfg.Web)
	if err != nil {
		return nil, fmt.Errorf("core: generating web: %w", err)
	}
	eco, err := adnet.Generate(cfg.Ads)
	if err != nil {
		return nil, fmt.Errorf("core: generating ad ecosystem: %w", err)
	}
	srv := adserver.New(eco, web, cfg.Seed)
	u := memnet.NewUniverse()
	srv.Install(u)

	list, err := easylist.ParseString(srv.BuildEasyList())
	if err != nil {
		return nil, fmt.Errorf("core: building easylist: %w", err)
	}
	list.Tel = cfg.Telemetry

	hc := honeyclient.New(u, cfg.Seed)
	hc.Retry = cfg.AnalysisRetry
	hc.Timeout = cfg.AnalysisTimeout
	hc.Tel = cfg.Telemetry
	if cfg.Chaos != nil {
		hc.Transport = chaosTransport(u, cfg.Seed, *cfg.Chaos, cfg.Telemetry)
	}
	ora := oracle.New(
		hc,
		blacklist.Build(eco, cfg.Seed),
		avscan.New(cfg.Seed),
	)
	ora.Tel = cfg.Telemetry
	if cfg.OracleParallelism > 0 {
		ora.Parallelism = cfg.OracleParallelism
	}
	if cfg.Cache.Enabled {
		hc.EnableCache(cfg.Cache.HoneyclientEntries)
		ora.Lists.EnableMemo(cfg.Cache.BlacklistEntries, cfg.Telemetry)
		ora.Scanner.EnableCache(cfg.Cache.AVScanEntries, cfg.Telemetry)
	}
	if cfg.GraphOracle {
		hc.EnableGraph(flowgraph.DefaultPolicy())
	}
	return &Study{
		Cfg:      cfg,
		Web:      web,
		Eco:      eco,
		Server:   srv,
		Universe: u,
		List:     list,
		Oracle:   ora,
	}, nil
}

// CrawlSites returns the sites the crawl will visit: the paper's crawl set
// (top 10k + bottom 10k + random middle + AV feed), optionally subsampled
// uniformly to Cfg.CrawlSites.
func (s *Study) CrawlSites() []*webgen.Site {
	full := s.Web.CrawlSet(s.Cfg.RandomSites)
	n := s.Cfg.CrawlSites
	if n <= 0 || n >= len(full) {
		return full
	}
	// Uniform stride sampling preserves the rank mix (and therefore the
	// §4.2 cluster proportions).
	out := make([]*webgen.Site, 0, n)
	stride := float64(len(full)) / float64(n)
	for i := 0; i < n; i++ {
		out = append(out, full[int(float64(i)*stride)])
	}
	return out
}

// Crawl runs the collection phase over the configured crawl set.
func (s *Study) Crawl() (*corpus.Corpus, *crawler.Stats) {
	return s.CrawlSubset(s.CrawlSites())
}

// CrawlSubset runs the collection phase over an explicit site list.
func (s *Study) CrawlSubset(sites []*webgen.Site) (*corpus.Corpus, *crawler.Stats) {
	return s.newCrawler().Run(sites)
}

// CrawlContext is Crawl under a caller-supplied context: cancelling it (e.g.
// from a SIGINT handler) stops scheduling new visits and returns whatever
// was collected so far.
func (s *Study) CrawlContext(ctx context.Context) (*corpus.Corpus, *crawler.Stats) {
	return s.newCrawler().RunContext(ctx, s.CrawlSites())
}

// StreamCrawler assembles the crawler the streaming service drives visit by
// visit — the same transport and chaos wiring as the batch crawl phase.
func (s *Study) StreamCrawler() *crawler.Crawler {
	return s.newCrawler()
}

// CrawlTraced is Crawl with full HTTP traffic capture (§3.1: the paper
// captured all traffic during crawling). The trace can be saved with
// netcap's Save.
func (s *Study) CrawlTraced() (*corpus.Corpus, *crawler.Stats, *netcap.Capture) {
	cr := s.newCrawler()
	cr.KeepTraffic = true
	corp, st := cr.Run(s.CrawlSites())
	return corp, st, cr.Traffic()
}

// newCrawler assembles the crawl-phase crawler, chaos-wrapped when the
// study injects faults.
func (s *Study) newCrawler() *crawler.Crawler {
	cr := crawler.New(s.Universe, s.List, s.Web, s.Cfg.Crawl)
	cr.Telemetry = s.Cfg.Telemetry
	if s.Cfg.Chaos != nil {
		cr.Transport = chaosTransport(s.Universe, s.Cfg.Seed, *s.Cfg.Chaos, s.Cfg.Telemetry)
	}
	return cr
}

// chaosTransport builds a per-worker transport factory that layers the
// fault injector over the in-memory network.
func chaosTransport(u *memnet.Universe, seed uint64, prof memnet.FaultProfile, tel *telemetry.Set) func() http.RoundTripper {
	return func() http.RoundTripper {
		return memnet.NewChaos(&memnet.Transport{U: u, Tel: tel}, seed, prof)
	}
}

// Classify runs the oracle over a corpus.
func (s *Study) Classify(corp *corpus.Corpus) *oracle.Result {
	return s.Oracle.ClassifyCorpus(corp)
}

// ClassifyContext is Classify under a caller-supplied context.
func (s *Study) ClassifyContext(ctx context.Context, corp *corpus.Corpus) *oracle.Result {
	return s.Oracle.ClassifyCorpusContext(ctx, corp)
}

// CacheStats returns the counters of every enabled pipeline cache, in a
// stable order (honeyclient, blacklist, avscan). Empty when Cfg.Cache is
// off.
func (s *Study) CacheStats() []cachex.Stats {
	var out []cachex.Stats
	if st, ok := s.Oracle.Honey.CacheStats(); ok {
		out = append(out, st)
	}
	if st, ok := s.Oracle.Lists.MemoStats(); ok {
		out = append(out, st)
	}
	if st, ok := s.Oracle.Scanner.CacheStats(); ok {
		out = append(out, st)
	}
	return out
}

// Analyze computes the paper's tables and figures from the measured data.
func (s *Study) Analyze(corp *corpus.Corpus, res *oracle.Result, st *crawler.Stats) *analysis.Report {
	return analysis.Analyze(analysis.Input{
		Corpus:     corp,
		Result:     res,
		TotalSites: len(s.Web.Sites),
		CrawlStats: st,
	})
}

// GroundTruth resolves an advertisement's true campaign. It exists for
// validation and the EXPERIMENTS.md cross-checks; the measurement pipeline
// itself never consults it.
func (s *Study) GroundTruth(ad *corpus.Ad) (*adnet.Campaign, bool) {
	d, ok := s.Server.Decide(ad.PubHost, ad.Impression)
	if !ok {
		return nil, false
	}
	return d.Campaign, true
}

// Results bundles a full study run.
type Results struct {
	Corpus     *corpus.Corpus
	CrawlStats *crawler.Stats
	Oracle     *oracle.Result
	Report     *analysis.Report
}

// Run executes crawl → classify → analyze.
func (s *Study) Run() *Results {
	return s.RunContext(context.Background())
}

// RunContext is Run under a caller-supplied context. Cancellation stops
// scheduling new work but still classifies and analyzes whatever the crawl
// collected, so an interrupted run yields its partial tables instead of
// nothing.
func (s *Study) RunContext(ctx context.Context) *Results {
	corp, st := s.CrawlContext(ctx)
	res := s.ClassifyContext(ctx, corp)
	rep := s.Analyze(corp, res, st)
	return &Results{Corpus: corp, CrawlStats: st, Oracle: res, Report: rep}
}
