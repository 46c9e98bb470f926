package madave

// The pipeline benchmark suite measures the system's throughput rather than
// the paper's numbers: how fast the crawler turns sites into corpus ads,
// how fast the EasyList engine classifies a frame, and how fast the
// honeyclient executes one ad. TestEmitBenchPipeline packages the results
// as BENCH_pipeline.json (set BENCH_PIPELINE_OUT=path), the artifact the CI
// bench step uploads so throughput regressions are visible per commit.

import (
	"context"
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"madave/internal/easylist"
	"madave/internal/flowgraph"
	"madave/internal/honeyclient"
	"madave/internal/journal"
	"madave/internal/stats"
	"madave/internal/stream"
)

// BenchmarkPipelineCrawl measures the collection phase end to end and
// reports crawl throughput as pages/sec and ads/sec.
func BenchmarkPipelineCrawl(b *testing.B) {
	s, _ := benchWorld(b)
	sites := s.Web.TopSlice(20)
	pages, ads := int64(0), 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		corp, st := s.CrawlSubset(sites)
		if corp.Len() == 0 {
			b.Fatal("no ads collected")
		}
		pages += st.PagesVisited
		ads += corp.Len()
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(pages)/sec, "pages/sec")
		b.ReportMetric(float64(ads)/sec, "ads/sec")
	}
}

// BenchmarkPipelineMatch measures one EasyList classification through the
// token-indexed engine — ns/op is the headline number.
func BenchmarkPipelineMatch(b *testing.B) {
	s, r := benchWorld(b)
	ads := r.Corpus.All()
	if len(ads) == 0 {
		b.Fatal("empty corpus")
	}
	ctx := easylist.NewRequestCtx()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := ads[i%len(ads)]
		s.List.MatchCtx(ctx, easylist.Request{
			URL: ad.FrameURL, Type: easylist.TypeSubdocument, DocHost: ad.PubHost,
		})
	}
}

// BenchmarkPipelineAnalyze measures one full instrumented ad execution (the
// oracle's unit of work) and reports it as ads/sec alongside ns/op.
func BenchmarkPipelineAnalyze(b *testing.B) {
	s, r := benchWorld(b)
	ads := r.Corpus.All()
	if len(ads) == 0 {
		b.Fatal("empty corpus")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep := s.Oracle.Honey.Analyze(ads[i%len(ads)].FrameURL)
		if len(rep.Hosts) == 0 {
			b.Fatal("no hosts")
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ads/sec")
	}
}

// benchImpressionStream Zipf-samples the corpus into a duplicate-heavy ad
// sequence. The corpus itself is content-hash deduplicated — replaying it
// uniformly never repeats a frame URL — but the live impression stream the
// oracle actually faces repeats popular creatives constantly (the paper's
// 673,596 ads deduplicate to far fewer distinct chains). The stream, not
// the deduplicated corpus, is what memoization accelerates.
func benchImpressionStream(b *testing.B, ads []*Ad) []*Ad {
	b.Helper()
	if len(ads) == 0 {
		b.Fatal("empty corpus")
	}
	rng := stats.NewRNG(2014).Fork("bench-impression-stream")
	zipf := stats.NewZipf(len(ads), 1.1)
	stream := make([]*Ad, 4096)
	for i := range stream {
		stream[i] = ads[zipf.Sample(rng)]
	}
	return stream
}

// benchAnalyzeStream drives one honeyclient over the impression stream and
// reports ads/sec; shared by the cache-off and cached variants.
func benchAnalyzeStream(b *testing.B, h *honeyclient.Honeyclient, stream []*Ad) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ad := stream[i%len(stream)]
		rep := h.AnalyzeAdContext(context.Background(), ad.FrameURL, ad.Day)
		if len(rep.Hosts) == 0 {
			b.Fatal("no hosts")
		}
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(b.N)/sec, "ads/sec")
	}
}

// BenchmarkPipelineAnalyzeCacheOff is the memoization baseline: every
// impression re-executes in full, duplicates included.
func BenchmarkPipelineAnalyzeCacheOff(b *testing.B) {
	s, r := benchWorld(b)
	stream := benchImpressionStream(b, r.Corpus.All())
	benchAnalyzeStream(b, honeyclient.New(s.Universe, s.Cfg.Seed), stream)
}

// BenchmarkPipelineAnalyzeGraph is the cache-off stream with the flow-graph
// oracle enabled: every impression additionally builds the per-page flow
// graph and classifies its structural features. Its delta over
// PipelineAnalyzeCacheOff is the graph component's per-ad cost.
func BenchmarkPipelineAnalyzeGraph(b *testing.B) {
	s, r := benchWorld(b)
	stream := benchImpressionStream(b, r.Corpus.All())
	h := honeyclient.New(s.Universe, s.Cfg.Seed)
	h.EnableGraph(flowgraph.DefaultPolicy())
	benchAnalyzeStream(b, h, stream)
}

// BenchmarkPipelineAnalyzeCached is the same stream through the report
// cache; hit_ratio reports how much of the stream was served from memory.
func BenchmarkPipelineAnalyzeCached(b *testing.B) {
	s, r := benchWorld(b)
	stream := benchImpressionStream(b, r.Corpus.All())
	h := honeyclient.New(s.Universe, s.Cfg.Seed)
	h.EnableCache(0)
	benchAnalyzeStream(b, h, stream)
	if st, ok := h.CacheStats(); ok && st.Lookups() > 0 {
		b.ReportMetric(st.HitRatio(), "hit_ratio")
	}
}

// benchStreamStudy builds the small fixed study the streaming benchmark
// drives; study construction happens outside the timed region.
func benchStreamStudy(tb testing.TB) *Study {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Seed = 2014
	cfg.CrawlSites = 60
	cfg.Crawl.Refreshes = 2
	cfg.Crawl.Parallelism = 4
	s, err := NewStudy(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchmarkPipelineStream measures the crash-safe streaming service end to
// end — supervised stages, journal commits, online aggregation — and reports
// throughput as visits/sec and ads/sec. It runs with CheckpointEvery: -1, so
// it never measures checkpoints; internal/stream's BenchmarkCheckpoint does.
func BenchmarkPipelineStream(b *testing.B) {
	s := benchStreamStudy(b)
	visits, ads := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		svc, err := stream.NewService(s, stream.ServiceConfig{
			Journal: journal.NewMem(), CheckpointEvery: -1,
		})
		if err != nil {
			b.Fatal(err)
		}
		res, err := svc.Run(context.Background())
		if err != nil {
			b.Fatal(err)
		}
		if res.Summary.Visits == 0 {
			b.Fatal("streamed no visits")
		}
		visits += res.Summary.Visits
		ads += res.Summary.AdFrames
	}
	b.StopTimer()
	if sec := b.Elapsed().Seconds(); sec > 0 {
		b.ReportMetric(float64(visits)/sec, "visits/sec")
		b.ReportMetric(float64(ads)/sec, "ads/sec")
	}
}

// benchStreamOverload runs one serve-mode service into a deliberately tiny
// admission buffer and returns the shed accounting, so the bench artifact
// records the overload counters (offered/delivered/shed) per commit.
func benchStreamOverload(tb testing.TB) benchResult {
	tb.Helper()
	svc, err := stream.NewService(benchStreamStudy(tb), stream.ServiceConfig{
		Journal:         journal.NewMem(),
		CheckpointEvery: -1,
		Serve:           true,
		MaxImpressions:  600,
		ShedCapacity:    4,
		CrawlWorkers:    2,
		AnalyzeWorkers:  2,
		Stream:          stream.Config{Queue: 4},
	})
	if err != nil {
		tb.Fatal(err)
	}
	res, err := svc.Run(context.Background())
	if err != nil {
		tb.Fatal(err)
	}
	st := res.Ops.Shed
	if st.Shed+st.Delivered != st.Offered {
		tb.Fatalf("shed accounting does not conserve: %+v", st)
	}
	return benchResult{
		Name: "StreamOverloadShed",
		N:    1,
		Metrics: map[string]float64{
			"offered":    float64(st.Offered),
			"delivered":  float64(st.Delivered),
			"shed":       float64(st.Shed),
			"shed_ratio": float64(st.Shed) / float64(st.Offered),
			"queue_cap":  4,
			"restarts":   float64(res.Ops.Restarts),
		},
	}
}

// benchResult is one benchmark's row in BENCH_pipeline.json. The alloc
// columns come from testing.BenchmarkResult's memory statistics (every
// benchmark here calls b.ReportAllocs), so the committed artifact carries
// an allocation baseline per benchmark and the CI bench-diff job can fail
// on allocation regressions, not just wall-clock ones.
type benchResult struct {
	Name        string             `json:"name"`
	N           int                `json:"n"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// benchReport is the BENCH_pipeline.json document.
type benchReport struct {
	GoVersion string        `json:"go_version"`
	GOOS      string        `json:"goos"`
	GOARCH    string        `json:"goarch"`
	NumCPU    int           `json:"num_cpu"`
	Results   []benchResult `json:"results"`
}

// TestEmitBenchPipeline runs the pipeline benchmarks via testing.Benchmark
// and writes the JSON artifact. It is opt-in (skipped unless
// BENCH_PIPELINE_OUT names the output file) so the regular test run stays
// fast.
func TestEmitBenchPipeline(t *testing.T) {
	out := os.Getenv("BENCH_PIPELINE_OUT")
	if out == "" {
		t.Skip("set BENCH_PIPELINE_OUT=BENCH_pipeline.json to emit the benchmark artifact")
	}
	run := func(name string, fn func(*testing.B)) benchResult {
		r := testing.Benchmark(fn)
		if r.N == 0 {
			t.Fatalf("benchmark %s did not run", name)
		}
		res := benchResult{
			Name:        name,
			N:           r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		if len(r.Extra) > 0 {
			res.Metrics = map[string]float64{}
			for k, v := range r.Extra {
				res.Metrics[k] = v
			}
		}
		return res
	}
	cacheOff := run("PipelineAnalyzeCacheOff", BenchmarkPipelineAnalyzeCacheOff)
	graphOn := run("PipelineAnalyzeGraph", BenchmarkPipelineAnalyzeGraph)
	cached := run("PipelineAnalyzeCached", BenchmarkPipelineAnalyzeCached)
	jsCold := run("MinijsCompiledCold", BenchmarkMinijsCompiledCold)
	jsWarm := run("MinijsCompiledWarm", BenchmarkMinijsCompiledWarm)
	jsTree := run("MinijsTreeWalk", BenchmarkMinijsTreeWalk)
	rep := benchReport{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Results: []benchResult{
			run("PipelineCrawl", BenchmarkPipelineCrawl),
			run("PipelineMatch", BenchmarkPipelineMatch),
			run("PipelineAnalyze", BenchmarkPipelineAnalyze),
			run("PipelineStream", BenchmarkPipelineStream),
			benchStreamOverload(t),
			cacheOff,
			graphOn,
			cached,
			jsCold,
			jsWarm,
			jsTree,
		},
	}

	// The memoization gate: on the duplicate-heavy impression stream the
	// cached analyzer must be strictly faster than the baseline, or the
	// cache layer has regressed into overhead.
	offRate, onRate := cacheOff.Metrics["ads/sec"], cached.Metrics["ads/sec"]
	if offRate <= 0 || onRate <= offRate {
		t.Errorf("cached PipelineAnalyze not faster: %.0f ads/sec cached vs %.0f cache-off (hit ratio %.2f)",
			onRate, offRate, cached.Metrics["hit_ratio"])
	} else {
		t.Logf("cache speedup: %.1fx (%.0f -> %.0f ads/sec, hit ratio %.2f)",
			onRate/offRate, offRate, onRate, cached.Metrics["hit_ratio"])
	}

	// The compiler gate: warm compiled execution (code-cache hit + bytecode
	// VM) must be strictly faster than the seed engine's re-parse +
	// tree-walk on the same creative corpus, or the compile pipeline has
	// regressed into overhead.
	if jsWarm.NsPerOp <= 0 || jsWarm.NsPerOp >= jsTree.NsPerOp {
		t.Errorf("warm compiled minijs not faster than tree-walk: %d ns/op compiled vs %d ns/op tree-walk (cold %d)",
			jsWarm.NsPerOp, jsTree.NsPerOp, jsCold.NsPerOp)
	} else {
		t.Logf("minijs compile speedup: %.1fx (tree-walk %d -> warm %d ns/op, cold %d)",
			float64(jsTree.NsPerOp)/float64(jsWarm.NsPerOp), jsTree.NsPerOp, jsWarm.NsPerOp, jsCold.NsPerOp)
	}

	// The graph-oracle overhead gate: building and classifying the flow graph
	// must stay a bounded per-ad surcharge — under 2.5x the plain analyzer in
	// wall clock, and within a hard alloc ceiling (measured 275 allocs/op;
	// the ceiling leaves headroom for benign drift, and the committed
	// BENCH_pipeline.json row lets cmd/benchdiff catch creeping regressions).
	if cacheOff.NsPerOp > 0 && graphOn.NsPerOp >= cacheOff.NsPerOp*5/2 {
		t.Errorf("graph oracle overhead gate failed: %d ns/op with graph vs %d plain (>2.5x)",
			graphOn.NsPerOp, cacheOff.NsPerOp)
	} else {
		t.Logf("graph oracle overhead: %.2fx (%d -> %d ns/op)",
			float64(graphOn.NsPerOp)/float64(cacheOff.NsPerOp), cacheOff.NsPerOp, graphOn.NsPerOp)
	}
	if graphOn.AllocsPerOp > 320 {
		t.Errorf("PipelineAnalyzeGraph alloc gate failed: %d allocs/op > ceiling 320", graphOn.AllocsPerOp)
	}

	// The zero-allocation-hot-paths gates. The ns ceilings are the
	// pre-optimization committed baselines (121084 / 110176 ns/op on the
	// reference runner) divided by the required 1.3x speedup; the alloc
	// ceilings are hard counts with headroom above the measurements (171 /
	// ~210 allocs/op). Allocs/op are not exact: they drift with b.N (215–228
	// for PipelineAnalyzeCacheOff on one binary), so the headroom absorbs
	// that drift as well as benign change.
	gates := []struct {
		res       benchResult
		maxNs     int64
		maxAllocs int64
	}{
		{jsWarm, 121084 * 10 / 13, 391},   // >=1.3x over baseline; 40% below 652 allocs/op
		{cacheOff, 110176 * 10 / 13, 256}, // >=1.3x over baseline; 40% below 427 allocs/op
	}
	for _, g := range gates {
		switch {
		case g.res.NsPerOp > g.maxNs:
			t.Errorf("%s speedup gate failed: %d ns/op > ceiling %d ns/op (1.3x over committed baseline)",
				g.res.Name, g.res.NsPerOp, g.maxNs)
		case g.res.AllocsPerOp > g.maxAllocs:
			t.Errorf("%s alloc gate failed: %d allocs/op > ceiling %d allocs/op",
				g.res.Name, g.res.AllocsPerOp, g.maxAllocs)
		default:
			t.Logf("%s gates pass: %d ns/op (ceiling %d), %d allocs/op (ceiling %d), %d B/op",
				g.res.Name, g.res.NsPerOp, g.maxNs, g.res.AllocsPerOp, g.maxAllocs, g.res.BytesPerOp)
		}
	}

	write := func(path string, rep benchReport) {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		t.Logf("benchmark artifact written to %s", path)
	}
	write(out, rep)
	// A second artifact holding only the cache comparison rows, so the CI
	// job can upload the cache-off and cache-on variants side by side.
	if cachedOut := os.Getenv("BENCH_PIPELINE_CACHED_OUT"); cachedOut != "" {
		cmp := rep
		cmp.Results = []benchResult{cacheOff, cached}
		write(cachedOut, cmp)
	}
}
