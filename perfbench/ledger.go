package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madave/internal/adnet"
	"madave/internal/adserver"
	"madave/internal/avscan"
	"madave/internal/blacklist"
	"madave/internal/core"
	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/easylist"
	"madave/internal/flowgraph"
	"madave/internal/honeyclient"
	"madave/internal/htmlparse"
	"madave/internal/memnet"
	"madave/internal/minijs"
	"madave/internal/oracle"
	"madave/internal/stream"
	"madave/internal/telemetry"
	"madave/internal/webgen"
)

// ledger accumulates the per-layer metrics of one traced run. A layer the
// workload does not exercise reads 0.
type ledger map[string]float64

// runLedger is the traced run of o.workload.
func runLedger(o options) (*result, []string, error) {
	var (
		l         = ledger{}
		notes     []string
		attempted int64
		failed    int64
		err       error
	)
	cfg := o.studyConfig()
	if o.workload == "serve" {
		cfg = o.serveConfig()
	}
	if _, ok := workloads[o.workload]; !ok {
		return nil, nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if err := l.setup(o, cfg); err != nil {
		return nil, nil, err
	}
	switch o.workload {
	case "study":
		attempted, failed, notes, err = l.study(o, cfg)
	case "stream":
		attempted, failed, notes, err = l.stream(o, cfg)
	case "serve":
		attempted, failed, notes, err = l.serve(o, cfg)
	}
	if err != nil {
		return nil, notes, err
	}
	l["pipeline.failed_ratio"] = float64(failed) / float64(attempted)
	for _, d := range perLayer {
		if _, ok := l[d.name]; !ok {
			l[d.name] = 0 // a layer this workload does not exercise
		}
	}
	res, err := assemble(perLayer, l, attempted, failed)
	return res, notes, err
}

// setup times the four generation layers NewStudy composes, each called
// the way NewStudy calls it.
func (l ledger) setup(o options, cfg core.Config) error {
	cfg.Web.Seed, cfg.Ads.Seed = cfg.Seed, cfg.Seed
	s := samples{}
	for i := 0; i < o.setups; i++ {
		t0 := time.Now()
		web, err := webgen.Generate(cfg.Web)
		if err != nil {
			return err
		}
		t1 := time.Now()
		eco, err := adnet.Generate(cfg.Ads)
		if err != nil {
			return err
		}
		t2 := time.Now()
		if _, err := easylist.ParseString(adserver.New(eco, web, cfg.Seed).BuildEasyList()); err != nil {
			return err
		}
		t3 := time.Now()
		blacklist.Build(eco, cfg.Seed)
		t4 := time.Now()
		s.add("webgen.generate_s", t1.Sub(t0).Seconds())
		s.add("adnet.generate_s", t2.Sub(t1).Seconds())
		s.add("easylist.build_s", t3.Sub(t2).Seconds())
		s.add("blacklist.build_s", t4.Sub(t3).Seconds())
	}
	for k, v := range s.medians() {
		l[k] = v
	}
	return nil
}

// runtimeCounters reads the runtime's cumulative CPU and allocation counters.
type runtimeCounters struct{ gcCPU, totalCPU, allocBytes float64 }

func readRuntime() runtimeCounters {
	ss := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(ss)
	val := func(s metrics.Sample) float64 {
		switch s.Value.Kind() {
		case metrics.KindFloat64:
			return s.Value.Float64()
		case metrics.KindUint64:
			return float64(s.Value.Uint64())
		}
		return 0
	}
	return runtimeCounters{val(ss[0]), val(ss[1]), val(ss[2])}
}

// section brackets the traced part of a run for the runtime and CPU
// metrics; ads is how many ads it classified.
type section struct {
	rt0  runtimeCounters
	cpu0 time.Duration
}

func startSection() section {
	runtime.GC() // start from a settled heap so GC share is the section's own
	return section{rt0: readRuntime(), cpu0: cpuTime()}
}

// close records the runtime metrics and returns the section's CPU time.
func (l ledger) close(sec section, ads int64) time.Duration {
	cpu := cpuTime() - sec.cpu0
	rt := readRuntime()
	if d := rt.totalCPU - sec.rt0.totalCPU; d > 0 {
		l["runtime.gc_cpu_share"] = (rt.gcCPU - sec.rt0.gcCPU) / d
	}
	if ads > 0 {
		l["runtime.alloc_bytes_per_ad"] = (rt.allocBytes - sec.rt0.allocBytes) / float64(ads)
	}
	return cpu
}

// study is the traced study: the benchmark drives the pipeline itself —
// Crawler.CrawlOne per visit, then the oracle's honeyclient, blacklist and
// AV-scan calls per ad, then analysis — with a span around every call and a
// span per round trip at the memnet seam. Its verdicts must equal an
// untraced batch run's.
func (l ledger) study(o options, cfg core.Config) (int64, int64, []string, error) {
	// An untraced pass warms the process and gives the overhead baseline
	// and the reference the traced pass must reproduce.
	s, err := core.NewStudy(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	base := runBatch(s)
	baseRate := float64(base.res.Scanned) / base.wall.Seconds()

	s, err = core.NewStudy(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	tr := newTracer()
	crawlSeam := &seam{t: tr, capture: newCapture(8)}
	analyzeSeam := &seam{t: tr, capture: newCapture(8)}
	cr := s.StreamCrawler()
	cr.Transport = func() http.RoundTripper { return crawlSeam.wrap(&memnet.Transport{U: s.Universe}) }
	s.Oracle.Honey.Transport = func() http.RoundTripper {
		return analyzeSeam.wrap(&memnet.Transport{U: s.Universe})
	}

	sec := startSection()
	t0 := time.Now()
	outs := tracedCrawl(tr, cr, cr.Visits(s.CrawlSites()), o.workers)
	corp := corpus.New()
	var retries, pageErrors, degraded int64
	for _, out := range outs {
		for _, ha := range out.Ads {
			corp.Add(ha.Ad)
		}
		retries += out.Retries
		if out.PageError {
			pageErrors++
		}
		if out.Degraded {
			degraded++
		}
	}
	res := tracedClassify(tr, s.Oracle, corp, o.workers)
	if err := checkSameVerdicts(base.res, res); err != nil {
		return 0, 0, nil, fmt.Errorf("traced study: %w", err)
	}
	// Analysis reads the incidents, which only the oracle's own Result
	// carries; the verdicts just matched, so it runs on the untraced pass's.
	_, id := tr.start(context.Background(), "analysis", "")
	s.Analyze(base.corp, base.res, base.stats)
	tr.end(id)
	wall := time.Since(t0)
	cpu := l.close(sec, int64(res.Scanned))

	tot := tr.totals()
	get := func(name string) *layerTotals {
		if lt := tot[name]; lt != nil {
			return lt
		}
		return &layerTotals{}
	}
	visits, ads := float64(len(outs)), float64(res.Scanned)
	l["crawler.visits"] = visits
	l["crawler.busy_s"] = get("crawler").busy.Seconds()
	l["crawler.self_s"] = get("crawler").self.Seconds()
	l["honeyclient.ads"] = float64(get("honeyclient").count)
	l["honeyclient.busy_s"] = get("honeyclient").busy.Seconds()
	l["honeyclient.self_s"] = get("honeyclient").self.Seconds()
	l["blacklist.lookups"] = float64(get("blacklist").count)
	l["blacklist.busy_s"] = get("blacklist").busy.Seconds()
	l["avscan.scans"] = float64(get("avscan").count)
	l["avscan.busy_s"] = get("avscan").busy.Seconds()
	l["analysis.analyze_s"] = get("analysis").busy.Seconds()
	l["memnet.crawl_fetches_per_visit"] = float64(crawlSeam.fetches.Load()) / visits
	l["memnet.analyze_fetches_per_ad"] = float64(analyzeSeam.fetches.Load()) / ads
	l["memnet.busy_s"] = get("memnet").busy.Seconds()
	l["memnet.bytes_per_ad"] = float64(crawlSeam.bytes.Load()+analyzeSeam.bytes.Load()) / ads
	l["resilient.retries"] = float64(retries + analyzeSeam.retries.Load())

	l.replay(s.List, crawlSeam.capture, analyzeSeam.capture)
	l["browser.self_s"] = l["crawler.self_s"] + l["honeyclient.self_s"] -
		l["htmlparse.busy_s"] - l["minijs.compile_s"] - l["easylist.busy_s"]

	layers := l["crawler.self_s"] + l["memnet.busy_s"] + l["honeyclient.self_s"] +
		l["blacklist.busy_s"] + l["avscan.busy_s"] + l["analysis.analyze_s"]
	l["ledger.coverage"] = layers / cpu.Seconds()
	l["trace.overhead"] = ads / wall.Seconds() / baseRate

	if err := tr.dump(filepath.Join(o.workDir, "spans-study.tsv")); err != nil {
		return 0, 0, nil, err
	}
	att := int64(visits) + int64(res.Scanned)
	fail := pageErrors + degraded + int64(res.Degraded)
	notes := []string{fmt.Sprintf("traced study: %d visits, %d ads, %d spans, traced pass %.2fs (untraced %.2fs)",
		len(outs), res.Scanned, len(tr.spans), wall.Seconds(), base.wall.Seconds())}
	return att, fail, notes, nil
}

// tracedCrawl runs every visit through CrawlOne on workers goroutines,
// striped like the batch crawl, with one "crawler" span per visit.
func tracedCrawl(tr *tracer, cr *crawler.Crawler, visits []crawler.Visit, workers int) []*crawler.VisitOutcome {
	outs := make([]*crawler.VisitOutcome, len(visits))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(visits); i += workers {
				ctx, id := tr.start(context.Background(), "crawler", visits[i].Key())
				outs[i] = cr.CrawlOne(ctx, visits[i])
				tr.end(id)
			}
		}(w)
	}
	wg.Wait()
	return outs
}

// tracedClassify is the oracle's per-ad composition, called layer by layer:
// the honeyclient report, the blacklist lookup over every contacted host,
// and an AV scan of each download, in the oracle's order of precedence.
func tracedClassify(tr *tracer, o *oracle.Oracle, corp *corpus.Corpus, workers int) *oracle.Result {
	ads := corp.All()
	cats := make([]oracle.Category, len(ads))
	degraded := make([]bool, len(ads))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ads) {
					return
				}
				cats[i], degraded[i] = tracedVerdict(tr, o, ads[i])
			}
		}()
	}
	wg.Wait()
	res := &oracle.Result{ByCategory: map[oracle.Category]int{}, Scanned: len(ads)}
	for i, c := range cats {
		if degraded[i] {
			res.Degraded++
		}
		if c != oracle.CatClean {
			res.ByCategory[c]++
		}
	}
	return res
}

func tracedVerdict(tr *tracer, o *oracle.Oracle, ad *corpus.Ad) (oracle.Category, bool) {
	ctx, id := tr.start(context.Background(), "honeyclient", ad.Hash)
	rep := o.Honey.AnalyzeAdContext(ctx, ad.FrameURL, ad.Day)
	tr.end(id)
	hosts := append(append(make([]string, 0, len(ad.Hosts)+len(rep.Hosts)), ad.Hosts...), rep.Hosts...)
	_, id = tr.start(context.Background(), "blacklist", ad.Hash)
	_, listed := o.Lists.AnyMalicious(hosts)
	tr.end(id)
	switch {
	case listed:
		return oracle.CatBlacklists, rep.Degraded
	case rep.Hijack:
		return oracle.CatSuspRedirect, rep.Degraded
	case rep.NXRedirect || rep.BenignRedirect:
		return oracle.CatHeuristics, rep.Degraded
	}
	cat := oracle.CatClean
	for _, d := range rep.Downloads {
		_, id = tr.start(context.Background(), "avscan", ad.Hash)
		r := o.Scanner.Scan(d.Body)
		tr.end(id)
		switch {
		case !r.Malicious(o.Scanner.Threshold):
		case r.Kind == avscan.KindFlash && cat == oracle.CatClean:
			cat = oracle.CatMaliciousSWF
		case r.Kind != avscan.KindFlash:
			cat = oracle.CatMaliciousExe
		}
	}
	if cat == oracle.CatClean && rep.ModelHit {
		cat = oracle.CatModel
	}
	return cat, rep.Degraded
}

// checkSameVerdicts fails unless two classifications of one corpus agree on
// the ads scanned and the per-category incident counts.
func checkSameVerdicts(want, got *oracle.Result) error {
	if want.Scanned != got.Scanned {
		return fmt.Errorf("%d ads classified, untraced %d", got.Scanned, want.Scanned)
	}
	for _, c := range oracle.Categories() {
		if want.ByCategory[c] != got.ByCategory[c] {
			return fmt.Errorf("category %s: %d incidents, untraced %d", c, got.ByCategory[c], want.ByCategory[c])
		}
	}
	return nil
}

// capture samples the documents and scripts crossing a memnet seam: every
// every-th HTML document and script is kept for replay, the rest counted.
type capture struct {
	every         int64
	docs, scripts atomic.Int64

	mu          sync.Mutex
	keptDocs    []capturedDoc
	keptScripts []string
}

type capturedDoc struct{ url, docHost, body string }

func newCapture(every int64) *capture { return &capture{every: every} }

func (c *capture) observe(t *tracer, req *http.Request, resp *http.Response) *http.Response {
	ct := resp.Header.Get("Content-Type")
	var n int64
	switch {
	case strings.HasPrefix(ct, "text/html"):
		n = c.docs.Add(1)
	case strings.Contains(ct, "javascript"):
		n = c.scripts.Add(1)
	default:
		return resp
	}
	if n%c.every != 0 {
		return resp
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	resp.Body = io.NopCloser(bytes.NewReader(body))
	if err != nil {
		return resp
	}
	docHost := "" // the visit's publisher, for crawl-side documents
	if id, ok := req.Context().Value(spanKey{}).(int32); ok {
		if host, _, isVisit := strings.Cut(t.req(id), "|"); isVisit {
			docHost = host
		}
	}
	c.mu.Lock()
	if strings.HasPrefix(ct, "text/html") {
		c.keptDocs = append(c.keptDocs, capturedDoc{url: req.URL.String(), docHost: docHost, body: string(body)})
	} else {
		c.keptScripts = append(c.keptScripts, string(body))
	}
	c.mu.Unlock()
	return resp
}

// replay times the parse, script-compile and EasyList layers on the
// sampled seam traffic and scales each to the full run: the crawler and
// honeyclient run these layers inside their spans, where the benchmark
// cannot reach them without program changes. The EasyList replay matches
// every sampled crawl-side document but the top-level page, the way the
// crawler matches each frame against its publisher.
func (l ledger) replay(list *easylist.List, caps ...*capture) {
	var docs, sampled int64
	var parse time.Duration
	var sources []string
	var frames []capturedDoc
	for _, c := range caps {
		docs += c.docs.Load()
		sampled += int64(len(c.keptDocs))
		sources = append(sources, c.keptScripts...)
		t0 := time.Now()
		roots := make([]*htmlparse.Node, len(c.keptDocs))
		for i, d := range c.keptDocs {
			roots[i] = htmlparse.Parse(d.body)
		}
		parse += time.Since(t0)
		for i, root := range roots {
			for _, sc := range root.Find("script") {
				if !sc.HasAttr("src") {
					sources = append(sources, sc.InnerText())
				}
			}
			if d := c.keptDocs[i]; d.docHost != "" && !strings.Contains(d.url, "://"+d.docHost+"/") {
				frames = append(frames, d)
			}
		}
	}
	cc := minijs.NewCodeCache(0, nil)
	t0 := time.Now()
	for _, src := range sources {
		cc.Load(context.Background(), src, true)
	}
	compile := time.Since(t0)
	mctx := easylist.NewRequestCtx()
	t0 = time.Now()
	for _, f := range frames {
		list.MatchCtx(mctx, easylist.Request{URL: f.url, Type: easylist.TypeSubdocument, DocHost: f.docHost})
	}
	match := time.Since(t0)
	if sampled == 0 {
		return
	}
	scale := float64(docs) / float64(sampled)
	distinct := map[string]bool{}
	for _, src := range sources {
		distinct[src] = true
	}
	l["htmlparse.docs"] = float64(docs)
	l["htmlparse.busy_s"] = parse.Seconds() * scale
	l["minijs.scripts"] = float64(len(sources)) * scale
	if len(sources) > 0 {
		l["minijs.distinct_ratio"] = float64(len(distinct)) / float64(len(sources))
	}
	l["minijs.compile_s"] = compile.Seconds() * scale
	l["easylist.matches"] = float64(len(frames)) * scale
	l["easylist.busy_s"] = match.Seconds() * scale
}

// stream is the traced stream workload: an untraced and a traced pass of
// the service on the memory journal the untraced workload uses, then a
// timed pass on a journal.OpenFile journal — the madstudy -checkpoint
// configuration — for the file compaction cost.
func (l ledger) stream(o options, cfg core.Config) (int64, int64, []string, error) {
	s, err := newStudy(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	base, err := runStreamService(o, s, memJournal(), stream.ServiceConfig{}, false)
	if err != nil {
		return 0, 0, nil, err
	}
	if s, err = newStudy(cfg); err != nil {
		return 0, 0, nil, err
	}
	r, err := l.tracedService(o, s, attachTelemetry(s), memJournal(), stream.ServiceConfig{})
	if err != nil {
		return 0, 0, nil, err
	}
	l["trace.overhead"] = float64(r.ads()) / r.wall.Seconds() / (float64(base.ads()) / base.wall.Seconds())

	if s, err = newStudy(cfg); err != nil {
		return 0, 0, nil, err
	}
	js, err := fileJournal(o.workDir)
	if err != nil {
		return 0, 0, nil, err
	}
	file, err := runStreamService(o, s, js, stream.ServiceConfig{}, true)
	if err != nil {
		return 0, 0, nil, err
	}
	l["journal.file_append_s"] = time.Duration(file.tap.appendNS).Seconds()
	l["journal.file_checkpoint_s"] = time.Duration(file.tap.checkpointNS).Seconds()
	l["stream.file_ads_per_s"] = float64(file.ads()) / file.wall.Seconds()

	att := int64(r.res.Summary.Visits) + r.ads()
	notes := []string{fmt.Sprintf("traced stream: %d visits; untraced %.2fs, traced %.2fs, file journal %.2fs",
		r.res.Summary.Visits, base.wall.Seconds(), r.wall.Seconds(), file.wall.Seconds())}
	return att, streamFailures(r), notes, nil
}

// attachTelemetry gives the study's crawler and honeyclient a telemetry set
// so the resilience layer's retry and breaker counters can be read.
func attachTelemetry(s *core.Study) *telemetry.Set {
	tel := telemetry.New(s.Cfg.Seed)
	s.Cfg.Telemetry = tel
	s.Oracle.Honey.Tel = tel
	return tel
}

// tracedService runs the stream service with the journal timed at its
// backend and the stages sampled from Service.Status every 20ms.
func (l ledger) tracedService(o options, s *core.Study, tel *telemetry.Set, js journalSpec, sc stream.ServiceConfig) (*streamRun, error) {
	sec := startSection()
	var (
		mu      sync.Mutex
		svcSeen *stream.Service
	)
	stop := make(chan struct{})
	done := make(chan struct{})
	var (
		qs    = samples{}
		start time.Time // when the service was handed over, just before Run
	)
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				mu.Lock()
				svc, begun := svcSeen, start
				mu.Unlock()
				if svc == nil {
					continue
				}
				st := svc.Status(now)
				for _, sg := range st.Stages {
					if sg.Stage == "crawl" || sg.Stage == "analyze" {
						qs.add("stream."+sg.Stage+".queue_mean", float64(sg.Queue))
						qs.add("stream."+sg.Stage+".inflight_mean", float64(sg.Inflight))
					}
				}
				if st.Shed != nil && sc.ServeRate > 0 && st.Phase == stream.PhaseRunning {
					due := now.Sub(begun).Seconds() * sc.ServeRate
					if due < float64(sc.MaxImpressions) {
						qs.add("stream.source_lag_ms", (due-float64(st.Shed.Offered))/sc.ServeRate*1000)
					}
				}
			}
		}
	}()
	o.onService = func(svc *stream.Service) {
		mu.Lock()
		svcSeen, start = svc, time.Now()
		mu.Unlock()
	}
	r, err := runStreamService(o, s, js, sc, true)
	close(stop)
	<-done
	if err != nil {
		return nil, err
	}
	cpu := l.close(sec, r.ads())
	for k, v := range qs {
		l[k] = mean(v)
	}
	t := r.tap
	visits := float64(r.res.Summary.Visits)
	l["journal.appends"] = float64(t.appends)
	l["journal.append_s"] = time.Duration(t.appendNS).Seconds()
	l["journal.bytes_per_visit"] = float64(t.bytes) / visits
	l["journal.checkpoints"] = float64(t.checkpoints)
	l["journal.checkpoint_s"] = time.Duration(t.checkpointNS).Seconds()
	if v, ok := tel.Registry.CounterValue("resilient_events_total", telemetry.L("event", "retry")); ok {
		l["resilient.retries"] = float64(v)
	}
	if v, ok := tel.Registry.CounterValue("resilient_events_total", telemetry.L("event", "breaker_open")); ok {
		l["resilient.circuit_opens"] = float64(v)
	}
	l["ledger.coverage"] = (l["journal.append_s"] + l["journal.checkpoint_s"]) / cpu.Seconds()
	return r, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// serve is the traced serve workload: an untraced and a traced serve run of
// half the time each, the cache counters, and the flow-graph oracle's cost.
func (l ledger) serve(o options, cfg core.Config) (int64, int64, []string, error) {
	half := o.seconds / 2
	n := int(o.serveRate * half.Seconds())
	if n < 1 {
		n = 1
	}
	sc := stream.ServiceConfig{Serve: true, ServeRate: o.serveRate, MaxImpressions: n}
	s, err := core.NewStudy(cfg)
	if err != nil {
		return 0, 0, nil, err
	}
	base, err := runStreamService(o, s, memJournal(), sc, false)
	if err != nil {
		return 0, 0, nil, err
	}
	if s, err = newStudy(cfg); err != nil {
		return 0, 0, nil, err
	}
	r, err := l.tracedService(o, s, attachTelemetry(s), memJournal(), sc)
	if err != nil {
		return 0, 0, nil, err
	}
	perAd := func(r *streamRun) float64 { return r.cpu.Seconds() / float64(r.ads()) }
	l["trace.overhead"] = perAd(base) / perAd(r)
	for _, st := range s.CacheStats() {
		l["cache."+st.Name+".hit_ratio"] = st.HitRatio()
	}
	perAdGraph, err := graphCost(s, cfg, o.workers)
	if err != nil {
		return 0, 0, nil, err
	}
	l["flowgraph.busy_s"] = perAdGraph * float64(r.ads())
	att := r.res.Ops.Shed.Offered + r.ads()
	notes := []string{fmt.Sprintf("traced serve: offered %d, committed %d", r.res.Ops.Shed.Offered, r.res.Ops.Committed)}
	return att, streamFailures(r), notes, nil
}

// graphCost is the flow-graph oracle's cost per ad: honeyclient time with
// the graph oracle on minus off, alternating over the same ads harvested
// from a sample of the crawl schedule.
func graphCost(s *core.Study, cfg core.Config, workers int) (float64, error) {
	cr := crawler.New(s.Universe, s.List, s.Web, s.Cfg.Crawl)
	visits := cr.Visits(s.CrawlSites())
	if len(visits) > 300 {
		visits = visits[:300]
	}
	var ads []*corpus.Ad
	for _, v := range visits {
		for _, ha := range cr.CrawlOne(context.Background(), v).Ads {
			ads = append(ads, ha.Ad)
		}
	}
	if len(ads) == 0 {
		return 0, fmt.Errorf("graph cost: no ads harvested")
	}
	on, off := honeyclient.New(s.Universe, cfg.Seed), honeyclient.New(s.Universe, cfg.Seed)
	on.EnableGraph(flowgraph.DefaultPolicy())
	var tOn, tOff time.Duration
	for _, ad := range ads {
		t0 := time.Now()
		off.AnalyzeAdContext(context.Background(), ad.FrameURL, ad.Day)
		t1 := time.Now()
		on.AnalyzeAdContext(context.Background(), ad.FrameURL, ad.Day)
		tOff += t1.Sub(t0)
		tOn += time.Since(t1)
	}
	return (tOn - tOff).Seconds() / float64(len(ads)), nil
}
