package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"madave/internal/analysis"
	"madave/internal/core"
	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/journal"
	"madave/internal/memnet"
	"madave/internal/oracle"
	"madave/internal/report"
	"madave/internal/resilient"
	"madave/internal/stream"
)

// options is one benchmark invocation. The shape fields default to the
// reference workloads; the smoke test shrinks them.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool

	workers   int     // crawl, oracle and stream workers (nproc)
	sites     int     // crawl sites (reference: 3000)
	refreshes int     // page loads per site (reference: 5)
	serveRate float64 // serve impressions offered per second
	setups    int     // NewStudy calls timed per run
	workDir   string  // journal files and span dumps
	// wrapJournal, when set, sits between the commit tap and the real
	// journal backend; the smoke test uses it to inject a lossy journal.
	wrapJournal func(journal.Backend) journal.Backend
	// onService, when set, sees each stream service before it runs.
	onService func(*stream.Service)
}

// servedWithin is the commit latency a serve impression must meet to count
// as served.
const servedWithin = 250 * time.Millisecond

func defaultOptions() options {
	return options{
		workers:   runtime.NumCPU(),
		sites:     3000,
		refreshes: 5,
		serveRate: 200,
		setups:    30,
		workDir:   filepath.Join(".bench_build", "perfbench"),
	}
}

// studyConfig is the EXPERIMENTS.md reference shape: one day, caches, graph
// oracle and faults off, every pool sized to the machine.
func (o options) studyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.seed
	cfg.CrawlSites = o.sites
	cfg.Crawl.Days = 1
	cfg.Crawl.Refreshes = o.refreshes
	cfg.Crawl.Parallelism = o.workers
	cfg.OracleParallelism = o.workers
	return cfg
}

// serveConfig is the serve workload's study: caches and the graph oracle on,
// and a seeded fault profile with stalls and injected latency removed and
// microsecond retry backoff, so faults cost CPU rather than sleep.
func (o options) serveConfig() core.Config {
	cfg := o.studyConfig()
	cfg.Cache.Enabled = true
	cfg.GraphOracle = true
	prof := memnet.UniformProfile(0.10)
	prof.StallRate, prof.LatencyRate = 0, 0
	cfg.Chaos = &prof
	cfg.Crawl.VisitTimeout = -1
	cfg.Crawl.Retry = resilient.Policy{
		MaxAttempts:    3,
		BaseDelay:      time.Microsecond,
		MaxDelay:       20 * time.Microsecond,
		AttemptTimeout: 250 * time.Millisecond,
	}
	cfg.AnalysisRetry = cfg.Crawl.Retry
	return cfg
}

// outcome is what a workload run measured: per-repetition samples of every
// end-to-end metric, and the failure accounting over all repetitions.
type outcome struct {
	reps      samples
	setups    []float64
	attempted int64
	failed    int64
	notes     []string // human-readable lines printed before the result
	// paced marks a workload whose offered rate fixes its throughput and
	// leaves the CPUs mostly idle. Its timed metrics are not scaled to the
	// reference machine speed: at 10% load they follow wake-up latency,
	// which the calibration job does not see, and scaling them widened the
	// spread of commit_p50_ms over ten runs from 0.08 to 0.13.
	paced bool
	// speeds are machineSpeed readings: one after the warm-up and set-up,
	// then one after each timed repetition.
	speeds []float64
}

// markSpeed takes a machine-speed reading.
func (out *outcome) markSpeed(o options) {
	out.speeds = append(out.speeds, machineSpeed(o.workers, speedWindow))
}

// scaledMedians reduces every metric to the median of its repetitions,
// after scaling each repetition's timed metrics to referenceSpeed by the
// mean of the readings taken just before and after it (not on a paced
// workload). setup_s is scaled by the reading taken right after the set-ups,
// which tracks it: over ten study runs the spread of the raw median set-up
// time was 0.49, 0.21 scaled by that reading and 0.45 by the run's median.
func (out *outcome) scaledMedians() map[string]float64 {
	scaled := samples{}
	for k, vs := range out.reps {
		for i, v := range vs {
			f := (out.speeds[i] + out.speeds[i+1]) / 2 / referenceSpeed
			switch {
			case out.paced:
			case k == "cpu_s_per_kad" || k == "commit_p50_ms" || k == "commit_p99_ms":
				v *= f
			case k == "ads_per_s":
				v /= f
			}
			scaled.add(k, v)
		}
	}
	values := scaled.medians()
	values["setup_s"] = median(out.setups) * out.speeds[0] / referenceSpeed
	return values
}

func newOutcome() *outcome { return &outcome{reps: samples{}} }

func (out *outcome) notef(format string, args ...any) {
	out.notes = append(out.notes, fmt.Sprintf(format, args...))
}

// newStudy builds a study, untimed.
func newStudy(cfg core.Config) (*core.Study, error) {
	s, err := core.NewStudy(cfg)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	return s, nil
}

// timeSetups measures set-up in a phase of its own: after a full collection
// and one untimed warm-up, o.setups consecutive NewStudy calls are timed.
// It then takes the run's first machine-speed reading and returns the last
// study.
func (out *outcome) timeSetups(o options, cfg core.Config) (*core.Study, error) {
	runtime.GC()
	s, err := newStudy(cfg)
	for i := 0; i < o.setups && err == nil; i++ {
		t0 := time.Now()
		s, err = newStudy(cfg)
		out.setups = append(out.setups, time.Since(t0).Seconds())
	}
	out.markSpeed(o)
	return s, err
}

// batchRun is one crawl → classify → analyze pass.
type batchRun struct {
	study  *core.Study
	corp   *corpus.Corpus
	stats  *crawler.Stats
	res    *oracle.Result
	report *analysis.Report
	wall   time.Duration
	cpu    time.Duration
}

func runBatch(s *core.Study) *batchRun {
	c0, t0 := cpuTime(), time.Now()
	corp, st := s.Crawl()
	res := s.Classify(corp)
	rep := s.Analyze(corp, res, st)
	return &batchRun{study: s, corp: corp, stats: st, res: res, report: rep,
		wall: time.Since(t0), cpu: cpuTime() - c0}
}

// failures counts a batch run's failed operations: failed page loads,
// degraded pages, and degraded oracle verdicts.
func (b *batchRun) failures() int64 {
	return b.stats.PageErrors + b.stats.DegradedPages + int64(b.res.Degraded)
}

// attempts counts a batch run's operations: page loads and classifications.
func (b *batchRun) attempts() int64 { return b.stats.PagesVisited + int64(b.res.Scanned) }

// digest fingerprints the rendered report and which paper checks pass.
func (b *batchRun) digest() string {
	h := sha256.New()
	h.Write([]byte(b.report.RenderText()))
	for _, c := range report.PaperChecks(b.report) {
		fmt.Fprintf(h, "%s=%v\n", c.Claim, c.Pass)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// checkPaper fails unless every paper-shape check passes.
func (b *batchRun) checkPaper() error {
	for _, c := range report.PaperChecks(b.report) {
		if !c.Pass {
			return fmt.Errorf("paper check failed at seed %d: %s (paper %s, measured %s)",
				b.study.Cfg.Seed, c.Claim, c.Paper, c.Measured)
		}
	}
	return nil
}

// addBatchSample records one batch repetition. In batch every visit is due
// at the start and its result is committed when Analyze returns.
func (out *outcome) addBatchSample(b *batchRun) {
	ads := float64(b.res.Scanned)
	ms := float64(b.wall) / float64(time.Millisecond)
	out.reps.add("ads_per_s", ads/b.wall.Seconds())
	out.reps.add("cpu_s_per_kad", b.cpu.Seconds()/ads*1000)
	out.reps.add("cores", b.cpu.Seconds()/b.wall.Seconds())
	out.reps.add("commit_p50_ms", ms)
	out.reps.add("commit_p99_ms", ms)
	visits := float64(b.stats.PagesVisited)
	out.reps.add("served_ratio", (visits-float64(b.stats.PageErrors))/visits)
	out.attempted += b.attempts()
	out.failed += b.failures()
}

// referenceSeed is the EXPERIMENTS.md reference run's seed. The paper's
// shapes are claims about that study; other seeds of the same shape can
// miss one (seeds 15, 17, 28, 32 and 33 have no network above a third
// malicious traffic), so every check must pass there, and elsewhere the
// report and its check outcomes must repeat exactly.
const referenceSeed = 1

// runStudy is the study workload: repeated batch studies of one seed,
// after an untimed reference-seed study whose paper checks must all pass.
func runStudy(o options) (*outcome, error) {
	out := newOutcome()
	ref := o
	ref.seed = referenceSeed
	s, err := newStudy(ref.studyConfig())
	if err != nil {
		return nil, err
	}
	if err := runBatch(s).checkPaper(); err != nil {
		return nil, err
	}
	cfg := o.studyConfig()
	if _, err := out.timeSetups(o, cfg); err != nil {
		return nil, err
	}
	var digest string
	deadline := time.Now().Add(o.seconds)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		s, err := newStudy(cfg)
		if err != nil {
			return nil, err
		}
		b := runBatch(s)
		if d := b.digest(); digest == "" {
			digest = d
		} else if d != digest {
			return nil, fmt.Errorf("report digest changed between repetitions: %s then %s", digest, d)
		}
		out.addBatchSample(b)
		out.reps.add("heap_retained_mb", retainedHeapMB())
		runtime.KeepAlive(b)
		out.markSpeed(o)
	}
	out.notef("study: report digest %s", digest)
	return out, nil
}

// streamRun is one pass of the stream service.
type streamRun struct {
	svc   *stream.Service
	res   *stream.RunResult
	tap   *commitTap
	start time.Time
	wall  time.Duration
	cpu   time.Duration
}

// ads counts the classifications a stream run committed.
func (r *streamRun) ads() int64 { return int64(r.res.Summary.AdFrames) }

// journalSpec opens the backend one stream run journals to, and reopens it
// after the run for the recovery check.
type journalSpec struct {
	open   func() (journal.Backend, error)
	reopen func(journal.Backend) (journal.Backend, error)
	remove func()
}

// fileJournal is a journal.OpenFile journal in a fresh directory under dir.
func fileJournal(dir string) (journalSpec, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return journalSpec{}, err
	}
	tmp, err := os.MkdirTemp(dir, "journal-")
	if err != nil {
		return journalSpec{}, err
	}
	path := filepath.Join(tmp, "stream.wal")
	return journalSpec{
		open: func() (journal.Backend, error) { return journal.OpenFile(path) },
		reopen: func(b journal.Backend) (journal.Backend, error) {
			if err := b.Close(); err != nil {
				return nil, err
			}
			return journal.OpenFile(path)
		},
		remove: func() { os.RemoveAll(tmp) },
	}, nil
}

// memJournal is an in-memory journal; reopening replays the same store.
func memJournal() journalSpec {
	return journalSpec{
		open:   func() (journal.Backend, error) { return journal.NewMem(), nil },
		reopen: func(b journal.Backend) (journal.Backend, error) { return b, nil },
		remove: func() {},
	}
}

// runStreamService runs the stream service once over s and checks that the
// journal holds exactly what the run committed.
func runStreamService(o options, s *core.Study, js journalSpec, sc stream.ServiceConfig, timed bool) (*streamRun, error) {
	defer js.remove()
	backend, err := js.open()
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var inner journal.Backend = backend
	if o.wrapJournal != nil {
		inner = o.wrapJournal(backend)
	}
	tap := newCommitTap(inner, timed)
	sc.Journal = tap
	sc.CrawlWorkers, sc.AnalyzeWorkers = o.workers, o.workers
	svc, err := stream.NewService(s, sc)
	if err != nil {
		backend.Close()
		return nil, fmt.Errorf("stream service: %w", err)
	}
	if o.onService != nil {
		o.onService(svc)
	}
	c0, t0 := cpuTime(), time.Now()
	res, err := svc.Run(context.Background())
	r := &streamRun{svc: svc, res: res, tap: tap, start: t0, wall: time.Since(t0), cpu: cpuTime() - c0}
	if err != nil {
		backend.Close()
		return nil, fmt.Errorf("stream run: %w", err)
	}
	if res.Ops.Aborted != 0 {
		backend.Close()
		return nil, fmt.Errorf("stream run aborted %d visits", res.Ops.Aborted)
	}
	// Recovery check: a service rebuilt from the journal alone must recover
	// every committed visit and the same summary.
	again, err := js.reopen(backend)
	if err != nil {
		return nil, fmt.Errorf("journal reopen: %w", err)
	}
	defer again.Close()
	rec, err := stream.NewService(s, stream.ServiceConfig{Journal: again, CheckpointEvery: -1})
	if err != nil {
		return nil, fmt.Errorf("journal recovery: %w", err)
	}
	if rec.Recovered() != res.Ops.Committed {
		return nil, fmt.Errorf("journal holds %d visits, the run committed %d", rec.Recovered(), res.Ops.Committed)
	}
	if got, want := rec.Summary().JSON(), res.Summary.JSON(); string(got) != string(want) {
		return nil, fmt.Errorf("journal recovery summary differs from the run's")
	}
	// Every committed seq is unique and one the source offered.
	commits := tap.snapshot()
	if int64(len(commits)) != res.Ops.Committed {
		return nil, fmt.Errorf("saw %d commits, the service reports %d", len(commits), res.Ops.Committed)
	}
	seen := make(map[int64]bool, len(commits))
	for _, c := range commits {
		if seen[c.seq] {
			return nil, fmt.Errorf("seq %d committed twice", c.seq)
		}
		seen[c.seq] = true
	}
	return r, nil
}

// batchReference is what a batch study of the same seed must agree with.
type batchReference struct {
	visits, adFrames, uniqueAds int
	categories                  map[string]int
}

func referenceOf(b *batchRun) batchReference {
	ref := batchReference{
		visits:     int(b.stats.PagesVisited),
		adFrames:   int(b.stats.AdFrames),
		uniqueAds:  b.corp.Len(),
		categories: map[string]int{},
	}
	for cat, n := range b.res.ByCategory {
		ref.categories[string(cat)] = n
	}
	return ref
}

// checkAgainst fails unless a stream summary matches the batch reference on
// visits, ad frames, unique ads and per-category incidents.
func (ref batchReference) checkAgainst(sum stream.StreamSummary) error {
	if sum.Visits != ref.visits || sum.AdFrames != ref.adFrames || sum.UniqueAds != ref.uniqueAds {
		return fmt.Errorf("stream %d visits / %d ad frames / %d unique ads, batch %d / %d / %d",
			sum.Visits, sum.AdFrames, sum.UniqueAds, ref.visits, ref.adFrames, ref.uniqueAds)
	}
	got := map[string]int{}
	for _, kv := range sum.Categories {
		if kv.Key != string(oracle.CatClean) {
			got[kv.Key] = kv.Count
		}
	}
	for cat, n := range ref.categories {
		if got[cat] != n {
			return fmt.Errorf("category %s: stream %d, batch %d", cat, got[cat], n)
		}
	}
	for cat, n := range got {
		if ref.categories[cat] != n {
			return fmt.Errorf("category %s: stream %d, batch %d", cat, n, ref.categories[cat])
		}
	}
	return nil
}

// streamFailures counts a stream run's failed operations: failed and
// degraded page loads, aborted visits, and shed impressions.
func streamFailures(r *streamRun) int64 {
	sum := r.res.Summary
	return int64(sum.PageErrors+sum.DegradedPages) + r.res.Ops.Aborted + r.res.Ops.Shed.Shed
}

// runStreamWorkload is the stream workload: the study's visit schedule
// through the stream service, journaled in memory at the default checkpoint
// cadence. (A file journal's compaction fsync made run-to-run spread exceed
// the bounds; the traced run reports its cost.)
func runStreamWorkload(o options) (*outcome, error) {
	out := newOutcome()
	cfg := o.studyConfig()
	s, err := newStudy(cfg)
	if err != nil {
		return nil, err
	}
	ref := referenceOf(runBatch(s))
	if _, err := out.timeSetups(o, cfg); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(o.seconds)
	for rep := 0; rep == 0 || time.Now().Before(deadline); rep++ {
		s, err := newStudy(cfg)
		if err != nil {
			return nil, err
		}
		r, err := runStreamService(o, s, memJournal(), stream.ServiceConfig{}, false)
		if err != nil {
			return nil, err
		}
		if err := ref.checkAgainst(r.res.Summary); err != nil {
			return nil, err
		}
		visits := int64(r.res.Summary.Visits)
		// Every scheduled visit is due at the start of the run.
		lat := make([]float64, 0, visits)
		for _, c := range r.tap.snapshot() {
			lat = append(lat, float64(c.at.Sub(r.start))/float64(time.Millisecond))
		}
		ads := float64(r.ads())
		out.reps.add("ads_per_s", ads/r.wall.Seconds())
		out.reps.add("cpu_s_per_kad", r.cpu.Seconds()/ads*1000)
		out.reps.add("cores", r.cpu.Seconds()/r.wall.Seconds())
		out.reps.add("commit_p50_ms", percentile(lat, 0.50))
		out.reps.add("commit_p99_ms", percentile(lat, 0.99))
		out.reps.add("served_ratio", float64(visits-int64(r.res.Summary.PageErrors))/float64(visits))
		att := visits + r.ads()
		out.reps.add("heap_retained_mb", retainedHeapMB())
		runtime.KeepAlive(r)
		runtime.KeepAlive(s)
		out.attempted += att
		out.failed += streamFailures(r)
		out.markSpeed(o)
	}
	return out, nil
}

// runServe is the serve workload: an open-loop impression stream at a
// fixed rate. Commit latency runs from the start of an impression's crawl
// to the Append of its record; an impression is served if it commits
// within the latency limit without a page error. Shed impressions are
// offered but never committed, so they count as missed.
//
// Latency is not taken from the due time ((seq+1)/rate after the start)
// because the service's ticker drops a tick whenever its source goroutine
// is late by more than one interval, and each dropped tick delays every
// later impression by one interval for the rest of the run: one or two
// drops per run made the due-time median bimodal across runs. The traced
// run reports that lag as stream.source_lag_ms.
func runServe(o options) (*outcome, error) {
	out := newOutcome()
	out.paced = true
	cfg := o.serveConfig()
	s, err := out.timeSetups(o, cfg)
	if err != nil {
		return nil, err
	}
	n := int(o.serveRate * o.seconds.Seconds())
	if n < 1 {
		n = 1
	}
	starts := &visitStarts{}
	starts.install(s)
	r, err := runStreamService(o, s, memJournal(), stream.ServiceConfig{
		Serve: true, ServeRate: o.serveRate, MaxImpressions: n,
	}, false)
	if err != nil {
		return nil, err
	}
	sh := r.res.Ops.Shed
	if sh.Offered != sh.Delivered+sh.Shed || sh.Buffered != 0 {
		return nil, fmt.Errorf("admission does not conserve: offered %d, delivered %d, shed %d, buffered %d",
			sh.Offered, sh.Delivered, sh.Shed, sh.Buffered)
	}
	if r.res.Ops.Committed+r.res.Ops.Aborted != sh.Delivered {
		return nil, fmt.Errorf("delivered %d impressions, committed %d and aborted %d",
			sh.Delivered, r.res.Ops.Committed, r.res.Ops.Aborted)
	}
	lat := make([]float64, 0, sh.Offered)
	served := 0
	for _, c := range r.tap.snapshot() {
		if c.seq >= sh.Offered {
			return nil, fmt.Errorf("committed seq %d was never offered (offered %d)", c.seq, sh.Offered)
		}
		begun, ok := starts.get(c.seq)
		if !ok {
			continue // every attempt at its page faulted: errored, so missed
		}
		d := c.at.Sub(begun)
		if !c.errored && d <= servedWithin {
			served++
		}
		lat = append(lat, float64(d)/float64(time.Millisecond))
	}
	ads := float64(r.ads())
	att := sh.Offered + r.ads()
	out.reps.add("ads_per_s", ads/r.wall.Seconds())
	out.reps.add("cpu_s_per_kad", r.cpu.Seconds()/ads*1000)
	out.reps.add("commit_p50_ms", percentile(lat, 0.50))
	out.reps.add("commit_p99_ms", percentile(lat, 0.99))
	out.reps.add("served_ratio", float64(served)/float64(sh.Offered))
	out.reps.add("heap_retained_mb", retainedHeapMB())
	runtime.KeepAlive(r)
	runtime.KeepAlive(s)
	out.markSpeed(o)
	out.attempted += att
	out.failed += streamFailures(r)
	out.notef("serve: offered %d, delivered %d, shed %d, committed %d, %d latency samples",
		sh.Offered, sh.Delivered, sh.Shed, r.res.Ops.Committed, len(lat))
	return out, nil
}

// visitStarts records when each serve impression's crawl began: the moment
// its publisher page request ("?v=d1r<seq>") first reached the publisher's
// handler in the study's universe.
type visitStarts struct {
	mu sync.Mutex
	at map[int64]time.Time
}

// install wraps the handler of every publisher the serve source samples.
func (v *visitStarts) install(s *core.Study) {
	v.at = map[int64]time.Time{}
	for _, site := range s.CrawlSites() {
		next := s.Universe.Lookup(site.Host)
		s.Universe.Handle(site.Host, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			v.record(r.URL.RawQuery)
			next.ServeHTTP(w, r)
		}))
	}
}

func (v *visitStarts) record(query string) {
	now := time.Now()
	_, after, ok := strings.Cut(query, "v=d1r")
	if !ok {
		return
	}
	seq, err := strconv.ParseInt(after, 10, 64)
	if err != nil {
		return
	}
	v.mu.Lock()
	if _, seen := v.at[seq]; !seen {
		v.at[seq] = now
	}
	v.mu.Unlock()
}

func (v *visitStarts) get(seq int64) (time.Time, bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	t, ok := v.at[seq]
	return t, ok
}
