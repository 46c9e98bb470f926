package stream

import (
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"madave/internal/core"
	"madave/internal/crawler"
	"madave/internal/journal"
	"madave/internal/stats"
	"madave/internal/telemetry"
	"madave/internal/webgen"
)

// ServiceConfig parameterizes the streaming study service.
type ServiceConfig struct {
	// Stream configures the supervised stage runtime.
	Stream Config
	// Journal is the crash-safety backend (required). Appends to it are the
	// commit points; its replay is the recovery path.
	Journal journal.Backend
	// CheckpointEvery compacts the journal to one checkpoint record after
	// that many commits (0 = DefaultCheckpointEvery, negative = never).
	// Compaction requires the backend to implement journal.Compactor;
	// otherwise checkpoints are skipped silently-but-countedly
	// (stream_checkpoint_skipped_total).
	CheckpointEvery int
	// CrawlWorkers and AnalyzeWorkers size the two processing pools
	// (0 = the study's crawl parallelism / oracle parallelism).
	CrawlWorkers   int
	AnalyzeWorkers int
	// Serve switches from the finite deterministic visit schedule to an
	// open-ended impression stream: sites are Zipf-sampled by rank and
	// admitted through the priority shedder, modelling a service that must
	// survive overload rather than a batch job that must finish.
	Serve bool
	// MaxImpressions bounds the serve-mode stream (0 = DefaultMaxImpressions).
	MaxImpressions int
	// ShedCapacity is the serve-mode admission buffer (0 = 2× queue size).
	ShedCapacity int
	// ServeRate paces the serve-mode impression source to roughly this many
	// offers per second (0 = as fast as the source loop runs). Serve mode is
	// inherently timing-dependent — shedding depends on how fast the pipeline
	// drains — so pacing the source is an operational knob, not a determinism
	// hazard; the finite schedule mode ignores it.
	ServeRate float64
}

// Defaults for ServiceConfig zero fields.
const (
	DefaultCheckpointEvery = 256
	DefaultMaxImpressions  = 4096
)

// Ops are the operational (non-deterministic) counters of one Run: they
// describe how the service behaved — restarts, sheds, recovery — and are
// deliberately excluded from the deterministic StreamSummary.
type Ops struct {
	Recovered   int64     // records replayed from the journal before this run
	Committed   int64     // records appended by this run
	Aborted     int64     // outcomes cut off mid-flight (never journaled)
	Checkpoints int64     // journal compactions performed
	Restarts    int64     // supervised worker restarts (panics + wedges)
	Shed        ShedStats // admission accounting (serve mode)
}

// RunResult bundles one Run's deterministic summary with its operational
// story. Graph is the flow-graph oracle's separate aggregate (all zero when
// the graph oracle is off); keeping it beside Summary preserves the
// canonical StreamSummary bytes graph-on or graph-off.
type RunResult struct {
	Summary StreamSummary
	Graph   GraphSummary
	Ops     Ops
}

// Service lifecycle phases, as exposed to the ops plane. The readiness and
// health predicates derive from these: a service is ready while replay is
// complete and the stream is (or is about to be) running, and unhealthy only
// once it has failed (restart-budget exhaustion, journal failure).
const (
	PhaseInit      = "init"
	PhaseReplaying = "replaying"
	PhaseReady     = "ready"
	PhaseRunning   = "running"
	PhaseStopped   = "stopped"
	PhaseFailed    = "failed"
)

// Service is the crash-safe streaming study: crawl → classify → commit over
// supervised stages, journaling every completed visit so a killed process
// resumes mid-stream with byte-identical final statistics.
type Service struct {
	study *core.Study
	cfg   ServiceConfig
	cr    *crawler.Crawler
	agg   *Agg
	log   *journal.Log
	tel   *telemetry.Set

	recovered int64

	phase atomic.Value // string, one of the Phase* constants

	// Live run state the ops plane samples; nil outside Run.
	liveMu sync.Mutex
	pipe   *Pipeline
	shed   *Shedder[seqVisit]
}

func (s *Service) setPhase(ph string) { s.phase.Store(ph) }

// Phase returns the service's current lifecycle phase.
func (s *Service) Phase() string {
	if ph, ok := s.phase.Load().(string); ok {
		return ph
	}
	return PhaseInit
}

// Ready reports whether the service can do useful work: journal replay is
// complete and the stream is running (or built and about to run). This is
// the /readyz predicate.
func (s *Service) Ready() bool {
	ph := s.Phase()
	return ph == PhaseReady || ph == PhaseRunning
}

// Healthy reports whether the service has not failed. A stopped service is
// still healthy (it finished its work); a failed one — restart budget
// exhausted, journal unable to persist — is not. This is the /healthz
// predicate.
func (s *Service) Healthy() bool { return s.Phase() != PhaseFailed }

// ServiceStatus is the ops plane's sampled view of the whole service:
// lifecycle phase, commit progress, per-stage watermarks, admission
// accounting, and the running per-network malvertising table. Sampling it
// never perturbs the stream.
type ServiceStatus struct {
	Phase       string        `json:"phase"`
	Recovered   int64         `json:"recovered"`
	Committed   int64         `json:"committed"`
	Aborted     int64         `json:"aborted"`
	Checkpoints int64         `json:"checkpoints"`
	Stages      []StageStatus `json:"stages,omitempty"`
	Shed        *ShedStats    `json:"shed,omitempty"`
	MalNets     []stats.KV    `json:"mal_networks,omitempty"`
}

// Status samples the live service state at now.
func (s *Service) Status(now time.Time) ServiceStatus {
	st := ServiceStatus{
		Phase:     s.Phase(),
		Recovered: s.recovered,
		MalNets:   s.agg.MalNetworks(),
	}
	if v, ok := s.tel.Registry.CounterValue("stream_committed_total"); ok {
		st.Committed = v
	}
	if v, ok := s.tel.Registry.CounterValue("stream_aborted_total"); ok {
		st.Aborted = v
	}
	if v, ok := s.tel.Registry.CounterValue("stream_checkpoints_total"); ok {
		st.Checkpoints = v
	}
	s.liveMu.Lock()
	pipe, shed := s.pipe, s.shed
	s.liveMu.Unlock()
	if pipe != nil {
		st.Stages = pipe.StageStatuses(now)
	}
	if shed != nil {
		sh := shed.Stats()
		st.Shed = &sh
	}
	return st
}

// seqVisit is a scheduled visit with its journal sequence number.
type seqVisit struct {
	seq int64
	v   crawler.Visit
}

// visitOut is the crawl stage's output: the hermetic outcome, or an abort
// marker when the worker was cut off.
type visitOut struct {
	seq     int64
	key     string
	out     *crawler.VisitOutcome
	aborted bool
	cause   string
}

// NewService assembles the streaming service around an existing study and
// recovers whatever the journal already holds: checkpoint state is restored,
// tail records are re-folded, and completed visits will not be re-executed.
func NewService(study *core.Study, cfg ServiceConfig) (*Service, error) {
	if cfg.Journal == nil {
		return nil, fmt.Errorf("stream: ServiceConfig.Journal is required")
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = DefaultCheckpointEvery
	}
	if cfg.CrawlWorkers <= 0 {
		cfg.CrawlWorkers = study.Cfg.Crawl.Parallelism
		if cfg.CrawlWorkers <= 0 {
			cfg.CrawlWorkers = 4
		}
	}
	if cfg.AnalyzeWorkers <= 0 {
		cfg.AnalyzeWorkers = study.Cfg.OracleParallelism
		if cfg.AnalyzeWorkers <= 0 {
			cfg.AnalyzeWorkers = 4
		}
	}
	if cfg.MaxImpressions <= 0 {
		cfg.MaxImpressions = DefaultMaxImpressions
	}
	tel := cfg.Stream.Tel
	if tel == nil {
		tel = study.Cfg.Telemetry
		if tel == nil {
			tel = telemetry.New(study.Cfg.Seed)
		}
		cfg.Stream.Tel = tel
	}
	s := &Service{
		study: study,
		cfg:   cfg,
		cr:    study.StreamCrawler(),
		agg:   NewAgg(),
		log:   journal.NewLog(cfg.Journal),
		tel:   tel,
	}
	s.setPhase(PhaseInit)
	if err := s.recover(); err != nil {
		s.setPhase(PhaseFailed)
		return nil, err
	}
	s.setPhase(PhaseReady)
	return s, nil
}

// recover replays the journal into the aggregate.
func (s *Service) recover() error {
	s.setPhase(PhaseReplaying)
	err := journal.Replay(s.cfg.Journal, func(r journal.Record) error {
		switch r.Kind {
		case CheckpointKind:
			var st aggState
			if err := json.Unmarshal(r.Payload, &st); err != nil {
				return fmt.Errorf("stream: checkpoint payload: %w", err)
			}
			if err := s.agg.restore(st); err != nil {
				return err
			}
			s.recovered = int64(s.agg.DoneCount())
		case RecordKind:
			var rec VisitRecord
			if err := json.Unmarshal(r.Payload, &rec); err != nil {
				return fmt.Errorf("stream: visit payload: %w", err)
			}
			if rec.Seq < 0 {
				return fmt.Errorf("stream: visit record has negative seq %d", rec.Seq)
			}
			if s.agg.Fold(rec) {
				s.recovered++
			}
		default:
			return fmt.Errorf("stream: unknown journal record kind %q", r.Kind)
		}
		return nil
	})
	if err != nil {
		s.tel.Event(telemetry.LevelError, telemetry.EventJournalFailure, "commit",
			"journal replay failed", "err", err.Error())
		return err
	}
	s.tel.Counter("stream_recovered_total").Add(s.recovered)
	s.tel.Event(telemetry.LevelInfo, telemetry.EventJournalRecovery, "commit",
		"journal replay complete",
		"recovered", strconv.FormatInt(s.recovered, 10))
	return nil
}

// Recovered returns how many visit records were restored from the journal
// when the service was built.
func (s *Service) Recovered() int64 { return s.recovered }

// Summary returns the deterministic summary of everything committed so far.
func (s *Service) Summary() StreamSummary { return s.agg.Summary() }

// GraphSummary returns the flow-graph aggregate committed so far; zero when
// the graph oracle is off.
func (s *Service) GraphSummary() GraphSummary { return s.agg.GraphSummary() }

// Run executes the stream until the schedule is exhausted, the run context
// is cancelled (graceful drain), or the pipeline fails (journal crash,
// restart budget). A drained or completed run returns its results with a nil
// error; rerunning a recovered service continues where the journal left off.
func (s *Service) Run(ctx context.Context) (*RunResult, error) {
	p := NewPipeline(ctx, s.cfg.Stream)
	visitCh := Chan[seqVisit](p)
	outCh := Chan[visitOut](p)
	recCh := Chan[VisitRecord](p)

	var shed *Shedder[seqVisit]
	if s.cfg.Serve {
		shed = s.startServeSource(p, visitCh)
	} else {
		s.startScheduleSource(p, visitCh)
	}

	s.liveMu.Lock()
	s.pipe, s.shed = p, shed
	s.liveMu.Unlock()
	s.setPhase(PhaseRunning)
	mode := "schedule"
	if s.cfg.Serve {
		mode = "serve"
	}
	s.tel.Event(telemetry.LevelInfo, telemetry.EventRunStarted, "", "stream run started",
		"mode", mode,
		"recovered", strconv.FormatInt(s.recovered, 10))

	RunStage(p, "crawl", s.cfg.CrawlWorkers, visitCh, outCh,
		s.crawlWork, func(sv seqVisit, cause error) visitOut {
			return visitOut{seq: sv.seq, key: sv.v.Key(), aborted: true, cause: cause.Error()}
		})
	RunStage(p, "analyze", s.cfg.AnalyzeWorkers, outCh, recCh,
		s.analyzeWork, func(vo visitOut, cause error) VisitRecord {
			return VisitRecord{Seq: vo.seq, Key: vo.key, Aborted: true, AbortCause: cause.Error()}
		})

	ops := &Ops{Recovered: s.recovered}
	commitDone := make(chan struct{})
	go s.commitLoop(p, recCh, ops, commitDone)

	err := p.Wait()
	<-commitDone
	if shed != nil {
		ops.Shed = shed.Stats()
	}
	ops.Restarts = s.tel.Counter("stream_restarts_total").Value()
	res := &RunResult{Summary: s.agg.Summary(), Graph: s.agg.GraphSummary(), Ops: *ops}
	if err != nil {
		s.setPhase(PhaseFailed)
		s.tel.Event(telemetry.LevelError, telemetry.EventRunFinished, "", "stream run failed",
			"err", err.Error(),
			"committed", strconv.FormatInt(ops.Committed, 10))
		return res, err
	}
	s.setPhase(PhaseStopped)
	s.tel.Event(telemetry.LevelInfo, telemetry.EventRunFinished, "", "stream run finished",
		"committed", strconv.FormatInt(ops.Committed, 10),
		"aborted", strconv.FormatInt(ops.Aborted, 10))
	return res, nil
}

// startScheduleSource feeds the finite deterministic visit schedule,
// skipping sequence numbers the journal already proved done.
func (s *Service) startScheduleSource(p *Pipeline, visitCh chan<- seqVisit) {
	visits := s.cr.Visits(s.study.CrawlSites())
	s.tel.Gauge("stream_visits_planned").Set(int64(len(visits)))
	go func() {
		defer close(visitCh)
		for i, v := range visits {
			seq := int64(i)
			if s.agg.Done(seq) {
				continue
			}
			select {
			case visitCh <- seqVisit{seq: seq, v: v}:
			case <-p.Draining():
				return
			case <-p.WorkContext().Done():
				return
			}
		}
	}()
}

// startServeSource runs the open-ended impression stream: Zipf-sampled
// sites offered through the priority shedder, so overload sheds the least
// important impressions instead of stalling or dying.
func (s *Service) startServeSource(p *Pipeline, visitCh chan<- seqVisit) *Shedder[seqVisit] {
	capacity := s.cfg.ShedCapacity
	if capacity <= 0 {
		capacity = 2 * s.cfg.Stream.withDefaults().Queue
	}
	shed := NewShedder[seqVisit](capacity, s.tel)
	go shed.Pump(p, visitCh)

	sites := s.study.CrawlSites()
	totalSites := len(s.study.Web.Sites)
	zipf := stats.NewZipf(len(sites), 1.1)
	rng := stats.NewRNG(s.study.Cfg.Seed).Fork("stream-serve")
	var pace *time.Ticker
	if s.cfg.ServeRate > 0 {
		interval := time.Duration(float64(time.Second) / s.cfg.ServeRate)
		if interval <= 0 {
			interval = time.Nanosecond
		}
		pace = time.NewTicker(interval)
	}
	go func() {
		defer shed.Close()
		if pace != nil {
			defer pace.Stop()
		}
		for i := 0; i < s.cfg.MaxImpressions; i++ {
			if pace != nil {
				select {
				case <-pace.C:
				case <-p.Draining():
					return
				case <-p.WorkContext().Done():
					return
				}
			}
			select {
			case <-p.Draining():
				return
			case <-p.WorkContext().Done():
				return
			default:
			}
			site := sites[zipf.Sample(rng)]
			v := crawler.Visit{Site: site, Day: 1, Refresh: i}
			shed.Offer(seqVisit{seq: int64(i), v: v}, sitePriority(site, totalSites))
		}
	}()
	return shed
}

// sitePriority maps the paper's rank clusters onto shed bands: top-ranked
// publishers are the impressions the study can least afford to lose.
func sitePriority(site *webgen.Site, totalSites int) int {
	switch {
	case site.Rank <= 10_000:
		return PriorityHigh
	case totalSites > 0 && site.Rank > totalSites-10_000:
		return PriorityLow
	default:
		return PriorityMid
	}
}

// crawlWork executes one hermetic visit. An item cut off by cancellation is
// marked aborted rather than committed with a cancellation-skewed outcome:
// determinism demands that only fully-executed visits reach the journal.
func (s *Service) crawlWork(ctx context.Context, sv seqVisit) visitOut {
	if ctx.Err() != nil {
		return visitOut{seq: sv.seq, key: sv.v.Key(), aborted: true, cause: ctx.Err().Error()}
	}
	out := s.cr.CrawlOne(ctx, sv.v)
	if ctx.Err() != nil {
		return visitOut{seq: sv.seq, key: sv.v.Key(), aborted: true, cause: ctx.Err().Error()}
	}
	return visitOut{seq: sv.seq, key: sv.v.Key(), out: out}
}

// analyzeWork classifies every harvested ad of one visit and builds its
// journal record.
func (s *Service) analyzeWork(ctx context.Context, vo visitOut) VisitRecord {
	if vo.aborted {
		return VisitRecord{Seq: vo.seq, Key: vo.key, Aborted: true, AbortCause: vo.cause}
	}
	rec := VisitRecord{
		Seq:      vo.seq,
		Key:      vo.key,
		ErrCause: vo.out.ErrCause,
		Frames:   vo.out.Frames,
		NonAd:    vo.out.NonAd,
		Degraded: vo.out.Degraded,
	}
	for _, ha := range vo.out.Ads {
		inc := s.study.Oracle.ClassifyContext(ctx, ha.Ad)
		if ctx.Err() != nil {
			// Cut off mid-classification: the verdict may be degraded by the
			// cancellation, so the whole visit aborts and re-executes later.
			rec.Aborted, rec.AbortCause, rec.Ads = true, ctx.Err().Error(), nil
			return rec
		}
		rec.Ads = append(rec.Ads, NewAdRecord(ha, inc))
	}
	return rec
}

// commitLoop is the single journal writer: one span per record, append as
// the commit point, fold into the aggregate, compact periodically. A journal
// failure fails the pipeline — a service that cannot persist must stop, not
// silently diverge from its log.
func (s *Service) commitLoop(p *Pipeline, recCh <-chan VisitRecord, ops *Ops, done chan<- struct{}) {
	defer close(done)
	abortCount := s.tel.Counter("stream_aborted_total")
	skipCount := s.tel.Counter("stream_checkpoint_skipped_total")
	ckptCount := s.tel.Counter("stream_checkpoints_total")
	commitCount := s.tel.Counter("stream_committed_total")
	commitSeq := s.tel.Gauge("stream_commit_seq")
	errAppend := s.tel.Counter("stream_commit_errors_total", telemetry.L("cause", "append"))
	errCompact := s.tel.Counter("stream_commit_errors_total", telemetry.L("cause", "compact"))
	failed := false
	for rec := range recCh {
		if rec.Aborted {
			ops.Aborted++
			abortCount.Inc()
			continue
		}
		if failed {
			continue // drain without committing past a journal failure
		}
		_, sp := s.tel.StartSpan(context.Background(), telemetry.StageStreamCommit, rec.Key)
		if err := s.log.Append(RecordKind, rec); err != nil {
			sp.End()
			failed = true
			errAppend.Inc()
			s.tel.Event(telemetry.LevelError, telemetry.EventJournalFailure, "commit",
				"journal append failed", "err", err.Error())
			p.Fail(fmt.Errorf("stream: journal append: %w", err))
			continue
		}
		s.agg.Fold(rec)
		ops.Committed++
		commitCount.Inc()
		commitSeq.Set(ops.Committed)
		if s.cfg.CheckpointEvery > 0 && ops.Committed%int64(s.cfg.CheckpointEvery) == 0 {
			if c, ok := s.cfg.Journal.(journal.Compactor); ok {
				if err := s.compact(c); err != nil {
					sp.End()
					failed = true
					errCompact.Inc()
					s.tel.Event(telemetry.LevelError, telemetry.EventJournalFailure, "commit",
						"checkpoint compaction failed", "err", err.Error())
					p.Fail(fmt.Errorf("stream: checkpoint compaction: %w", err))
					continue
				}
				ops.Checkpoints++
				ckptCount.Inc()
				s.tel.Event(telemetry.LevelInfo, telemetry.EventCheckpoint, "commit",
					"journal compacted to checkpoint",
					"committed", strconv.FormatInt(ops.Committed, 10))
			} else {
				skipCount.Inc()
			}
		}
		sp.End()
	}
}

// compact rewrites the journal as one checkpoint record.
func (s *Service) compact(c journal.Compactor) error {
	st := s.agg.checkpoint()
	return c.CompactTo([]journal.Record{{Kind: CheckpointKind, Payload: encodeAggState(&st)}})
}
