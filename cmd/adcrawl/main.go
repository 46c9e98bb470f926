// Command adcrawl runs only the data-collection phase (§3.1): it builds the
// simulated web and ad ecosystem, crawls the paper-style crawl set, and
// writes the deduplicated advertisement corpus as JSON lines, ready for
// adoracle.
//
// With -serve or -checkpoint it runs the crash-safe streaming service
// instead: visits commit to a journal as they finish, SIGINT/SIGTERM drains
// gracefully, and a killed run resumes from the same checkpoint file. The
// streaming service journals per-visit records, not full advertisements, so
// -o is batch-mode only.
//
// Usage:
//
//	adcrawl -o corpus.jsonl [-seed N] [-sites N] [-days N] [-refreshes N]
//	        [-chaos RATE] [-cache] [-graph] [-metrics-out metrics.prom]
//	        [-serve] [-checkpoint journal.wal] [-drain-timeout 30s]
//	        [-ops-addr ADDR] [-events-out events.jsonl]
//	        [-spans-out trace.json] [-pprof ADDR]
//
// -ops-addr starts the live operations plane (internal/opsd) on one embedded
// admin server; it is observe-only, so a run with it on is byte-identical to
// one with it off.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"madave"
	"madave/internal/journal"
	"madave/internal/memnet"
	"madave/internal/opsd"
	"madave/internal/stream"
	"madave/internal/telemetry"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adcrawl: ")

	var (
		out       = flag.String("o", "corpus.jsonl", "output corpus file (JSON lines)")
		seed      = flag.Uint64("seed", 1, "simulation seed (adoracle must use the same)")
		sites     = flag.Int("sites", 800, "crawl-set sample size (0 = full set)")
		days      = flag.Int("days", 1, "crawl days")
		refreshes = flag.Int("refreshes", 5, "page refreshes per visit")
		workers   = flag.Int("workers", 8, "crawl parallelism")
		chaos     = flag.Float64("chaos", 0, "injected network fault rate in [0,1] (0 = off); faults are seeded, so crawls stay reproducible")
		cache     = flag.Bool("cache", false, "enable the oracle-side memoization caches in the assembled study (matches madstudy/adoracle -cache)")
		graph     = flag.Bool("graph", false, "enable the flow-graph oracle in the assembled study (streaming mode journals its per-ad verdicts; base stats stay byte-identical)")

		serveMode    = flag.Bool("serve", false, "streaming service mode: Zipf-sampled impressions through the priority shedder instead of the finite schedule")
		checkpoint   = flag.String("checkpoint", "", "journal file for crash-safe streaming (implies streaming mode); resuming from it skips already-committed visits")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "on SIGINT/SIGTERM, how long the streaming drain waits for in-flight visits before hard-cancelling")

		opsAddr   = flag.String("ops-addr", "", "serve the live operations plane (metrics, health, statusz, alerts, events, pprof) on this address (e.g. 127.0.0.1:9090)")
		eventsOut = flag.String("events-out", "", "also append structured JSONL events to this file as they happen")

		metricsOut = flag.String("metrics-out", "", "write end-of-run metrics to this file (.prom = Prometheus text, else JSON)")
		spansOut   = flag.String("spans-out", "", "record pipeline spans and write them to this file (.jsonl = JSON lines, else Chrome trace_event)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	// First SIGINT/SIGTERM cancels the run: streaming mode drains gracefully,
	// batch mode stops scheduling visits but still writes the partial corpus.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	cfg := madave.DefaultConfig()
	cfg.Seed = *seed
	cfg.CrawlSites = *sites
	cfg.Crawl.Days = *days
	cfg.Crawl.Refreshes = *refreshes
	cfg.Crawl.Parallelism = *workers
	if *chaos > 0 {
		prof := memnet.UniformProfile(*chaos)
		cfg.Chaos = &prof
	}
	cfg.Cache.Enabled = *cache
	cfg.GraphOracle = *graph

	tel := telemetry.New(*seed)
	if *spansOut != "" {
		tel.EnableTracing()
	}
	tel.Events = telemetry.NewEventLog(0)
	if *eventsOut != "" {
		f, err := os.Create(*eventsOut)
		if err != nil {
			log.Fatal(err)
		}
		tel.Events.SetSink(f)
		defer func() {
			tel.Events.Flush() //nolint:errcheck // best-effort final flush
			f.Close()
		}()
	}
	cfg.Telemetry = tel

	var ops *opsd.Server
	if *opsAddr != "" {
		var err error
		ops, err = opsd.Start(opsd.Config{Addr: *opsAddr, Tel: tel})
		if err != nil {
			log.Fatal(err)
		}
		defer ops.Close()
		fmt.Printf("ops plane: serving on http://%s/ (/metrics /healthz /readyz /statusz /alerts /events /debug/pprof/)\n", ops.Addr())
	}

	if *pprofAddr != "" {
		addr, stopPprof, err := telemetry.StartPprof(*pprofAddr)
		if err != nil {
			log.Fatal(err)
		}
		defer stopPprof()
		fmt.Printf("pprof: serving on http://%s/debug/pprof/\n", addr)
	}

	study, err := madave.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}

	if *serveMode || *checkpoint != "" {
		if err := runStream(ctx, study, tel, ops, *serveMode, *checkpoint, *drainTimeout); err != nil {
			log.Fatal(err)
		}
		return
	}

	corp, stats := study.CrawlContext(ctx)
	if ctx.Err() != nil {
		fmt.Println("interrupted — writing the partial corpus")
	}
	fmt.Printf("visited %d pages; %d ad frames; %d unique ads (%d duplicates)\n",
		stats.PagesVisited, stats.AdFrames, corp.Len(), stats.Duplicates)
	fmt.Printf("sandbox census: %d/%d ad iframes sandboxed\n",
		stats.SandboxedAds, stats.AdFrames)
	if *chaos > 0 {
		fmt.Printf("resilience: %d retries, %d attempt timeouts, %d truncations, %d circuit opens (%d requests shed), %d degraded pages\n",
			stats.Retries, stats.Timeouts, stats.Truncations,
			stats.CircuitOpens, stats.CircuitShortCircuits, stats.DegradedPages)
		fmt.Printf("page errors: %d (%d nxdomain, %d timeout, %d http, %d other)\n",
			stats.PageErrors, stats.NXDomainErrors, stats.TimeoutErrors,
			stats.HTTPErrors, stats.OtherErrors)
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := corp.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus written to %s\n", *out)

	if table := tel.LatencyTable(); table != "" {
		fmt.Println("\nPipeline stage latencies")
		fmt.Print(table)
	}
	if *metricsOut != "" {
		if err := writeFile(*metricsOut, func(w *os.File) error {
			if strings.HasSuffix(*metricsOut, ".prom") {
				return tel.Registry.WritePrometheus(w)
			}
			return tel.Registry.WriteJSON(w)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("metrics written to %s\n", *metricsOut)
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, func(w *os.File) error {
			if strings.HasSuffix(*spansOut, ".jsonl") {
				return tel.Tracer.WriteJSONL(w)
			}
			return tel.Tracer.WriteChromeTrace(w)
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d spans written to %s\n", tel.Tracer.Len(), *spansOut)
	}
}

// runStream executes the crash-safe streaming crawl service and prints its
// deterministic summary. Per-visit records commit to the journal (no corpus
// file in this mode); a killed run resumed from the same -checkpoint file
// finishes with byte-identical statistics.
func runStream(ctx context.Context, study *madave.Study, tel *telemetry.Set, ops *opsd.Server,
	serveMode bool, checkpointPath string, drainTimeout time.Duration) error {
	var backend journal.Backend
	if checkpointPath != "" {
		fb, err := journal.OpenFile(checkpointPath)
		if err != nil {
			return err
		}
		defer fb.Close()
		backend = fb
	} else {
		fmt.Println("streaming without -checkpoint: journal is in-memory, progress dies with the process")
		backend = journal.NewMem()
	}
	svc, err := stream.NewService(study, stream.ServiceConfig{
		Stream:  stream.Config{DrainTimeout: drainTimeout, Tel: tel},
		Journal: backend,
		Serve:   serveMode,
	})
	if err != nil {
		return err
	}
	if ops != nil {
		ops.AttachService(svc)
	}
	if rec := svc.Recovered(); rec > 0 {
		fmt.Printf("recovered %d committed visits from %s — they will not re-execute\n", rec, checkpointPath)
	}
	res, err := svc.Run(ctx)
	if err != nil {
		return err
	}
	sum := res.Summary
	fmt.Printf("stream: %d visits (%d page errors), %d ad frames, %d unique ads, %d malicious\n",
		sum.Visits, sum.PageErrors, sum.AdFrames, sum.UniqueAds, sum.Malicious)
	fmt.Printf("ops: recovered %d, committed %d, aborted %d, checkpoints %d, worker restarts %d\n",
		res.Ops.Recovered, res.Ops.Committed, res.Ops.Aborted, res.Ops.Checkpoints, res.Ops.Restarts)
	if serveMode {
		st := res.Ops.Shed
		fmt.Printf("admission: offered %d, delivered %d, shed %d\n", st.Offered, st.Delivered, st.Shed)
	}
	if res.Graph.Scanned > 0 {
		fmt.Printf("graph oracle: %d of %d ads flagged (chain max %d, p90 %d)\n",
			res.Graph.Flagged, res.Graph.Scanned, res.Graph.ChainMax, res.Graph.ChainP90)
		fmt.Printf("graph summary: %s\n", res.Graph.JSON())
	}
	fmt.Printf("summary: %s\n", sum.JSON())
	return nil
}

func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
