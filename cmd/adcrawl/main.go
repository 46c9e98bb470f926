// Command adcrawl runs only the data-collection phase (§3.1): it builds the
// simulated web and ad ecosystem, crawls the paper-style crawl set, and
// writes the deduplicated advertisement corpus as JSON lines, ready for
// adoracle. The corpus depends only on the seed and the crawl shape, not on
// -workers. SIGINT/SIGTERM stops scheduling visits and writes the partial
// corpus. The crash-safe streaming service is madstudy's (-serve,
// -checkpoint).
//
// Usage:
//
//	adcrawl -o corpus.jsonl [-seed N] [-sites N] [-days N] [-refreshes N]
//	        [-workers N] [-chaos RATE] [-metrics-out metrics.prom]
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

	"madave"
	"madave/internal/memnet"
	"madave/internal/opsd"
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

		opsAddr   = flag.String("ops-addr", "", "serve the live operations plane (metrics, health, statusz, alerts, events, pprof) on this address (e.g. 127.0.0.1:9090)")
		eventsOut = flag.String("events-out", "", "also append structured JSONL events to this file as they happen")

		metricsOut = flag.String("metrics-out", "", "write end-of-run metrics to this file (.prom = Prometheus text, else JSON)")
		spansOut   = flag.String("spans-out", "", "record pipeline spans and write them to this file (.jsonl = JSON lines, else Chrome trace_event)")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	)
	flag.Parse()

	// First SIGINT/SIGTERM cancels the run: the crawl stops scheduling
	// visits but still writes the partial corpus.
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

	if *opsAddr != "" {
		ops, err := opsd.Start(opsd.Config{Addr: *opsAddr, Tel: tel})
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
