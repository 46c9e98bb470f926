package crawler

import (
	"context"
	"errors"
	"fmt"
	"net/http"

	"madave/internal/browser"
	"madave/internal/corpus"
	"madave/internal/easylist"
	"madave/internal/memnet"
	"madave/internal/netcap"
	"madave/internal/resilient"
	"madave/internal/stats"
	"madave/internal/telemetry"
	"madave/internal/webgen"
)

// Visit is one unit of crawl work: a (site, day, refresh) triple. The batch
// crawl fans Visits out over its workers; the streaming service journals
// them one at a time.
type Visit struct {
	Site    *webgen.Site
	Day     int
	Refresh int
}

// Key identifies the visit for telemetry (span IDs derive from it) and for
// the streaming journal.
func (v Visit) Key() string {
	return fmt.Sprintf("%s|d%dr%d", v.Site.Host, v.Day, v.Refresh)
}

// Visits enumerates the crawl schedule for the given sites in deterministic
// order (day-major, then site, then refresh) — the order RunContext folds
// outcomes in, and the sequence numbering the streaming service journals
// against.
func (c *Crawler) Visits(sites []*webgen.Site) []Visit {
	var out []Visit
	for day := 1; day <= c.Config.Days; day++ {
		for _, s := range sites {
			for r := 0; r < c.Config.Refreshes; r++ {
				out = append(out, Visit{Site: s, Day: day, Refresh: r})
			}
		}
	}
	return out
}

// HarvestedAd is one ad snapshot with the frame attributes that do not live
// on the corpus record.
type HarvestedAd struct {
	Ad        *corpus.Ad
	Sandboxed bool
}

// VisitOutcome is the complete observation of one visit. It is a pure
// function of (Config.Seed, Visit): the browser, RNG, breakers and
// transport are all rebuilt from the visit key, so re-executing the visit —
// on another worker, in another order, or after a crash — reproduces the
// outcome byte for byte.
type VisitOutcome struct {
	Visit     Visit
	PageError bool
	// ErrCause buckets a failed visit: "nxdomain", "timeout", "http" or
	// "other" ("" when the load succeeded).
	ErrCause string
	Frames   int
	NonAd    int
	Degraded bool
	Ads      []HarvestedAd
	// Counters are the resilience events observed during this visit.
	resilient.Counters

	traffic *netcap.Capture // the visit's log, when KeepTraffic is set
}

// CrawlOne performs one hermetic visit for the streaming service and
// records it in the crawl metrics. Crash-recovery determinism rests on
// hermeticity: a re-executed visit is indistinguishable from its first
// execution.
func (c *Crawler) CrawlOne(ctx context.Context, v Visit) *VisitOutcome {
	tel, m := c.streamMetrics()
	out := c.crawlVisit(ctx, tel, v)
	m.record(out)
	return out
}

// crawlVisit performs one hermetic visit: a fresh browser whose RNG, cookie
// jar, capture, retry jitter, and circuit-breaker state derive only from
// (Config.Seed, v) — never from which worker runs the visit or what ran
// before it. It is the one visit executor of the batch crawl and CrawlOne.
func (c *Crawler) crawlVisit(ctx context.Context, tel *telemetry.Set, v Visit) *VisitOutcome {
	counters := &resilient.Counters{}
	b := c.newVisitBrowser(v, counters)
	out := c.visitOnce(ctx, tel, b, v)
	out.Counters = counters.Snapshot()
	out.traffic = b.Capture
	return out
}

// streamMetrics lazily builds the metrics handle CrawlOne records into
// (shared across all hermetic visits; purely observational).
func (c *Crawler) streamMetrics() (*telemetry.Set, *crawlMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.smetrics == nil {
		tel := c.Telemetry
		if tel == nil {
			tel = telemetry.New(c.Config.Seed)
		}
		c.smetrics = newCrawlMetrics(tel)
	}
	return c.smetrics.tel, c.smetrics
}

// newVisitBrowser builds the browser of one visit. The crawler browses like
// a real user's Firefox (the paper drove the real browser with Selenium).
// The transport layers, inner to outer: base (memnet or custom, possibly
// chaos-wrapped) -> resilient retries/breakers -> capture, so the traffic
// log sees one transaction per logical fetch, with retries invisible to it.
// The capture layer (b.Capture) exists only under KeepTraffic.
func (c *Crawler) newVisitBrowser(v Visit, counters *resilient.Counters) *browser.Browser {
	var rt http.RoundTripper = &memnet.Transport{U: c.Universe, Tel: c.Telemetry}
	if c.Transport != nil {
		rt = c.Transport()
	}
	pol := c.Config.Retry
	pol.Seed = c.Config.Seed
	res := resilient.New(rt, pol, counters)
	res.Tel = c.Telemetry
	res.Breakers = resilient.NewBreakerSet(c.Config.BreakerThreshold, c.Config.BreakerCooldown)
	client := &http.Client{
		Transport: res,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	b := browser.New(client, browser.UserProfile())
	if c.KeepTraffic {
		b.Capture = netcap.New(res)
		client.Transport = b.Capture
	}
	b.Tel = c.Telemetry
	b.RNG = stats.NewRNG(c.Config.Seed).Fork("crawler-visit-" + v.Key())
	return b
}

// visitOnce loads one page visit under the visit deadline and harvests its
// ad iframes into a VisitOutcome. It observes; it does not count — metric
// accounting happens in crawlMetrics.record.
func (c *Crawler) visitOnce(ctx context.Context, tel *telemetry.Set, b *browser.Browser, v Visit) *VisitOutcome {
	out := &VisitOutcome{Visit: v}
	pageURL := fmt.Sprintf("http://%s/?v=d%dr%d", v.Site.Host, v.Day, v.Refresh)
	vctx, vspan := tel.StartSpan(ctx, telemetry.StageCrawlVisit, v.Key())
	defer vspan.End()
	if t := c.visitTimeout(); t > 0 {
		var cancel context.CancelFunc
		vctx, cancel = context.WithTimeout(vctx, t)
		defer cancel()
	}
	page, err := b.LoadContext(vctx, pageURL, "")
	if err != nil {
		out.PageError = true
		out.ErrCause = pageErrCause(err)
	} else if page != nil && page.Status >= 400 {
		out.PageError = true
		out.ErrCause = "http"
	}
	if page == nil {
		return out
	}
	// A failed or partial load is not discarded: whatever frames survived
	// are still classified and harvested (graceful degradation).
	if (err != nil || len(page.Errors) > 0) && len(page.Frames) > 0 {
		out.Degraded = true
	}
	out.Frames = len(page.Frames)
	mctx := easylist.NewRequestCtx()
	for _, frame := range page.Frames {
		msp := tel.StartStageTimer(vctx, telemetry.StageEasyList, frame.URL)
		ad := c.isAdFrame(mctx, frame.URL, v.Site.Host)
		msp.End()
		if !ad {
			out.NonAd++
			continue
		}
		out.Ads = append(out.Ads, HarvestedAd{Ad: c.snapshot(frame, v), Sandboxed: frame.Sandboxed})
	}
	return out
}

// pageErrCause buckets a failed top-level load by cause.
func pageErrCause(err error) string {
	var nx *memnet.NXDomainError
	switch {
	case errors.As(err, &nx):
		return "nxdomain"
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return "timeout"
	default:
		return "other"
	}
}
