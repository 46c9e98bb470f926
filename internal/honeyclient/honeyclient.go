// Package honeyclient is the reproduction's Wepawet (§3.2.1): an
// instrumented emulated browser that re-executes an advertisement, captures
// everything it does, and applies detection logic:
//
//   - heuristics — redirections to NX domains or to benign websites such as
//     Google and Bing, the signature of cloaking;
//   - suspicious redirections — top.location rewrites (link hijacking) and
//     other forced navigations;
//   - payload capture — executables and Flash the ad downloads, handed to
//     the AV-scanning stage;
//   - behavioural models — a feature vector over the ad's behaviour scored
//     against a model of known-malicious patterns.
package honeyclient

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"madave/internal/browser"
	"madave/internal/cachex"
	"madave/internal/flowgraph"
	"madave/internal/memnet"
	"madave/internal/netcap"
	"madave/internal/resilient"
	"madave/internal/stats"
	"madave/internal/telemetry"
	"madave/internal/urlx"
)

// benignRedirectHosts are the "benign websites like Google and Bing" whose
// appearance as a forced navigation target signals cloaking.
var benignRedirectHosts = map[string]bool{
	"www.google.com": true,
	"google.com":     true,
	"www.bing.com":   true,
	"bing.com":       true,
}

// Report is the honeyclient's analysis of one advertisement.
type Report struct {
	URL string
	// RenderErrors records load failures (informational).
	RenderErrors []string
	// Degraded is true when the analysis ran on a partial execution — some
	// fetch or script failed — so the verdict rests on surviving evidence.
	Degraded bool

	// Heuristic flags (cloaking indicators).
	NXRedirect     bool
	BenignRedirect bool
	// Hijack is true when a script rewrote top.location.
	Hijack bool
	// ForcedNavigations counts script-initiated navigations of any kind.
	ForcedNavigations int

	// Downloads are the binary payloads observed (executables, Flash).
	Downloads []browser.Download

	// Hosts is every host the ad contacted during instrumented execution.
	Hosts []string

	// Features is the behavioural feature vector; ModelScore its score.
	Features Features
	// ModelHit is true when the behavioural model flagged the ad.
	ModelHit bool

	// Graph is the flow-graph oracle's structural summary — nil unless
	// EnableGraph was called. It is additive: no other report field depends
	// on it, so enabling the graph cannot perturb the base verdict.
	Graph *flowgraph.Summary
}

// Features is the behavioural feature vector the model scores (the
// "machine learning models" component of Wepawet's classification).
type Features struct {
	// ObfuscationLayers counts eval(unescape(...)) wrappers encountered.
	ObfuscationLayers int
	// TrackingPixels counts 1x1 images planted by scripts.
	TrackingPixels int
	// ThirdPartyBeaconDomains counts distinct registered domains receiving
	// tracking pixels, excluding the ad's own domain.
	ThirdPartyBeaconDomains int
	// PluginEnumeration is true when scripts iterate navigator.plugins.
	PluginEnumeration bool
	// WritesScripts is true when document.write introduced new script or
	// iframe elements.
	WritesScripts bool
}

// Score computes the model score. The weights favor the combination that
// distinguishes malicious infrastructure — obfuscation plus fingerprint
// exfiltration to several unrelated collectors — over any single benign
// behaviour.
func (f Features) Score() float64 {
	score := 0.0
	score += 2.0 * float64(min(f.ObfuscationLayers, 3))
	beacons := f.ThirdPartyBeaconDomains
	if beacons > 5 {
		beacons = 5
	}
	score += 2.0 * float64(beacons)
	if f.PluginEnumeration && f.ObfuscationLayers > 0 {
		score += 1.5
	}
	if f.WritesScripts {
		score += 0.5
	}
	return score
}

// DefaultModelThreshold is the score at which the model flags an ad.
const DefaultModelThreshold = 7.5

// Honeyclient analyzes advertisements against a universe.
type Honeyclient struct {
	Universe *memnet.Universe
	// ModelThreshold gates ModelHit.
	ModelThreshold float64
	// ScriptBudget bounds per-ad script execution.
	ScriptBudget int
	// Seed derives the instrumented browser's randomness and retry jitter.
	Seed uint64
	// Timeout bounds one ad's instrumented execution end to end (0 = no
	// deadline). A timed-out analysis reports on surviving evidence.
	Timeout time.Duration
	// Transport, when non-nil, supplies the base HTTP transport instead of
	// the default in-memory one (e.g. a chaos-wrapped transport).
	Transport func() http.RoundTripper
	// Retry configures the resilience layer between the browser and the
	// transport (zero fields take resilient defaults; Seed comes from Seed).
	Retry resilient.Policy
	// Tel, when non-nil, records honeyclient.analyze spans and latency
	// samples (plus the instrumented browser's and transports' stages).
	// Analysis verdicts never depend on it.
	Tel *telemetry.Set

	// Detector toggles for the DESIGN.md ablations: disabling a component
	// shows its contribution to Table 1.
	DisableRedirectHeuristics bool // NX/benign-redirect (cloaking) detection
	DisableHijackDetection    bool // top.location rewrites
	DisableModel              bool // behavioural model

	// TolerantJS runs page scripts through the error-recovering parser so
	// broken creatives execute to a partial result instead of erroring
	// out. New() enables it: real ad corpora are full of malformed
	// JavaScript, and the scripts most likely to carry drive-by behavior
	// are exactly the broken ones. Well-formed scripts parse identically
	// either way (FuzzParseRecover's superset law), so verdicts on clean
	// corpora are unaffected.
	TolerantJS bool

	// cache, when enabled, memoizes analysis reports so advertisements
	// sharing a creative execute once (DESIGN.md §11). Reports are pure
	// functions of their key, so hits are byte-identical to recomputation.
	cache *cachex.Cache[string, *Report]

	// graphPolicy, when non-nil, enables the flow-graph summary on every
	// report. Graph assembly is a pure function of (page, capture), so a
	// cached report computed graph-on replays byte-identically.
	graphPolicy *flowgraph.Policy
}

// DefaultCacheEntries bounds the report cache when EnableCache gets 0.
// Reports carry page-sized evidence, so the default is deliberately smaller
// than the cheaper verdict caches'.
const DefaultCacheEntries = 1 << 14

// EnableCache turns on report memoization with the given entry capacity
// (0 = DefaultCacheEntries). Counters land in h.Tel (when set) under
// cache_*_total{cache="honeyclient"}. Enable before analysis starts.
func (h *Honeyclient) EnableCache(entries int) {
	if entries <= 0 {
		entries = DefaultCacheEntries
	}
	h.cache = cachex.New[string, *Report](cachex.Config{
		Capacity: entries,
		Name:     "honeyclient",
		Tel:      h.Tel,
	})
}

// EnableGraph turns on the flow-graph oracle: every report gains a Graph
// summary (structural features + the policy's verdict) assembled from the
// instrumented browser's frame tree, DOM-write provenance, and the capture's
// stamped transactions. Off by default — graph assembly walks the whole
// trace, and the hot-path allocation gates assume it only runs when asked
// for. Enable before analysis starts.
func (h *Honeyclient) EnableGraph(p flowgraph.Policy) {
	h.graphPolicy = &p
}

// CacheStats snapshots the report cache's counters; ok is false when the
// cache is disabled.
func (h *Honeyclient) CacheStats() (st cachex.Stats, ok bool) {
	if h.cache == nil {
		return cachex.Stats{}, false
	}
	return h.cache.Stats(), true
}

// cacheKey builds the memoization key for one analysis. The frame URL alone
// is not enough: chaos faults are a pure function of (chaos seed, URL,
// attempt) and the instrumented browser's randomness derives from Seed, so
// the seed and the presence of a custom (chaos-wrapped) transport must pin
// the key or a cache shared across differently-faulted runs would serve the
// wrong evidence. The crawl day pins temporal serving — an ad observed on
// day D must be re-executed as of day D, not as of whenever the cache was
// warm.
func (h *Honeyclient) cacheKey(kind string, day int, id string) string {
	chaos := byte('-')
	if h.Transport != nil {
		chaos = 't'
	}
	// Append-built (no fmt) so the per-ad fast path costs one allocation:
	// the final string. The layout matches the old Sprintf format verbatim.
	var buf [96]byte
	b := strconv.AppendUint(buf[:0], h.Seed, 10)
	b = append(b, '|', chaos, '|')
	b = strconv.AppendInt(b, int64(day), 10)
	b = append(b, '|')
	b = append(b, kind...)
	b = append(b, '|')
	b = append(b, id...)
	return string(b)
}

// New returns a honeyclient over the universe.
func New(u *memnet.Universe, seed uint64) *Honeyclient {
	return &Honeyclient{
		Universe:       u,
		ModelThreshold: DefaultModelThreshold,
		ScriptBudget:   500_000,
		Seed:           seed,
		TolerantJS:     true,
	}
}

// newBrowser builds the instrumented browser: honeyclient profile (sparse
// plugins, vulnerable Flash) over a resilient transport and a fresh
// capture. Retries keep transient faults from eating evidence; the capture
// sees one transaction per logical fetch.
func (h *Honeyclient) newBrowser() (*browser.Browser, *netcap.Capture) {
	var rt http.RoundTripper = &memnet.Transport{U: h.Universe, Tel: h.Tel}
	if h.Transport != nil {
		rt = h.Transport()
	}
	pol := h.Retry
	pol.Seed = h.Seed
	res := resilient.New(rt, pol, nil)
	res.Tel = h.Tel
	cap := netcap.New(res)
	client := &http.Client{
		Transport: cap,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
	b := browser.New(client, browser.HoneyclientProfile())
	b.Capture = cap
	b.Tel = h.Tel
	b.ScriptBudget = h.ScriptBudget
	b.RNG = stats.NewRNG(h.Seed).Fork("honeyclient")
	b.TolerantJS = h.TolerantJS
	return b, cap
}

// Analyze fetches and executes the advertisement at frameURL (the ad
// iframe's entry URL), like Wepawet receiving "the initial request for
// advertisements from a publisher's website".
func (h *Honeyclient) Analyze(frameURL string) *Report {
	return h.AnalyzeContext(context.Background(), frameURL)
}

// AnalyzeContext is Analyze under a caller-supplied context; the deadline
// (plus Timeout, when set) bounds the whole instrumented execution. A
// partial execution still yields a report, marked Degraded.
func (h *Honeyclient) AnalyzeContext(ctx context.Context, frameURL string) *Report {
	rep, _ := h.analyze(ctx, frameURL)
	return rep
}

// analyze is the uncached execution. The second return reports whether the
// result is reproducible (the bounded context survived): a report cut short
// by a deadline or cancellation reflects how far execution got by wall
// clock, which is exactly the kind of value the cache must never hold.
func (h *Honeyclient) analyze(ctx context.Context, frameURL string) (*Report, bool) {
	ctx, cancel := h.bound(ctx)
	defer cancel()
	var sp *telemetry.Span
	ctx, sp = h.Tel.StartSpan(ctx, telemetry.StageHoneyclient, frameURL)
	defer sp.End()
	b, cap := h.newBrowser()
	page, err := b.LoadContext(ctx, frameURL, "")
	rep := h.buildReport(frameURL, page, cap)
	if err != nil {
		rep.RenderErrors = append(rep.RenderErrors, err.Error())
	}
	rep.Degraded = len(rep.RenderErrors) > 0
	return rep, ctx.Err() == nil
}

// AnalyzeAdContext is the oracle's entrypoint: AnalyzeContext through the
// report cache (when enabled), keyed by (seed, chaos, crawl day, frame URL).
// Concurrent analyses of the same key coalesce into one instrumented
// execution. Cached reports are shared; treat them as immutable.
func (h *Honeyclient) AnalyzeAdContext(ctx context.Context, frameURL string, day int) *Report {
	if h.cache == nil {
		return h.AnalyzeContext(ctx, frameURL)
	}
	rep, _ := h.cache.GetOrLoad(h.cacheKey("frame", day, frameURL), func() (*Report, error) {
		rep, reproducible := h.analyze(ctx, frameURL)
		if !reproducible {
			return rep, cachex.ErrSkipStore
		}
		return rep, nil
	})
	return rep
}

// AnalyzeHTML executes an already-captured ad snapshot (corpus HTML). Live
// subresources are still fetched from the universe, so blacklisted hosts
// and payloads remain observable.
func (h *Honeyclient) AnalyzeHTML(html, baseURL string) *Report {
	return h.AnalyzeHTMLContext(context.Background(), html, baseURL)
}

// AnalyzeHTMLContext is AnalyzeHTML under a caller-supplied context.
func (h *Honeyclient) AnalyzeHTMLContext(ctx context.Context, html, baseURL string) *Report {
	rep, _ := h.analyzeHTML(ctx, html, baseURL)
	return rep
}

func (h *Honeyclient) analyzeHTML(ctx context.Context, html, baseURL string) (*Report, bool) {
	ctx, cancel := h.bound(ctx)
	defer cancel()
	var sp *telemetry.Span
	ctx, sp = h.Tel.StartSpan(ctx, telemetry.StageHoneyclient, baseURL)
	defer sp.End()
	b, cap := h.newBrowser()
	page := b.LoadHTMLContext(ctx, html, baseURL)
	rep := h.buildReport(baseURL, page, cap)
	rep.Degraded = len(rep.RenderErrors) > 0
	return rep, ctx.Err() == nil
}

// AnalyzeHTMLAdContext is AnalyzeHTMLContext through the report cache,
// keyed by the snapshot's content hash plus its base URL (the same document
// re-executes differently under a different base). Day and seed pin the key
// exactly as in AnalyzeAdContext.
func (h *Honeyclient) AnalyzeHTMLAdContext(ctx context.Context, html, baseURL string, day int) *Report {
	if h.cache == nil {
		return h.AnalyzeHTMLContext(ctx, html, baseURL)
	}
	// Hash the snapshot without the []byte(html) copy and append-build the
	// "hex|baseURL" id in one buffer — the document can be tens of
	// kilobytes, and this path runs once per frame snapshot.
	hasher := sha256.New()
	io.WriteString(hasher, html)
	var sum [sha256.Size]byte
	hasher.Sum(sum[:0])
	idBuf := make([]byte, 2*sha256.Size, 2*sha256.Size+1+len(baseURL))
	hex.Encode(idBuf, sum[:])
	idBuf = append(idBuf, '|')
	idBuf = append(idBuf, baseURL...)
	rep, _ := h.cache.GetOrLoad(h.cacheKey("html", day, string(idBuf)), func() (*Report, error) {
		rep, reproducible := h.analyzeHTML(ctx, html, baseURL)
		if !reproducible {
			return rep, cachex.ErrSkipStore
		}
		return rep, nil
	})
	return rep
}

// bound layers the honeyclient's own Timeout onto the caller's context.
func (h *Honeyclient) bound(ctx context.Context) (context.Context, context.CancelFunc) {
	if ctx == nil {
		ctx = context.Background()
	}
	if h.Timeout > 0 {
		return context.WithTimeout(ctx, h.Timeout)
	}
	return ctx, func() {}
}

func (h *Honeyclient) buildReport(url string, page *browser.Page, cap *netcap.Capture) *Report {
	rep := &Report{URL: url}
	if page == nil {
		return rep
	}
	rep.RenderErrors = append(rep.RenderErrors, page.Errors...)

	adDomain := urlx.RegisteredDomain(urlx.Host(page.FinalURL))

	for _, nav := range page.AllNavigations() {
		rep.ForcedNavigations++
		if nav.Kind == browser.NavTop && !nav.Blocked && !h.DisableHijackDetection {
			rep.Hijack = true
		}
		if h.DisableRedirectHeuristics {
			continue
		}
		if nav.NXDomain {
			rep.NXRedirect = true
		}
		if benignRedirectHosts[urlx.Host(nav.Target)] {
			rep.BenignRedirect = true
		}
	}

	rep.Downloads = page.AllDownloads()

	// Hosts contacted: from the capture, which saw every request.
	rep.Hosts = cap.Hosts()

	// Behavioural features.
	rep.Features = extractFeatures(page, adDomain)
	rep.ModelHit = !h.DisableModel && rep.Features.Score() >= h.ModelThreshold

	if h.graphPolicy != nil {
		rep.Graph = buildGraphSummary(url, page, cap, *h.graphPolicy)
	}
	return rep
}

// buildGraphSummary assembles the flow graph from the rendered frame tree
// and the capture's provenance-stamped transactions, then scores it.
func buildGraphSummary(url string, page *browser.Page, cap *netcap.Capture, pol flowgraph.Policy) *flowgraph.Summary {
	in := flowgraph.Input{PageURL: url}
	if cap != nil {
		in.Transactions = cap.All()
	}
	page.WalkFrames(func(p *browser.Page) {
		in.Frames = append(in.Frames, flowgraph.Frame{ID: p.FrameID, URL: p.FinalURL})
		for _, w := range p.DOMWrites {
			in.Writes = append(in.Writes, flowgraph.Write{FrameID: p.FrameID, Writer: w.Writer, Tags: w.Tags})
		}
	})
	g := flowgraph.Build(in)
	f := g.Features()
	return &flowgraph.Summary{Features: f, Verdict: pol.Classify(f)}
}

// extractFeatures mines the rendered page (and its frames) for the model's
// feature vector.
func extractFeatures(page *browser.Page, adDomain string) Features {
	var f Features
	collect(page, adDomain, &f, map[string]bool{})
	return f
}

func collect(p *browser.Page, adDomain string, f *Features, beaconDomains map[string]bool) {
	for _, src := range p.Scripts {
		f.ObfuscationLayers += strings.Count(src, "eval(unescape(")
		if strings.Contains(src, "navigator.plugins") {
			f.PluginEnumeration = true
		}
	}
	if p.Doc != nil {
		for _, img := range p.Doc.Find("img") {
			if img.AttrOr("width", "") == "1" && img.AttrOr("height", "") == "1" {
				f.TrackingPixels++
				src, _ := img.Attr("src")
				d := urlx.RegisteredDomain(urlx.Host(urlx.Resolve(p.FinalURL, src)))
				if d != "" && d != adDomain && !beaconDomains[d] {
					beaconDomains[d] = true
					f.ThirdPartyBeaconDomains++
				}
			}
		}
		// document.write-introduced script/iframe elements appear in the
		// DOM with no server-side counterpart in the original document; a
		// good-enough proxy is dynamic iframes of size 1x1.
		for _, fr := range p.Doc.Find("iframe") {
			if fr.AttrOr("width", "") == "1" {
				f.WritesScripts = true
			}
		}
	}
	for _, child := range p.Frames {
		collect(child, adDomain, f, beaconDomains)
	}
}
