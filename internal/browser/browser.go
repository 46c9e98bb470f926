// Package browser implements the emulated web browser of the reproduction.
// It plays two roles from the paper:
//
//   - the crawler's "real browser" (the paper drove Firefox via Selenium):
//     it fetches pages, renders iframes, executes ad scripts, and captures
//     all resulting traffic; and
//   - the honeyclient's instrumented browser (Wepawet's emulated browser):
//     same engine, different Profile, with every security-relevant event —
//     top.location hijacks, forced navigations, file downloads — recorded
//     for the oracle.
//
// The engine composes the repository's own substrates: htmlparse for the
// DOM, minijs for script execution, netcap/memnet for traffic.
package browser

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"madave/internal/easylist"
	"madave/internal/htmlparse"
	"madave/internal/memnet"
	"madave/internal/minijs"
	"madave/internal/netcap"
	"madave/internal/stats"
	"madave/internal/telemetry"
	"madave/internal/urlx"
)

// Plugin is one browser plugin advertised via navigator.plugins.
type Plugin struct {
	Name    string
	Version float64
}

// Profile describes the browser environment scripts can probe. Cloaking
// malvertisements branch on exactly these observables (§3.2.1).
type Profile struct {
	Name      string
	UserAgent string
	Plugins   []Plugin
	ScreenW   int
	ScreenH   int
}

// UserProfile models a regular user's desktop Firefox: a rich plugin list
// (including a vulnerable Flash — the population attackers target) and a
// normal screen.
func UserProfile() Profile {
	return Profile{
		Name:      "user",
		UserAgent: "Mozilla/5.0 (X11; Linux x86_64; rv:24.0) Gecko/20100101 Firefox/24.0",
		Plugins: []Plugin{
			{Name: "Shockwave Flash", Version: 10},
			{Name: "Java", Version: 7},
			{Name: "PDF Viewer", Version: 11},
			{Name: "Silverlight", Version: 5},
		},
		ScreenW: 1920,
		ScreenH: 1080,
	}
}

// HoneyclientProfile models the analysis environment: deliberately
// vulnerable (so drive-bys fire) but visibly sparse — which is what
// cloaking campaigns sniff for.
func HoneyclientProfile() Profile {
	return Profile{
		Name:      "honeyclient",
		UserAgent: "Mozilla/5.0 (X11; Linux i686; rv:17.0) Gecko/20100101 Firefox/17.0",
		Plugins: []Plugin{
			{Name: "Shockwave Flash", Version: 10},
		},
		ScreenW: 1024,
		ScreenH: 768,
	}
}

// NavigationKind classifies how a script tried to move the browser.
type NavigationKind string

// Navigation kinds.
const (
	// NavLocation is a same-frame navigation (location.href = ...).
	NavLocation NavigationKind = "location"
	// NavTop is a top-level navigation from inside a frame — the
	// link-hijacking channel (§2.3).
	NavTop NavigationKind = "top"
)

// Navigation is one script-initiated navigation attempt.
type Navigation struct {
	Kind   NavigationKind
	Target string
	// Blocked is true when the iframe sandbox policy suppressed it.
	Blocked bool
	// NXDomain is true when the target host did not resolve.
	NXDomain bool
	// Status is the target's HTTP status when the browser followed it.
	Status int
	// ContentType is the target's content type when followed.
	ContentType string
}

// Download is a binary payload the page caused the browser to receive.
type Download struct {
	URL         string
	ContentType string
	Body        []byte
}

// Resource is a subresource fetch (image, script file, embed).
type Resource struct {
	URL         string
	Tag         string // originating element: img, embed, script
	Status      int
	ContentType string
	Err         string
}

// DOMWrite records one flush of script-generated markup into the document —
// the writes-DOM provenance the flowgraph turns into script→frame edges.
type DOMWrite struct {
	// Writer identifies the script that produced the markup: the resolved
	// src URL for external scripts, or "inline:<frameID>:<n>" for the n-th
	// inline script executed in the frame.
	Writer string
	// Tags lists the top-level element tags the write introduced, in
	// document order ("img", "iframe", "a", ...).
	Tags []string
}

// Page is the result of loading one document (the top page or one iframe).
type Page struct {
	// URL is the requested URL; FinalURL reflects HTTP redirects.
	URL      string
	FinalURL string
	Status   int
	// Doc is the DOM after script execution (document.write applied).
	Doc *htmlparse.Node
	// Sandboxed is true when this frame was loaded under a sandbox
	// attribute.
	Sandboxed bool
	// Scripts holds the source of every executed script.
	Scripts []string
	// Navigations, Downloads, Resources record what the document did.
	Navigations []Navigation
	Downloads   []Download
	Resources   []Resource
	// Frames are the child iframes, recursively loaded.
	Frames []*Page
	// FrameElems are the iframe elements found (parallel to all iframes in
	// the DOM, including blocked ones).
	FrameElems []*htmlparse.Node
	// Blocked lists URLs the ad blocker (when installed) refused to fetch.
	Blocked []string
	// Errors holds script and fetch errors (informational).
	Errors []string
	// RedirectHops is the HTTP redirect chain that led to FinalURL,
	// starting with URL.
	RedirectHops []string
	// FrameID is the frame's position in the frame tree: "0" for the top
	// document, "0.1" for its second iframe, and so on. Every transaction
	// this frame's load captured carries the same ID.
	FrameID string
	// DOMWrites records each script-driven markup flush (document.write and
	// timer writes), attributed to the writing script.
	DOMWrites []DOMWrite

	// sandboxTokens is the raw sandbox attribute value for sandboxed
	// frames ("" when absent or empty).
	sandboxTokens string
}

// HTML returns the final serialized document, the artefact the paper stored
// for every advertisement iframe.
func (p *Page) HTML() string {
	if p.Doc == nil {
		return ""
	}
	return p.Doc.Render()
}

// AllNavigations returns this page's and all descendant frames'
// navigations.
func (p *Page) AllNavigations() []Navigation {
	out := append([]Navigation{}, p.Navigations...)
	for _, f := range p.Frames {
		out = append(out, f.AllNavigations()...)
	}
	return out
}

// AllDownloads returns this page's and all descendant frames' downloads.
func (p *Page) AllDownloads() []Download {
	out := append([]Download{}, p.Downloads...)
	for _, f := range p.Frames {
		out = append(out, f.AllDownloads()...)
	}
	return out
}

// AllResources returns this page's and all descendant frames' resources.
func (p *Page) AllResources() []Resource {
	out := append([]Resource{}, p.Resources...)
	for _, f := range p.Frames {
		out = append(out, f.AllResources()...)
	}
	return out
}

// WalkFrames visits the page and every descendant frame, parents first.
func (p *Page) WalkFrames(fn func(*Page)) {
	fn(p)
	for _, f := range p.Frames {
		f.WalkFrames(fn)
	}
}

// Browser is the emulated browser. Construct with New.
type Browser struct {
	// Client performs HTTP; it must not follow redirects itself (the
	// browser follows them so each hop is observable).
	Client *http.Client
	// Capture, when set, tags and records synthetic events (blocked
	// navigations) alongside the transport capture.
	Capture *netcap.Capture
	// Tel, when non-nil, records a browser.load span per frame (the top
	// document and each iframe, nested) and stage latency samples.
	// Observational only: rendering decisions never consult it.
	Tel     *telemetry.Set
	Profile Profile
	// RNG drives Math.random inside scripts.
	RNG *stats.RNG
	// MaxFrameDepth bounds iframe nesting; MaxRedirects bounds HTTP
	// redirect chains (must accommodate adnet.MaxChain hops).
	MaxFrameDepth int
	MaxRedirects  int
	// ScriptBudget is the minijs step allowance per document.
	ScriptBudget int
	// TolerantJS parses scripts with error recovery: broken creatives run
	// to a deterministic partial result instead of failing outright, and
	// their syntax diagnostics land in Page.Errors.
	TolerantJS bool
	// FollowNavigations controls whether script navigations are fetched
	// (one GET, no rendering) to observe their outcome.
	FollowNavigations bool
	// Blocker, when set, is consulted before every fetch; matching URLs
	// are not requested (the Adblock Plus countermeasure of §5.2).
	Blocker *easylist.List
	// blockCtx is the reusable EasyList match context for this browser's
	// Blocker calls. A Browser serves one goroutine, so one context
	// amortizes the per-request scratch across every fetch it checks.
	blockCtx easylist.RequestCtx
	// baseHeader is the shared header map for refererless requests and
	// uaVal the cached User-Agent value slice, both built on first fetch.
	// Sharing them across requests is safe because the transport stack
	// treats request headers as read-only (see memnet.Transport).
	baseHeader http.Header
	uaVal      []string
	// navObj/screenObj are the frozen shared navigator and screen host
	// objects, pure functions of Profile, built on first script run.
	navObj    *minijs.Object
	screenObj *minijs.Object
	// EnforceSandbox honors iframe sandbox attributes. Real browsers do;
	// the study's finding is that no publisher used them.
	EnforceSandbox bool
	// cookies is the per-registered-domain cookie jar document.cookie
	// reads and writes (ads use it for frequency capping).
	cookies map[string]map[string]string
	// ClockMillis is the logical wall-clock time (ms since epoch) scripts
	// see through Date — fixed per browser so runs are reproducible.
	// Time-of-day cloaking (ads that only misbehave at night) branches on
	// this.
	ClockMillis int64
}

// Cookie returns the value of a cookie set for the host's registered
// domain, and whether it exists.
func (b *Browser) Cookie(host, name string) (string, bool) {
	domain := urlx.RegisteredDomain(host)
	if b.cookies == nil || b.cookies[domain] == nil {
		return "", false
	}
	v, ok := b.cookies[domain][name]
	return v, ok
}

// setCookie stores a "name=value[; attributes]" cookie string for a host.
func (b *Browser) setCookie(host, raw string) {
	domain := urlx.RegisteredDomain(host)
	if domain == "" {
		domain = host
	}
	// Only the name=value pair matters to the simulation; attributes
	// (path, expires) are accepted and ignored.
	pair := raw
	if i := strings.IndexByte(raw, ';'); i >= 0 {
		pair = raw[:i]
	}
	eq := strings.IndexByte(pair, '=')
	if eq <= 0 {
		return
	}
	name := strings.TrimSpace(pair[:eq])
	value := strings.TrimSpace(pair[eq+1:])
	if name == "" {
		return
	}
	if b.cookies == nil {
		b.cookies = map[string]map[string]string{}
	}
	if b.cookies[domain] == nil {
		b.cookies[domain] = map[string]string{}
	}
	b.cookies[domain][name] = value
}

// cookieHeader renders the stored cookies for a host as "k=v; k2=v2" in
// sorted key order (deterministic for the corpus hashes).
func (b *Browser) cookieHeader(host string) string {
	domain := urlx.RegisteredDomain(host)
	jar := b.cookies[domain]
	if len(jar) == 0 {
		return ""
	}
	keys := make([]string, 0, len(jar))
	for k := range jar {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + jar[k]
	}
	return strings.Join(parts, "; ")
}

// New returns a Browser with sane defaults over the given client.
func New(client *http.Client, profile Profile) *Browser {
	return &Browser{
		Client:            client,
		Profile:           profile,
		RNG:               stats.NewRNG(0xB40153),
		MaxFrameDepth:     4,
		MaxRedirects:      40,
		ScriptBudget:      500_000,
		FollowNavigations: true,
		EnforceSandbox:    true,
		// A fixed Tuesday afternoon (2014-03-11 14:30 UTC), mid-crawl for
		// the paper's collection window.
		ClockMillis: 1_394_548_200_000,
	}
}

// maxBodyBytes bounds how much of any response the browser retains.
const maxBodyBytes = 1 << 20

// Load fetches and renders the document at url. referer may be empty.
func (b *Browser) Load(url, referer string) (*Page, error) {
	return b.LoadContext(context.Background(), url, referer)
}

// LoadContext is Load under a caller-supplied context: the deadline (or
// cancellation) bounds every fetch the page triggers — the document itself,
// its redirects, subresources, script-driven requests, and child iframes.
// When the context ends mid-render, the returned page keeps whatever was
// already loaded (partial pages still count, like the paper's crawler
// keeping whatever a flaky ad server managed to deliver).
func (b *Browser) LoadContext(ctx context.Context, url, referer string) (*Page, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	return b.loadFrame(ctx, url, referer, 0, false, "", rootFrameID)
}

// LoadHTML renders an HTML document without fetching it — the honeyclient
// re-analyzes corpus snapshots this way. baseURL provides the resolution
// context for relative references.
func (b *Browser) LoadHTML(html, baseURL string) *Page {
	return b.LoadHTMLContext(context.Background(), html, baseURL)
}

// LoadHTMLContext is LoadHTML under a caller-supplied context.
func (b *Browser) LoadHTMLContext(ctx context.Context, html, baseURL string) *Page {
	if ctx == nil {
		ctx = context.Background()
	}
	if b.Tel != nil {
		var sp *telemetry.Span
		ctx, sp = b.Tel.StartSpan(ctx, telemetry.StageBrowserLoad, baseURL)
		defer sp.End()
	}
	page := &Page{URL: baseURL, FinalURL: baseURL, Status: 200, RedirectHops: []string{baseURL}, FrameID: rootFrameID}
	page.Doc = htmlparse.Parse(html)
	b.processDocument(ctx, page, 0, false)
	return page
}

// rootFrameID is the frame-tree path of the top document.
const rootFrameID = "0"

// stampOrigin sets the provenance the capture (when present) stamps onto
// subsequently recorded transactions. Every fetch site stamps right before
// it issues the request, so no restore step is needed.
func (b *Browser) stampOrigin(frameID, initiator, via string) {
	if b.Capture != nil {
		b.Capture.SetOrigin(frameID, initiator, via)
	}
}

// loadFrame fetches one document, following HTTP redirects, then renders it.
func (b *Browser) loadFrame(ctx context.Context, url, referer string, depth int, sandboxed bool, sandboxTokens, frameID string) (*Page, error) {
	if b.Tel != nil {
		var sp *telemetry.Span
		ctx, sp = b.Tel.StartSpan(ctx, telemetry.StageBrowserLoad, url)
		defer sp.End()
	}
	page := &Page{URL: url, Sandboxed: sandboxed, sandboxTokens: sandboxTokens, FrameID: frameID}
	via := "document"
	if depth > 0 {
		via = "iframe"
	}
	cur := url
	hops := []string{url}
	var resp *http.Response
	for i := 0; ; i++ {
		if i > b.MaxRedirects {
			return page, fmt.Errorf("browser: redirect limit exceeded at %s", cur)
		}
		b.stampOrigin(frameID, referer, via)
		var err error
		resp, err = b.get(ctx, cur, referer)
		if err != nil {
			page.Errors = append(page.Errors, err.Error())
			page.FinalURL = cur
			page.RedirectHops = hops
			return page, err
		}
		if resp.StatusCode >= 300 && resp.StatusCode < 400 {
			loc := resp.Header.Get("Location")
			io.Copy(io.Discard, io.LimitReader(resp.Body, maxBodyBytes)) //nolint:errcheck
			resp.Body.Close()
			if loc == "" {
				break
			}
			next := urlx.Resolve(cur, loc)
			if next == "" || next == cur {
				break
			}
			referer = cur
			cur = next
			hops = append(hops, next)
			via = "redirect" // later hops are initiated by the redirecting URL
			continue
		}
		break
	}
	defer resp.Body.Close()
	page.FinalURL = cur
	page.RedirectHops = hops
	page.Status = resp.StatusCode

	body := readCapped(resp)
	ct := mediaType(resp.Header.Get("Content-Type"))
	if isDownloadType(ct) {
		page.Downloads = append(page.Downloads, Download{URL: cur, ContentType: ct, Body: body})
		return page, nil
	}
	if !strings.Contains(ct, "html") && ct != "" {
		// Non-HTML frame content (e.g. an image iframe): nothing to render.
		return page, nil
	}
	page.Doc = htmlparse.Parse(string(body))
	b.processDocument(ctx, page, depth, sandboxed)
	return page, nil
}

// processDocument runs scripts, loads subresources, and recurses into
// iframes for an already-parsed page.
func (b *Browser) processDocument(ctx context.Context, page *Page, depth int, sandboxed bool) {
	allowScripts := !sandboxed || b.sandboxAllows(page, "allow-scripts")
	if allowScripts {
		b.runScripts(ctx, page, sandboxed)
	}
	b.loadResources(ctx, page)
	if depth < b.MaxFrameDepth {
		b.loadFrames(ctx, page, depth)
	}
}

// sandboxAllows checks the frame's sandbox token list. It is only
// meaningful for frames loaded with a sandbox attribute; the token list is
// stashed on the page by loadFrames via the sandboxTokens field.
func (b *Browser) sandboxAllows(page *Page, token string) bool {
	return strings.Contains(page.sandboxTokens, token)
}

// blockedBy consults the Blocker, if any, through the browser's reusable
// match context.
func (b *Browser) blockedBy(url string, rt easylist.ResourceType, docHost string) bool {
	if b.Blocker == nil {
		return false
	}
	blocked, _ := b.Blocker.MatchCtx(&b.blockCtx, easylist.Request{URL: url, Type: rt, DocHost: docHost})
	return blocked
}

// get issues a single GET with the browser's headers, honoring the blocker
// and the caller's context.
func (b *Browser) get(ctx context.Context, url, referer string) (*http.Response, error) {
	if b.Blocker != nil && b.blockedBy(url, easylist.TypeSubdocument, urlx.Host(referer)) {
		return nil, &BlockedError{URL: url}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if b.uaVal == nil {
		b.uaVal = []string{b.Profile.UserAgent}
		b.baseHeader = http.Header{"User-Agent": b.uaVal}
	}
	if referer == "" {
		req.Header = b.baseHeader
	} else {
		h := make(http.Header, 2)
		h["User-Agent"] = b.uaVal
		h["Referer"] = []string{referer}
		req.Header = h
	}
	// The browser follows redirects itself (CheckRedirect returns
	// ErrUseLastResponse), so with no cookie jar or client timeout Client.Do
	// adds nothing but a deep header copy for a redirect chain that never
	// happens; round-trip the transport directly in that common case.
	if b.Client.Jar == nil && b.Client.Timeout == 0 {
		rt := b.Client.Transport
		if rt == nil {
			rt = http.DefaultTransport
		}
		return rt.RoundTrip(req)
	}
	return b.Client.Do(req)
}

// BlockedError reports a fetch suppressed by the ad blocker.
type BlockedError struct{ URL string }

func (e *BlockedError) Error() string { return "browser: blocked by filter: " + e.URL }

// IsNXDomain reports whether err is a name-resolution failure.
func IsNXDomain(err error) bool {
	if err == nil {
		return false
	}
	var nx *memnet.NXDomainError
	if errors.As(err, &nx) {
		return true
	}
	return strings.Contains(err.Error(), "no such host")
}

// loadResources fetches images, embeds/objects, and external scripts found
// in the document. A failed subresource is recorded and skipped; the page
// keeps rendering with what it has.
func (b *Browser) loadResources(ctx context.Context, page *Page) {
	var docHost string
	if b.Blocker != nil {
		docHost = urlx.Host(page.FinalURL)
	}
	fetch := func(n *htmlparse.Node, attr, tag string, keepBody bool) {
		src, ok := n.Attr(attr)
		if !ok || src == "" {
			return
		}
		abs := urlx.Resolve(page.FinalURL, src)
		if abs == "" {
			return
		}
		if b.Blocker != nil {
			rt := easylist.TypeImage
			if tag == "script" {
				rt = easylist.TypeScript
			}
			if b.blockedBy(abs, rt, docHost) {
				page.Blocked = append(page.Blocked, abs)
				return
			}
		}
		res := Resource{URL: abs, Tag: tag}
		b.stampOrigin(page.FrameID, page.FinalURL, tag)
		resp, err := b.get(ctx, abs, page.FinalURL)
		if err != nil {
			res.Err = err.Error()
			page.Resources = append(page.Resources, res)
			return
		}
		body := readCapped(resp)
		resp.Body.Close()
		res.Status = resp.StatusCode
		res.ContentType = mediaType(resp.Header.Get("Content-Type"))
		page.Resources = append(page.Resources, res)
		if keepBody && (isDownloadType(res.ContentType) || res.ContentType == "application/x-shockwave-flash") {
			page.Downloads = append(page.Downloads, Download{URL: abs, ContentType: res.ContentType, Body: body})
		}
	}
	for _, img := range page.Doc.Find("img") {
		fetch(img, "src", "img", false)
	}
	for _, em := range page.Doc.Find("embed") {
		fetch(em, "src", "embed", true)
	}
	for _, ob := range page.Doc.Find("object") {
		fetch(ob, "data", "embed", true)
	}
	for _, sc := range page.Doc.Find("script") {
		if _, ok := sc.Attr("src"); ok {
			fetch(sc, "src", "script", false)
		}
	}
}

// loadFrames recursively loads iframe children. A child that fails to load
// is still returned (with its own Errors populated), and the failure is
// echoed into the parent's Errors — partial pages keep their surviving
// frames.
func (b *Browser) loadFrames(ctx context.Context, page *Page, depth int) {
	frames := page.Doc.Find("iframe")
	page.FrameElems = frames
	var docHost string
	if b.Blocker != nil {
		docHost = urlx.Host(page.FinalURL)
	}
	for i, f := range frames {
		src, ok := f.Attr("src")
		if !ok || src == "" {
			continue
		}
		abs := urlx.Resolve(page.FinalURL, src)
		if abs == "" {
			continue
		}
		if b.Blocker != nil && b.blockedBy(abs, easylist.TypeSubdocument, docHost) {
			page.Blocked = append(page.Blocked, abs)
			continue
		}
		sandboxed := b.EnforceSandbox && f.HasAttr("sandbox")
		tokens, _ := f.Attr("sandbox")
		// The child's frame ID indexes the iframe's position among the
		// document's iframe elements, so IDs are stable across runs.
		childID := page.FrameID + "." + strconv.Itoa(i)
		child, err := b.loadFrame(ctx, abs, page.FinalURL, depth+1, sandboxed, tokens, childID)
		if err != nil {
			page.Errors = append(page.Errors, fmt.Sprintf("iframe %s: %v", abs, err))
		}
		if child != nil {
			page.Frames = append(page.Frames, child)
		}
	}
}

// readCapped returns up to maxBodyBytes of a response body. A body the
// transport stack already holds in memory (memnet's, or the retry layer's
// buffer) is taken in place: the returned slice aliases it and is only
// read. Any other body is read out.
func readCapped(resp *http.Response) []byte {
	if mb, ok := resp.Body.(*memnet.Body); ok {
		b := mb.Bytes()
		return b[:min(len(b), maxBodyBytes)]
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	return body
}

func isDownloadType(ct string) bool {
	switch ct {
	case "application/octet-stream", "application/x-msdownload", "application/x-msdos-program":
		return true
	}
	return false
}

func mediaType(ct string) string {
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	return strings.TrimSpace(ct)
}

// timerEntry is one queued setTimeout callback. writer is the script that
// queued it, so deferred writes and navigations keep their provenance.
type timerEntry struct {
	delay  float64
	seq    int
	fn     minijs.Value
	writer string
}

// sortTimers orders callbacks by delay then queue order.
func sortTimers(ts []timerEntry) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].delay != ts[j].delay {
			return ts[i].delay < ts[j].delay
		}
		return ts[i].seq < ts[j].seq
	})
}
