// Package netcap captures HTTP traffic. The paper's methodology "captured
// all the HTTP traffic during crawling for further investigation"; this
// package is that capture layer: an http.RoundTripper middleware that logs
// every transaction (request URL, status, content type, redirect target,
// referer) into an ordered, queryable trace.
//
// Both the crawler and the honeyclient wrap their clients with a Capture;
// the analysis stage later mines the traces for redirect chains and
// arbitration hops.
package netcap

import (
	"net/http"
	"sync"
	"time"

	"madave/internal/urlx"
)

// Transaction is one captured HTTP request/response pair.
type Transaction struct {
	// Seq is the 0-based capture order within the Capture.
	Seq int
	// Time is the wall-clock capture time (informational only; the
	// simulation's logic never branches on it).
	Time   time.Time
	Method string
	URL    string
	Host   string
	// Referer is the request's Referer header, which encodes the redirect/
	// inclusion chain the analysis reconstructs.
	Referer string
	Status  int
	// ContentType is the response Content-Type without parameters.
	ContentType string
	// Location is the response Location header for redirects.
	Location string
	// BodySize is the response body length as reported by the transport.
	BodySize int64
	// Err is the transport error string when the request failed (e.g. an
	// NXDOMAIN from memnet); empty on success.
	Err string
	// Tag is a free-form label the initiator attaches (e.g. "iframe",
	// "script", "adchain") so analyses can filter by cause.
	Tag string
	// FrameID identifies the browser frame whose load issued the request,
	// as a frame-tree path ("0" for the root document, "0.1" for its second
	// subframe, ...). Empty when the issuer did not stamp provenance.
	FrameID string `json:",omitempty"`
	// Initiator is the URL of the document or script that caused the
	// request (the redirecting URL for chain hops, the script src for
	// script-driven fetches). Empty when unknown.
	Initiator string `json:",omitempty"`
	// Via records how the request came to be: "document", "redirect",
	// "script", "iframe", "img", "embed", "object", "nav", ... Empty when
	// the issuer did not stamp provenance.
	Via string `json:",omitempty"`
}

// IsRedirect reports whether the transaction is an HTTP redirect that
// actually moves a browser to a new URL. 301/302/303 and the
// method-preserving 307/308 count; 304 Not Modified is a cache
// revalidation, and the deprecated 305 Use Proxy / reserved 306 never
// navigate, so none of those are chain hops even with a Location header.
func (t *Transaction) IsRedirect() bool {
	switch t.Status {
	case 301, 302, 303, 307, 308:
		return t.Location != ""
	}
	return false
}

// Capture is a thread-safe HTTP transaction log that wraps a RoundTripper.
type Capture struct {
	mu   sync.Mutex
	log  []Transaction
	next http.RoundTripper
	// tag applied to transactions issued through this capture's transport.
	tag string
	// origin is the provenance stamp applied to subsequently captured
	// transactions; see SetOrigin.
	origin struct {
		frameID   string
		initiator string
		via       string
	}
}

// New wraps next with a fresh capture. A nil next uses
// http.DefaultTransport.
func New(next http.RoundTripper) *Capture {
	if next == nil {
		next = http.DefaultTransport
	}
	// Transaction is a large value; a small presize skips the first append
	// regrowth copies without stranding memory on short captures.
	return &Capture{next: next, log: make([]Transaction, 0, 4)}
}

// WithTag returns a RoundTripper view of c that tags every transaction it
// captures. Multiple tagged views share one log.
func (c *Capture) WithTag(tag string) http.RoundTripper {
	return &taggedTripper{c: c, tag: tag}
}

type taggedTripper struct {
	c   *Capture
	tag string
}

func (t *taggedTripper) RoundTrip(req *http.Request) (*http.Response, error) {
	return t.c.roundTrip(req, t.tag)
}

// RoundTrip implements http.RoundTripper with the capture's default tag.
func (c *Capture) RoundTrip(req *http.Request) (*http.Response, error) {
	return c.roundTrip(req, c.tag)
}

// SetOrigin sets the provenance stamped onto transactions captured from
// now on: the issuing frame's tree path, the initiator URL (document or
// script), and a via label naming the cause. The browser drives one capture
// from a single goroutine and restamps before every fetch; concurrent users
// of a shared capture should leave the origin unset.
func (c *Capture) SetOrigin(frameID, initiator, via string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.origin.frameID, c.origin.initiator, c.origin.via = frameID, initiator, via
}

// ClearOrigin removes the provenance stamp.
func (c *Capture) ClearOrigin() { c.SetOrigin("", "", "") }

func (c *Capture) stampOrigin(tx *Transaction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tx.FrameID = c.origin.frameID
	tx.Initiator = c.origin.initiator
	tx.Via = c.origin.via
}

func (c *Capture) roundTrip(req *http.Request, tag string) (*http.Response, error) {
	url := req.URL.String()
	tx := Transaction{
		Time:    time.Now(),
		Method:  req.Method,
		URL:     url,
		Host:    urlx.Host(url),
		Referer: req.Header.Get("Referer"),
		Tag:     tag,
	}
	c.stampOrigin(&tx)
	resp, err := c.next.RoundTrip(req)
	if err != nil {
		tx.Err = err.Error()
		c.append(tx)
		return nil, err
	}
	tx.Status = resp.StatusCode
	tx.ContentType = mediaType(resp.Header.Get("Content-Type"))
	tx.Location = resp.Header.Get("Location")
	tx.BodySize = resp.ContentLength
	c.append(tx)
	return resp, nil
}

func (c *Capture) append(tx Transaction) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tx.Seq = len(c.log)
	c.log = append(c.log, tx)
}

// Record appends a synthetic transaction that did not pass through the
// RoundTripper (e.g. a navigation the browser suppressed). Seq is assigned
// by the capture.
func (c *Capture) Record(tx Transaction) {
	if tx.Host == "" {
		tx.Host = urlx.Host(tx.URL)
	}
	c.append(tx)
}

// Len returns the number of captured transactions.
func (c *Capture) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.log)
}

// All returns a copy of the capture log in order.
func (c *Capture) All() []Transaction {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Transaction, len(c.log))
	copy(out, c.log)
	return out
}

// Reset clears the log.
func (c *Capture) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.log = c.log[:0]
}

// Filter returns transactions for which keep returns true, in order.
func (c *Capture) Filter(keep func(*Transaction) bool) []Transaction {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []Transaction
	for i := range c.log {
		if keep(&c.log[i]) {
			out = append(out, c.log[i])
		}
	}
	return out
}

// Hosts returns the distinct hosts contacted, in first-seen order.
func (c *Capture) Hosts() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for i := range c.log {
		h := c.log[i].Host
		if h != "" && !seen[h] {
			seen[h] = true
			out = append(out, h)
		}
	}
	return out
}

// RedirectChainFrom reconstructs the redirect chain starting at the first
// transaction whose URL matches start and returns the URLs visited,
// starting with start. It is a compatibility wrapper over ChainFrom; use
// ChainFrom/ChainAt when the cycle shape or a specific visit matters.
func (c *Capture) RedirectChainFrom(start string) []string {
	ch := c.ChainFrom(start)
	if len(ch.Hops) == 0 {
		return []string{stripFragment(start)}
	}
	return ch.Hops
}

// mediaType strips parameters from a Content-Type value.
func mediaType(ct string) string {
	for i := 0; i < len(ct); i++ {
		if ct[i] == ';' {
			return trimSpace(ct[:i])
		}
	}
	return trimSpace(ct)
}

// trimSpace strips the optional whitespace RFC 7230 allows around header
// values: spaces and horizontal tabs.
func trimSpace(s string) string {
	start := 0
	for start < len(s) && (s[start] == ' ' || s[start] == '\t') {
		start++
	}
	end := len(s)
	for end > start && (s[end-1] == ' ' || s[end-1] == '\t') {
		end--
	}
	return s[start:end]
}
