// Package resilient makes the crawl pipeline survive a hostile network.
// It provides an http.RoundTripper middleware that layers three defenses
// over any transport (normally memnet's, optionally chaos-wrapped):
//
//   - bounded retries with exponential backoff and deterministic jitter for
//     transient failures (connection resets, NXDOMAIN flaps, 5xx bursts,
//     truncated bodies, per-attempt timeouts);
//   - a per-attempt deadline, so a stalled read costs one attempt, not the
//     whole visit;
//   - a per-host circuit breaker, so a dead ad server is cut off after a
//     few consecutive failures instead of stalling every request aimed at
//     it.
//
// Everything is deterministic given a seed: jitter derives from
// (seed, URL, attempt), and the breaker counts requests, not wall-clock
// time, so a crawl's resilience statistics are reproducible run to run.
package resilient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"madave/internal/memnet"
	"madave/internal/stats"
	"madave/internal/telemetry"
)

// Policy parameterizes the retry layer.
type Policy struct {
	// MaxAttempts is the total number of tries per request (minimum 1).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; it doubles per
	// attempt up to MaxDelay. The actual wait is jittered uniformly over
	// [delay/2, delay].
	BaseDelay time.Duration
	MaxDelay  time.Duration
	// AttemptTimeout bounds one attempt including its body read (0 = the
	// 2s default, negative = no per-attempt deadline). Stalled reads are
	// broken by this; without it a stall against a deadline-free parent
	// context would hang forever.
	AttemptTimeout time.Duration
	// Seed drives the jitter deterministically.
	Seed uint64
}

// DefaultPolicy is tuned for the in-memory universe: fast enough that a
// fully hostile host costs milliseconds, patient enough that flaps recover.
func DefaultPolicy() Policy {
	return Policy{
		MaxAttempts:    3,
		BaseDelay:      2 * time.Millisecond,
		MaxDelay:       50 * time.Millisecond,
		AttemptTimeout: 2 * time.Second,
		Seed:           1,
	}
}

// withDefaults fills zero fields from DefaultPolicy (Seed 0 is kept: it is
// a valid seed).
func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.AttemptTimeout == 0 {
		p.AttemptTimeout = d.AttemptTimeout
	}
	return p
}

// Counters aggregates resilience events across a transport's lifetime. All
// fields are updated atomically; totals are order-independent, so shared
// counters stay deterministic under any worker interleaving.
type Counters struct {
	Attempts             int64 // individual tries issued
	Retries              int64 // tries beyond the first
	Timeouts             int64 // attempts ended by the per-attempt deadline
	Truncations          int64 // responses with a truncated body
	BreakerOpens         int64 // closed -> open transitions
	BreakerShortCircuits int64 // requests rejected by an open breaker
}

// Add sums o into c. It is for folding finished snapshots; it does not
// synchronize with transports still counting into c.
func (c *Counters) Add(o Counters) {
	c.Attempts += o.Attempts
	c.Retries += o.Retries
	c.Timeouts += o.Timeouts
	c.Truncations += o.Truncations
	c.BreakerOpens += o.BreakerOpens
	c.BreakerShortCircuits += o.BreakerShortCircuits
}

// discardCounters absorbs events for transports built without counters.
var discardCounters Counters

// Snapshot returns a copy safe to read while workers are still running.
func (c *Counters) Snapshot() Counters {
	if c == nil {
		return Counters{}
	}
	return Counters{
		Attempts:             atomic.LoadInt64(&c.Attempts),
		Retries:              atomic.LoadInt64(&c.Retries),
		Timeouts:             atomic.LoadInt64(&c.Timeouts),
		Truncations:          atomic.LoadInt64(&c.Truncations),
		BreakerOpens:         atomic.LoadInt64(&c.BreakerOpens),
		BreakerShortCircuits: atomic.LoadInt64(&c.BreakerShortCircuits),
	}
}

// BreakerOpenError reports a request short-circuited by an open breaker.
type BreakerOpenError struct{ Host string }

func (e *BreakerOpenError) Error() string {
	return "resilient: circuit open for host " + e.Host
}

// breaker states.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

// hostBreaker is one host's circuit state.
type hostBreaker struct {
	state    int
	failures int // consecutive failures while closed
	cooldown int // short-circuits remaining before a probe is allowed
}

// BreakerSet holds per-host circuit breakers. The breaker is count-based,
// not clock-based: after Threshold consecutive failures the host is open
// and the next Cooldown requests are rejected instantly; the request after
// that is a half-open probe whose outcome closes or re-opens the circuit.
// Counting requests instead of seconds keeps the breaker deterministic.
//
// A BreakerSet is safe for concurrent use, but determinism of *when* it
// trips requires that each instance see a deterministic request sequence —
// the crawler gives each visit its own set.
type BreakerSet struct {
	// Threshold is the consecutive-failure count that opens a circuit
	// (minimum 1; default 5).
	Threshold int
	// Cooldown is how many requests are short-circuited per open period
	// before a probe (default 10).
	Cooldown int

	mu sync.Mutex
	m  map[string]*hostBreaker
}

// NewBreakerSet returns a breaker set with the given thresholds (zeros take
// the defaults).
func NewBreakerSet(threshold, cooldown int) *BreakerSet {
	return &BreakerSet{Threshold: threshold, Cooldown: cooldown}
}

func (s *BreakerSet) thresholds() (int, int) {
	th, cd := s.Threshold, s.Cooldown
	if th <= 0 {
		th = 5
	}
	if cd <= 0 {
		cd = 10
	}
	return th, cd
}

// Allow reports whether a request to host may proceed. While open it
// consumes one cooldown slot per call; when the cooldown is spent the
// circuit goes half-open and the call is allowed as a probe.
func (s *BreakerSet) Allow(host string) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.get(host)
	switch b.state {
	case stateOpen:
		b.cooldown--
		if b.cooldown > 0 {
			return false
		}
		b.state = stateHalfOpen
		return true
	default:
		return true
	}
}

// Report records the outcome of an allowed request. It returns true when
// this outcome opened the circuit (a closed->open or half-open->open
// transition), so callers can count distinct opens.
func (s *BreakerSet) Report(host string, ok bool) bool {
	opened, _ := s.ReportOutcome(host, ok)
	return opened
}

// ReportOutcome records the outcome of an allowed request and reports both
// edge transitions: opened is a closed->open or half-open->open edge, closed
// is a recovery edge (a successful probe closing a previously open or
// half-open circuit). Callers that only care about opens can use Report.
func (s *BreakerSet) ReportOutcome(host string, ok bool) (opened, closed bool) {
	if s == nil {
		return false, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	th, cd := s.thresholds()
	b := s.get(host)
	if ok {
		closed = b.state != stateClosed
		b.state = stateClosed
		b.failures = 0
		return false, closed
	}
	switch b.state {
	case stateHalfOpen:
		// Probe failed: straight back to open.
		b.state = stateOpen
		b.cooldown = cd
		return true, false
	default:
		b.failures++
		if b.state == stateClosed && b.failures >= th {
			b.state = stateOpen
			b.cooldown = cd
			return true, false
		}
	}
	return false, false
}

// BreakerState is one host's circuit snapshot for the ops plane.
type BreakerState struct {
	Host     string `json:"host"`
	State    string `json:"state"` // "closed", "open", or "half-open"
	Failures int    `json:"failures,omitempty"`
	Cooldown int    `json:"cooldown,omitempty"`
}

// States snapshots every tracked host's circuit, sorted by host name. It is
// read-only: sampling never advances breaker state.
func (s *BreakerSet) States() []BreakerState {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	out := make([]BreakerState, 0, len(s.m))
	for host, b := range s.m {
		st := "closed"
		switch b.state {
		case stateOpen:
			st = "open"
		case stateHalfOpen:
			st = "half-open"
		}
		out = append(out, BreakerState{Host: host, State: st, Failures: b.failures, Cooldown: b.cooldown})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Host < out[j].Host })
	return out
}

// Open reports whether host's circuit is currently open.
func (s *BreakerSet) Open(host string) bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.m[strings.ToLower(host)]
	return ok && b.state == stateOpen
}

func (s *BreakerSet) get(host string) *hostBreaker {
	if s.m == nil {
		s.m = make(map[string]*hostBreaker)
	}
	host = strings.ToLower(host)
	b, ok := s.m[host]
	if !ok {
		b = &hostBreaker{}
		s.m[host] = b
	}
	return b
}

// maxBufferedBody bounds how much of a response the retry layer buffers to
// detect truncation. It exceeds the browser's own 1MB cap, so nothing the
// pipeline would use is lost.
const maxBufferedBody = 2 << 20

// Transport is the retrying, breaker-guarded RoundTripper.
type Transport struct {
	// Next is the wrapped transport.
	Next http.RoundTripper
	// Policy configures retries (zero fields take defaults).
	Policy Policy
	// Breakers, when non-nil, guards per-host circuits.
	Breakers *BreakerSet
	// Counters, when non-nil, receives resilience event counts.
	Counters *Counters
	// Tel, when non-nil, mirrors the Counters events into the metrics
	// registry (resilient_events_total{event=…}) and records one
	// resilient.attempt span per try. Purely observational: retry and
	// breaker decisions never read telemetry state.
	Tel *telemetry.Set

	telOnce sync.Once
	events  map[string]*telemetry.Counter
}

// event names mirrored into the registry.
const (
	evAttempt      = "attempt"
	evRetry        = "retry"
	evTimeout      = "timeout"
	evTruncation   = "truncation"
	evBreakerOpen  = "breaker_open"
	evShortCircuit = "breaker_short_circuit"
)

// count bumps the Counters field via addr and, when telemetry is wired, the
// matching registry counter.
func (t *Transport) count(addr *int64, event string) {
	atomic.AddInt64(addr, 1)
	if t.Tel == nil {
		return
	}
	t.telOnce.Do(func() {
		t.events = make(map[string]*telemetry.Counter)
		for _, ev := range []string{evAttempt, evRetry, evTimeout, evTruncation, evBreakerOpen, evShortCircuit} {
			t.events[ev] = t.Tel.Counter("resilient_events_total", telemetry.L("event", ev))
		}
	})
	t.events[event].Inc()
}

// New wraps next with the default policy, a fresh breaker set, and the
// given counters (which may be nil).
func New(next http.RoundTripper, policy Policy, counters *Counters) *Transport {
	return &Transport{
		Next:     next,
		Policy:   policy,
		Breakers: NewBreakerSet(0, 0),
		Counters: counters,
	}
}

// RoundTrip issues the request with retries. The returned response's body
// is fully buffered in memory; a truncated final attempt yields the partial
// bytes with no error — graceful degradation over data loss.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	pol := t.Policy.withDefaults()
	ctx := req.Context()
	host := req.URL.Hostname()
	cnt := t.counters()

	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !t.Breakers.Allow(host) {
			t.count(&cnt.BreakerShortCircuits, evShortCircuit)
			return nil, &BreakerOpenError{Host: host}
		}

		t.count(&cnt.Attempts, evAttempt)
		resp, err := t.attempt(req, pol, attempt)

		truncated := errors.Is(err, io.ErrUnexpectedEOF)
		if truncated {
			t.count(&cnt.Truncations, evTruncation)
		}
		if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
			t.count(&cnt.Timeouts, evTimeout)
		}

		ok := err == nil && (resp == nil || resp.StatusCode < 500)
		t.report(host, ok)
		if ok {
			return resp, nil
		}

		if attempt >= pol.MaxAttempts || !transient(err, resp) || ctx.Err() != nil {
			// Out of patience. A truncated body is still a body: hand the
			// partial bytes over rather than dropping the response, and let
			// 5xx responses through so callers observe the status.
			if resp != nil && (err == nil || truncated) {
				return resp, nil
			}
			return nil, err
		}
		t.count(&cnt.Retries, evRetry)
		if !t.backoff(ctx, pol, req.URL.String(), attempt) {
			return nil, ctx.Err()
		}
	}
}

// attempt issues one try: tag the request with the attempt number, bound
// it by the per-attempt deadline, round-trip it, and buffer the body. On
// success (and on a truncated body) resp.Body is a *memnet.Body holding the
// buffered bytes.
func (t *Transport) attempt(req *http.Request, pol Policy, attempt int) (*http.Response, error) {
	actx := req.Context()
	if attempt > 1 {
		// AttemptFrom defaults to 1 when the tag is absent, so the common
		// first attempt skips the context-value allocation entirely.
		actx = memnet.WithAttempt(actx, attempt)
	}
	// deadline is the attempt deadline over the synchronous in-memory
	// transport, checked after the call instead of armed as a timer.
	var deadline time.Time
	if pol.AttemptTimeout > 0 {
		// A parent deadline that already fires sooner makes the per-attempt
		// deadline redundant.
		now := time.Now()
		if d, ok := actx.Deadline(); !ok || d.Sub(now) > pol.AttemptTimeout {
			if _, synchronous := t.Next.(*memnet.Transport); synchronous {
				// memnet runs the handler to completion and a timer cannot
				// interrupt it; its only effect is memnet discarding the
				// response once the handler returns late. The elapsed-time
				// check below has the same outcome without a timer and a
				// context per attempt.
				deadline = now.Add(pol.AttemptTimeout)
			} else {
				var cancel context.CancelFunc
				actx, cancel = context.WithTimeout(actx, pol.AttemptTimeout)
				defer cancel()
			}
		}
	}
	if t.Tel != nil {
		// A leaf StageTimer instead of a full Span: the attempt needs a
		// latency sample and a trace row, not a context of its own. The key
		// only surfaces in trace output; render it only when a tracer is
		// attached.
		key := ""
		if t.Tel.Tracer != nil {
			key = fmt.Sprintf("%s|attempt=%d", req.URL.String(), attempt)
		}
		sp := t.Tel.StartStageTimer(actx, telemetry.StageResilient, key)
		defer sp.End()
	}

	// The first attempt usually runs under the caller's own context, so the
	// request goes down as is. Otherwise WithContext is a shallow copy:
	// downstream transports (memnet, or a stock net/http transport) must not
	// mutate the request, and attempts run strictly sequentially, so sharing
	// the URL and header map is safe and skips Clone's deep copies.
	areq := req
	if actx != req.Context() {
		areq = req.WithContext(actx)
	}
	resp, err := t.Next.RoundTrip(areq)
	if err != nil {
		return nil, err
	}
	if !deadline.IsZero() && time.Now().After(deadline) {
		resp.Body.Close()
		return nil, context.DeadlineExceeded
	}
	return resp, bufferBody(resp)
}

// bufferBody leaves up to maxBufferedBody bytes of the response in memory
// as a *memnet.Body and reports a body shorter than its declared
// Content-Length (or one whose reader says so) as io.ErrUnexpectedEOF. A
// body memnet already holds in memory is checked in place; any other body
// is read once, and the buffer becomes the new body without another copy.
func bufferBody(resp *http.Response) error {
	body, ok := resp.Body.(*memnet.Body)
	if !ok || body.Len() > maxBufferedBody {
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxBufferedBody))
		resp.Body.Close()
		body = memnet.NewBody(b)
		resp.Body = body
		if err != nil {
			return err
		}
	}
	// ContentLength 0 is ambiguous (hand-built responses leave it unset), so
	// only a positive declared length can expose a truncation, and a body
	// that filled the buffer cap is not short whatever it declared.
	if n := int64(body.Len()); n < resp.ContentLength && n < maxBufferedBody {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// counters returns the transport's counter sink, never nil.
func (t *Transport) counters() *Counters {
	if t.Counters == nil {
		return &discardCounters
	}
	return t.Counters
}

// report feeds the breaker, counts circuit opens, and mirrors both edge
// transitions into the structured event log (when telemetry is wired).
func (t *Transport) report(host string, ok bool) {
	if t.Breakers == nil {
		return
	}
	opened, closed := t.Breakers.ReportOutcome(host, ok)
	if opened {
		t.count(&t.counters().BreakerOpens, evBreakerOpen)
		t.Tel.Event(telemetry.LevelWarn, telemetry.EventBreakerOpen, "crawl",
			"circuit opened", "host", host)
	}
	if closed {
		t.Tel.Event(telemetry.LevelInfo, telemetry.EventBreakerClose, "crawl",
			"circuit closed after successful probe", "host", host)
	}
}

// transient reports whether a failed attempt is worth retrying: connection
// resets, NXDOMAIN flaps, truncated bodies, per-attempt timeouts, and 5xx
// responses. Permanent conditions (4xx, malformed URLs, blocked requests)
// are not.
func transient(err error, resp *http.Response) bool {
	if err != nil {
		var rst *memnet.ResetError
		var nx *memnet.NXDomainError
		switch {
		case errors.As(err, &rst):
			return true
		case errors.As(err, &nx):
			return true
		case errors.Is(err, io.ErrUnexpectedEOF):
			return true
		case errors.Is(err, context.DeadlineExceeded):
			// The *attempt* deadline; the caller checks the parent context
			// before retrying.
			return true
		}
		return false
	}
	if resp != nil {
		switch resp.StatusCode {
		case http.StatusInternalServerError, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
	}
	return false
}

// backoff sleeps the jittered exponential delay before the next attempt.
// It returns false if the context ended first. The jitter is a pure
// function of (seed, url, attempt), so retry timing is reproducible.
func (t *Transport) backoff(ctx context.Context, pol Policy, url string, attempt int) bool {
	delay := pol.BaseDelay << (attempt - 1)
	if delay > pol.MaxDelay || delay <= 0 {
		delay = pol.MaxDelay
	}
	if ctx.Err() != nil {
		// Checked first: with a tiny delay the timer may already have fired
		// when the select runs, and select picks among ready cases at random.
		return false
	}
	rng := stats.NewRNGFromString(fmt.Sprintf("backoff|%d|%s|%d", pol.Seed, url, attempt))
	jittered := delay/2 + time.Duration(rng.Float64()*float64(delay/2))
	timer := time.NewTimer(jittered)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}
