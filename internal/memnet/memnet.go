// Package memnet provides the network substrate of the simulation: a
// virtual-host HTTP universe in which every simulated domain (publishers,
// ad networks, exploit servers) registers an http.Handler, plus two ways to
// reach it:
//
//   - Transport: an http.RoundTripper that dispatches requests in memory.
//     This is the default for crawls — deterministic and allocation-cheap.
//   - Server: a real net/http server on a loopback TCP listener with a
//     name-resolving client transport, so the same universe can be exercised
//     over actual sockets (integration tests and the cmd tools use it).
//
// Both paths run the same handler code, mirroring how the paper's crawler
// spoke real HTTP to real ad infrastructure.
package memnet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"madave/internal/telemetry"
)

// Universe is the registry of simulated hosts. It implements http.Handler
// by dispatching on the request's Host header, so it can be served directly
// by net/http.
type Universe struct {
	mu       sync.RWMutex
	hosts    map[string]http.Handler
	fallback http.Handler
}

// NewUniverse returns an empty universe. Unknown hosts respond like a DNS
// failure: the in-memory transport returns an error ("no such host"), and
// the TCP server responds 502.
func NewUniverse() *Universe {
	return &Universe{hosts: make(map[string]http.Handler)}
}

// Handle registers a handler for an exact host name (no port). Registering
// the same host twice replaces the handler.
func (u *Universe) Handle(host string, h http.Handler) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.hosts[strings.ToLower(host)] = h
}

// HandleFunc registers a handler function for a host.
func (u *Universe) HandleFunc(host string, f func(http.ResponseWriter, *http.Request)) {
	u.Handle(host, http.HandlerFunc(f))
}

// SetFallback installs a handler for hosts with no registration, replacing
// the default NXDOMAIN behaviour. The simulation uses it to model wildcard
// parking pages.
func (u *Universe) SetFallback(h http.Handler) {
	u.mu.Lock()
	defer u.mu.Unlock()
	u.fallback = h
}

// Lookup returns the handler for host, or nil when the host does not
// resolve.
func (u *Universe) Lookup(host string) http.Handler {
	host = strings.ToLower(stripPort(host))
	u.mu.RLock()
	defer u.mu.RUnlock()
	if h, ok := u.hosts[host]; ok {
		return h
	}
	return u.fallback
}

// Hosts returns all registered host names (unordered).
func (u *Universe) Hosts() []string {
	u.mu.RLock()
	defer u.mu.RUnlock()
	out := make([]string, 0, len(u.hosts))
	for h := range u.hosts {
		out = append(out, h)
	}
	return out
}

// ServeHTTP dispatches by Host header.
func (u *Universe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := u.Lookup(r.Host)
	if h == nil {
		http.Error(w, "memnet: no such host: "+r.Host, http.StatusBadGateway)
		return
	}
	h.ServeHTTP(w, r)
}

// NXDomainError is returned by the in-memory transport for unregistered
// hosts. The honeyclient's cloaking heuristics (redirects to NX domains)
// depend on being able to distinguish this from an HTTP error.
type NXDomainError struct{ Host string }

func (e *NXDomainError) Error() string {
	return fmt.Sprintf("memnet: lookup %s: no such host", e.Host)
}

// Transport is an http.RoundTripper that serves requests directly from a
// Universe without sockets.
type Transport struct {
	U *Universe
	// Tel, when non-nil, records a memnet.dispatch span and latency sample
	// per request (parented to the span on the request context). Telemetry
	// never changes what the transport returns.
	Tel *telemetry.Set
}

// RoundTrip executes the request against the universe. It honors the
// request context: a cancelled or expired context fails the request before
// the handler runs, and again after (a handler cannot be interrupted
// mid-flight, but its response is discarded — matching a socket transport
// whose caller stopped listening).
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	if t.Tel != nil {
		// The URL key only surfaces in trace output, so it is rendered
		// (one allocation) only when a tracer is actually attached.
		key := ""
		if t.Tel.Tracer != nil {
			key = req.URL.String()
		}
		sp := t.Tel.StartStageTimer(req.Context(), telemetry.StageMemnet, key)
		defer sp.End()
	}
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	host := req.URL.Hostname()
	if host == "" {
		host = stripPort(req.Host)
	}
	h := t.U.Lookup(host)
	if h == nil {
		return nil, &NXDomainError{Host: host}
	}

	// Hand the handler a server-side view of the request. A shallow copy is
	// enough — universe handlers treat the request as read-only (they route
	// on URL fields and never mutate headers), so sharing the URL and header
	// map skips the deep Header.Clone a real server would pay for.
	inner := *req
	inner.Host = req.URL.Host
	inner.RequestURI = req.URL.RequestURI()
	if inner.Body == nil {
		inner.Body = http.NoBody
	}

	rec := newRecorder()
	h.ServeHTTP(rec, &inner)
	if err := req.Context().Err(); err != nil {
		return nil, err
	}
	return rec.response(req), nil
}

// recorder is a minimal in-memory http.ResponseWriter. The reader and
// response it hands out are embedded so one recorder allocation covers the
// whole request round trip; they share the recorder's lifetime because the
// response body aliases the recorder's buffer anyway.
type recorder struct {
	status int
	header http.Header
	body   bytes.Buffer
	wrote  bool

	reader Body
	resp   http.Response
}

// Body is a response body held in memory: memnet's responses carry one, and
// the retry layer rebuilds one around any body it had to buffer. Bytes hands
// out the unread bytes in place, so a layer that needs the whole body takes
// it without copying it out of the reader.
type Body struct {
	b []byte // the unread bytes
}

// NewBody returns a Body reading b. The Body aliases b; the caller must not
// modify b afterwards.
func NewBody(b []byte) *Body { return &Body{b: b} }

func (r *Body) Read(p []byte) (int, error) {
	if len(r.b) == 0 {
		return 0, io.EOF
	}
	n := copy(p, r.b)
	r.b = r.b[n:]
	return n, nil
}

// Len returns the number of unread bytes.
func (r *Body) Len() int { return len(r.b) }

// Bytes returns the unread bytes without consuming them. The slice aliases
// the body's buffer and must be treated as read-only.
func (r *Body) Bytes() []byte { return r.b }

// Close is a no-op: an in-memory body holds no connection.
func (*Body) Close() error { return nil }

func newRecorder() *recorder {
	return &recorder{header: make(http.Header, 2)}
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(status int) {
	if r.wrote {
		return
	}
	r.status = status
	r.wrote = true
}

func (r *recorder) Write(p []byte) (int, error) {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	return r.body.Write(p)
}

// WriteString lets io.WriteString skip its []byte conversion.
func (r *recorder) WriteString(s string) (int, error) {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	return r.body.WriteString(s)
}

func (r *recorder) response(req *http.Request) *http.Response {
	if !r.wrote {
		r.status = http.StatusOK
	}
	r.reader.b = r.body.Bytes()
	r.resp = http.Response{
		Status:        statusLine(r.status),
		StatusCode:    r.status,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.header,
		Body:          &r.reader,
		ContentLength: int64(r.body.Len()),
		Request:       req,
	}
	return &r.resp
}

// statusLine renders "code text" with the hot codes precomposed.
func statusLine(code int) string {
	switch code {
	case http.StatusOK:
		return "200 OK"
	case http.StatusFound:
		return "302 Found"
	case http.StatusBadRequest:
		return "400 Bad Request"
	case http.StatusNotFound:
		return "404 Not Found"
	}
	return fmt.Sprintf("%d %s", code, http.StatusText(code))
}

// Client returns an *http.Client backed by the in-memory transport that
// does not follow redirects automatically: the emulated browser implements
// redirect-following itself so every hop is observable, exactly like the
// paper's full traffic capture.
func Client(u *Universe) *http.Client {
	return &http.Client{
		Transport: &Transport{U: u},
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

// Server runs a Universe on a real TCP loopback listener.
type Server struct {
	U        *Universe
	listener net.Listener
	server   *http.Server
}

// StartServer listens on 127.0.0.1 on an ephemeral port and serves the
// universe over real HTTP.
func StartServer(u *Universe) (*Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &Server{
		U:        u,
		listener: ln,
		server:   &http.Server{Handler: u},
	}
	go s.server.Serve(ln) //nolint:errcheck // Serve returns on Close
	return s, nil
}

// Addr returns the listener's address, e.g. "127.0.0.1:40123".
func (s *Server) Addr() string { return s.listener.Addr().String() }

// shutdownGrace bounds how long Close waits for in-flight requests.
const shutdownGrace = 3 * time.Second

// Close shuts the server down gracefully: it stops accepting connections,
// closes idle ones, and waits (briefly) for in-flight requests to finish
// instead of resetting them mid-response. Requests still running after the
// grace period are cut off.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
	defer cancel()
	if err := s.server.Shutdown(ctx); err != nil {
		// Stragglers exceeded the grace period: force-close them.
		return s.server.Close()
	}
	return nil
}

// TCPClient returns an *http.Client whose transport dials the server's
// loopback address for every host name, so URLs of simulated domains
// resolve to the real listener. Redirects are not followed automatically,
// matching Client.
func (s *Server) TCPClient() *http.Client {
	addr := s.Addr()
	dialer := &net.Dialer{}
	transport := &http.Transport{
		DialContext: func(ctx context.Context, network, _ string) (net.Conn, error) {
			return dialer.DialContext(ctx, network, addr)
		},
		// Simulated hosts are plentiful; keep connections bounded.
		MaxIdleConns:        32,
		MaxIdleConnsPerHost: 4,
	}
	return &http.Client{
		Transport: transport,
		CheckRedirect: func(req *http.Request, via []*http.Request) error {
			return http.ErrUseLastResponse
		},
	}
}

func stripPort(host string) string {
	if i := strings.LastIndexByte(host, ':'); i >= 0 && !strings.Contains(host[i:], "]") {
		return host[:i]
	}
	return host
}
