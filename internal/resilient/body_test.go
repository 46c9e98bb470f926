package resilient

import (
	"bytes"
	"io"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"madave/internal/memnet"
)

// TestAttemptTimeoutOverMemnet pins the attempt-deadline rule over the
// synchronous in-memory transport: a universe handler slower than
// AttemptTimeout costs one counted timeout and a retry, exactly as a stalled
// read does over any other transport (TestAttemptTimeoutBreaksStall).
func TestAttemptTimeoutOverMemnet(t *testing.T) {
	u := memnet.NewUniverse()
	var calls atomic.Int32
	u.HandleFunc("slow.example.com", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(60 * time.Millisecond)
		}
		io.WriteString(w, "served")
	})
	var c Counters
	pol := fastPolicy()
	pol.AttemptTimeout = 20 * time.Millisecond
	tr := New(&memnet.Transport{U: u}, pol, &c)
	resp, err := get(t, tr, "http://slow.example.com/")
	if err != nil {
		t.Fatal(err)
	}
	if body, _ := io.ReadAll(resp.Body); string(body) != "served" {
		t.Fatalf("body = %q", body)
	}
	if c.Timeouts != 1 || c.Retries != 1 || calls.Load() != 2 {
		t.Fatalf("counters = %+v after %d handler calls, want 1 timeout and 1 retry", c, calls.Load())
	}
}

// chunkReader serves data a few bytes per Read, then ends with end (io.EOF
// or io.ErrUnexpectedEOF) on a Read of its own.
type chunkReader struct {
	data  []byte
	chunk int
	end   error
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.end
	}
	n := copy(p[:min(len(p), r.chunk)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// FuzzResilientBody drives the retry layer's body buffering with arbitrary
// bytes under every shape of declared Content-Length (unset, unknown,
// shorter, exact, longer), from a streaming reader that may end in
// io.ErrUnexpectedEOF or from an in-memory memnet body. The caller must
// read exactly the bytes served, capped at maxBufferedBody; Truncations must
// count exactly the bodies that came up short; and a Read after Close must
// not panic.
func FuzzResilientBody(f *testing.F) {
	f.Add([]byte("<html>ad</html>"), uint8(3), uint8(4), false, false, false)
	f.Add([]byte("<html>ad</html>"), uint8(4), uint8(1), false, false, false)
	f.Add([]byte("partial"), uint8(0), uint8(2), true, false, false)
	f.Add([]byte("0123456789"), uint8(2), uint8(3), false, true, false)
	f.Add([]byte("tail"), uint8(4), uint8(7), true, false, true)
	f.Fuzz(func(t *testing.T, data []byte, declMode, chunk uint8, unexpectedEOF, inMemory, pad bool) {
		served := data
		if pad {
			// Reach past the buffer cap so the limit itself is exercised.
			served = append(append([]byte(nil), data...), make([]byte, maxBufferedBody)...)
		}
		var declared int64
		switch declMode % 5 {
		case 0: // unset, as in a hand-built response
		case 1:
			declared = -1 // unknown, as net/http reports it
		case 2:
			declared = int64(len(served) / 2)
		case 3:
			declared = int64(len(served))
		case 4:
			declared = int64(len(served)) + 1 + int64(chunk)
		}
		var body io.ReadCloser
		if inMemory {
			body = memnet.NewBody(served)
			unexpectedEOF = false
		} else {
			end := io.EOF
			if unexpectedEOF {
				end = io.ErrUnexpectedEOF
			}
			body = io.NopCloser(&chunkReader{data: served, chunk: 1 + int(chunk), end: end})
		}
		next := &scriptedTripper{outcomes: []func(*http.Request) (*http.Response, error){
			func(req *http.Request) (*http.Response, error) {
				return &http.Response{StatusCode: 200, Status: "200 OK", Header: make(http.Header),
					Body: body, ContentLength: declared, Request: req}, nil
			},
		}}
		pol := fastPolicy()
		pol.MaxAttempts = 1
		var c Counters
		tr := New(next, pol, &c)

		resp, err := get(t, tr, "http://fuzz.example.com/")
		if err != nil {
			t.Fatalf("RoundTrip: %v", err)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading the buffered body: %v", err)
		}
		want := served[:min(len(served), maxBufferedBody)]
		if !bytes.Equal(got, want) {
			t.Fatalf("read %d bytes, served %d (cap %d)", len(got), len(served), maxBufferedBody)
		}
		// Short: the reader said so before the cap, or fewer bytes arrived
		// than declared and the cap was not what stopped the read.
		short := (unexpectedEOF && len(served) < maxBufferedBody) ||
			(int64(len(want)) < declared && len(want) < maxBufferedBody)
		wantTrunc := int64(0)
		if short {
			wantTrunc = 1
		}
		if c.Truncations != wantTrunc {
			t.Fatalf("Truncations = %d, want %d (served %d, declared %d, unexpected EOF %v)",
				c.Truncations, wantTrunc, len(served), declared, unexpectedEOF)
		}
		resp.Body.Close()
		var p [8]byte
		resp.Body.Read(p[:])
	})
}
