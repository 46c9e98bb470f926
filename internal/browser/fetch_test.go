package browser

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"madave/internal/memnet"
	"madave/internal/netcap"
	"madave/internal/resilient"
)

// TestLoadHTMLContextCancelledRunsNoScripts pins that script compilation
// honours the page's request context: a document rendered under an already
// cancelled context records the cancellation and executes nothing, so a
// visit that has run out of time stops running its scripts.
func TestLoadHTMLContextCancelledRunsNoScripts(t *testing.T) {
	b := New(memnet.Client(memnet.NewUniverse()), UserProfile())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	page := b.LoadHTMLContext(ctx, `<html><body><script>document.write('<img src="http://img.example.com/x.png">');</script></body></html>`, "http://pub.example.com/")
	if len(page.DOMWrites) != 0 {
		t.Fatalf("cancelled page ran its script: DOMWrites = %+v", page.DOMWrites)
	}
	found := false
	for _, e := range page.Errors {
		found = found || strings.Contains(e, context.Canceled.Error())
	}
	if !found {
		t.Fatalf("cancellation not recorded in Page.Errors: %q", page.Errors)
	}
}

// TestFetchStackAllocs gates the allocations of one refererless GET through
// the production transport stack, netcap(resilient(memnet)), under a visit
// deadline, with the request built by Browser.get and the body taken by
// readCapped. testing.AllocsPerRun at a fixed count after warm-up keeps the
// figure independent of b.N. Race instrumentation allocates, so the gate is
// skipped under -race.
func TestFetchStackAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	u := memnet.NewUniverse()
	page := strings.Repeat("x", 90)
	u.HandleFunc("ad.example.com", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html")
		io.WriteString(w, page)
	})
	res := resilient.New(&memnet.Transport{U: u}, resilient.DefaultPolicy(), nil)
	cap := netcap.New(res)
	b := New(&http.Client{Transport: cap}, HoneyclientProfile())
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fetch := func() {
		resp, err := b.get(ctx, "http://ad.example.com/serve?id=1", "")
		if err != nil {
			t.Fatal(err)
		}
		if body := readCapped(resp); len(body) != len(page) {
			t.Fatalf("body = %d bytes, want %d", len(body), len(page))
		}
		resp.Body.Close()
		cap.Reset()
	}
	for range 100 {
		fetch()
	}
	const ceiling = 12
	if got := testing.AllocsPerRun(1000, fetch); got > ceiling {
		t.Fatalf("fetch stack: %.1f allocs per fetch, ceiling %d", got, ceiling)
	}
}
