package crawler

import (
	"net/http"
	"testing"

	"madave/internal/memnet"
)

// TestCrawlOverRealTCP runs the crawl over actual loopback sockets: the
// universe is served by a net/http server, and every visit's browser dials
// it through a host-resolving transport. This exercises the same handler
// code as the in-memory path but through the real network stack.
func TestCrawlOverRealTCP(t *testing.T) {
	u, web, list := fixture(t)

	srv, err := memnet.StartServer(u)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cfg := Config{Days: 1, Refreshes: 1, Parallelism: 4, Seed: 9}
	c := New(u, list, web, cfg)
	// One pooled transport serves every visit; it keeps connections, not
	// state that changes responses.
	tcp := srv.TCPClient().Transport
	c.Transport = func() http.RoundTripper { return tcp }

	sites := web.TopSlice(10)
	corp, st := c.Run(sites)
	if st.PageErrors != 0 {
		t.Fatalf("page errors over TCP: %d", st.PageErrors)
	}
	if corp.Len() == 0 {
		t.Fatal("no ads collected over TCP")
	}

	// The corpus must be identical to the in-memory crawl: the transport
	// must not change what is measured.
	mem := New(u, list, web, cfg)
	memCorp, _ := mem.Run(sites)
	if corp.Len() != memCorp.Len() {
		t.Fatalf("TCP corpus %d != in-memory corpus %d", corp.Len(), memCorp.Len())
	}
	for _, ad := range corp.All() {
		other := memCorp.Get(ad.Hash)
		if other == nil {
			t.Fatalf("ad %s missing from in-memory crawl", ad.Hash)
		}
		if len(ad.Chain) != len(other.Chain) {
			t.Fatalf("chain lengths differ for %s: %d vs %d",
				ad.Impression, len(ad.Chain), len(other.Chain))
		}
	}
}
