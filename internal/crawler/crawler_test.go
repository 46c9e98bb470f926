package crawler

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"madave/internal/adnet"
	"madave/internal/adserver"
	"madave/internal/easylist"
	"madave/internal/memnet"
	"madave/internal/netcap"
	"madave/internal/webgen"
)

var (
	onceFix sync.Once
	fixU    *memnet.Universe
	fixWeb  *webgen.Web
	fixList *easylist.List
	fixSrv  *adserver.Server
)

func fixture(t *testing.T) (*memnet.Universe, *webgen.Web, *easylist.List) {
	t.Helper()
	onceFix.Do(func() {
		web, err := webgen.Generate(webgen.DefaultConfig())
		if err != nil {
			panic(err)
		}
		eco, err := adnet.Generate(adnet.DefaultConfig())
		if err != nil {
			panic(err)
		}
		srv := adserver.New(eco, web, 7)
		u := memnet.NewUniverse()
		srv.Install(u)
		list, err := easylist.ParseString(srv.BuildEasyList())
		if err != nil {
			panic(err)
		}
		fixU, fixWeb, fixList, fixSrv = u, web, list, srv
	})
	return fixU, fixWeb, fixList
}

func TestCrawlCollectsAds(t *testing.T) {
	u, web, list := fixture(t)
	cfg := Config{Days: 1, Refreshes: 2, Parallelism: 4, Seed: 1}
	c := New(u, list, web, cfg)

	sites := web.TopSlice(30) // rank 1-30: every page has 5-7 ad slots
	corp, st := c.Run(sites)

	wantVisits := int64(len(sites) * cfg.Days * cfg.Refreshes)
	if st.PagesVisited != wantVisits {
		t.Fatalf("pages visited = %d, want %d", st.PagesVisited, wantVisits)
	}
	if st.PageErrors != 0 {
		t.Fatalf("page errors = %d", st.PageErrors)
	}
	// Every page has exactly one non-ad (widget) iframe.
	if st.NonAdFrames != wantVisits {
		t.Fatalf("non-ad frames = %d, want %d (one widget per page)", st.NonAdFrames, wantVisits)
	}
	if st.AdFrames == 0 || st.AdFrames != st.FramesSeen-st.NonAdFrames {
		t.Fatalf("ad frames = %d of %d", st.AdFrames, st.FramesSeen)
	}
	// §4.4: no publisher sandboxes its ad iframes.
	if st.SandboxedAds != 0 {
		t.Fatalf("sandboxed ads = %d, want 0", st.SandboxedAds)
	}
	if corp.Len() == 0 {
		t.Fatal("empty corpus")
	}
	// Impressions are unique per (site, slot, nonce), so snapshots should
	// be nearly all unique.
	if int64(corp.Len())+st.Duplicates != st.SnapshotsTaken {
		t.Fatalf("corpus %d + dups %d != snapshots %d", corp.Len(), st.Duplicates, st.SnapshotsTaken)
	}
}

func TestAdRecordFields(t *testing.T) {
	u, web, list := fixture(t)
	c := New(u, list, web, Config{Days: 1, Refreshes: 1, Parallelism: 2, Seed: 2})
	sites := web.TopSlice(10)
	corp, _ := c.Run(sites)

	for _, ad := range corp.All() {
		if ad.Hash == "" || ad.HTML == "" {
			t.Fatal("ad missing content")
		}
		if ad.Impression == "" {
			t.Fatalf("ad missing impression: %s", ad.FrameURL)
		}
		if ad.PubHost == "" || ad.PubRank == 0 || ad.Category == "" || ad.TLD == "" {
			t.Fatalf("ad missing publisher context: %+v", ad)
		}
		if len(ad.Chain) == 0 {
			t.Fatal("ad missing arbitration chain")
		}
		for _, h := range ad.Chain {
			if !strings.HasPrefix(h, "adserv.") {
				t.Fatalf("chain host %q is not an ad network", h)
			}
		}
		if len(ad.Hosts) == 0 {
			t.Fatal("ad missing contacted hosts")
		}
		site := web.ByHost(ad.PubHost)
		if site == nil || site.Rank != ad.PubRank {
			t.Fatalf("publisher context inconsistent: %+v", ad)
		}
	}
}

func TestChainMatchesGroundTruth(t *testing.T) {
	u, web, list := fixture(t)
	c := New(u, list, web, Config{Days: 1, Refreshes: 1, Parallelism: 1, Seed: 3})
	sites := web.TopSlice(5)
	corp, _ := c.Run(sites)

	checked := 0
	for _, ad := range corp.All() {
		d, ok := fixSrv.Decide(ad.PubHost, ad.Impression)
		if !ok {
			t.Fatalf("no decision for %s", ad.Impression)
		}
		if len(ad.Chain) != d.Auctions() {
			t.Fatalf("observed chain %d != ground truth %d for %s",
				len(ad.Chain), d.Auctions(), ad.Impression)
		}
		for i, host := range ad.Chain {
			want := fixSrv.Eco.Networks[d.Chain[i]].Domain
			if host != want {
				t.Fatalf("chain[%d] = %q, want %q", i, host, want)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("nothing checked")
	}
}

func TestRefreshesYieldDistinctAds(t *testing.T) {
	u, web, list := fixture(t)
	one := New(u, list, web, Config{Days: 1, Refreshes: 1, Parallelism: 2, Seed: 4})
	five := New(u, list, web, Config{Days: 1, Refreshes: 5, Parallelism: 2, Seed: 4})
	sites := web.TopSlice(10)
	c1, _ := one.Run(sites)
	c5, _ := five.Run(sites)
	if c5.Len() < c1.Len()*4 {
		t.Fatalf("5 refreshes collected %d ads vs %d for 1: refreshing should multiply the corpus",
			c5.Len(), c1.Len())
	}
}

func TestCrawlDeterministicCorpus(t *testing.T) {
	u, web, list := fixture(t)
	sites := web.TopSlice(8)
	a, _ := New(u, list, web, Config{Days: 1, Refreshes: 2, Parallelism: 4, Seed: 5}).Run(sites)
	b, _ := New(u, list, web, Config{Days: 1, Refreshes: 2, Parallelism: 4, Seed: 5}).Run(sites)
	if a.Len() != b.Len() {
		t.Fatalf("corpus sizes differ: %d vs %d", a.Len(), b.Len())
	}
	for _, ad := range a.All() {
		if b.Get(ad.Hash) == nil {
			t.Fatalf("ad %s missing from second crawl", ad.Hash)
		}
	}
}

func TestBottomSitesYieldFewerAds(t *testing.T) {
	u, web, list := fixture(t)
	cfg := Config{Days: 1, Refreshes: 1, Parallelism: 4, Seed: 6}
	top, _ := New(u, list, web, cfg).Run(web.TopSlice(50))
	bottom, _ := New(u, list, web, cfg).Run(web.BottomSlice(50))
	if bottom.Len()*3 > top.Len() {
		t.Fatalf("bottom sites produced %d ads vs top %d; monetization gradient missing",
			bottom.Len(), top.Len())
	}
}

func TestImpressionFromURL(t *testing.T) {
	if got := impressionFromURL("http://a.com/serve?pub=x&imp=deadbeef&hop=0"); got != "deadbeef" {
		t.Fatalf("imp = %q", got)
	}
	if got := impressionFromURL("://bad"); got != "" {
		t.Fatalf("imp = %q", got)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	u, web, list := fixture(t)
	c := New(u, list, web, Config{})
	if c.Config.Parallelism != 4 || c.Config.Days != 1 || c.Config.Refreshes != 1 {
		t.Fatalf("defaults not applied: %+v", c.Config)
	}
}

func TestKeepTraffic(t *testing.T) {
	u, web, list := fixture(t)
	c := New(u, list, web, Config{Days: 1, Refreshes: 1, Parallelism: 4, Seed: 23})
	c.KeepTraffic = true
	sites := web.TopSlice(10)
	corp, _ := c.Run(sites)

	trace := c.Traffic()
	if trace == nil {
		t.Fatal("no traffic kept")
	}
	// Every page load plus every ad-chain hop, creative, and resource: the
	// trace must be much larger than the corpus.
	if trace.Len() < corp.Len()*2 {
		t.Fatalf("trace %d transactions for %d ads", trace.Len(), corp.Len())
	}
	sum := trace.Summarize()
	if sum.Redirects == 0 {
		t.Fatal("arbitration redirects missing from trace")
	}
	if sum.Hosts < 20 {
		t.Fatalf("trace spans only %d hosts", sum.Hosts)
	}

	// Artifact order depends only on the seed: reruns and worker counts
	// must agree on the saved corpus bytes and the transaction sequence.
	artifacts := func(parallelism int) (string, []netcap.Transaction) {
		c := New(u, list, web, Config{Days: 1, Refreshes: 2, Parallelism: parallelism, Seed: 23})
		c.KeepTraffic = true
		corp, _ := c.Run(sites)
		var buf bytes.Buffer
		if err := corp.Save(&buf); err != nil {
			t.Fatal(err)
		}
		txs := c.Traffic().All()
		for i := range txs {
			txs[i].Time = time.Time{}
		}
		return buf.String(), txs
	}
	wantCorpus, wantTxs := artifacts(1)
	for _, parallelism := range []int{1, 4, 4} {
		gotCorpus, gotTxs := artifacts(parallelism)
		if gotCorpus != wantCorpus {
			t.Fatalf("saved corpus at parallelism %d differs from parallelism 1", parallelism)
		}
		if len(gotTxs) != len(wantTxs) {
			t.Fatalf("parallelism %d: %d transactions, want %d", parallelism, len(gotTxs), len(wantTxs))
		}
		for i := range gotTxs {
			if gotTxs[i] != wantTxs[i] {
				t.Fatalf("parallelism %d: transaction %d is %+v, want %+v", parallelism, i, gotTxs[i], wantTxs[i])
			}
		}
	}

	// Without the flag, nothing is retained.
	c2 := New(u, list, web, Config{Days: 1, Refreshes: 1, Parallelism: 2, Seed: 23})
	c2.Run(sites[:2])
	if c2.Traffic() != nil {
		t.Fatal("traffic kept without KeepTraffic")
	}
}
