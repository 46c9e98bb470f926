package analysis

import (
	"fmt"
	"strings"
	"testing"

	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/oracle"
)

// buildInput fabricates a corpus with known composition:
//   - 100 ads from top-cluster news .com sites via net-a (2 malicious)
//   - 40 ads from other-cluster adult .ru sites via net-b (1 malicious)
//   - 10 ads from bottom-cluster games .de sites via net-c (0 malicious)
func buildInput() Input {
	c := corpus.New()
	res := &oracle.Result{ByCategory: map[oracle.Category]int{}}
	totalSites := 30_000

	addAd := func(i int, pubRank int, cat, tld, net string, chainLen int, malCat oracle.Category) {
		ad := &corpus.Ad{
			HTML:     fmt.Sprintf("<html>ad %s %d</html>", net, i),
			FrameURL: "http://" + net + "/serve",
			PubHost:  fmt.Sprintf("www.site%d.%s", pubRank, tld),
			PubRank:  pubRank,
			Category: cat,
			TLD:      tld,
		}
		for h := 0; h < chainLen-1; h++ {
			ad.Chain = append(ad.Chain, fmt.Sprintf("adserv.hop%d.com", h))
		}
		ad.Chain = append(ad.Chain, net)
		c.Add(ad)
		if malCat != "" {
			res.Incidents = append(res.Incidents, oracle.Incident{AdHash: ad.Hash, Category: malCat, Evidence: "test"})
			res.ByCategory[malCat]++
		}
	}

	n := 0
	for i := 0; i < 100; i++ {
		n++
		malCat := oracle.Category("")
		chain := 2
		if i < 2 {
			malCat = oracle.CatBlacklists
			chain = 8
		}
		addAd(n, 100+i, "news", "com", "adserv.net-a.com", chain, malCat)
	}
	for i := 0; i < 40; i++ {
		n++
		malCat := oracle.Category("")
		chain := 1
		if i == 0 {
			malCat = oracle.CatSuspRedirect
			chain = 20
		}
		addAd(n, 15_000+i, "adult", "ru", "adserv.net-b.com", chain, malCat)
	}
	for i := 0; i < 10; i++ {
		n++
		addAd(n, 29_000+i, "games", "de", "adserv.net-c.com", 3, "")
	}
	res.Scanned = c.Len()
	return Input{
		Corpus:     c,
		Result:     res,
		TotalSites: totalSites,
		CrawlStats: &crawler.Stats{AdFrames: int64(c.Len()), SandboxedAds: 0},
	}
}

func TestTable1(t *testing.T) {
	rep := Analyze(buildInput())
	if rep.Table1.Total != 3 || rep.Table1.Scanned != 150 {
		t.Fatalf("table1 = %+v", rep.Table1)
	}
	if rep.Table1.Counts[oracle.CatBlacklists] != 2 {
		t.Fatalf("blacklists = %d", rep.Table1.Counts[oracle.CatBlacklists])
	}
	if rep.Table1.Counts[oracle.CatSuspRedirect] != 1 {
		t.Fatalf("redirections = %d", rep.Table1.Counts[oracle.CatSuspRedirect])
	}
	if r := rep.Table1.Rate(); r < 0.019 || r > 0.021 {
		t.Fatalf("rate = %f", r)
	}
}

func TestFigure1SortedByRatio(t *testing.T) {
	rep := Analyze(buildInput())
	// Only offending networks appear.
	if len(rep.Figure1) != 2 {
		t.Fatalf("figure1 rows = %+v", rep.Figure1)
	}
	// net-b: 1/40 = 0.025 > net-a: 2/100 = 0.02.
	if rep.Figure1[0].Network != "adserv.net-b.com" || rep.Figure1[1].Network != "adserv.net-a.com" {
		t.Fatalf("figure1 order: %+v", rep.Figure1)
	}
	if rep.Figure1[0].Ratio != 0.025 || rep.Figure1[1].Ratio != 0.02 {
		t.Fatalf("ratios: %+v", rep.Figure1)
	}
}

func TestFigure2SortedByShare(t *testing.T) {
	rep := Analyze(buildInput())
	if rep.Figure2[0].Network != "adserv.net-a.com" {
		t.Fatalf("figure2 order: %+v", rep.Figure2)
	}
	want := 100.0 / 150.0
	if diff := rep.Figure2[0].TotalShare - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("share = %f, want %f", rep.Figure2[0].TotalShare, want)
	}
}

func TestClusterShares(t *testing.T) {
	rep := Analyze(buildInput())
	if got := rep.Clusters.MalShare[ClusterTop]; got < 0.66 || got > 0.67 {
		t.Fatalf("top mal share = %f, want 2/3", got)
	}
	if got := rep.Clusters.MalShare[ClusterOther]; got < 0.33 || got > 0.34 {
		t.Fatalf("other mal share = %f, want 1/3", got)
	}
	if got := rep.Clusters.AdShare[ClusterTop]; got < 0.66 || got > 0.67 {
		t.Fatalf("top ad share = %f", got)
	}
	if rep.Clusters.MalShare[ClusterBottom] != 0 {
		t.Fatal("bottom should have no malvertisements in fixture")
	}
	if rep.Clusters.AdShare[ClusterBottom] == 0 {
		t.Fatal("bottom served ads in fixture")
	}
}

func TestFigure3Categories(t *testing.T) {
	rep := Analyze(buildInput())
	if len(rep.Figure3) != 2 {
		t.Fatalf("figure3 = %+v", rep.Figure3)
	}
	if rep.Figure3[0].Category != "news" || rep.Figure3[0].Count != 2 {
		t.Fatalf("figure3[0] = %+v", rep.Figure3[0])
	}
	if rep.Figure3[1].Category != "adult" || rep.Figure3[1].Count != 1 {
		t.Fatalf("figure3[1] = %+v", rep.Figure3[1])
	}
}

func TestFigure4TLDs(t *testing.T) {
	rep := Analyze(buildInput())
	if len(rep.Figure4) != 2 {
		t.Fatalf("figure4 = %+v", rep.Figure4)
	}
	if rep.Figure4[0].TLD != "com" || !rep.Figure4[0].Generic {
		t.Fatalf("figure4[0] = %+v", rep.Figure4[0])
	}
	if rep.Figure4[1].TLD != "ru" || rep.Figure4[1].Generic {
		t.Fatalf("figure4[1] = %+v", rep.Figure4[1])
	}
	if got := rep.GenericTLDMalShare; got < 0.66 || got > 0.67 {
		t.Fatalf("generic share = %f", got)
	}
}

func TestFigure5Chains(t *testing.T) {
	rep := Analyze(buildInput())
	if rep.Figure5.Malicious.Max() != 20 {
		t.Fatalf("malicious max = %d", rep.Figure5.Malicious.Max())
	}
	if rep.Figure5.Benign.Max() != 3 {
		t.Fatalf("benign max = %d", rep.Figure5.Benign.Max())
	}
	if rep.Figure5.Malicious.Total() != 3 || rep.Figure5.Benign.Total() != 147 {
		t.Fatalf("totals: mal=%d ben=%d", rep.Figure5.Malicious.Total(), rep.Figure5.Benign.Total())
	}
	if got := rep.Figure5.Malicious.TailShare(15); got < 0.33 || got > 0.34 {
		t.Fatalf("tail share = %f", got)
	}
}

func TestSandboxCensus(t *testing.T) {
	rep := Analyze(buildInput())
	if rep.Sandbox.AdFrames != 150 || rep.Sandbox.SandboxedAds != 0 {
		t.Fatalf("sandbox = %+v", rep.Sandbox)
	}
}

func TestRenderText(t *testing.T) {
	rep := Analyze(buildInput())
	out := rep.RenderText()
	for _, want := range []string{
		"Table 1", "Blacklists", "Suspicious redirections", "Model detection",
		"Figure 1", "Figure 2", "Figure 3", "Figure 4", "Figure 5",
		"adserv.net-b.com", "top10k", "sandbox", "news", ".com",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestCSVOutputs(t *testing.T) {
	rep := Analyze(buildInput())
	chains := rep.ChainSeriesCSV()
	if !strings.HasPrefix(chains, "auctions,benign,malicious\n") {
		t.Fatalf("chains csv: %q", chains)
	}
	if !strings.Contains(chains, "\n20,0,1\n") {
		t.Fatalf("chains csv missing the 20-hop malicious row:\n%s", chains)
	}
	nets := rep.NetworksCSV()
	if !strings.Contains(nets, "adserv.net-a.com,100,2,0.020000") {
		t.Fatalf("networks csv:\n%s", nets)
	}
}

func TestEmptyInput(t *testing.T) {
	in := Input{
		Corpus:     corpus.New(),
		Result:     &oracle.Result{ByCategory: map[oracle.Category]int{}},
		TotalSites: 30_000,
	}
	rep := Analyze(in)
	if rep.Table1.Total != 0 || rep.Table1.Rate() != 0 {
		t.Fatalf("empty table1 = %+v", rep.Table1)
	}
	if len(rep.Figure1) != 0 {
		t.Fatal("figure1 should be empty")
	}
	// Render must not panic on empty data.
	if rep.RenderText() == "" {
		t.Fatal("render empty")
	}
}

func TestClusterOf(t *testing.T) {
	if clusterOf(1, 30_000) != ClusterTop || clusterOf(10_000, 30_000) != ClusterTop {
		t.Fatal("top misassigned")
	}
	if clusterOf(10_001, 30_000) != ClusterOther {
		t.Fatal("other misassigned")
	}
	if clusterOf(20_001, 30_000) != ClusterBottom || clusterOf(30_000, 30_000) != ClusterBottom {
		t.Fatal("bottom misassigned")
	}
	if clusterOf(15_000, 0) != ClusterOther {
		t.Fatal("unknown population should default to other")
	}
}

func TestServingNetworkFallback(t *testing.T) {
	ad := &corpus.Ad{FinalURL: "http://adserv.solo.com/serve"}
	if got := ad.ServingNetwork(); got != "adserv.solo.com" {
		t.Fatalf("fallback = %q", got)
	}
}
