// Package analysis computes the paper's results (§4) from a crawled corpus
// and its oracle classification: Table 1 (incident categories), Figure 1
// (per-network malvertising ratios), Figure 2 (per-network ad volume),
// the §4.2 cluster shares, Figure 3 (site categories), Figure 4 (TLDs),
// Figure 5 (arbitration chain length distributions), and the §4.4 sandbox
// census. Everything is computed from measured data — the corpus and the
// incidents — never from simulation ground truth.
package analysis

import (
	"fmt"
	"sort"
	"strings"

	"madave/internal/corpus"
	"madave/internal/crawler"
	"madave/internal/oracle"
	"madave/internal/stats"
	"madave/internal/urlx"
)

// Input bundles what the analysis consumes.
type Input struct {
	Corpus *corpus.Corpus
	Result *oracle.Result
	// TotalSites is the ranked population size (for cluster boundaries).
	TotalSites int
	// CrawlStats carries the §4.4 sandbox census from the crawl.
	CrawlStats *crawler.Stats
}

// Table1 is the classification of malvertisements.
type Table1 struct {
	Counts map[oracle.Category]int
	Total  int
	// Scanned is the corpus size; Rate = Total/Scanned.
	Scanned int
}

// Rate returns the fraction of advertisements that were malicious.
func (t *Table1) Rate() float64 {
	if t.Scanned == 0 {
		return 0
	}
	return float64(t.Total) / float64(t.Scanned)
}

// NetworkRow is one ad network's measurements (Figures 1 and 2).
type NetworkRow struct {
	Network    string
	Ads        int
	Malicious  int
	Ratio      float64 // malicious / ads (Figure 1)
	TotalShare float64 // ads / all ads (Figure 2)
}

// Cluster names reused from the §4.2 analysis.
const (
	ClusterTop    = "top10k"
	ClusterBottom = "bottom10k"
	ClusterOther  = "other"
)

// ClusterShares holds the §4.2 result.
type ClusterShares struct {
	// MalShare and AdShare map cluster -> fraction.
	MalShare map[string]float64
	AdShare  map[string]float64
}

// CategoryRow is one site-category share (Figure 3).
type CategoryRow struct {
	Category string
	Count    int
	Share    float64
}

// TLDRow is one TLD share (Figure 4).
type TLDRow struct {
	TLD     string
	Count   int
	Share   float64
	Generic bool
}

// ChainDist is Figure 5: chain-length histograms for benign and malicious
// advertisements.
type ChainDist struct {
	Benign    stats.IntHist
	Malicious stats.IntHist
}

// SandboxCensus is the §4.4 result.
type SandboxCensus struct {
	AdFrames     int64
	SandboxedAds int64
}

// Report is the full set of reproduced results.
type Report struct {
	Table1             Table1
	Figure1            []NetworkRow // sorted by descending malicious ratio
	Figure2            []NetworkRow // same rows sorted by descending total share
	Clusters           ClusterShares
	Figure3            []CategoryRow
	Figure4            []TLDRow
	GenericTLDMalShare float64
	Figure5            ChainDist
	Sandbox            SandboxCensus
	// Graph is the flow-graph oracle's section — nil when the graph oracle
	// was off. RenderText never reads it (render via Graph.RenderText), so
	// the base rendering is byte-identical graph-on or graph-off.
	Graph *GraphStats
}

// Analyze computes the report.
func Analyze(in Input) *Report {
	rep := &Report{}
	malicious := map[string]oracle.Category{}
	for _, inc := range in.Result.Incidents {
		malicious[inc.AdHash] = inc.Category
	}

	// Table 1.
	rep.Table1 = Table1{
		Counts:  map[oracle.Category]int{},
		Scanned: in.Result.Scanned,
	}
	for _, cat := range oracle.Categories() {
		rep.Table1.Counts[cat] = in.Result.ByCategory[cat]
		rep.Table1.Total += in.Result.ByCategory[cat]
	}

	// Per-network aggregation: the serving network is the arbitration
	// chain's final host.
	type netAgg struct{ ads, mal int }
	nets := map[string]*netAgg{}
	var malCluster, adCluster stats.Counter
	var malCats, malTLDs stats.Counter
	genericMal := 0

	for _, ad := range in.Corpus.All() {
		serving := ad.ServingNetwork()
		agg := nets[serving]
		if agg == nil {
			agg = &netAgg{}
			nets[serving] = agg
		}
		agg.ads++

		cluster := clusterOf(ad.PubRank, in.TotalSites)
		adCluster.Add(cluster)

		chainLen := len(ad.Chain)
		_, isMal := malicious[ad.Hash]
		if isMal {
			agg.mal++
			malCluster.Add(cluster)
			malCats.Add(ad.Category)
			malTLDs.Add(ad.TLD)
			if urlx.IsGenericTLD(ad.TLD) {
				genericMal++
			}
			rep.Figure5.Malicious.Add(chainLen)
		} else {
			rep.Figure5.Benign.Add(chainLen)
		}
	}

	// Figures 1 and 2: networks that served at least one malvertisement
	// (the paper "only display[s] the ad networks that contain at least
	// one malvertisement").
	totalAds := in.Corpus.Len()
	for name, agg := range nets {
		if agg.mal == 0 {
			continue
		}
		row := NetworkRow{
			Network:   name,
			Ads:       agg.ads,
			Malicious: agg.mal,
		}
		if agg.ads > 0 {
			row.Ratio = float64(agg.mal) / float64(agg.ads)
		}
		if totalAds > 0 {
			row.TotalShare = float64(agg.ads) / float64(totalAds)
		}
		rep.Figure1 = append(rep.Figure1, row)
	}
	sort.Slice(rep.Figure1, func(i, j int) bool {
		if rep.Figure1[i].Ratio != rep.Figure1[j].Ratio {
			return rep.Figure1[i].Ratio > rep.Figure1[j].Ratio
		}
		return rep.Figure1[i].Network < rep.Figure1[j].Network
	})
	rep.Figure2 = append([]NetworkRow{}, rep.Figure1...)
	sort.Slice(rep.Figure2, func(i, j int) bool {
		if rep.Figure2[i].TotalShare != rep.Figure2[j].TotalShare {
			return rep.Figure2[i].TotalShare > rep.Figure2[j].TotalShare
		}
		return rep.Figure2[i].Network < rep.Figure2[j].Network
	})

	// §4.2 clusters.
	rep.Clusters = ClusterShares{
		MalShare: map[string]float64{},
		AdShare:  map[string]float64{},
	}
	for _, cl := range []string{ClusterTop, ClusterBottom, ClusterOther} {
		rep.Clusters.MalShare[cl] = malCluster.Share(cl)
		rep.Clusters.AdShare[cl] = adCluster.Share(cl)
	}

	// Figure 3: categories of sites serving malvertisements.
	for _, kv := range malCats.Sorted() {
		rep.Figure3 = append(rep.Figure3, CategoryRow{
			Category: kv.Key,
			Count:    kv.Count,
			Share:    malCats.Share(kv.Key),
		})
	}

	// Figure 4: TLDs of sites serving malvertisements.
	for _, kv := range malTLDs.Sorted() {
		rep.Figure4 = append(rep.Figure4, TLDRow{
			TLD:     kv.Key,
			Count:   kv.Count,
			Share:   malTLDs.Share(kv.Key),
			Generic: urlx.IsGenericTLD(kv.Key),
		})
	}
	if malTLDs.Total() > 0 {
		rep.GenericTLDMalShare = float64(genericMal) / float64(malTLDs.Total())
	}

	// §4.4 sandbox census.
	if in.CrawlStats != nil {
		rep.Sandbox = SandboxCensus{
			AdFrames:     in.CrawlStats.AdFrames,
			SandboxedAds: in.CrawlStats.SandboxedAds,
		}
	}

	// Flow-graph section (additive; nil when the graph oracle was off).
	rep.Graph = AnalyzeGraph(in.Corpus, in.Result)
	return rep
}

// clusterOf assigns the §4.2 cluster for a publisher rank.
func clusterOf(rank, totalSites int) string {
	switch {
	case rank <= 10_000:
		return ClusterTop
	case totalSites > 0 && rank > totalSites-10_000:
		return ClusterBottom
	default:
		return ClusterOther
	}
}

// categoryLabels gives Table 1 its paper row names.
var categoryLabels = map[oracle.Category]string{
	oracle.CatBlacklists:   "Blacklists",
	oracle.CatSuspRedirect: "Suspicious redirections",
	oracle.CatHeuristics:   "Heuristics",
	oracle.CatMaliciousExe: "Malicious executables",
	oracle.CatMaliciousSWF: "Malicious Flash",
	oracle.CatModel:        "Model detection",
}

// RenderText renders the whole report as the paper's tables and figure
// summaries in fixed-width text.
func (r *Report) RenderText() string {
	var b strings.Builder

	b.WriteString("Table 1: Classification of malvertisements\n")
	for _, cat := range oracle.Categories() {
		fmt.Fprintf(&b, "  %-26s %8d\n", categoryLabels[cat], r.Table1.Counts[cat])
	}
	fmt.Fprintf(&b, "  %-26s %8d  (%.2f%% of %d ads)\n\n",
		"TOTAL", r.Table1.Total, 100*r.Table1.Rate(), r.Table1.Scanned)

	b.WriteString("Figure 1: Malvertising ratio per ad network (top offenders)\n")
	for i, row := range r.Figure1 {
		if i >= 15 {
			fmt.Fprintf(&b, "  ... %d more networks\n", len(r.Figure1)-i)
			break
		}
		fmt.Fprintf(&b, "  %-34s ratio %6.3f  (%d/%d ads)\n",
			row.Network, row.Ratio, row.Malicious, row.Ads)
	}
	b.WriteString("\nFigure 2: Share of all ads per offending network\n")
	for i, row := range r.Figure2 {
		if i >= 10 {
			fmt.Fprintf(&b, "  ... %d more networks\n", len(r.Figure2)-i)
			break
		}
		fmt.Fprintf(&b, "  %-34s share %6.3f%%  (%d malicious)\n",
			row.Network, 100*row.TotalShare, row.Malicious)
	}

	b.WriteString("\nCluster shares (§4.2)\n")
	fmt.Fprintf(&b, "  %-10s  malvertisements %6.1f%%   all ads %6.1f%%\n",
		ClusterTop, 100*r.Clusters.MalShare[ClusterTop], 100*r.Clusters.AdShare[ClusterTop])
	fmt.Fprintf(&b, "  %-10s  malvertisements %6.1f%%   all ads %6.1f%%\n",
		ClusterBottom, 100*r.Clusters.MalShare[ClusterBottom], 100*r.Clusters.AdShare[ClusterBottom])
	fmt.Fprintf(&b, "  %-10s  malvertisements %6.1f%%   all ads %6.1f%%\n",
		ClusterOther, 100*r.Clusters.MalShare[ClusterOther], 100*r.Clusters.AdShare[ClusterOther])

	b.WriteString("\nFigure 3: Site categories serving malvertisements\n")
	for _, row := range r.Figure3 {
		fmt.Fprintf(&b, "  %-15s %6.1f%%  (%d)\n", row.Category, 100*row.Share, row.Count)
	}

	b.WriteString("\nFigure 4: TLDs of sites serving malvertisements\n")
	for _, row := range r.Figure4 {
		kind := "ccTLD"
		if row.Generic {
			kind = "gTLD"
		}
		fmt.Fprintf(&b, "  %-8s %-5s %6.1f%%  (%d)\n", "."+row.TLD, kind, 100*row.Share, row.Count)
	}
	fmt.Fprintf(&b, "  generic TLD share of malvertising: %.1f%%\n", 100*r.GenericTLDMalShare)

	b.WriteString("\nFigure 5: Arbitration chain lengths (auctions per slot)\n")
	fmt.Fprintf(&b, "  benign:    max %2d  mean %.2f\n", r.Figure5.Benign.Max(), r.Figure5.Benign.Mean())
	fmt.Fprintf(&b, "  malicious: max %2d  mean %.2f  share beyond 15 auctions %.2f%%\n",
		r.Figure5.Malicious.Max(), r.Figure5.Malicious.Mean(),
		100*r.Figure5.Malicious.TailShare(15))

	b.WriteString("\nSecure environment (§4.4)\n")
	fmt.Fprintf(&b, "  ad iframes observed: %d, with sandbox attribute: %d\n",
		r.Sandbox.AdFrames, r.Sandbox.SandboxedAds)
	return b.String()
}

// ChainSeriesCSV renders Figure 5 as CSV (auctions, benign, malicious).
func (r *Report) ChainSeriesCSV() string {
	var b strings.Builder
	b.WriteString("auctions,benign,malicious\n")
	maxLen := r.Figure5.Benign.Max()
	if m := r.Figure5.Malicious.Max(); m > maxLen {
		maxLen = m
	}
	for v := 1; v <= maxLen; v++ {
		fmt.Fprintf(&b, "%d,%d,%d\n", v, r.Figure5.Benign.Get(v), r.Figure5.Malicious.Get(v))
	}
	return b.String()
}

// NetworksCSV renders Figures 1/2 as CSV.
func (r *Report) NetworksCSV() string {
	var b strings.Builder
	b.WriteString("network,ads,malicious,ratio,total_share\n")
	for _, row := range r.Figure1 {
		fmt.Fprintf(&b, "%s,%d,%d,%.6f,%.6f\n",
			row.Network, row.Ads, row.Malicious, row.Ratio, row.TotalShare)
	}
	return b.String()
}
