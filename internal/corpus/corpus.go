// Package corpus stores the collected advertisements. The paper built "a
// corpus of 673,596 unique advertisements" by snapshotting rendered ad
// iframes as standalone HTML documents; this package is that store —
// content-hash deduplicated, queryable, and serializable so the crawl and
// oracle stages can run separately (the cmd tools pipe a corpus file
// between them).
package corpus

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"madave/internal/urlx"
)

// Ad is one unique advertisement snapshot plus its crawl context.
type Ad struct {
	// Hash is the SHA-256 of the rendered iframe HTML; the corpus key.
	Hash string `json:"hash"`
	// HTML is the rendered iframe document (after script execution), the
	// artefact the oracle re-analyzes.
	HTML string `json:"html"`
	// FrameURL is the iframe's src — the entry of the ad-serving chain.
	FrameURL string `json:"frame_url"`
	// FinalURL is where the chain terminated (the creative document URL).
	FinalURL string `json:"final_url"`
	// Impression is the impression identifier extracted from the serve URL.
	Impression string `json:"impression"`

	// Publisher context.
	PubHost  string `json:"pub_host"`
	PubRank  int    `json:"pub_rank"`
	Category string `json:"category"`
	TLD      string `json:"tld"`

	// Chain is the arbitration chain: the ad-network hosts the slot passed
	// through, in order (repeats preserved).
	Chain []string `json:"chain"`
	// Hosts is every host contacted while rendering the ad (used by the
	// blacklist oracle: "all the domains we monitored to serve
	// advertisements").
	Hosts []string `json:"hosts"`

	// Day and Refresh locate the observation in the crawl schedule.
	Day     int `json:"day"`
	Refresh int `json:"refresh"`
}

// ServingNetwork returns the host of the ad network that delivered the ad:
// the last hop of its arbitration chain, or for a chainless ad the host of
// its final URL.
func (ad *Ad) ServingNetwork() string {
	if len(ad.Chain) == 0 {
		return urlx.Host(ad.FinalURL)
	}
	return ad.Chain[len(ad.Chain)-1]
}

// HashHTML computes the corpus key for a rendered document.
func HashHTML(html string) string {
	sum := sha256.Sum256([]byte(html))
	return hex.EncodeToString(sum[:])
}

// Corpus is a thread-safe deduplicated advertisement store.
type Corpus struct {
	mu   sync.Mutex
	ads  map[string]*Ad
	keys []string // insertion order
	dups int
}

// New returns an empty corpus.
func New() *Corpus {
	return &Corpus{ads: make(map[string]*Ad)}
}

// Add inserts ad (computing its Hash if empty) and reports whether it was
// new. Duplicate snapshots are counted but not stored — the paper's corpus
// is deduplicated the same way.
func (c *Corpus) Add(ad *Ad) bool {
	if ad.Hash == "" {
		ad.Hash = HashHTML(ad.HTML)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.ads[ad.Hash]; ok {
		c.dups++
		return false
	}
	c.ads[ad.Hash] = ad
	c.keys = append(c.keys, ad.Hash)
	return true
}

// Len returns the number of unique advertisements.
func (c *Corpus) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}

// Duplicates returns how many duplicate snapshots Add rejected.
func (c *Corpus) Duplicates() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dups
}

// Get returns the ad with the given hash, or nil.
func (c *Corpus) Get(hash string) *Ad {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ads[hash]
}

// All returns the ads in insertion order.
func (c *Corpus) All() []*Ad {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*Ad, len(c.keys))
	for i, k := range c.keys {
		out[i] = c.ads[k]
	}
	return out
}

// Each calls fn for every ad in insertion order, stopping if fn returns
// false.
func (c *Corpus) Each(fn func(*Ad) bool) {
	for _, ad := range c.All() {
		if !fn(ad) {
			return
		}
	}
}

// Save writes the corpus as JSON Lines (one ad per line).
func (c *Corpus) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, ad := range c.All() {
		if err := enc.Encode(ad); err != nil {
			return fmt.Errorf("corpus: encode %s: %w", ad.Hash, err)
		}
	}
	return bw.Flush()
}

// Load reads a JSON Lines corpus written by Save.
func Load(r io.Reader) (*Corpus, error) {
	c := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ad Ad
		if err := json.Unmarshal(sc.Bytes(), &ad); err != nil {
			return nil, fmt.Errorf("corpus: line %d: %w", line, err)
		}
		c.Add(&ad)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return c, nil
}
