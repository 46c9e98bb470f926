package minijs

// codecache.go caches compiled programs by script content hash through
// cachex. The honeyclient replays the same ad scripts constantly; keying on
// sha256(source) lets every page that embeds a script share one parse and
// one compile. Deterministic outcomes — a compiled program, a recovered
// partial parse, or a strict-mode syntax error — are cached (the error
// negatively, so a broken script is rejected once, not re-parsed per page).
// A compile truncated by context cancellation is NOT deterministic output:
// it propagates as a plain error, which cachex.GetOrLoad delivers without
// storing — the same reproducibility gate the honeyclient applies with
// ErrSkipStore.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"

	"madave/internal/cachex"
	"madave/internal/telemetry"
)

// DefaultCodeCacheEntries bounds the number of distinct scripts kept
// compiled. Ad corpora reuse a small set of creatives; 4k entries covers a
// full simulated study many times over.
const DefaultCodeCacheEntries = 1 << 12

// cachedScript is one cache entry: either a compiled program plus any
// recovery diagnostics, or a deterministic strict-mode syntax error.
type cachedScript struct {
	prog *Program
	errs []*SyntaxError
	err  error
}

// CodeCache maps script source hashes to compiled programs. Safe for
// concurrent use; a cached *Program is read-only after publication and may
// be executed by many interpreters at once.
type CodeCache struct {
	c        *cachex.Cache[string, *cachedScript]
	compiles *telemetry.Counter
}

// NewCodeCache builds a code cache with the given capacity (0 =
// DefaultCodeCacheEntries). Cache hit/miss counters land in tel under
// cache="minijs_code"; compile counts under minijs_compile_total.
func NewCodeCache(capacity int, tel *telemetry.Set) *CodeCache {
	if capacity <= 0 {
		capacity = DefaultCodeCacheEntries
	}
	cc := &CodeCache{
		c: cachex.New[string, *cachedScript](cachex.Config{
			Capacity: capacity,
			Name:     "minijs_code",
			Tel:      tel,
		}),
	}
	if tel != nil {
		cc.compiles = tel.Counter("minijs_compile_total")
	}
	return cc
}

// Load returns the compiled program for src, parsing and compiling on the
// first sight of a script hash. In tolerant mode the recovered parse's
// diagnostics are returned alongside the (never nil) program; in strict
// mode a syntax error is returned as err. ctx bounds compilation: a
// cancelled compile returns ctx's error and caches nothing.
func (cc *CodeCache) Load(ctx context.Context, src string, tolerant bool) (*Program, []*SyntaxError, error) {
	mode := byte('s')
	if tolerant {
		mode = 't'
	}
	// Hash the source without the []byte(src) copy, and assemble the
	// "m:hex" key in a stack buffer: one allocation (the key string) per
	// lookup regardless of script size.
	h := sha256.New()
	io.WriteString(h, src)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	var keyBuf [2 + 2*sha256.Size]byte
	keyBuf[0], keyBuf[1] = mode, ':'
	hex.Encode(keyBuf[2:], sum[:])
	key := string(keyBuf[:])
	cs, err := cc.c.GetOrLoad(key, func() (*cachedScript, error) {
		return cc.compile(ctx, src, tolerant)
	})
	if err != nil {
		return nil, nil, err
	}
	return cs.prog, cs.errs, cs.err
}

func (cc *CodeCache) compile(ctx context.Context, src string, tolerant bool) (*cachedScript, error) {
	var prog *Program
	var errs []*SyntaxError
	if tolerant {
		prog, errs = ParseTolerant(src)
	} else {
		var err error
		prog, err = Parse(src)
		if err != nil {
			// A syntax error is a pure function of the source: cache it so
			// the same broken script is rejected without re-parsing.
			return &cachedScript{err: err}, nil
		}
	}
	if cc.compiles != nil {
		cc.compiles.Inc()
	}
	if err := CompileProgram(ctx, prog); err != nil {
		// Only cancellation stops a compile, and the truncated program must
		// never be published. A plain error makes GetOrLoad deliver without
		// storing, so a later caller retries with a live context.
		return nil, err
	}
	return &cachedScript{prog: prog, errs: errs}, nil
}

// Stats snapshots the underlying cache counters.
func (cc *CodeCache) Stats() cachex.Stats { return cc.c.Stats() }
