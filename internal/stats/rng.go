// Package stats provides deterministic randomness and small statistical
// utilities used throughout the simulation: a seedable PRNG, Zipf and
// categorical samplers, histograms, and summary statistics.
//
// Everything in this package is deterministic given a seed, which is what
// makes the reproduction's experiments repeatable: the same seed always
// yields the same synthetic web, the same ad traffic, and the same measured
// tables and figures.
package stats

import (
	"encoding/binary"
	"hash/fnv"
)

// RNG is a deterministic pseudo-random number generator based on the
// SplitMix64 algorithm. It is intentionally not cryptographically secure;
// it exists to drive simulation decisions reproducibly.
//
// The zero value is a valid generator seeded with 0, but callers normally
// construct one with NewRNG or derive one with Fork.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// NewRNGFromString returns a generator whose seed is derived from s by
// FNV-1a hashing. It is used to derive stable per-entity streams, e.g. one
// stream per ad network keyed by the network's domain.
func NewRNGFromString(s string) *RNG {
	h := fnv.New64a()
	h.Write([]byte(s))
	return &RNG{state: h.Sum64()}
}

// Fork derives an independent generator from r and a label. Two forks with
// different labels produce uncorrelated streams, and forking does not
// disturb r's own stream. This keeps simulation components order-independent:
// adding draws to one component does not shift the randomness of another.
func (r *RNG) Fork(label string) *RNG {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], r.state)
	h.Write(buf[:])
	h.Write([]byte(label))
	return &RNG{state: h.Sum64()}
}

// Uint64 returns the next 64 pseudo-random bits (SplitMix64 step).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling would be overkill here;
	// modulo bias is negligible for simulation-sized n versus 2^64.
	return int(r.Uint64() % uint64(n))
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *RNG) Int63() int64 {
	return int64(r.Uint64() >> 1)
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a pseudo-random permutation of the integers [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.ShuffleInts(p)
	return p
}

// ShuffleInts shuffles s in place (Fisher-Yates).
func (r *RNG) ShuffleInts(s []int) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// Pick returns a uniformly chosen element of s. It panics on an empty slice.
func Pick[T any](r *RNG, s []T) T {
	return s[r.Intn(len(s))]
}

// Letters used by RandWord; lowercase only because the simulation generates
// host names and path segments, which are case-insensitive anyway.
const letters = "abcdefghijklmnopqrstuvwxyz"

// RandWord returns a pseudo-random lowercase word with length in [min, max].
func (r *RNG) RandWord(min, max int) string {
	n := min
	if max > min {
		n += r.Intn(max - min + 1)
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[r.Intn(len(letters))]
	}
	return string(b)
}

// RandHex returns n pseudo-random lowercase hex characters.
func (r *RNG) RandHex(n int) string {
	const hexDigits = "0123456789abcdef"
	b := make([]byte, n)
	for i := range b {
		b[i] = hexDigits[r.Intn(16)]
	}
	return string(b)
}
