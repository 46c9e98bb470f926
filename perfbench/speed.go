package main

import (
	"crypto/sha256"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// referenceSpeed is roughly what the two-CPU machine the bounds were set on
// scores in machineSpeed, in jobs per second.
const referenceSpeed = 50000.0

// speedWindow is how long each machineSpeed reading runs.
const speedWindow = 250 * time.Millisecond

// machineSpeed runs a fixed job on every worker for d and returns jobs per
// second. The job uses only the standard library — map inserts, string
// building, a sort, hashing and the garbage they leave — so no change to the
// program moves it.
//
// On a shared machine the CPU time the pipeline costs drifts by a quarter
// for minutes at a time, and an allocation-free job does not see the drift;
// this one does. Each timed repetition is reported at referenceSpeed,
// scaled by the readings taken just before and after it: measured ×
// speed/referenceSpeed for times and costs, measured ÷ that for rates. Over
// ten study runs whose as-measured ads_per_s ranged from 11,600 to 16,000,
// the scaled values' spread was 0.04 of their median.
func machineSpeed(workers int, d time.Duration) float64 {
	var n atomic.Int64
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				speedJob()
				n.Add(1)
			}
		}()
	}
	wg.Wait()
	return float64(n.Load()) / d.Seconds()
}

var speedSink atomic.Pointer[[sha256.Size]byte]

func speedJob() {
	m := make(map[string]int, 256)
	var b []byte
	for i := 0; i < 256; i++ {
		b = strconv.AppendInt(append(b[:0], "k-"...), int64(i*7919), 10)
		m[string(b)] = i
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	speedSink.Store(&sum)
}
