package main

import (
	"fmt"
	"os"
	"time"
)

// minQueries is the floor on completed queries per timed phase: a p90
// needs at least ten samples above it. A phase shorter than that keeps
// going, for at most three times its length.
const minQueries = 100

// rateWindow is how many completions one throughput window of a
// single-client loop holds.
const rateWindow = 5

// setupReps is how often a run builds the system from scratch; setup_s
// is the median.
func setupReps(cfg config) int {
	if cfg.tiny {
		return 1
	}
	return 3
}

// queryFn runs query number q and returns its latency (measured around
// the program call only) and a check of its answer, which the loop runs
// outside the timed window. traced asks it to record spans.
type queryFn func(q int, traced bool) (lat time.Duration, check func() error, err error)

// soloLoop drives one closed-loop client for cfg.seconds: each
// iteration times one query, checks its answer, then times the float64
// reference, so the reference sees the same machine state as the
// queries around it. In a traced run every second query is traced and
// the others are not; their medians give the tracing overhead.
func soloLoop(cfg config, rep *report, ref *f64Ref, do queryFn) (traced, untraced []time.Duration) {
	resetPeakRSS()
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var total time.Duration  // time spent waiting for answers so far
	var busy []time.Duration // total at each completion
	steal := startSteal()
	defer func() {
		rep.rates = windowRates(busy, rateWindow)
		rep.stealPct = steal.pct()
	}()
	for q := 0; ; q++ {
		since := time.Since(start)
		enough := len(rep.lat) >= minQueries || since >= 3*dur || (cfg.tiny && rep.attempted >= 3)
		if since >= dur && enough {
			break
		}
		tr := cfg.trace && q%2 == 0
		a0 := heapAllocs()
		lat, check, err := do(q, tr)
		a1 := heapAllocs()
		rep.attempted++
		if err == nil {
			err = check()
		}
		if err != nil {
			rep.failed++
			if rep.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: query %d: %v\n", q, err)
			}
			continue
		}
		rep.allocs += a1 - a0
		rep.lat = append(rep.lat, lat)
		total += lat
		busy = append(busy, total)
		if tr {
			traced = append(traced, lat)
		} else {
			untraced = append(untraced, lat)
		}
		r := ref.run()
		rep.ref = append(rep.ref, r)
		rep.ratios = append(rep.ratios, float64(lat)/float64(r))
	}
	return traced, untraced
}

// overheadPct is the traced median's excess over the untraced one.
func overheadPct(traced, untraced []time.Duration) float64 {
	u := float64(medianDur(untraced))
	if u == 0 {
		return 0
	}
	return 100 * (float64(medianDur(traced)) - u) / u
}

// corruptCopy returns b with one bit flipped, in a fresh slice: what
// the correctness gate must catch.
func corruptCopy(b []byte) []byte {
	c := append([]byte(nil), b...)
	if len(c) > 0 {
		c[len(c)/2] ^= 0x10
	}
	return c
}
