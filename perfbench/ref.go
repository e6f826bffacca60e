package main

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"time"

	"repro"
	"repro/internal/exact"
	"repro/internal/sqlagg"
)

// f64Ref is the frozen plain-float64 reference that forms slowdown_x's
// denominator: the same rows and aggregates as the measured query, as
// float64 sums and integer counts over dense per-group arrays, with the
// same worker count. It lives in the benchmark so that no change to the
// program can move it; timing it between the measured queries makes
// machine speed cancel out of the ratio.
type f64Ref struct {
	keys    []uint32
	cols    [][]float64 // per spec: the column it sums, nil for COUNT
	avg     []bool      // per spec: finalize as sum / count
	ngroups int
	acc     [][]float64 // per worker: ngroups × len(cols) sums
	cnt     [][]int64   // per worker: ngroups counts
	sink    float64     // keeps the compiler from dropping the work
}

func newF64Ref(keys []uint32, cols [][]float64, specs []sqlagg.AggSpec, ngroups, workers int) *f64Ref {
	r := &f64Ref{keys: keys, ngroups: ngroups}
	for _, sp := range specs {
		var c []float64
		if sp.Kind != sqlagg.AggCount {
			c = cols[sp.Col]
		}
		r.cols = append(r.cols, c)
		r.avg = append(r.avg, sp.Kind == sqlagg.AggAvg)
	}
	// Each worker's arrays get a cache line of padding on both sides:
	// two workers' small arrays must never share a line (false sharing
	// would make the reference's time depend on heap placement).
	const pad = 8
	for w := 0; w < max(workers, 1); w++ {
		acc := make([]float64, ngroups*len(r.cols)+2*pad)
		cnt := make([]int64, ngroups+2*pad)
		r.acc = append(r.acc, acc[pad:len(acc)-pad])
		r.cnt = append(r.cnt, cnt[pad:len(cnt)-pad])
	}
	return r
}

// run computes the reference once and returns how long it took.
func (r *f64Ref) run() time.Duration {
	t0 := time.Now()
	workers, n, ns := len(r.acc), len(r.keys), len(r.cols)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			acc, cnt := r.acc[w], r.cnt[w]
			clear(acc)
			clear(cnt)
			for i := lo; i < hi; i++ {
				k := int(r.keys[i])
				cnt[k]++
				base := k * ns
				for s, c := range r.cols {
					if c != nil {
						acc[base+s] += c[i]
					}
				}
			}
		}(w, n*w/workers, n*(w+1)/workers)
	}
	wg.Wait()
	acc, cnt := r.acc[0], r.cnt[0]
	for w := 1; w < workers; w++ {
		for i, v := range r.acc[w] {
			acc[i] += v
		}
		for g, c := range r.cnt[w] {
			cnt[g] += c
		}
	}
	sink := 0.0
	for g := 0; g < r.ngroups; g++ {
		if cnt[g] == 0 {
			continue
		}
		for s := range r.cols {
			v := acc[g*ns+s]
			switch {
			case r.cols[s] == nil:
				v = float64(cnt[g])
			case r.avg[s]:
				v /= float64(cnt[g])
			}
			sink += v
		}
	}
	r.sink += sink
	return time.Since(t0)
}

// exactSums holds, per group of one column, the exact sum, the row
// count and the largest magnitude: what repro.ErrorBound needs.
type exactSums struct {
	n      []int
	maxAbs []float64
	exact  []*big.Float
	sum    []float64 // exact sum rounded to float64 (0 for empty groups)
}

// newExactSums computes the exact per-group sums of col with
// internal/exact, the accuracy oracle independent of rsum.
func newExactSums(keys []uint32, col []float64, ngroups int) *exactSums {
	e := &exactSums{n: make([]int, ngroups), maxAbs: make([]float64, ngroups),
		exact: make([]*big.Float, ngroups), sum: make([]float64, ngroups)}
	// Bucket the column by key (counting sort), then sum each bucket.
	off := make([]int, ngroups+1)
	for _, k := range keys {
		off[k+1]++
	}
	for g := 0; g < ngroups; g++ {
		off[g+1] += off[g]
	}
	pos := append([]int(nil), off[:ngroups]...)
	vals := make([]float64, len(keys))
	for i, k := range keys {
		vals[pos[k]] = col[i]
		pos[k]++
	}
	for g := 0; g < ngroups; g++ {
		b := vals[off[g]:off[g+1]]
		e.n[g] = len(b)
		for _, v := range b {
			e.maxAbs[g] = math.Max(e.maxAbs[g], math.Abs(v))
		}
		e.exact[g] = exact.Sum(b)
		e.sum[g], _ = e.exact[g].Float64()
	}
	return e
}

// check verifies a reproducible SUM of group g at the given level
// count against the exact sum: within the paper's error bound
// (repro.ErrorBound, Eq. 6) plus the final rounding of the result to
// float64, which Eq. 6 leaves out — the tolerance rsum's own
// differential tests use.
func (e *exactSums) check(g int, got float64, levels int) error {
	if e.n[g] == 0 {
		return nil
	}
	bound := repro.ErrorBound(e.n[g], levels, e.maxAbs[g]) + math.Abs(e.sum[g])*0x1p-52 + 0x1p-1074
	if err := exact.AbsError(got, e.exact[g]); !(err <= bound) {
		return fmt.Errorf("group %d: SUM %v is %g from the exact sum %v, bound %g", g, got, err, e.sum[g], bound)
	}
	return nil
}
