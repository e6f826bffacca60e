package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro"
	"repro/internal/dist"
	"repro/internal/dist/proc"
	"repro/internal/serve"
	"repro/internal/workload"
)

// Traffic shape of serve-cluster. Every block of blockLen queries holds
// hotDraws draws from the hot set, apportioned by Zipf(1) over hotSize
// catalog entries, and blockLen−hotDraws draws from the cold tail, a
// walk through coldPool catalog entries; a seeded shuffle orders the
// block. Stratifying the Zipf draws per block keeps the cache-hit
// ratio steady on every seed: cold draws miss, and hot draws hit except
// right after the server's FIFO result cache has evicted them, which
// happens to each hot entry once per cache turnover (see preRoll).
const (
	blockLen = 100
	hotDraws = 72
	hotSize  = 24
	coldPool = 2000

	// refEvery is the sampling period of the float64 reference.
	refEvery = 100 * time.Millisecond

	// preRollLimit bounds the pre-roll; a cache that has not turned
	// over by then fails the run rather than time a transient.
	preRollLimit = 90 * time.Second
)

// catalogEntry is one query of the serve-cluster catalog.
type catalogEntry struct {
	q      repro.ServeQuery
	sum    []int // indexes of the SUM specs, for the accuracy check
	window bool  // a window-total query: SUM(q.Col) OVER (PARTITION BY key)
}

// answer is one timed query's outcome on a client.
type answer struct {
	entry int
	lat   time.Duration
	done  time.Duration // completion, as an offset into the timed phase
	hit   bool
	bytes []byte
	err   error
	trace int // span query id of a traced query, -1 if untraced
}

// runServeCluster is the serve-cluster workload: the production shape
// of reproserve -proc-nodes 2 -journal <dir>. A repro.Server with
// default cache, admission and tracing answers over a repro.NewCluster
// of two spawned worker processes (ReplaceDead, journaled). Two
// closed-loop clients draw GROUP BY and window-total queries from a
// seeded Zipf over a catalog; misses ship the raw shards to the
// workers, hits come from the result cache.
func runServeCluster(cfg config) (*report, error) {
	rows, ngroups, ncols := 1<<18, 4096, 4
	if cfg.tiny {
		rows, ngroups = 1<<12, 64
	}
	rep := &report{layers: map[string]float64{}}
	catalog, err := buildCatalog(cfg.seed, ncols)
	if err != nil {
		return nil, err
	}
	schedule := buildSchedule(cfg.seed, len(catalog), 200)
	hot := hotOrder()

	// Set-up: load the resident data, spawn the journaled cluster,
	// start the server, warm the cache with the hot set.
	var (
		pc      *repro.Cluster
		srv     *repro.Server
		journal string
		ds      *repro.ServeDataset
	)
	teardown := func() {
		if srv != nil {
			srv.Close()
		}
		if pc != nil {
			if err := pc.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cluster close:", err)
			}
		}
		if journal != "" {
			os.RemoveAll(journal)
		}
		srv, pc, journal, ds = nil, nil, "", nil
	}
	defer teardown()
	for i := 0; i < setupReps(cfg); i++ {
		teardown()
		releaseMemory()
		if err := os.MkdirAll(".bench_build", 0o755); err != nil {
			return nil, err
		}
		if journal, err = os.MkdirTemp(".bench_build", "journal-"); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if ds, err = repro.NewSyntheticServeDataset(cfg.seed, rows, uint32(ngroups), ncols, repro.ServeDatasetOptions{}); err != nil {
			return nil, err
		}
		if pc, err = repro.NewCluster(repro.ClusterSpec{Nodes: 2, ReplaceDead: true, Journal: journal}); err != nil {
			return nil, err
		}
		if srv, err = repro.NewServer(ds, repro.ServerOptions{Cluster: pc}); err != nil {
			return nil, err
		}
		for _, e := range hot {
			if _, err := srv.Do(catalog[e].q); err != nil {
				return nil, fmt.Errorf("serve-cluster warm-up: %w", err)
			}
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	rep.rowsPerQ = float64(rows)

	// The pre-roll finishes the warm-up on the last set-up: it runs the
	// schedule until the cache has turned over. It is too long to repeat
	// per set-up, so its time counts once toward each.
	var cursor atomic.Int64
	next := func() int { return schedule[int(cursor.Add(1)-1)%len(schedule)] }
	t0 := time.Now()
	if err := preRoll(srv, catalog, next); err != nil {
		return nil, err
	}
	pre := time.Since(t0).Seconds()
	for i := range rep.setup {
		rep.setup[i] += pre
	}
	fmt.Printf("serve-cluster: pre-roll %.1f s, %d queries\n", pre, cursor.Load())

	// The same rows, generated the way the synthetic dataset does, for
	// the float64 reference, the accuracy oracle and the proc replay.
	keys := workload.Keys(cfg.seed, rows, uint32(ngroups))
	cols := make([][]float64, ncols)
	for c := range cols {
		cols[c] = workload.Values64(cfg.seed+1+uint64(c), rows, workload.MixedMag)
	}
	ref := newF64Ref(keys, cols, []repro.AggSpec{{Kind: repro.AggSum, Col: 0}}, ngroups, runtime.GOMAXPROCS(0))

	// Timed phase: two closed-loop clients share the schedule.
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	before := srv.Stats()
	wire0 := readWire()
	jobs0 := pc.Stats().Jobs
	resetPeakRSS()
	steal := startSteal()
	// Allocations are read every blockLen completions: one window per
	// schedule block, like the throughput windows, so the refill burst
	// of a cache turnover moves a window or two, not the figure.
	a0 := heapAllocs()
	var (
		allocMu    sync.Mutex
		lastAllocs = a0
		completed  atomic.Int64
	)
	perClient := make([][]answer, 2)
	dur := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	var wg sync.WaitGroup
	// The float64 reference is sampled every refEvery during the timed
	// phase, so its median covers the same machine conditions as the
	// clients' (it costs about 1% of one CPU).
	stop := make(chan struct{})
	refDone := make(chan struct{})
	go func() {
		defer close(refDone)
		tick := time.NewTicker(refEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				rep.ref = append(rep.ref, ref.run())
			}
		}
	}()
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for n := 0; time.Since(start) < dur; n++ {
				e := next()
				traced := cfg.trace && n%2 == 0
				t0 := time.Now()
				res, err := srv.Do(catalog[e].q)
				t1 := time.Now()
				a := answer{entry: e, lat: t1.Sub(t0), done: t1.Sub(start), err: err, trace: -1}
				if err == nil {
					a.hit, a.bytes = res.CacheHit, res.Bytes
					if traced {
						a.trace = n*2 + c
						id := tr.add(a.trace, -1, "serve.Do", t0, t1)
						tr.importServer(a.trace, id, srv.Trace(res.TraceID))
					}
				}
				perClient[c] = append(perClient[c], a)
				if completed.Add(1)%blockLen == 0 {
					allocMu.Lock()
					a1 := heapAllocs()
					rep.allocRates = append(rep.allocRates, float64(a1-lastAllocs)/blockLen)
					lastAllocs = a1
					allocMu.Unlock()
				}
			}
		}(c)
	}
	wg.Wait()
	close(stop)
	<-refDone
	rep.stealPct = steal.pct()
	rep.allocs = heapAllocs() - a0 // the fallback of a run too short for one window
	after := srv.Stats()
	wire1 := readWire()
	jobs := pc.Stats().Jobs - jobs0

	// Counter consistency: every Do ends in exactly one outcome.
	snap := srv.Registry().Snapshot()
	total, outcomes := snap["serve_queries_total"], snap.Sum("serve_queries_outcome_total")
	if total != outcomes {
		return nil, fmt.Errorf("serve-cluster: serve_queries_total %v != outcome family sum %v", total, outcomes)
	}
	rejected := (after.RejectedBudget + after.RejectedQueue + after.RejectedTimeout + after.RejectedRecovering) -
		(before.RejectedBudget + before.RejectedQueue + before.RejectedTimeout + before.RejectedRecovering)

	// Correctness gate, outside the timed phase: every answer against
	// the local in-process backend's bytes for its catalog entry, and
	// every SUM against the exact sum.
	all := append(append([]answer(nil), perClient[0]...), perClient[1]...)
	if cfg.corrupt && len(all) > 2 && all[2].err == nil {
		all[2].bytes = corruptCopy(all[2].bytes)
	}
	if err := verifyServe(ds, catalog, all, keys, cols, ngroups); err != nil {
		return nil, err
	}
	var hitLat, missLat, done []time.Duration
	for _, a := range all {
		rep.attempted++
		if a.err != nil {
			rep.failed++
			if rep.failed <= 3 {
				fmt.Fprintf(os.Stderr, "perfbench: serve-cluster query: %v\n", a.err)
			}
			continue
		}
		rep.lat = append(rep.lat, a.lat)
		done = append(done, a.done)
		if a.hit {
			hitLat = append(hitLat, a.lat)
		} else {
			missLat = append(missLat, a.lat)
		}
	}
	// One throughput window per schedule block: the clients take the
	// schedule in order, so each window holds about one block's mix.
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	rep.rates = windowRates(done, blockLen)
	fmt.Printf("serve-cluster: %d queries, %d hits, %d misses, %d cluster jobs, rejected %d\n",
		len(all), len(hitLat), len(missLat), jobs, rejected)
	if rejected != 0 && rep.failed == 0 {
		return nil, fmt.Errorf("serve-cluster: %d admission refusals not seen by the clients", rejected)
	}
	if !cfg.trace {
		return rep, nil
	}

	// Traced run: the server's span medians, hit/miss split, proc
	// replay, layer replays and the breakdown of the traced p50.
	m := rep.layers
	hitTrace := map[int]bool{}
	var tracedLat, untracedLat []time.Duration
	for _, a := range all {
		switch {
		case a.err != nil:
		case a.trace >= 0:
			tracedLat = append(tracedLat, a.lat)
			hitTrace[a.trace] = a.hit
		default:
			untracedLat = append(untracedLat, a.lat)
		}
	}
	spans := tr.durations()
	m["serve.admission_us"] = medianUs(spans["serve.admission"])
	m["serve.budget_us"] = medianUs(spans["serve.budget"])
	m["serve.cache_lookup_us"] = medianUs(spans["serve.cache"])
	m["serve.queue_wait_ms"] = medianMs(spans["serve.queue"])
	m["serve.execute_ms"] = medianMs(spans["serve.execute"])
	m["serve.cache_fill_us"] = medianUs(spans["serve.cache-fill"])
	m["serve.hit_us"] = float64(medianDur(hitLat)) / 1e3
	m["serve.miss_ms"] = msOf(medianDur(missLat))
	hits, misses := after.CacheHits-before.CacheHits, after.CacheMisses-before.CacheMisses
	m["serve.cache_hit_ratio"] = float64(hits) / float64(max(hits+misses, 1))
	m["serve.rejected"] = float64(rejected)
	m["serve.inflight_peak"] = float64(after.PeakInflight)
	m["bench.trace_overhead_pct"] = overheadPct(tracedLat, untracedLat)
	m["float64.ns_per_row"] = float64(medianDur(rep.ref)) / rep.rowsPerQ
	addWire(m, wire0, wire1, rep.attempted, rep.rowsPerQ)

	// proc: uncontended jobs of the miss shape the server submits.
	missQ := catalog[hot[0]].q
	shardKeys, shardCols := roundRobin(keys, cols, 4)
	job := repro.Job{Workers: runtime.GOMAXPROCS(0), Specs: missQ.Specs, Source: repro.RowShards(shardKeys, shardCols)}
	var jobLat []time.Duration
	var recs []float64
	for i := 0; i < 5; i++ {
		r0 := pc.Stats().JournalRecords
		t0 := time.Now()
		if _, err := pc.Run(job); err != nil {
			return nil, fmt.Errorf("serve-cluster proc replay: %w", err)
		}
		jobLat = append(jobLat, time.Since(t0))
		if r1 := pc.Stats().JournalRecords; r1 >= r0 {
			recs = append(recs, float64(r1-r0)) // a drop is a compaction
		}
	}
	m["proc.job_ms"] = msOf(medianDur(jobLat))
	m["proc.job_wait_ms"] = m["serve.execute_ms"] - m["proc.job_ms"]
	m["proc.journal_records_per_job"] = median(recs)
	dispatch := 0
	for id := 0; id < 2; id++ {
		b, err := proc.EncodeJobPayload(job, 2, id)
		if err != nil {
			return nil, err
		}
		dispatch += len(b)
	}
	m["proc.dispatch_bytes_per_job"] = float64(dispatch)

	res, err := srv.Do(missQ)
	if err != nil {
		return nil, err
	}
	groups, err := dist.DecodeTupleGroups(res.Bytes, len(missQ.Specs))
	if err != nil {
		return nil, err
	}
	if err := replayLayers(layerInputs{
		keys: keys, cols: cols, specs: missQ.Specs, sumCol: cols[0], levels: repro.DefaultLevels,
		nodes: 2, groups: groups, msgBytes: dispatch, chunk: 64 << 10,
	}, m); err != nil {
		return nil, err
	}

	// The traced p50 is a cache hit: attribute it to the server's spans
	// on the hit path, measured on traced hits only.
	hitSpans := tr.durationsWhere(func(q int) bool { return hitTrace[q] })
	parts := map[string]float64{
		"serve.admission": msOf(medianDur(hitSpans["serve.admission"])),
		"serve.budget":    msOf(medianDur(hitSpans["serve.budget"])),
		"serve.cache":     msOf(medianDur(hitSpans["serve.cache"])),
	}
	return rep, finishTrace(cfg, tr, m, msOf(medianDur(tracedLat)), parts)
}

// buildCatalog enumerates the serve-cluster catalog: the window-total
// queries first, then seeded GROUP BY spec lists of one to three
// aggregates (SUM/AVG/COUNT/VAR/STDDEV/MIN/MAX over ncols columns at
// L ∈ {2, 3}), distinct by canonical encoding.
func buildCatalog(seed uint64, ncols int) ([]catalogEntry, error) {
	kinds := []repro.AggKind{repro.AggSum, repro.AggAvg, repro.AggCount, repro.AggVarPop, repro.AggVarSamp,
		repro.AggStddevPop, repro.AggStddevSamp, repro.AggMin, repro.AggMax}
	var out []catalogEntry
	seen := map[string]bool{}
	add := func(q repro.ServeQuery) error {
		enc, err := q.Encode()
		if err != nil {
			return err
		}
		if seen[string(enc)] {
			return nil
		}
		seen[string(enc)] = true
		e := catalogEntry{q: q, window: q.Kind == serve.QueryWindowTotals}
		for i, sp := range q.Specs {
			if sp.Kind == repro.AggSum {
				e.sum = append(e.sum, i)
			}
		}
		out = append(out, e)
		return nil
	}
	for _, c := range []int{0, 1} {
		if err := add(repro.WindowTotalsQuery(c, 2)); err != nil {
			return nil, err
		}
	}
	rng := workload.NewRNG(seed ^ 0x5eed)
	for len(out) < hotSize+coldPool {
		n := 1 + rng.Intn(3)
		if len(out) < hotSize {
			n = 1 + len(out)%3 // hit sizes, and so hit latencies, do not vary with the seed
		}
		specs := make([]repro.AggSpec, n)
		for i := range specs {
			specs[i] = repro.AggSpec{Kind: kinds[rng.Intn(len(kinds))], Levels: 2 + rng.Intn(2), Col: rng.Intn(ncols)}
		}
		if err := add(repro.GroupByQuery(specs...)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// hotOrder returns the hot set's catalog indexes in popularity order.
// The two window-total entries sit at ranks 9 and 17, where Zipf(1)
// gives each about 3% of the traffic.
func hotOrder() []int {
	order := make([]int, 0, hotSize)
	next := 2 // the GROUP BY entries start after the two window queries
	for r := 0; r < hotSize; r++ {
		switch r {
		case 8:
			order = append(order, 0)
		case 16:
			order = append(order, 1)
		default:
			order = append(order, next)
			next++
		}
	}
	return order
}

// buildSchedule lays out nblocks blocks of catalog indexes (see
// blockLen). The cold tail walks a seeded permutation of the catalog
// entries after the hot set; a cold entry comes round again only after
// the whole pool, long after the cache has evicted it, so it misses.
func buildSchedule(seed uint64, ncatalog, nblocks int) []int {
	hot := hotOrder()
	// Largest-remainder apportionment of hotDraws over Zipf(1) weights.
	w, total := make([]float64, hotSize), 0.0
	for r := range w {
		w[r] = 1 / float64(r+1)
		total += w[r]
	}
	mult, rem := make([]int, hotSize), make([]int, hotSize)
	left := hotDraws
	for r := range w {
		mult[r] = int(hotDraws * w[r] / total)
		left -= mult[r]
		rem[r] = r
	}
	sort.SliceStable(rem, func(i, j int) bool {
		fi := hotDraws*w[rem[i]]/total - float64(mult[rem[i]])
		fj := hotDraws*w[rem[j]]/total - float64(mult[rem[j]])
		return fi > fj
	})
	for i := 0; i < left; i++ {
		mult[rem[i]]++
	}
	cold := make([]int, 0, ncatalog-hotSize)
	for i := hotSize; i < ncatalog; i++ {
		cold = append(cold, i)
	}
	workload.Shuffle(seed, cold)

	var out []int
	coldNext := 0
	for b := 0; b < nblocks; b++ {
		block := make([]int, 0, blockLen)
		for r, n := range mult {
			for i := 0; i < n; i++ {
				block = append(block, hot[r])
			}
		}
		for len(block) < blockLen {
			block = append(block, cold[coldNext%len(cold)])
			coldNext++
		}
		workload.Shuffle(seed+uint64(b)+1, block)
		out = append(out, block...)
	}
	return out
}

// preRoll runs the schedule on two clients, as the timed phase does,
// until the result cache has evicted every warm-up entry and one
// block's cold entries after them. From then on the cache is full, and
// each hot entry is evicted and refilled once per turnover: the steady
// state the timed phase measures. Evictions are read from the server's
// Stats (fills minus population), so the pre-roll follows the cache's
// actual size.
func preRoll(srv *repro.Server, catalog []catalogEntry, next func() int) error {
	target := uint64(hotSize + blockLen - hotDraws)
	evicted := func() bool {
		st := srv.Stats()
		return st.CacheMisses >= target+uint64(st.CacheEntries)
	}
	deadline := time.Now().Add(preRollLimit)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for c := range errs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for !evicted() {
				if time.Now().After(deadline) {
					errs[c] = fmt.Errorf("serve-cluster: the result cache did not turn over within the %v pre-roll", preRollLimit)
					return
				}
				if _, err := srv.Do(catalog[next()].q); err != nil {
					errs[c] = fmt.Errorf("serve-cluster pre-roll: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// verifyServe is serve-cluster's correctness gate: every answer's
// bytes must equal the local in-process backend's answer to the same
// catalog entry, and every SUM must lie within repro.ErrorBound of the
// exact sum. A failing answer is marked in place (err set).
func verifyServe(ds *repro.ServeDataset, catalog []catalogEntry, all []answer, keys []uint32, cols [][]float64, ngroups int) error {
	local, err := repro.NewServer(ds, repro.ServerOptions{CacheEntries: -1, TraceEntries: -1})
	if err != nil {
		return err
	}
	defer local.Close()
	exacts := map[int]*exactSums{}
	want := map[int][]byte{}
	verified := map[*byte]bool{} // cached answers share one slice
	bad := map[int]error{}       // entries whose reference failed the accuracy check
	for i := range all {
		a := &all[i]
		if a.err != nil {
			continue
		}
		if len(a.bytes) > 0 && verified[unsafe.SliceData(a.bytes)] {
			continue
		}
		w, ok := want[a.entry]
		if !ok {
			e := catalog[a.entry]
			res, err := local.Do(e.q)
			if err != nil {
				return fmt.Errorf("serve-cluster reference: %w", err)
			}
			w = res.Bytes
			want[a.entry] = w
			if err := checkSums(e, w, exacts, keys, cols, ngroups); err != nil {
				bad[a.entry] = err
			}
		}
		if err := bad[a.entry]; err != nil {
			a.err = err
			continue
		}
		if !bytes.Equal(a.bytes, w) {
			a.err = fmt.Errorf("serve-cluster: answer to catalog entry %d differs from the local backend", a.entry)
			continue
		}
		if len(a.bytes) > 0 {
			verified[unsafe.SliceData(a.bytes)] = true
		}
	}
	return nil
}

// checkSums checks every SUM of an answer against the exact per-group
// sums: the SUM columns of a GROUP BY, or the per-row totals of a
// window-total query.
func checkSums(e catalogEntry, b []byte, exacts map[int]*exactSums, keys []uint32, cols [][]float64, ngroups int) error {
	exactOf := func(col int) *exactSums {
		ex, ok := exacts[col]
		if !ok {
			ex = newExactSums(keys, cols[col], ngroups)
			exacts[col] = ex
		}
		return ex
	}
	if e.window {
		return checkWindow(e.q, b, exactOf(e.q.Col), keys, ngroups)
	}
	if len(e.sum) == 0 {
		return nil
	}
	gs, err := dist.DecodeTupleGroups(b, len(e.q.Specs))
	if err != nil {
		return err
	}
	for _, si := range e.sum {
		sp := e.q.Specs[si]
		ex := exactOf(sp.Col)
		for _, g := range gs {
			if math.IsNaN(g.Aggs[si]) {
				return fmt.Errorf("serve-cluster: NaN SUM for group %d", g.Key)
			}
			if err := ex.check(int(g.Key), g.Aggs[si], sp.ResolvedLevels()); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkWindow checks a window-total answer: one little-endian float64
// per input row, the same bits on every row of a group, and each
// group's total within the SUM tolerance of its exact sum.
func checkWindow(q repro.ServeQuery, b []byte, ex *exactSums, keys []uint32, ngroups int) error {
	if len(b) != 8*len(keys) {
		return fmt.Errorf("serve-cluster: window answer has %d bytes for %d rows", len(b), len(keys))
	}
	levels := q.Levels
	if levels == 0 {
		levels = repro.DefaultLevels
	}
	seen := make([]bool, ngroups)
	total := make([]uint64, ngroups)
	for i, k := range keys {
		bits := binary.LittleEndian.Uint64(b[8*i:])
		if seen[k] {
			if bits != total[k] {
				return fmt.Errorf("serve-cluster: window totals of group %d differ between rows", k)
			}
			continue
		}
		if err := ex.check(int(k), math.Float64frombits(bits), levels); err != nil {
			return fmt.Errorf("serve-cluster window: %w", err)
		}
		seen[k], total[k] = true, bits
	}
	return nil
}

// roundRobin deals rows into n shards, the layout the server ships.
func roundRobin(keys []uint32, cols [][]float64, n int) ([][]uint32, [][][]float64) {
	sk := make([][]uint32, n)
	sc := make([][][]float64, n)
	for s := range sc {
		sc[s] = make([][]float64, len(cols))
	}
	for i, k := range keys {
		s := i % n
		sk[s] = append(sk[s], k)
		for c := range cols {
			sc[s][c] = append(sc[s][c], cols[c][i])
		}
	}
	return sk, sc
}
