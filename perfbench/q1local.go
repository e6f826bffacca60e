package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/tpch"
)

// q1Levels is the rsum level count of the Q1 workload (the paper's L=2).
const q1Levels = 2

// runQ1Local is the q1-local workload: TPC-H Q1 (eight aggregates over
// four groups) on the local engine of a repro.Server with the result
// cache disabled, one closed-loop client. Accumulation is the whole
// query here, so the rsum kernel dominates.
func runQ1Local(cfg config) (*report, error) {
	sf := 0.1
	if cfg.tiny {
		sf = 0.002
	}
	specs := tpch.Q1Specs(q1Levels)
	query := repro.GroupByQuery(specs...)
	rep := &report{layers: map[string]float64{}}

	// Set-up: generate, load, start the server, warm up.
	var srv *repro.Server
	for i := 0; i < setupReps(cfg); i++ {
		if srv != nil {
			srv.Close()
			srv = nil
			releaseMemory()
		}
		t0 := time.Now()
		ds, err := repro.NewQ1ServeDataset(sf, cfg.seed, repro.ServeDatasetOptions{})
		if err != nil {
			return nil, err
		}
		if srv, err = repro.NewServer(ds, repro.ServerOptions{CacheEntries: -1}); err != nil {
			return nil, err
		}
		for w := 0; w < 2; w++ {
			if _, err := srv.Do(query); err != nil {
				return nil, fmt.Errorf("q1-local warm-up: %w", err)
			}
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	defer srv.Close()

	// The reference answer, by a different path: the column-store
	// engine's RunQ1 over the same generated lineitem table.
	tbl := tpch.GenLineitem(sf, cfg.seed)
	want, _, err := tpch.RunQ1(tbl, engine.GroupByConfig{Kind: engine.SumRepro, Levels: q1Levels})
	if err != nil {
		return nil, err
	}
	keys, cols, err := tpch.Q1Input(tbl)
	if err != nil {
		return nil, err
	}
	rep.rowsPerQ = float64(len(keys))
	fmt.Printf("q1-local: %d rows after the Q1 filter, %d groups\n", len(keys), len(want))
	exacts := map[int]*exactSums{}
	for _, c := range []int{tpch.Q1ColQty, tpch.Q1ColPrice, tpch.Q1ColDiscPrice, tpch.Q1ColCharge} {
		exacts[c] = newExactSums(keys, cols[c], 6)
	}
	exactDone := false
	check := func(b []byte) error {
		gs, err := dist.DecodeTupleGroups(b, len(specs))
		if err != nil {
			return err
		}
		got, err := tpch.Q1FromTuples(gs)
		if err != nil {
			return err
		}
		if err := sameQ1(got, want); err != nil {
			return err
		}
		if !exactDone {
			// Every answer carries the reference's bytes, so one pass
			// over the SUMs covers them all.
			for _, g := range gs {
				for si := 0; si < 4; si++ {
					if err := exacts[specs[si].Col].check(int(g.Key), g.Aggs[si], q1Levels); err != nil {
						return err
					}
				}
			}
			exactDone = true
		}
		return nil
	}

	ref := newF64Ref(keys, cols, specs, 6, runtime.GOMAXPROCS(0))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	do := func(q int, traced bool) (time.Duration, func() error, error) {
		t0 := time.Now()
		res, err := srv.Do(query)
		t1 := time.Now()
		if err != nil {
			return t1.Sub(t0), nil, err
		}
		if traced {
			id := tr.add(q, -1, "serve.Do", t0, t1)
			tr.importServer(q, id, srv.Trace(res.TraceID))
		}
		b := res.Bytes
		if cfg.corrupt && q == 2 {
			b = corruptCopy(b)
		}
		return t1.Sub(t0), func() error { return check(b) }, nil
	}
	wire0 := readWire()
	tracedLat, untracedLat := soloLoop(cfg, rep, ref, do)
	wire1 := readWire()
	if !cfg.trace {
		return rep, nil
	}

	// Traced run: span medians, layer replays, breakdown.
	m := rep.layers
	spans := tr.durations()
	m["serve.admission_us"] = medianUs(spans["serve.admission"])
	m["serve.budget_us"] = medianUs(spans["serve.budget"])
	m["serve.queue_wait_ms"] = medianMs(spans["serve.queue"])
	m["serve.execute_ms"] = medianMs(spans["serve.execute"])
	m["serve.miss_ms"] = msOf(medianDur(rep.lat))
	st := srv.Stats()
	m["serve.rejected"] = float64(st.RejectedBudget + st.RejectedQueue + st.RejectedTimeout + st.RejectedRecovering)
	m["serve.inflight_peak"] = float64(st.PeakInflight)
	m["bench.trace_overhead_pct"] = overheadPct(tracedLat, untracedLat)
	m["float64.ns_per_row"] = float64(medianDur(rep.ref)) / rep.rowsPerQ

	res, err := srv.Do(query)
	if err != nil {
		return nil, err
	}
	groups, err := dist.DecodeTupleGroups(res.Bytes, len(specs))
	if err != nil {
		return nil, err
	}
	addWire(m, wire0, wire1, len(rep.lat), rep.rowsPerQ)
	if err := replayLayers(layerInputs{
		keys: keys, cols: cols, specs: specs, sumCol: cols[tpch.Q1ColPrice], levels: q1Levels,
		nodes: 1, groups: groups, msgBytes: len(res.Bytes), chunk: 64 << 10,
	}, m); err != nil {
		return nil, err
	}

	// Breakdown of the traced p50: the server's spans outside execute
	// are measured; execute is opaque to the benchmark, so its share is
	// modelled from the replays (per-row accumulate over the workers,
	// per-group finalize and result encode). The rest is unaccounted.
	workers := float64(runtime.GOMAXPROCS(0))
	ng := float64(len(groups))
	parts := map[string]float64{
		"serve.admission":            m["serve.admission_us"] / 1e3,
		"serve.budget":               m["serve.budget_us"] / 1e3,
		"serve.queue":                m["serve.queue_wait_ms"],
		"sqlagg.add (modelled)":      m["sqlagg.add_ns_per_row"] * rep.rowsPerQ / workers / 1e6,
		"sqlagg.finalize (modelled)": m["sqlagg.finalize_ns_per_group"] * ng / 1e6,
		"dist.gather (modelled)":     m["dist.gather_ns_per_group"] * ng / 1e6,
	}
	return rep, finishTrace(cfg, tr, m, msOf(medianDur(tracedLat)), parts)
}

// sameQ1 compares two Q1 results bit for bit.
func sameQ1(got, want []tpch.Q1Group) error {
	if len(got) != len(want) {
		return fmt.Errorf("q1: %d groups, reference has %d", len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		same := g.ReturnFlag == w.ReturnFlag && g.LineStatus == w.LineStatus && g.Count == w.Count
		for j, pair := range [][2]float64{
			{g.SumQty, w.SumQty}, {g.SumBasePrice, w.SumBasePrice}, {g.SumDiscPrice, w.SumDiscPrice},
			{g.SumCharge, w.SumCharge}, {g.AvgQty, w.AvgQty}, {g.AvgPrice, w.AvgPrice}, {g.AvgDisc, w.AvgDisc},
		} {
			if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
				return fmt.Errorf("q1: group %c%c aggregate %d is %v, reference %v", w.ReturnFlag, w.LineStatus, j, pair[0], pair[1])
			}
		}
		if !same {
			return fmt.Errorf("q1: group %d is %c%c count %d, reference %c%c count %d",
				i, g.ReturnFlag, g.LineStatus, g.Count, w.ReturnFlag, w.LineStatus, w.Count)
		}
	}
	return nil
}
