package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// runShuffle is the shuffle-highcard workload: 2^20 rows over 2^16
// uniform keys (16 rows per group), SUM and COUNT over one MixedMag
// column, through repro.DistributedAggregateByKey on two in-process
// nodes over loopback TCP with 64 KiB chunks, one worker per node and
// one closed-loop client. Per-group work (hash upsert, state encode,
// shuffle, merge) dominates; the group tables exceed L2.
func runShuffle(cfg config) (*report, error) {
	rows, ngroups := 1<<20, 1<<16
	if cfg.tiny {
		rows, ngroups = 1<<14, 1<<10
	}
	nodes := min(2, runtime.NumCPU())
	specs := []repro.AggSpec{
		{Kind: repro.AggSum, Levels: repro.DefaultLevels, Col: 0},
		{Kind: repro.AggCount, Levels: repro.DefaultLevels, Col: 0},
	}
	opts := []repro.DistOption{repro.WithTCPTransport(), repro.WithMaxChunkPayload(64 << 10)}
	rep := &report{layers: map[string]float64{}}

	// Set-up: generate and shard the rows, warm up with one query.
	var keys []uint32
	var vals []float64
	var shardKeys [][]uint32
	var shardCols [][][]float64
	for i := 0; i < setupReps(cfg); i++ {
		keys, vals, shardKeys, shardCols = nil, nil, nil, nil
		releaseMemory()
		t0 := time.Now()
		keys = workload.Keys(cfg.seed, rows, uint32(ngroups))
		vals = workload.Values64(cfg.seed+1, rows, workload.MixedMag)
		shardKeys = make([][]uint32, nodes)
		shardCols = make([][][]float64, nodes)
		for n := range shardCols {
			shardKeys[n] = make([]uint32, 0, rows/nodes+1)
			shardCols[n] = [][]float64{make([]float64, 0, rows/nodes+1)}
		}
		for r, k := range keys {
			n := r % nodes
			shardKeys[n] = append(shardKeys[n], k)
			shardCols[n][0] = append(shardCols[n][0], vals[r])
		}
		if _, err := repro.DistributedAggregateByKey(shardKeys, shardCols, 1, specs, opts...); err != nil {
			return nil, fmt.Errorf("shuffle-highcard warm-up: %w", err)
		}
		rep.setup = append(rep.setup, time.Since(t0).Seconds())
	}
	rep.rowsPerQ = float64(rows)

	// The reference answer, by a different path: a single node over the
	// in-process channel transport, all rows in one shard.
	refGroups, err := dist.AggregateTuples([][]uint32{keys}, [][][]float64{{vals}}, 1, specs)
	if err != nil {
		return nil, err
	}
	want := dist.EncodeTupleGroups(refGroups, len(specs))
	exacts := newExactSums(keys, vals, ngroups)
	for _, g := range refGroups {
		if err := exacts.check(int(g.Key), g.Aggs[0], repro.DefaultLevels); err != nil {
			return nil, fmt.Errorf("shuffle-highcard reference: %w", err)
		}
	}

	ref := newF64Ref(keys, [][]float64{vals}, specs, ngroups, nodes)
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	do := func(q int, traced bool) (time.Duration, func() error, error) {
		t0 := time.Now()
		gs, err := repro.DistributedAggregateByKey(shardKeys, shardCols, 1, specs, opts...)
		t1 := time.Now()
		if err != nil {
			return t1.Sub(t0), nil, err
		}
		if traced {
			tr.add(q, -1, "dist.AggregateByKey", t0, t1)
		}
		return t1.Sub(t0), func() error {
			b := dist.EncodeTupleGroups(gs, len(specs))
			if cfg.corrupt && q == 2 {
				b = corruptCopy(b)
			}
			if !bytes.Equal(b, want) {
				return fmt.Errorf("shuffle-highcard: answer bytes differ from the single-node reference")
			}
			return nil
		}, nil
	}
	before := readWire()
	tracedLat, untracedLat := soloLoop(cfg, rep, ref, do)
	after := readWire()
	if !cfg.trace {
		return rep, nil
	}

	m := rep.layers
	addWire(m, before, after, rep.attempted, rep.rowsPerQ)
	m["bench.trace_overhead_pct"] = overheadPct(tracedLat, untracedLat)
	m["float64.ns_per_row"] = float64(medianDur(rep.ref)) / rep.rowsPerQ
	msgBytes := int(m["dist.bytes_per_row"] * rep.rowsPerQ)
	if err := replayLayers(layerInputs{
		keys: keys, cols: [][]float64{vals}, specs: specs, sumCol: vals, levels: repro.DefaultLevels,
		nodes: nodes, groups: refGroups, msgBytes: msgBytes, chunk: 64 << 10,
	}, m); err != nil {
		return nil, err
	}

	// Breakdown of the traced p50. The distributed call is opaque to
	// the benchmark, so every part is modelled: a replayed unit cost
	// times the query's unit count, with per-node work divided by the
	// node count because the nodes run side by side.
	perNode := func(ns, units float64) float64 { return ns * units / float64(nodes) / 1e6 }
	ng := float64(len(refGroups))
	sumStateBytes := 0.0
	if sz, err := (sqlagg.AggSpec{Kind: sqlagg.AggSum, Levels: repro.DefaultLevels}).StateSize(); err == nil {
		sumStateBytes = float64(sz)
	}
	parts := map[string]float64{
		"partition":       perNode(m["partition.ns_per_row"], rep.rowsPerQ),
		"hashagg.upsert":  perNode(m["hashagg.upsert_ns_per_row"], rep.rowsPerQ),
		"sqlagg.add":      perNode(m["sqlagg.add_ns_per_row"], rep.rowsPerQ),
		"rsum.encode":     perNode(m["rsum.encode_ns_per_byte"], ng*float64(nodes)*sumStateBytes),
		"dist.tcp":        perNode(m["dist.tcp_ns_per_byte"], float64(msgBytes)),
		"dist.reassembly": perNode(m["dist.reassembly_ns_per_chunk"], m["dist.chunks_per_query"]),
		"rsum.merge":      perNode(m["rsum.merge_ns_per_state"], ng*float64(nodes)),
		"sqlagg.finalize": perNode(m["sqlagg.finalize_ns_per_group"], ng),
		"sqlagg.new":      perNode(m["sqlagg.new_ns_per_group"], ng*float64(nodes)),
		"dist.gather":     m["dist.gather_ns_per_group"] * ng / 1e6,
	}
	return rep, finishTrace(cfg, tr, m, msOf(medianDur(tracedLat)), parts)
}
