package main

import (
	"errors"
	"runtime"
	"time"

	"repro"
	"repro/internal/dist"
	"repro/internal/hashagg"
	"repro/internal/partition"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
)

// layerInputs are one workload's own inputs, handed to the per-layer
// replays: each replay calls one layer's public function on them and
// times the call from outside.
type layerInputs struct {
	keys     []uint32
	cols     [][]float64
	specs    []sqlagg.AggSpec
	sumCol   []float64         // the column the rsum replays accumulate
	levels   int               // rsum level count of the workload's query
	nodes    int               // rows are dealt round-robin to this many nodes
	groups   []dist.TupleGroup // one answer of the workload's query
	msgBytes int               // bytes one query puts on the wire
	chunk    int               // wire chunk payload cap
}

// replay is one timed call into a layer: fn does units units of work.
type replay struct {
	name  string
	units int
	fn    func()
	reps  int       // calls per timing, calibrated so one timing lasts >= replayMin
	per   []float64 // ns per unit, one per round
}

// replaySet runs its replays interleaved: every round times each replay
// once, and each metric is the median over the rounds. Interleaving
// spreads every replay across the whole replay phase, so a burst of
// machine noise lands on all layers a little instead of on one layer
// entirely.
type replaySet struct{ rs []*replay }

const (
	replayMin    = 2 * time.Millisecond // one timing's minimum length
	replayRounds = 15
)

func (s *replaySet) add(name string, units int, fn func()) {
	s.rs = append(s.rs, &replay{name: name, units: max(units, 1), fn: fn})
}

// run calibrates, times replayRounds rounds and writes the medians to m.
func (s *replaySet) run(m map[string]float64) {
	for _, r := range s.rs {
		t0 := time.Now()
		r.fn()
		r.reps = max(1, int(replayMin/max(time.Since(t0), time.Microsecond))+1)
	}
	for round := 0; round < replayRounds; round++ {
		for _, r := range s.rs {
			t0 := time.Now()
			for i := 0; i < r.reps; i++ {
				r.fn()
			}
			r.per = append(r.per, float64(time.Since(t0).Nanoseconds())/float64(r.reps*r.units))
		}
	}
	for _, r := range s.rs {
		m[r.name] = median(r.per)
	}
}

// replayLayers measures the rsum, sqlagg, hashagg, partition and dist
// layers on the workload's inputs and adds their metrics to m.
func replayLayers(in layerInputs, m map[string]float64) error {
	var rs replaySet
	vals := in.sumCol[:min(len(in.sumCol), 1<<18)]

	// rsum: the per-value kernel the engines call today, and the
	// vectorized slice kernel on the same values.
	rs.add("rsum.eager_ns_per_value", len(vals), func() {
		st := rsum.NewState64(in.levels)
		for _, v := range vals {
			st.AddEager(v)
		}
		sinkF += st.Value()
	})
	rs.add("rsum.vec_ns_per_value", len(vals), func() {
		st := rsum.NewState64(in.levels)
		for i := 0; i < len(vals); i += 1024 {
			st.AddSliceVec(vals[i:min(i+1024, len(vals))])
		}
		sinkF += st.Value()
	})

	// rsum state encode and merge: one state per group, as the shuffle
	// ships them.
	const nstates = 4096
	states := make([]rsum.State64, nstates)
	for i := range states {
		states[i] = rsum.NewState64(in.levels)
		for j := 0; j < 16; j++ {
			states[i].AddEager(vals[(i*16+j)%len(vals)])
		}
	}
	size := states[0].EncodedSize()
	enc := make([]byte, 0, nstates*size)
	rs.add("rsum.encode_ns_per_byte", nstates*size, func() {
		enc = enc[:0]
		for i := range states {
			enc, _ = states[i].AppendBinary(enc)
		}
	})
	var mergeErr error
	rs.add("rsum.merge_ns_per_state", nstates, func() {
		acc := rsum.NewState64(in.levels)
		for i := 0; i < nstates; i++ {
			if err := acc.MergeBinary(enc[i*size : (i+1)*size]); err != nil {
				mergeErr = err
			}
		}
		sinkF += acc.Value()
	})

	// sqlagg: per-row AggState.Add across the spec list, and Value
	// across the spec list per group.
	rows := min(len(in.keys), 1<<17)
	tuple, err := sqlagg.NewStates(in.specs)
	if err != nil {
		return err
	}
	rs.add("sqlagg.add_ns_per_row", rows, func() {
		for _, st := range tuple {
			st.Reset()
		}
		for i := 0; i < rows; i++ {
			for si, sp := range in.specs {
				tuple[si].Add(in.cols[sp.Col][i])
			}
		}
	})
	m["sqlagg.states_per_row"] = float64(len(in.specs))
	tuples := make([][]sqlagg.AggState, 1024)
	for g := range tuples {
		if tuples[g], err = sqlagg.NewStates(in.specs); err != nil {
			return err
		}
		for j := 0; j < 16; j++ {
			row := (g*16 + j) % len(in.keys)
			for si, sp := range in.specs {
				tuples[g][si].Add(in.cols[sp.Col][row])
			}
		}
	}
	var newErr error
	rs.add("sqlagg.new_ns_per_group", len(tuples), func() {
		for range tuples {
			sts, err := sqlagg.NewStates(in.specs)
			if err != nil {
				newErr = err
			}
			sinkI += len(sts)
		}
	})
	rs.add("sqlagg.finalize_ns_per_group", len(tuples), func() {
		for _, t := range tuples {
			for _, st := range t {
				sinkF += st.Value()
			}
		}
	})

	// hashagg: key → slot upserts over node 0's round-robin share, in
	// the pattern of the shuffle's pre-aggregation: rows radix-
	// partitioned at fan-out 256 on the low key byte, one table sized
	// for the largest per-partition distinct bound, cleared and reused
	// per partition (payloads recycled through Reset).
	var nodeKeys []uint32
	for i := 0; i < len(in.keys); i += max(in.nodes, 1) {
		nodeKeys = append(nodeKeys, in.keys[i])
	}
	const fanout = 256
	parts := partition.Do(nodeKeys, make([]int32, len(nodeKeys)), 0, fanout, 1)
	hint := 0
	for p := 0; p < parts.NumPartitions(); p++ {
		hint = max(hint, parts.DistinctBound(p, fanout))
	}
	groups := 0
	rs.add("hashagg.upsert_ns_per_row", len(nodeKeys), func() {
		t := hashagg.New(hint, hashagg.Identity, func() slotPayload { return slotPayload{} })
		groups = 0
		for p := 0; p < parts.NumPartitions(); p++ {
			pk, _ := parts.Partition(p)
			t.Clear()
			for _, k := range pk {
				t.Upsert(k).n++
			}
			groups += t.Len()
		}
	})

	// partition: the radix scatter at fan-out 256 on the workload's keys.
	idx := make([]int32, len(in.keys))
	for i := range idx {
		idx[i] = int32(i)
	}
	rs.add("partition.ns_per_row", len(in.keys), func() {
		out := partition.Do(in.keys, idx, 0, 256, runtime.GOMAXPROCS(0))
		sinkI += out.NumPartitions()
	})

	// dist: the transport, reassembly and gather layers with the
	// workload's message volume and chunk size.
	// A workload without data-plane traffic replays one full chunk.
	msg := make([]byte, max(in.msgBytes, in.chunk))
	for i := range msg {
		msg[i] = byte(i)
	}
	// One logical message per MiB of the query's wire volume.
	var frames []dist.Frame
	seq := uint32(0)
	split := func() {
		frames = frames[:0]
		for off := 0; off < len(msg); off += 1 << 20 {
			seq++
			f := dist.Frame{Kind: dist.KindGroups, From: 0, To: 1, Seq: seq, Payload: msg[off:min(off+1<<20, len(msg))]}
			frames = append(frames, dist.SplitFrame(f, in.chunk)...)
		}
	}
	split()
	nchunks := len(frames)

	tcp, err := dist.NewTCPTransport(2)
	if err != nil {
		return err
	}
	defer tcp.Close()
	var tcpErr error
	rs.add("dist.tcp_ns_per_byte", len(msg), func() {
		split()
		for _, f := range frames {
			if err := tcp.Send(f); err != nil {
				tcpErr = err
				return
			}
		}
		for range frames {
			if _, err := tcp.Recv(1, 10*time.Second); err != nil {
				tcpErr = err
				return
			}
		}
	})

	r := dist.NewReassembler(0)
	var reasmErr error
	rs.add("dist.reassembly_ns_per_chunk", nchunks, func() {
		split()
		for _, f := range frames {
			if _, _, _, err := r.Accept(f); err != nil {
				reasmErr = err
			}
		}
	})

	nspecs := len(in.specs)
	var gatherErr error
	rs.add("dist.gather_ns_per_group", len(in.groups), func() {
		b := dist.EncodeTupleGroups(in.groups, nspecs)
		if _, err := dist.DecodeTupleGroups(b, nspecs); err != nil {
			gatherErr = err
		}
	})

	rs.run(m)
	m["hashagg.groups_per_node"] = float64(groups)
	return errors.Join(mergeErr, newErr, tcpErr, reasmErr, gatherErr)
}

// wireCounters are the data-plane counters of repro.Observe that the
// dist.* count metrics are deltas of.
type wireCounters struct{ frames, bytes, chunks, retransmits, resends, rejects float64 }

func readWire() wireCounters {
	s := repro.Observe()
	return wireCounters{
		frames:      s["repro_dist_wire_frames_out_total"],
		bytes:       s["repro_dist_wire_bytes_out_total"],
		chunks:      s["repro_dist_chunks_split_total"],
		retransmits: s["repro_dist_retransmit_chunks_total"],
		resends:     s["repro_dist_resend_requests_total"],
		rejects:     s["repro_dist_reassembly_rejects_total"],
	}
}

// addWire records the dist.* counts of a timed phase of q queries
// over rows input rows each.
func addWire(m map[string]float64, before, after wireCounters, q int, rows float64) {
	qf := float64(max(q, 1))
	m["dist.frames_per_query"] = (after.frames - before.frames) / qf
	m["dist.bytes_per_row"] = (after.bytes - before.bytes) / qf / rows
	m["dist.chunks_per_query"] = (after.chunks - before.chunks) / qf
	m["dist.retransmits_per_query"] = (after.retransmits - before.retransmits) / qf
	m["dist.resend_requests_per_query"] = (after.resends - before.resends) / qf
	m["dist.reassembly_rejects"] = after.rejects - before.rejects
}

// slotPayload stands in for the shuffle's per-key tuple: the same
// 24-byte footprint (a slice header there), recycled through Reset.
type slotPayload struct{ n, a, b int64 }

func (p *slotPayload) Reset() { *p = slotPayload{} }

// Sinks keep replayed results alive so the compiler cannot drop them.
var (
	sinkF float64
	sinkI int
)
