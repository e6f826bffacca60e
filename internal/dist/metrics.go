package dist

import (
	"strconv"

	"repro/internal/obs"
)

// The data plane's wire counters, registered on the process-global
// obs.Default registry. Handles are package-level so the hot paths
// (frame write/read, chunk split, reassembly) record through a single
// pre-resolved atomic — no map lookup, no allocation — which is what
// keeps the zero-alloc shuffle pins intact with instrumentation on.
// Worker processes read the same counters through WireStats and ship
// them to the supervisor piggybacked on heartbeat pings.
var (
	mFramesOut = obs.Default.Counter("repro_dist_wire_frames_out_total",
		"Wire frames written (every chunk written to a socket counts once).")
	mFramesIn = obs.Default.Counter("repro_dist_wire_frames_in_total",
		"Wire frames read and CRC-validated.")
	mBytesOut = obs.Default.Counter("repro_dist_wire_bytes_out_total",
		"Wire bytes written, headers and checksums included.")
	mBytesIn = obs.Default.Counter("repro_dist_wire_bytes_in_total",
		"Wire bytes read, headers and checksums included.")
	mChanFrames = obs.Default.Counter("repro_dist_chan_frames_total",
		"Frames delivered by reference, not through a socket (chan transport sends and TCP self-delivery).")
	mChunksSplit = obs.Default.Counter("repro_dist_chunks_split_total",
		"Chunks produced by splitting logical messages for the wire.")
	mRetransmits = obs.Default.Counter("repro_dist_retransmit_chunks_total",
		"Chunks re-sent from cache in answer to a resend request.")
	mResendReqs = obs.Default.Counter("repro_dist_resend_requests_total",
		"Resend requests issued for missing chunks (straggler recovery).")
	mReasmRejects = obs.Default.Counter("repro_dist_reassembly_rejects_total",
		"Messages rejected by the reassembly memory budget.")
)

// peerCounters is a TCP endpoint's pre-resolved per-peer data-plane
// series: frames and payload bytes exchanged with each peer id, as
// repro_proc_peer_*_total{peer="N"} — the proc prefix is kept so
// existing scrapes of worker processes keep matching. Resolved once at
// endpoint construction so the send/receive paths touch only atomics.
type peerCounters struct {
	framesOut []*obs.Counter
	bytesOut  []*obs.Counter
	framesIn  []*obs.Counter
	bytesIn   []*obs.Counter
}

func newPeerCounters(n int) *peerCounters {
	pc := &peerCounters{
		framesOut: make([]*obs.Counter, n),
		bytesOut:  make([]*obs.Counter, n),
		framesIn:  make([]*obs.Counter, n),
		bytesIn:   make([]*obs.Counter, n),
	}
	for id := 0; id < n; id++ {
		peer := `{peer="` + strconv.Itoa(id) + `"}`
		pc.framesOut[id] = obs.Default.Counter("repro_proc_peer_frames_out_total"+peer,
			"Data-plane frames sent to each peer id.")
		pc.bytesOut[id] = obs.Default.Counter("repro_proc_peer_payload_bytes_out_total"+peer,
			"Data-plane payload bytes sent to each peer id.")
		pc.framesIn[id] = obs.Default.Counter("repro_proc_peer_frames_in_total"+peer,
			"Data-plane frames received from each peer id.")
		pc.bytesIn[id] = obs.Default.Counter("repro_proc_peer_payload_bytes_in_total"+peer,
			"Data-plane payload bytes received from each peer id.")
	}
	return pc
}

func (pc *peerCounters) sent(to int, payloadLen int) {
	pc.framesOut[to].Inc()
	pc.bytesOut[to].Add(uint64(payloadLen))
}

func (pc *peerCounters) received(from int, payloadLen int) {
	if from >= 0 && from < len(pc.framesIn) {
		pc.framesIn[from].Inc()
		pc.bytesIn[from].Add(uint64(payloadLen))
	}
}

// WireStats is a point-in-time read of the process's data-plane wire
// counters. Workers encode one into each heartbeat ping; the
// supervisor folds the deltas into its ClusterStats so a cluster's
// aggregate traffic is visible from one place.
type WireStats struct {
	FramesOut, FramesIn uint64
	BytesOut, BytesIn   uint64
	ChanFrames          uint64
	ChunksSplit         uint64
	Retransmits         uint64
	ResendRequests      uint64
	ReassemblyRejects   uint64
}

// ReadWireStats snapshots the process-global wire counters.
func ReadWireStats() WireStats {
	return WireStats{
		FramesOut:         mFramesOut.Value(),
		FramesIn:          mFramesIn.Value(),
		BytesOut:          mBytesOut.Value(),
		BytesIn:           mBytesIn.Value(),
		ChanFrames:        mChanFrames.Value(),
		ChunksSplit:       mChunksSplit.Value(),
		Retransmits:       mRetransmits.Value(),
		ResendRequests:    mResendReqs.Value(),
		ReassemblyRejects: mReasmRejects.Value(),
	}
}

// Add folds another snapshot (or delta) into s field by field.
func (s *WireStats) Add(d WireStats) {
	s.FramesOut += d.FramesOut
	s.FramesIn += d.FramesIn
	s.BytesOut += d.BytesOut
	s.BytesIn += d.BytesIn
	s.ChanFrames += d.ChanFrames
	s.ChunksSplit += d.ChunksSplit
	s.Retransmits += d.Retransmits
	s.ResendRequests += d.ResendRequests
	s.ReassemblyRejects += d.ReassemblyRejects
}

// Sub returns s - prev with per-field clamping at zero: a counter that
// went backwards means the reporting process restarted (a replacement
// worker re-using a node slot), so its full current value is the delta.
func (s WireStats) Sub(prev WireStats) WireStats {
	d := func(cur, old uint64) uint64 {
		if cur < old {
			return cur
		}
		return cur - old
	}
	return WireStats{
		FramesOut:         d(s.FramesOut, prev.FramesOut),
		FramesIn:          d(s.FramesIn, prev.FramesIn),
		BytesOut:          d(s.BytesOut, prev.BytesOut),
		BytesIn:           d(s.BytesIn, prev.BytesIn),
		ChanFrames:        d(s.ChanFrames, prev.ChanFrames),
		ChunksSplit:       d(s.ChunksSplit, prev.ChunksSplit),
		Retransmits:       d(s.Retransmits, prev.Retransmits),
		ResendRequests:    d(s.ResendRequests, prev.ResendRequests),
		ReassemblyRejects: d(s.ReassemblyRejects, prev.ReassemblyRejects),
	}
}
