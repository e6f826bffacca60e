package dist

import (
	"bytes"
	"errors"
	"io"
	"math"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/rsum"
	"repro/internal/workload"
)

// --- frame codec ---

func TestFrameRoundTrip(t *testing.T) {
	frames := []Frame{
		{Kind: KindPartial, From: 3, To: 0, Seq: 0, Chunks: 1, Payload: []byte("partial-state")},
		{Kind: KindGroups, From: 0, To: 7, Seq: seqShuffle, Chunks: 1, Payload: nil},
		{Kind: KindGather, From: 61, To: 0, Seq: seqGather, Chunks: 1, Payload: bytes.Repeat([]byte{0xAB}, 4096)},
		{Kind: KindGroups, From: 4, To: 2, Seq: seqShuffle, Chunk: 2, Chunks: 5, Payload: []byte("mid-chunk")},
		{Kind: KindResend, From: 0, To: 5},                      // whole-stream re-request
		{Kind: KindResend, From: 0, To: 5, Chunk: 3, Chunks: 1}, // single-chunk re-request
		{Kind: KindError, From: 2, To: 1, Chunks: 1, Payload: []byte("node 2: boom")},
	}
	var wire []byte
	for _, f := range frames {
		wire = AppendFrame(wire, f)
	}
	// Decode the concatenated stream frame by frame.
	rest := wire
	for i, want := range frames {
		got, n, err := DecodeFrame(rest)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Kind != want.Kind || got.From != want.From || got.To != want.To ||
			got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v, want %+v", i, got, want)
		}
		rest = rest[n:]
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after decoding all frames", len(rest))
	}
	// ReadFrame over the same stream must agree.
	r := bytes.NewReader(wire)
	for i, want := range frames {
		got, err := ReadFrame(r)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if got.Kind != want.Kind || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("ReadFrame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(r); err != io.EOF {
		t.Fatalf("stream end: got %v, want io.EOF", err)
	}
}

func TestFrameDecodeRejectsCorruption(t *testing.T) {
	good := EncodeFrame(Frame{Kind: KindPartial, From: 1, To: 2, Seq: 9, Chunks: 1, Payload: []byte("hello world")})

	// Every single-bit flip must be rejected (magic, version, kind,
	// routing, length, payload, or CRC damage — the checksum catches
	// whatever the structural checks do not).
	for bit := 0; bit < 8*len(good); bit++ {
		bad := append([]byte(nil), good...)
		bad[bit/8] ^= 1 << (bit % 8)
		if _, _, err := DecodeFrame(bad); err == nil {
			t.Fatalf("bit flip at %d accepted", bit)
		}
	}
	// Every truncation must be rejected.
	for cut := 0; cut < len(good); cut++ {
		if _, _, err := DecodeFrame(good[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
		if _, err := ReadFrame(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("ReadFrame truncation to %d bytes accepted", cut)
		}
	}
	// A huge length prefix must be rejected without allocating.
	huge := append([]byte(nil), good...)
	huge[24], huge[25], huge[26], huge[27] = 0xFF, 0xFF, 0xFF, 0xFF
	if _, _, err := DecodeFrame(huge); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("oversized length: got %v, want ErrBadFrame", err)
	}
	if _, err := ReadFrame(bytes.NewReader(huge)); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("ReadFrame oversized length: got %v, want ErrBadFrame", err)
	}
	// Invalid chunk headers must be rejected at the trust boundary.
	bad := []Frame{
		{Kind: KindPartial, Chunks: 0},                      // data frame without a chunk count
		{Kind: KindGroups, Chunk: 3, Chunks: 3},             // index out of range
		{Kind: KindGather, Chunks: MaxChunksPerMessage + 1}, // hostile chunk count
		{Kind: KindResend, Chunk: 0, Chunks: 2},             // resend selector beyond 0/1
	}
	for i, f := range bad {
		if _, _, err := DecodeFrame(EncodeFrame(f)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("bad chunk header %d: got %v, want ErrBadFrame", i, err)
		}
	}
}

// --- transports ---

// transports lists the implementations under test by name.
func transportFactories() map[string]TransportFactory {
	return map[string]TransportFactory{
		"chan": ChanTransportFactory,
		"tcp":  TCPTransportFactory,
	}
}

func TestTransportDelivery(t *testing.T) {
	for name, factory := range transportFactories() {
		t.Run(name, func(t *testing.T) {
			tr, err := factory(4)
			if err != nil {
				t.Fatal(err)
			}
			defer tr.Close()
			if tr.Nodes() != 4 {
				t.Fatalf("Nodes() = %d, want 4", tr.Nodes())
			}
			want := Frame{Kind: KindPartial, From: 2, To: 1, Seq: 7, Chunks: 1, Payload: []byte("payload")}
			if err := tr.Send(want); err != nil {
				t.Fatal(err)
			}
			got, err := tr.Recv(1, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.From != 2 || got.Seq != 7 || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("got %+v, want %+v", got, want)
			}
			// Self-send must work (the shuffle routes frames to the
			// sender's own partition).
			if err := tr.Send(Frame{Kind: KindGroups, From: 1, To: 1, Chunks: 1}); err != nil {
				t.Fatal(err)
			}
			if _, err := tr.Recv(1, time.Second); err != nil {
				t.Fatalf("self-send: %v", err)
			}
			// Timeout on an empty mailbox.
			if _, err := tr.Recv(3, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
				t.Fatalf("empty mailbox: got %v, want ErrTimeout", err)
			}
			// Out-of-range endpoints are rejected.
			if err := tr.Send(Frame{To: 99}); err == nil {
				t.Fatal("send to out-of-range node accepted")
			}
			if _, err := tr.Recv(-1, time.Millisecond); err == nil {
				t.Fatal("recv on out-of-range node accepted")
			}
		})
	}
}

func TestTransportClose(t *testing.T) {
	for name, factory := range transportFactories() {
		t.Run(name, func(t *testing.T) {
			tr, err := factory(2)
			if err != nil {
				t.Fatal(err)
			}
			unblocked := make(chan error, 1)
			go func() {
				_, err := tr.Recv(0, 0)
				unblocked <- err
			}()
			time.Sleep(5 * time.Millisecond)
			if err := tr.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			select {
			case err := <-unblocked:
				if !errors.Is(err, ErrClosed) {
					t.Fatalf("blocked Recv: got %v, want ErrClosed", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("Close did not unblock Recv")
			}
			if err := tr.Send(Frame{Kind: KindPartial, To: 0, Chunks: 1}); !errors.Is(err, ErrClosed) {
				t.Fatalf("Send after Close: got %v, want ErrClosed", err)
			}
			if err := tr.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
		})
	}
}

// TestTCPFrameOverWire pins that TCP really moves the canonical state
// encoding through a socket: marshal on one node, MergeBinary on the
// other side, bits preserved.
func TestTCPFrameOverWire(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()

	s := rsum.NewState64(levels)
	s.AddSliceVec(workload.Values64(5, 1000, workload.MixedMag))
	enc, _ := s.MarshalBinary()
	if err := tr.Send(Frame{Kind: KindPartial, From: 1, To: 0, Chunks: 1, Payload: enc}); err != nil {
		t.Fatal(err)
	}
	f, err := tr.Recv(0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	var got rsum.State64
	if err := got.UnmarshalBinary(f.Payload); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(&s) {
		t.Fatal("state bits changed crossing the TCP transport")
	}
}

// --- cross-transport equivalence matrix (the PR's acceptance bar) ---

// faultPlans enumerates the fault-injection cells of the matrix. Delays
// are kept small so the full matrix stays fast under -race.
func faultPlans() map[string]*FaultPlan {
	return map[string]*FaultPlan{
		"none":    nil,
		"delay":   {Seed: 1, MaxDelay: 300 * time.Microsecond},
		"dup":     {Seed: 2, DupProb: 0.5},
		"drop":    {Seed: 3, DropProb: 0.4, RetryDelay: 200 * time.Microsecond},
		"reorder": {Seed: 4, Reorder: true, RetryDelay: 200 * time.Microsecond},
		"chaos": {Seed: 5, DropProb: 0.3, DupProb: 0.3, MaxDelay: 200 * time.Microsecond,
			RetryDelay: 100 * time.Microsecond, Reorder: true},
	}
}

// matrixConfig builds the Config for one matrix cell, with a short
// straggler deadline so the re-request path genuinely runs under the
// dropping/delaying plans, and no give-up cap: spurious re-requests
// are harmless, and a bounded cap would race the race detector's
// scheduling slowdown (give-up behavior has its own dedicated tests).
func matrixConfig(factory TransportFactory, plan *FaultPlan) Config {
	return Config{
		NewTransport:  factory,
		Faults:        plan,
		ChildDeadline: 2 * time.Millisecond,
		MaxResend:     -1,
	}
}

// TestReduceTransportMatrix: every (topology × cluster size × transport
// × fault plan) cell must produce bits identical to a single-threaded
// sequential sum of the same values.
func TestReduceTransportMatrix(t *testing.T) {
	const n = 4000
	vals := workload.Values64(17, n, workload.MixedMag)
	ref := rsum.NewState64(levels)
	ref.AddSliceVec(vals)
	want := math.Float64bits(ref.Value())

	sizes := []int{1, 2, 5, 16}
	for tname, factory := range transportFactories() {
		for pname, plan := range faultPlans() {
			t.Run(tname+"/"+pname, func(t *testing.T) {
				t.Parallel()
				for _, nodes := range sizes {
					shards := shard(vals, nodes)
					for _, topo := range topologies {
						got, err := ReduceConfig(shards, 2, topo, matrixConfig(factory, plan))
						if err != nil {
							t.Fatalf("%v n=%d: %v", topo, nodes, err)
						}
						if bits := math.Float64bits(got); bits != want {
							t.Fatalf("%v n=%d: %016x, want %016x", topo, nodes, bits, want)
						}
					}
				}
			})
		}
	}
}

// TestAggregateByKeyTransportMatrix: the GROUP BY shuffle under every
// transport × fault plan matches the sequential per-key reference.
func TestAggregateByKeyTransportMatrix(t *testing.T) {
	const n = 6000
	keys := workload.Keys(18, n, 200)
	vals := workload.Values64(19, n, workload.MixedMag)
	want := refGroups(keys, vals)

	sizes := []int{1, 3, 8}
	for tname, factory := range transportFactories() {
		for pname, plan := range faultPlans() {
			t.Run(tname+"/"+pname, func(t *testing.T) {
				t.Parallel()
				for _, nodes := range sizes {
					lk, lv := dealRows(keys, vals, nodes)
					out, err := AggregateByKeyConfig(lk, lv, 2, matrixConfig(factory, plan))
					if err != nil {
						t.Fatalf("n=%d: %v", nodes, err)
					}
					checkGroups(t, out, want, nodes, 2)
				}
			})
		}
	}
}

// TestStragglerRerequest forces the straggler path deterministically: a
// transport that swallows the first transmission of every partial, so
// parents only make progress through deadline → re-request → retransmit.
func TestStragglerRerequest(t *testing.T) {
	const n = 2000
	vals := workload.Values64(23, n, workload.MixedMag)
	ref := rsum.NewState64(levels)
	ref.AddSliceVec(vals)
	want := math.Float64bits(ref.Value())

	for _, topo := range topologies {
		factory := func(n int) (Transport, error) {
			return &firstSendBlackhole{Transport: NewChanTransport(n), dropped: make(map[chunkID]bool)}, nil
		}
		cfg := Config{NewTransport: factory, ChildDeadline: 2 * time.Millisecond, MaxResend: -1}
		got, err := ReduceConfig(shard(vals, 6), 1, topo, cfg)
		if err != nil {
			t.Fatalf("%v: %v", topo, err)
		}
		if bits := math.Float64bits(got); bits != want {
			t.Fatalf("%v: %016x, want %016x", topo, bits, want)
		}
	}
}

// TestStragglerGivesUp: a child that never answers must surface
// ErrStraggler instead of hanging.
func TestStragglerGivesUp(t *testing.T) {
	factory := func(n int) (Transport, error) {
		return &partialBlackhole{Transport: NewChanTransport(n)}, nil
	}
	cfg := Config{NewTransport: factory, ChildDeadline: time.Millisecond, MaxResend: 3}
	_, err := ReduceConfig([][]float64{{1}, {2}}, 1, Star, cfg)
	if !errors.Is(err, ErrStraggler) {
		t.Fatalf("got %v, want ErrStraggler", err)
	}
}

// TestGroupByStragglerRerequest forces the shuffle's re-request path:
// the first transmission of every shuffle and gather frame is
// swallowed, so owners only make progress through deadline →
// re-request → retransmit-from-cache.
func TestGroupByStragglerRerequest(t *testing.T) {
	const n = 3000
	keys := workload.Keys(41, n, 100)
	vals := workload.Values64(43, n, workload.MixedMag)
	want := refGroups(keys, vals)

	factory := func(n int) (Transport, error) {
		return &firstSendBlackhole{
			Transport: NewChanTransport(n),
			kinds:     map[byte]bool{KindGroups: true, KindGather: true},
			dropped:   make(map[chunkID]bool),
		}, nil
	}
	for _, nodes := range []int{2, 5} {
		lk, lv := dealRows(keys, vals, nodes)
		cfg := Config{NewTransport: factory, ChildDeadline: 2 * time.Millisecond, MaxResend: -1}
		out, err := AggregateByKeyConfig(lk, lv, 2, cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", nodes, err)
		}
		checkGroups(t, out, want, nodes, 2)
	}
}

// TestGroupByStragglerGivesUp: a shuffle whose frames never arrive must
// surface ErrStraggler instead of hanging.
func TestGroupByStragglerGivesUp(t *testing.T) {
	factory := func(n int) (Transport, error) {
		return &kindBlackhole{Transport: NewChanTransport(n), kind: KindGroups}, nil
	}
	cfg := Config{NewTransport: factory, ChildDeadline: time.Millisecond, MaxResend: 3}
	_, err := AggregateByKeyConfig([][]uint32{{1}, {2}}, [][]float64{{1}, {2}}, 1, cfg)
	if !errors.Is(err, ErrStraggler) {
		t.Fatalf("got %v, want ErrStraggler", err)
	}
}

// firstSendBlackhole swallows the first transmission of every distinct
// chunk of the selected kinds (default: partials); retransmissions
// (triggered by chunk-level re-requests) pass.
type firstSendBlackhole struct {
	Transport
	kinds   map[byte]bool // nil means {KindPartial}
	mu      sync.Mutex
	dropped map[chunkID]bool
}

// chunkID identifies one wire chunk: the shuffle sends one message per
// destination on the same stream, and a message has many chunks.
type chunkID struct {
	from, to int
	seq      uint32
	chunk    uint32
}

func (b *firstSendBlackhole) Send(f Frame) error {
	match := f.Kind == KindPartial
	if b.kinds != nil {
		match = b.kinds[f.Kind]
	}
	if match {
		k := chunkID{f.From, f.To, f.Seq, f.Chunk}
		b.mu.Lock()
		first := !b.dropped[k]
		b.dropped[k] = true
		b.mu.Unlock()
		if first {
			return nil // swallowed
		}
	}
	return b.Transport.Send(f)
}

// partialBlackhole swallows every partial, so children look permanently
// unresponsive.
type partialBlackhole struct{ Transport }

func (b *partialBlackhole) Send(f Frame) error {
	if f.Kind == KindPartial {
		return nil
	}
	return b.Transport.Send(f)
}

// kindBlackhole swallows every frame of one kind.
type kindBlackhole struct {
	Transport
	kind byte
}

func (b *kindBlackhole) Send(f Frame) error {
	if f.Kind == b.kind {
		return nil
	}
	return b.Transport.Send(f)
}

// TestShuffleBeyondOldFrameCeiling: a shuffle payload exceeding the old
// 16 MiB per-(sender, owner) frame ceiling — which used to fail fast
// with ErrBadFrame — now travels as a chunk stream and produces the
// correct bits on every transport. This is the scale step the chunking
// refactor exists for.
func TestShuffleBeyondOldFrameCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("moves ~20 MiB per transport")
	}
	// ~300k distinct keys all owned by one node: the logical shuffle
	// payload is ~18 MiB (60 B per ⟨key, state⟩ pair at the default
	// L=2), forcing ≥2 chunks even at the default 16 MiB chunk payload.
	const nkeys = 300_000
	keys := make([]uint32, nkeys)
	vals := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = float64(i%97) + 0.5
	}
	for name, factory := range transportFactories() {
		t.Run(name, func(t *testing.T) {
			cfg := Config{NewTransport: factory}
			out, err := AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, cfg)
			if err != nil {
				t.Fatalf("chunked shuffle past the old ceiling: %v", err)
			}
			if len(out) != nkeys {
				t.Fatalf("%d groups, want %d", len(out), nkeys)
			}
			for i, g := range out {
				if g.Key != uint32(i) || g.Sum != float64(i%97)+0.5 {
					t.Fatalf("group %d = {%d, %v}", i, g.Key, g.Sum)
				}
			}
		})
	}
}

// TestReassemblyBudgetEnforced: a logical message larger than the
// reassembly budget must fail with ErrChunkBudget — surfaced through
// the facade-visible error chain, not an OOM or a hang.
func TestReassemblyBudgetEnforced(t *testing.T) {
	const nkeys = 2_000 // ~120 KB logical shuffle payload
	keys := make([]uint32, nkeys)
	vals := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = 1
	}
	cfg := Config{ReassemblyBudget: 32 << 10, MaxChunkPayload: 4 << 10}
	_, err := AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, cfg)
	if !errors.Is(err, ErrChunkBudget) {
		t.Fatalf("got %v, want ErrChunkBudget", err)
	}
}

// TestChunkCountBoundEnforcedSenderSide: a chunk payload so small that
// the message would need more than MaxChunksPerMessage chunks must fail
// deterministically on the sender — no receiver would accept the
// stream, and over TCP the rejected chunks would otherwise spin the
// re-request loop forever under MaxResend < 0.
func TestChunkCountBoundEnforcedSenderSide(t *testing.T) {
	const nkeys = 20_000 // ~1.2 MB logical payload > 1 B × MaxChunksPerMessage
	keys := make([]uint32, nkeys)
	vals := make([]float64, nkeys)
	for i := range keys {
		keys[i] = uint32(i)
		vals[i] = 1
	}
	cfg := Config{MaxChunkPayload: 1, MaxResend: -1, ChildDeadline: time.Millisecond}
	done := make(chan error, 1)
	go func() {
		_, err := AggregateByKeyConfig([][]uint32{keys}, [][]float64{vals}, 2, cfg)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrChunkBudget) {
			t.Fatalf("got %v, want ErrChunkBudget", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("over-chunked message hung instead of failing sender-side")
	}
}

// TestHostileChunksRejected: a peer declaring a hostile chunk stream —
// huge chunk counts, oversized buffering — must yield an error on the
// receive path, never an OOM. Frames are injected directly through a
// ChanTransport (bypassing the wire decoder), so this also pins that
// the reassembler revalidates chunk headers itself.
func TestHostileChunksRejected(t *testing.T) {
	hostile := []Frame{
		// Declares a chunk count past the per-message bound.
		{Kind: KindPartial, From: 1, To: 0, Seq: 0, Chunk: 0, Chunks: MaxChunksPerMessage + 1, Payload: []byte("x")},
		// Index out of declared range.
		{Kind: KindPartial, From: 1, To: 0, Seq: 0, Chunk: 5, Chunks: 2, Payload: []byte("x")},
		// Empty chunk of a multi-chunk message.
		{Kind: KindPartial, From: 1, To: 0, Seq: 0, Chunk: 0, Chunks: 2},
	}
	for i, h := range hostile {
		h := h
		factory := func(n int) (Transport, error) {
			inner := NewChanTransport(n)
			_ = inner.Send(h) // pre-load the hostile frame in node 0's inbox
			return inner, nil
		}
		cfg := Config{NewTransport: factory, ChildDeadline: 50 * time.Millisecond, MaxResend: 2}
		_, err := ReduceConfig([][]float64{{1}, {2}}, 1, Star, cfg)
		if err == nil {
			t.Fatalf("hostile frame %d: reduction succeeded", i)
		}
	}
}

// TestTCPSendRedialsAfterConnFailure: a broken cached connection must
// not poison an endpoint's pipe to a peer forever — the next Send
// re-dials, so straggler retransmissions can actually recover. The
// pipe belongs to node 1's TCPEndpoint, the dial and reset code a
// worker process runs.
func TestTCPSendRedialsAfterConnFailure(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	f := Frame{Kind: KindPartial, From: 1, To: 0, Chunks: 1, Payload: []byte("partial")}
	if err := tr.Send(f); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Recv(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	// Break the cached connection behind Send's back.
	p := tr.nodes[1].pipe(0)
	p.mu.Lock()
	p.c.Close()
	p.mu.Unlock()

	// Sends must recover via re-dial: the first attempts may fail while
	// the failure is detected and the pipe dropped, but a fresh frame
	// must get through well within the deadline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("Send never recovered after the cached conn broke")
		}
		if err := tr.Send(f); err != nil {
			continue
		}
		if _, err := tr.Recv(0, 100*time.Millisecond); err == nil {
			return // delivered over the re-dialed connection
		}
	}
}

// TestTCPSeverOutgoingRedials: SeverOutgoing may race any number of
// sends — frames on the severed sockets may be lost, nothing deadlocks
// — and afterwards the next send re-dials and gets through.
func TestTCPSeverOutgoingRedials(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			_ = tr.Send(Frame{Kind: KindPartial, From: 1, To: 0, Seq: uint32(i), Chunks: 1, Payload: []byte("lossy")})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			tr.nodes[1].SeverOutgoing()
		}
	}()
	wg.Wait()
	tr.nodes[1].SeverOutgoing()
	last := Frame{Kind: KindPartial, From: 1, To: 0, Seq: 1000, Chunks: 1, Payload: []byte("after")}
	if err := tr.Send(last); err != nil {
		t.Fatalf("send after sever: %v", err)
	}
	for {
		f, err := tr.Recv(0, 2*time.Second)
		if err != nil {
			t.Fatalf("frame sent after the sever never arrived: %v", err)
		}
		if f.Seq == last.Seq {
			return
		}
	}
}

// TestTCPEndpointUpdatePeer: re-pointing a peer at a replacement's
// listener drops the cached pipe, so the next send reaches the
// replacement, not the stale address.
func TestTCPEndpointUpdatePeer(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	f := Frame{Kind: KindPartial, From: 1, To: 0, Chunks: 1, Payload: []byte("partial")}
	if err := tr.Send(f); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Recv(0, 2*time.Second); err != nil {
		t.Fatal(err)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := NewTCPEndpoint(0, []string{ln.Addr().String(), ""}, ln)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	if sub.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", sub.Nodes())
	}
	tr.nodes[1].UpdatePeer(0, ln.Addr().String())
	f.Seq = 1
	if err := tr.Send(f); err != nil {
		t.Fatal(err)
	}
	if got, err := sub.Recv(0, 2*time.Second); err != nil || got.Seq != 1 {
		t.Fatalf("replacement received %+v, %v", got, err)
	}
	if got, err := tr.Recv(0, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("stale node 0 still received %+v (%v)", got, err)
	}
	if _, err := NewTCPEndpoint(2, []string{"a", "b"}, ln); err == nil {
		t.Fatal("endpoint id outside the address table accepted")
	}
}

// TestTCPSelfSendByReference: a self-addressed frame on the in-process
// TCP transport is delivered by reference, as it is in a worker
// process and on ChanTransport — intact, without touching a socket.
func TestTCPSelfSendByReference(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wire, byRef := mFramesOut.Value(), mChanFrames.Value()
	payload := []byte("own partition")
	if err := tr.Send(Frame{Kind: KindGroups, From: 1, To: 1, Seq: 4, Chunks: 1, Payload: payload}); err != nil {
		t.Fatal(err)
	}
	f, err := tr.Recv(1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if f.Kind != KindGroups || f.From != 1 || f.Seq != 4 || !bytes.Equal(f.Payload, payload) {
		t.Fatalf("self-send arrived as %+v", f)
	}
	if &f.Payload[0] != &payload[0] {
		t.Error("self-send payload was copied, want delivery by reference")
	}
	if d := mFramesOut.Value() - wire; d != 0 {
		t.Errorf("repro_dist_wire_frames_out_total moved by %d on a self-send, want 0", d)
	}
	if d := mChanFrames.Value() - byRef; d != 1 {
		t.Errorf("repro_dist_chan_frames_total moved by %d on a self-send, want 1", d)
	}
}

// TestTCPCrossNodeCountsWireOnly: frames that cross a socket move the
// wire counters and leave the by-reference counter alone.
func TestTCPCrossNodeCountsWireOnly(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	out, in, byRef := mFramesOut.Value(), mFramesIn.Value(), mChanFrames.Value()
	const frames = 11
	for i := 0; i < frames; i++ {
		if err := tr.Send(Frame{Kind: KindPartial, From: i % 2, To: 1 - i%2, Seq: uint32(i), Chunks: 1, Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ {
		if _, err := tr.Recv(1-i%2, 2*time.Second); err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
	}
	if d := mFramesOut.Value() - out; d != frames {
		t.Errorf("wire frames out moved by %d, want %d", d, frames)
	}
	if d := mFramesIn.Value() - in; d != frames {
		t.Errorf("wire frames in moved by %d, want %d", d, frames)
	}
	if d := mChanFrames.Value() - byRef; d != 0 {
		t.Errorf("repro_dist_chan_frames_total moved by %d for socket traffic, want 0", d)
	}
}

// TestTCPRejectsOutOfRangeSender: in-process TCP routes by Frame.From,
// so a sender outside the cluster is an error, not a frame that
// reaches some node anyway.
func TestTCPRejectsOutOfRangeSender(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	for _, from := range []int{-1, 2, 7} {
		f := Frame{Kind: KindPartial, From: from, To: 1, Chunks: 1, Payload: []byte("x")}
		if err := tr.Send(f); err == nil {
			t.Errorf("Send from node %d accepted", from)
		}
		ok := Frame{Kind: KindPartial, From: 0, To: 1, Seq: 1, Chunks: 1}
		if err := tr.SendBatch([]Frame{f, ok}); err == nil {
			t.Errorf("SendBatch with a frame from node %d accepted", from)
		}
		// The valid run of the batch is still attempted.
		if got, err := tr.Recv(1, 2*time.Second); err != nil || got.From != 0 {
			t.Fatalf("valid frame after a rejected one: %+v, %v", got, err)
		}
	}
	if f, err := tr.Recv(1, 50*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("a frame from an out-of-range sender arrived: %+v (%v)", f, err)
	}
}

// TestMailboxes pins the shared receive side directly: delivery,
// batched delivery, receive timeout, and idempotent close.
func TestMailboxes(t *testing.T) {
	mb := newMailboxes(2)
	if mb.Nodes() != 2 {
		t.Fatalf("Nodes = %d, want 2", mb.Nodes())
	}
	if err := mb.deliver(Frame{Kind: KindPartial, To: 1, Chunks: 1, Payload: []byte{1}}); err != nil {
		t.Fatalf("deliver: %v", err)
	}
	batch := []Frame{
		{Kind: KindPartial, To: 1, Seq: 1, Chunks: 1},
		{Kind: KindPartial, To: 1, Seq: 2, Chunks: 1},
	}
	if err := mb.deliverBatch(batch); err != nil {
		t.Fatalf("deliverBatch: %v", err)
	}
	for want := 0; want < 3; want++ {
		if _, err := mb.Recv(1, time.Second); err != nil {
			t.Fatalf("Recv %d: %v", want, err)
		}
	}
	if _, err := mb.Recv(1, 10*time.Millisecond); !errors.Is(err, ErrTimeout) {
		t.Fatalf("empty Recv: %v, want ErrTimeout", err)
	}
	mb.close()
	mb.close() // idempotent
	if err := mb.deliver(Frame{To: 0, Chunks: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("deliver after close: %v, want ErrClosed", err)
	}
	if _, err := mb.Recv(0, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Recv after close: %v, want ErrClosed", err)
	}
}

// TestConfigRejectsMismatchedTransport: a factory returning the wrong
// cluster size must be rejected, not deadlock.
func TestConfigRejectsMismatchedTransport(t *testing.T) {
	cfg := Config{NewTransport: func(n int) (Transport, error) {
		return NewChanTransport(n + 1), nil
	}}
	if _, err := ReduceConfig([][]float64{{1}, {2}}, 1, Star, cfg); err == nil {
		t.Fatal("mismatched transport accepted")
	}
}
