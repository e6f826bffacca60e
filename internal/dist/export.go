package dist

// Support surface for cluster runtimes — concretely internal/dist/proc,
// which runs the protocols of this package across separate OS
// processes over TCPEndpoint, the same socket code the in-process
// TCPTransport runs. Everything here is a thin exported handle over the
// internals: the multi-process control plane reuses the same chunking,
// reassembly, and wire-error machinery the data plane does, so
// cross-process runs inherit their invariants (uniform chunk stride,
// per-(from, seq) dedup, budget-bounded reassembly, sentinel-preserving
// wire errors) instead of reimplementing them.

// SplitFrame splits one logical frame into its wire chunks: every chunk
// carries at most maxChunk payload bytes, all but the last exactly
// maxChunk (the uniform stride the reassembler enforces). maxChunk <= 0
// or above the frame ceiling selects DefaultChunkPayload. Payloads
// alias f.Payload.
func SplitFrame(f Frame, maxChunk int) []Frame { return splitFrame(f, maxChunk) }

// Reassembler rebuilds logical messages from chunk streams on one
// receive path: out-of-order buffering, per-chunk dedup,
// completed-stream swallowing, and a byte budget across incomplete
// messages (budget <= 0 selects DefaultReassemblyBudget). It is the
// exact reassembler the aggregation protocols use; the multi-process
// runtime runs one per control connection so chunked job specs and
// results obey the same trust-boundary rules as data-plane traffic.
// Not safe for concurrent use.
type Reassembler struct {
	r *reassembler
}

// NewReassembler returns an empty reassembler with the given budget.
func NewReassembler(budget int) *Reassembler {
	return &Reassembler{r: newReassembler(budget)}
}

// Accept consumes one wire frame; see reassembler.accept. When the
// frame completes its logical message, msg carries the full payload and
// complete is true. fresh reports whether the frame contributed new
// bytes (progress, for straggler give-up budgets).
func (a *Reassembler) Accept(f Frame) (msg Frame, complete, fresh bool, err error) {
	return a.r.accept(f)
}

// Missing returns the chunk indexes still absent from the partially
// received message (from, seq), or nil if no chunk of it has arrived
// (re-request the whole stream).
func (a *Reassembler) Missing(from int, seq uint32) []uint32 {
	return a.r.missing(from, seq)
}

// EncodeErr flattens an error into a KindError payload, preserving the
// wire-crossing sentinels (ErrStraggler, ErrBadFrame, ErrChunkBudget,
// ErrHandshake) as a leading code byte so errors.Is survives the trust
// boundary.
func EncodeErr(err error) []byte { return encodeErr(err) }

// DecodeErr inverts EncodeErr for a KindError payload received from
// node from (use a negative from for the supervisor of a multi-process
// run).
func DecodeErr(from int, payload []byte) error { return decodeErr(from, payload) }

// EncodeGroups flattens finalized groups into the gather wire layout
// (4-byte key, 8-byte float64 bits per group) — also the result payload
// of a multi-process GROUP BY.
func EncodeGroups(gs []Group) []byte { return encodeGroups(gs) }

// DecodeGroups inverts EncodeGroups.
func DecodeGroups(buf []byte) []Group { return decodeGroups(buf) }

// EncodeTupleGroups flattens finalized multi-aggregate groups into the
// gather wire layout (4-byte key, then one 8-byte float64 per spec) —
// also the result payload of a multi-process GROUP BY. A single-spec
// list reproduces EncodeGroups's bytes.
func EncodeTupleGroups(gs []TupleGroup, nspecs int) []byte { return encodeTupleGroups(gs, nspecs) }

// DecodeTupleGroups inverts EncodeTupleGroups, rejecting payloads whose
// length is not an exact multiple of the record size.
func DecodeTupleGroups(buf []byte, nspecs int) ([]TupleGroup, error) {
	return decodeTupleGroups(buf, nspecs)
}

// Active reports whether the plan injects any fault at all.
func (p FaultPlan) Active() bool { return p.active() }

// Valid reports whether t is a known topology.
func (t Topology) Valid() bool { return t.valid() }
