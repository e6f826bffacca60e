package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed interval of the traced run. Spans of one query
// share Query; Parent is the ID of the enclosing span (-1 for a root).
// Times are nanoseconds since the tracer started.
type span struct {
	Query  int    `json:"query"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the traced run's spans in memory; write dumps them when
// the run ends. It is safe for concurrent use by the client goroutines.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its ID.
func (t *tracer) add(query, parent int, name string, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Query: query, ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
	return id
}

// importServer adds the server's own spans of one query, recorded by
// the program into tr, as children of the benchmark's span parent.
func (t *tracer) importServer(query, parent int, tr *obs.Trace) {
	if tr == nil {
		return
	}
	for _, s := range tr.Spans() {
		start := tr.Begin.Add(s.Start)
		t.add(query, parent, "serve."+s.Name, start, start.Add(s.Dur))
	}
}

// selfTimes returns, per span name, every span's self time: its
// duration minus the part of it that its children cover.
func (t *tracer) selfTimes() map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		self := s.End - s.Start - covered(kids[s.ID], s.Start, s.End)
		out[s.Name] = append(out[s.Name], time.Duration(self))
	}
	return out
}

// durations returns, per span name, every span's full duration.
func (t *tracer) durations() map[string][]time.Duration {
	return t.durationsWhere(func(int) bool { return true })
}

// covered is the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(children []span, lo, hi int64) int64 {
	if len(children) == 0 {
		return 0
	}
	cs := append([]span(nil), children...)
	sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
	var total int64
	cur := lo
	for _, c := range cs {
		s, e := max(c.Start, cur), min(c.End, hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write dumps the spans plus a summary to path, creating its directory.
func (t *tracer) write(path string, summary any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Summary any    `json:"summary"`
		Spans   []span `json:"spans"`
	}{summary, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// medianUs and medianMs are span-median helpers in the metric units.
func medianUs(ds []time.Duration) float64 { return float64(medianDur(ds)) / 1e3 }
func medianMs(ds []time.Duration) float64 { return float64(medianDur(ds)) / 1e6 }

// finishTrace attributes the traced p50 (ms) to the layers in parts
// (ms per query each), records the residual as bench.unaccounted_pct,
// prints the breakdown and writes the spans.
func finishTrace(cfg config, tr *tracer, m map[string]float64, p50 float64, parts map[string]float64) error {
	names := make([]string, 0, len(parts))
	sum := 0.0
	for n, v := range parts {
		names = append(names, n)
		sum += v
	}
	sort.Strings(names)
	if p50 > 0 {
		m["bench.unaccounted_pct"] = 100 * (p50 - sum) / p50
	}
	fmt.Printf("breakdown of the traced p50 %.3f ms:\n", p50)
	for _, n := range names {
		fmt.Printf("  %-28s %10.4f ms %6.1f%%\n", n, parts[n], 100*parts[n]/p50)
	}
	fmt.Printf("  %-28s %10.4f ms %6.1f%%\n", "unaccounted", p50-sum, m["bench.unaccounted_pct"])
	self := map[string]float64{}
	for name, ds := range tr.selfTimes() {
		self[name] = medianMs(ds)
	}
	summary := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "machine": fingerprint(),
		"p50_ms": p50, "breakdown_ms": parts, "self_time_median_ms": self, "layers": m,
	}
	if err := tr.write(cfg.traceOut, summary); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans written to %s\n", cfg.traceOut)
	return nil
}

// durationsWhere is durations restricted to the queries keep accepts.
func (t *tracer) durationsWhere(keep func(query int) bool) map[string][]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]time.Duration{}
	for _, s := range t.spans {
		if keep(s.Query) {
			out[s.Name] = append(out[s.Name], time.Duration(s.End-s.Start))
		}
	}
	return out
}
