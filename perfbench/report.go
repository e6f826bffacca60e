package main

import (
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// report is what one workload run measured, before it is reduced to
// metrics.
type report struct {
	setup     []float64       // seconds, one per set-up repetition
	lat       []time.Duration // client latency of every completed query
	rates     []float64       // completed queries per second, one per window of the timed phase
	ratios    []float64       // query latency ÷ the reference run right after it
	attempted int
	failed    int
	rowsPerQ  float64         // input rows one query aggregates
	ref       []time.Duration // plain-float64 reference, interleaved with the queries
	allocs    uint64          // heap allocations attributed to the queries
	// allocRates, when set, holds heap allocations per query, one per
	// window of the timed phase; allocs_per_query is then their median,
	// as qps is the median of rates.
	allocRates []float64
	layers     map[string]float64
	stealPct   float64 // host CPU steal during the timed phase (diagnostic)
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the end-to-end metrics in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"query_p90_ms", "ms"},
	{"qps", "1/s"},
	{"rows_per_s", "rows/s"},
	{"slowdown_x", "ratio"},
	{"correct_ratio", "ratio"},
	{"allocs_per_query", "count"},
	{"peak_rss_mb", "MiB"},
}

// perLayer lists the per-layer metrics in BENCHMARK.json order. A
// layer that a workload does not run reports 0 there (see README.md).
var perLayer = []metricDef{
	{"rsum.eager_ns_per_value", "ns"},
	{"rsum.vec_ns_per_value", "ns"},
	{"rsum.encode_ns_per_byte", "ns"},
	{"rsum.merge_ns_per_state", "ns"},
	{"sqlagg.add_ns_per_row", "ns"},
	{"sqlagg.states_per_row", "count"},
	{"sqlagg.finalize_ns_per_group", "ns"},
	{"sqlagg.new_ns_per_group", "ns"},
	{"hashagg.upsert_ns_per_row", "ns"},
	{"hashagg.groups_per_node", "count"},
	{"partition.ns_per_row", "ns"},
	{"dist.frames_per_query", "count"},
	{"dist.bytes_per_row", "B"},
	{"dist.chunks_per_query", "count"},
	{"dist.retransmits_per_query", "count"},
	{"dist.resend_requests_per_query", "count"},
	{"dist.reassembly_rejects", "count"},
	{"dist.tcp_ns_per_byte", "ns"},
	{"dist.reassembly_ns_per_chunk", "ns"},
	{"dist.gather_ns_per_group", "ns"},
	{"serve.admission_us", "us"},
	{"serve.budget_us", "us"},
	{"serve.cache_lookup_us", "us"},
	{"serve.queue_wait_ms", "ms"},
	{"serve.execute_ms", "ms"},
	{"serve.cache_fill_us", "us"},
	{"serve.hit_us", "us"},
	{"serve.miss_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.inflight_peak", "count"},
	{"proc.job_ms", "ms"},
	{"proc.job_wait_ms", "ms"},
	{"proc.dispatch_bytes_per_job", "B"},
	{"proc.journal_records_per_job", "count"},
	{"bench.unaccounted_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"float64.ns_per_row", "ns"},
}

// outcome reduces the report to the printed result: the end-to-end
// metrics for an untraced run, the per-layer ones for a traced run.
func (r *report) outcome(traced bool) outcome {
	o := outcome{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	if traced {
		for _, m := range perLayer {
			o.Metrics[m.name] = metric{finite(r.layers[m.name]), m.unit}
		}
		return o
	}
	// A failed query counts as missing every latency limit.
	lat := append([]time.Duration(nil), r.lat...)
	for i := 0; i < r.failed; i++ {
		lat = append(lat, time.Duration(math.MaxInt64))
	}
	done := len(r.lat)
	p50 := msOf(percentile(lat, 0.50))
	vals := map[string]float64{
		"setup_s":          median(r.setup),
		"query_p50_ms":     p50,
		"query_p90_ms":     msOf(percentile(lat, 0.90)),
		"qps":              median(r.rates),
		"rows_per_s":       r.rowsPerQ * median(r.rates),
		"slowdown_x":       r.slowdown(),
		"correct_ratio":    float64(r.attempted-r.failed) / float64(r.attempted),
		"allocs_per_query": float64(r.allocs) / float64(max(done, 1)),
		"peak_rss_mb":      peakRSSMiB(),
	}
	if len(r.allocRates) > 0 {
		vals["allocs_per_query"] = median(r.allocRates)
	}
	for _, m := range endToEnd {
		o.Metrics[m.name] = metric{finite(vals[m.name]), m.unit}
	}
	return o
}

// slowdown is slowdown_x: the median over the timed queries of each
// latency divided by the float64 reference timed right after it, so a
// machine-wide slow second stretches both sides of the ratio. Without
// interleaved pairs it is the ratio of the medians.
func (r *report) slowdown() float64 {
	if len(r.ratios) > 0 {
		return median(r.ratios)
	}
	return msOf(percentile(r.lat, 0.50)) / msOf(percentile(r.ref, 0.50))
}

// windowRates splits completion times (offsets into the timed phase,
// ascending) into windows of per completions and returns each window's
// completions per second. The median over windows is the throughput
// figure: a burst of machine noise moves a few windows, not the median.
func windowRates(done []time.Duration, per int) []float64 {
	var rates []float64
	prev := time.Duration(0)
	for i := per - 1; i < len(done); i += per {
		if d := done[i] - prev; d > 0 {
			rates = append(rates, float64(per)/d.Seconds())
		}
		prev = done[i]
	}
	if len(rates) == 0 && len(done) > 0 && done[len(done)-1] > 0 {
		rates = append(rates, float64(len(done))/done[len(done)-1].Seconds())
	}
	return rates
}

// finite maps NaN and ±Inf (an empty sample) to 0, which JSON can carry.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }

// percentile returns the q-quantile of ds by linear interpolation
// between closest ranks (0 for an empty sample).
func percentile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

// median of float64 values (0 for an empty sample).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is median over durations, in the duration's unit.
func medianDur(ds []time.Duration) time.Duration { return percentile(ds, 0.5) }

// aboveCount is how many samples lie strictly above the q-quantile —
// the number that makes a tail percentile trustworthy.
func aboveCount(ds []time.Duration, q float64) int {
	p := percentile(ds, q)
	n := 0
	for _, d := range ds {
		if d > p {
			n++
		}
	}
	return n
}

// heapAllocs is the process's cumulative heap allocation count.
// ReadMemStats flushes every P's allocation cache first, so the count
// is exact at the call (runtime/metrics is not).
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// peakRSSMiB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// resetPeakRSS starts the timed phase's memory high-water mark: it
// collects set-up garbage, returns it to the OS and resets the kernel's
// VmHWM for this process, so peak_rss_mb is the peak while serving
// rather than an accident of when set-up garbage was collected. Where
// the kernel refuses the reset, VmHWM covers the whole process life.
func resetPeakRSS() {
	releaseMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// releaseMemory returns garbage from a previous set-up repetition to
// the OS, so repetitions do not stack up in the resident set.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}
