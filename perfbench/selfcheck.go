package main

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"repro"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// runSelfCheck is the benchmark's own test. It runs every workload at
// tiny size on two seeds, traced and untraced, and checks that every
// named metric is printed with its unit and that the correctness gate
// passes; then it corrupts one answer per workload and checks that the
// gate fails the run. Where BENCHMARK.json is in the working
// directory, it also checks that the file names the same workloads and
// metrics, with the same units.
func runSelfCheck() error {
	if err := checkBenchmarkJSON("BENCHMARK.json"); err != nil {
		return err
	}
	if err := checkWindowGate(); err != nil {
		return fmt.Errorf("window-total accuracy check: %w", err)
	}
	for _, name := range workloadNames() {
		for _, seed := range []uint64{7, 8} {
			cfg := config{workload: name, seed: seed, seconds: 0.3, tiny: true}
			if err := selfRun(cfg, false); err != nil {
				return fmt.Errorf("%s seed %d: %w", name, seed, err)
			}
		}
		cfg := config{workload: name, seed: 7, seconds: 0.3, tiny: true, trace: true,
			traceOut: ".bench_build/selfcheck/" + name + ".json"}
		if err := selfRun(cfg, false); err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		cfg = config{workload: name, seed: 7, seconds: 0.3, tiny: true, corrupt: true}
		if err := selfRun(cfg, true); err != nil {
			return fmt.Errorf("%s corrupted: %w", name, err)
		}
		fmt.Printf("selfcheck: %s ok\n", name)
	}
	return nil
}

// selfRun runs one configuration and checks its outcome; wantFail
// expects the correctness gate to reject the run.
func selfRun(cfg config, wantFail bool) error {
	rep, err := workloads[cfg.workload](cfg)
	if err != nil {
		return err
	}
	o := rep.outcome(cfg.trace)
	if wantFail {
		if o.Correct || o.Failed == 0 {
			return errors.New("a corrupted answer passed the correctness gate")
		}
		return nil
	}
	if !o.Correct || o.Attempted < 1 {
		return fmt.Errorf("correctness gate failed: %d of %d answers", o.Failed, o.Attempted)
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	if len(o.Metrics) != len(want) {
		return fmt.Errorf("%d metrics printed, want %d", len(o.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := o.Metrics[m.name]
		if !ok || got.Unit != m.unit {
			return fmt.Errorf("metric %s: printed %v, want unit %s", m.name, got, m.unit)
		}
		if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		if !cfg.trace && got.Value <= 0 {
			return fmt.Errorf("end-to-end metric %s is %v; it must never be 0", m.name, got.Value)
		}
	}
	return nil
}

// checkWindowGate checks that serve-cluster's accuracy check of
// window-total answers passes reproducible totals and fails a group
// total moved off its exact sum or a row that disagrees with its group.
func checkWindowGate() error {
	const rows, ngroups = 4096, 64
	keys := workload.Keys(7, rows, ngroups)
	col := workload.Values64(8, rows, workload.MixedMag)
	ex := newExactSums(keys, col, ngroups)
	q := repro.WindowTotalsQuery(0, 2)
	good := make([]byte, 8*rows)
	for i, v := range sqlagg.WindowTotals(keys, col, q.Levels) {
		binary.LittleEndian.PutUint64(good[8*i:], math.Float64bits(v))
	}
	if err := checkWindow(q, good, ex, keys, ngroups); err != nil {
		return err
	}
	moved := append([]byte(nil), good...)
	for i, k := range keys {
		if k == keys[0] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(moved[8*i:]))
			binary.LittleEndian.PutUint64(moved[8*i:], math.Float64bits(v*(1+1e-9)))
		}
	}
	if checkWindow(q, moved, ex, keys, ngroups) == nil {
		return errors.New("a group total 1e-9 off its exact sum passed")
	}
	if checkWindow(q, corruptCopy(good), ex, keys, ngroups) == nil {
		return errors.New("a row disagreeing with its group passed")
	}
	return nil
}

// checkBenchmarkJSON compares BENCHMARK.json, if present, with the
// workloads and metric tables of this program.
func checkBenchmarkJSON(path string) error {
	b, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if fmt.Sprint(names) != fmt.Sprint(workloadNames()) {
		return fmt.Errorf("%s names workloads %v, the program runs %v", path, names, workloadNames())
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s lists %d %s metrics, the program prints %d", path, len(got), kind, len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				return fmt.Errorf("%s %s metric %d is %s [%s], the program prints %s [%s]",
					path, kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
		return nil
	}
	if err := same("end_to_end", spec.EndToEnd, endToEnd); err != nil {
		return err
	}
	return same("per_layer", spec.PerLayer, perLayer)
}
