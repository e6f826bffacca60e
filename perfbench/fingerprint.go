package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// machine identifies the host a run measured: raw times compare only
// between equal fingerprints, ratios (slowdown_x) across them.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	L2         string `json:"l2"`
	L3         string `json:"l3"`
}

func fingerprint() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		L2:         "unknown",
		L3:         "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	dirs, _ := filepath.Glob("/sys/devices/system/cpu/cpu0/cache/index*")
	for _, d := range dirs {
		level := readTrim(filepath.Join(d, "level"))
		size := readTrim(filepath.Join(d, "size"))
		switch level {
		case "2":
			m.L2 = size
		case "3":
			m.L3 = size
		}
	}
	return m
}

func readTrim(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(b))
}

// hostCPU reads the host's cumulative CPU time from /proc/stat: the
// stolen part (time the hypervisor ran someone else while this
// machine's CPUs were runnable) and the total.
func hostCPU() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	for i := 1; i < len(f); i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return 0, 0
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return steal, total
}

// stealMeter reports the share of CPU time stolen from this machine
// over an interval: a diagnostic printed beside the metrics, because
// on a shared host it explains most run-to-run spread.
type stealMeter struct{ steal, total uint64 }

func startSteal() stealMeter {
	s, t := hostCPU()
	return stealMeter{s, t}
}

func (m stealMeter) pct() float64 {
	s, t := hostCPU()
	if t <= m.total {
		return 0
	}
	return 100 * float64(s-m.steal) / float64(t-m.total)
}
