package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
)

// readSteal returns the machine's cumulative steal ticks (USER_HZ,
// summed over CPUs): time the hypervisor ran something else while
// this machine's CPUs had work. ok is false where /proc/stat cannot
// be read.
func readSteal() (ticks int64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, false
	}
	n, err := strconv.ParseInt(string(f[8]), 10, 64)
	return n, err == nil
}

// stealPerS is the steal ticks per wall second a pass saw.
func (p pass) stealPerS() float64 { return float64(p.steal) / p.wall.Seconds() }

// quiet returns the passes whose steal per second is at most the
// median of ps: at least half of them, and all of them when the host
// took nothing or its accounting cannot be read. Passes are chosen by
// the host's measured steal alone, never by their own latency, so a
// stall the server causes counts in every pass it hits.
func quiet(ps []pass) []pass {
	if len(ps) == 0 {
		return nil
	}
	rates := make([]float64, len(ps))
	for i, p := range ps {
		rates[i] = p.stealPerS()
	}
	sort.Float64s(rates)
	limit := rates[(len(rates)-1)/2] // the lower median keeps ties in
	var out []pass
	for _, p := range ps {
		if p.stealPerS() <= limit {
			out = append(out, p)
		}
	}
	return out
}
