// Command perfbench is the front-door benchmark: it drives an
// in-process pipeline.Server through the same doors qoeserve opens —
// a persistent VQW1 wire connection for live load, the pcap replay
// bridge for captures — and reports throughput, time-to-verdict, CPU
// cost and memory, after checking every report against an in-process
// single-shard reference. See README.md in this directory for the
// workloads, the metric definitions and how to read the traced run.
//
//	bash perfbench/run.sh --workload live-steady --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":..,"attempted":..,"failed":..,"metrics":{..}}. With
// --trace 0 the metrics are the end-to-end set; with --trace 1 they
// are the per-layer set, measured by a separate traced run. A
// human-readable table goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is the fixed benchmark arguments plus the caller's per-run
// ones.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	trainN    int
	trainSeed int64
	rates     map[string]float64
}

func main() {
	var (
		cfg   config
		trace int
	)
	cfg.rates = map[string]float64{}
	steadyRate := flag.Float64("rate-live-steady", 0, "paced offered rate for live-steady, entries/s")
	churnRate := flag.Float64("rate-live-churn", 0, "paced offered rate for live-churn, entries/s")
	flag.StringVar(&cfg.workload, "workload", "", "live-steady, live-churn or pcap-replay")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.IntVar(&cfg.trainN, "train-n", 800, "synthetic training corpus size (qoeserve -train-n)")
	flag.Int64Var(&cfg.trainSeed, "train-seed", 1, "training seed (qoeserve -seed)")
	flag.Parse()
	cfg.trace = trace == 1
	cfg.rates["live-steady"] = *steadyRate
	cfg.rates["live-churn"] = *churnRate

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printTable(res)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (result, error) {
	if cfg.seconds <= 0 || cfg.trainN <= 0 {
		return result{}, fmt.Errorf("--seconds and --train-n must be positive")
	}
	var build func(int64, float64) (*inputs, error)
	switch cfg.workload {
	case "live-steady":
		build = buildSteady
	case "live-churn":
		build = buildChurn
	case "pcap-replay":
		build = func(seed int64, _ float64) (*inputs, error) { return buildPcap(seed) }
	default:
		return result{}, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	rate := cfg.rates[cfg.workload]
	if cfg.workload != "pcap-replay" && rate <= 0 {
		return result{}, fmt.Errorf("--rate-%s must be set", cfg.workload)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed=%d seconds=%g trace=%v GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))

	su, err := measureSetup(cfg.trainN, cfg.trainSeed)
	if err != nil {
		return result{}, err
	}
	t0 := time.Now()
	wl, err := build(cfg.seed, rate)
	if err != nil {
		return result{}, err
	}
	ref, err := buildReference(su.fw, wl)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s; reference %d reports, %d labels matched, digest %s (inputs+reference %.1fs)\n",
		wl.describe(), len(ref.canon), ref.labelsMatched, ref.digest[:16], time.Since(t0).Seconds())

	b := &bench{fw: su.fw, wl: wl, ref: ref, rate: rate}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	if cfg.trace {
		return b.traced(deadline, su)
	}
	return b.endToEnd(deadline, su)
}

// median returns the middle value (mean of the middle two) of xs.
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

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func printTable(r result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d failed_frac=%.3g\n",
		r.Correct, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
}
