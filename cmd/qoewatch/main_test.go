package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"vqoe/internal/qualitymon"
	"vqoe/internal/workload"
)

// liveJSONL renders a small seeded live stream the way qoegen -kind
// live -label-rate emits it: entries in timestamp order with each
// ground-truth label interleaved at its availability time.
func liveJSONL(t *testing.T) []byte {
	t.Helper()
	lcfg := workload.DefaultLiveConfig()
	lcfg.Subscribers = 12
	lcfg.SessionsPerSubscriber = 2
	lcfg.Seed = 11
	lcfg.LabelRate = 0.5
	lcfg.HotspotRegion = "eu-west"
	live := workload.GenerateLive(lcfg)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	label := func(l workload.SessionLabel) {
		if err := enc.Encode(qualitymon.Label{
			Type: qualitymon.LabelType, Subscriber: l.Subscriber,
			Start: l.Start, End: l.End, AvailableAt: l.AvailableAt,
			Stall: int(l.Stall), Rep: int(l.Rep),
		}); err != nil {
			t.Fatal(err)
		}
	}
	li := 0
	for _, e := range live.Entries {
		for li < len(live.Labels) && live.Labels[li].AvailableAt <= e.Timestamp {
			label(live.Labels[li])
			li++
		}
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	for ; li < len(live.Labels); li++ {
		label(live.Labels[li])
	}
	return buf.Bytes()
}

// normalizeAlerts reduces the closing SLO block to the sorted set of
// rules that were not quietly inactive. The background sampler ticks
// on wall time, so values, durations and the inactive-rule count vary
// run to run; which rules fired does not.
func normalizeAlerts(out string) string {
	i := strings.Index(out, "-- slo")
	if i < 0 {
		return out
	}
	var rules []string
	for _, line := range strings.Split(out[i:], "\n") {
		f := strings.Fields(strings.TrimPrefix(line, "--"))
		switch {
		case len(f) >= 2 && f[0] == "resolved":
			rules = append(rules, "resolved "+f[1])
		case len(f) >= 2 && (f[1] == "firing" || f[1] == "pending"):
			rules = append(rules, f[0]+" "+f[1])
		}
	}
	sort.Strings(rules)
	return out[:i] + "-- slo rules not inactive: [" + strings.Join(rules, ", ") + "]\n"
}

// TestGoldenOutput runs the whole command on a seeded live stream and
// compares stdout with testdata/watch.golden, recorded when qoewatch
// still ran on its own single-goroutine analyzer: every session report
// in emission order, the label, model-health, worst-cohort and
// worst-session summaries byte for byte, the alert block by rule set.
func TestGoldenOutput(t *testing.T) {
	var out bytes.Buffer
	// an hour-long sampler period keeps mid-run wall-clock ticks out
	// of the rule windows: the closing tick is the only sample
	args := []string{"-train-n", "200", "-seed", "3", "-log-level", "error", "-slo-cadence", "3600"}
	if err := run(args, bytes.NewReader(liveJSONL(t)), &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "watch.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := normalizeAlerts(out.String()), normalizeAlerts(string(want)); got != w {
		t.Errorf("qoewatch output diverged from %s\n--- got\n%s\n--- want\n%s", golden, got, w)
	}
}
