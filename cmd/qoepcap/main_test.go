package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/stats"
	"vqoe/internal/workload"
)

// gapCapture writes a small seeded capture (plus its host map) whose
// traffic goes silent for ten minutes after the second session, long
// past the ingest-stale budget, then resumes.
func gapCapture(t *testing.T) string {
	t.Helper()
	cfg := workload.DefaultStudyConfig()
	cfg.Sessions = 5
	cfg.Seed = 4
	study := workload.GenerateStudy(cfg)
	stream := append(study.Stream[:0:0], study.Stream...)
	sessions := 0
	for i := range stream {
		if i == 0 || study.StreamLabels[i] != study.StreamLabels[i-1] {
			sessions++
		}
		if sessions > 2 {
			stream[i].Timestamp += 600
		}
	}
	pkts := packet.Synthesize(stream, stats.NewRand(cfg.Seed))

	path := filepath.Join(t.TempDir(), "gap.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := pcapio.NewWriter(f, time.Unix(1_700_000_000, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteAll(pkts); err != nil {
		t.Fatal(err)
	}
	var hosts strings.Builder
	seen := map[string]bool{}
	for _, e := range stream {
		if !seen[e.ServerIP] {
			seen[e.ServerIP] = true
			fmt.Fprintf(&hosts, "%s %s\n", e.ServerIP, e.Host)
		}
	}
	if err := os.WriteFile(path+".hosts", []byte(hosts.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestGoldenAnalyze runs -analyze on the gap capture and compares
// stdout byte for byte with testdata/analyze.golden, recorded when
// qoepcap still ran on its own single-goroutine analyzer: session
// reports, the
// capture-clock SLO episodes (the silence must open and resolve an
// ingest-stale episode) and the flight recorder's worst sessions.
func TestGoldenAnalyze(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-analyze", gapCapture(t), "-train-n", "200", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "analyze.golden")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "resolved ingest-stale") {
		t.Error("the capture's silence gap raised no ingest-stale episode on the capture clock")
	}
	if got := out.String(); got != string(want) {
		t.Errorf("qoepcap -analyze output diverged from %s\n--- got\n%s\n--- want\n%s", golden, got, want)
	}
}
