package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"syscall"
	"time"

	"vqoe/internal/packet"
	"vqoe/internal/pcapio"
	"vqoe/internal/qualitymon"
	"vqoe/internal/stats"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// Workload sizes. They are fixed: a run is given only the seed, so
// every run of a workload offers the same amount of work.
const (
	// live-steady: a stable population watching back-to-back sessions,
	// each subscriber's two-session base stream repeated in time until
	// steadyTiles median periods have passed.
	steadySubs  = 2000
	steadyTiles = 4
	// tileGapSec separates a subscriber's repeats: under the 30 s idle
	// gap, so the next repeat's watch-page load closes the session
	// (the §5.2 page-load rule) as it does between back-to-back videos.
	tileGapSec = 25

	// live-churn: every tile brings churnSubs fresh subscribers with
	// two sessions each; tiles start churnStrideFrac of a tile span
	// apart so several populations overlap, and the stream is cut at
	// the moment the most subscribers are active, so the final drain
	// closes the peak in-flight population in one mass close.
	churnSubs       = 2000
	churnTiles      = 3
	churnStrideFrac = 0.15
	churnLabelRate  = 0.5
	churnHotspot    = "eu-west"

	// pcap-replay: one subscriber's study sessions, each cut to its
	// first pcapViewEntries transactions (short views) and rendered as
	// a header-only capture. Short views and a short think time give
	// the replay hundreds of verdicts per second, most of them closed
	// by the next view's page load and so time-to-verdict samples; a
	// full study session is ~10k packets, too few verdicts for a p99.
	pcapSessions    = 500
	pcapViewEntries = 12
	pcapGapSec      = 10

	// liveCatalog is the video catalog size of the live workloads:
	// large, so a seed's draw of video lengths (which sets session
	// lengths, entries per session and how many sessions overlap)
	// averages out instead of moving the figures from seed to seed.
	liveCatalog = 5000

	// pacedTick is the paced generator's frame period: each frame
	// carries rate×pacedTick entries.
	pacedTick = time.Millisecond
)

// inputs is one generated workload, held in the form the front
// door receives it.
type inputs struct {
	name string

	// stream holds the live entry (and label) stream pre-encoded as
	// VQW1 frames: pointer-free bytes, so the generator adds no GC
	// scan work. Frame k is stream[frameOff[k]:frameOff[k+1]] and
	// carries entries frameFirst[k]..frameFirst[k+1]-1 (global entry
	// indices, labels not counted). ackReq is an empty ack-request
	// frame, the Sync barrier.
	stream     []byte
	frameOff   []int
	frameFirst []int
	ackReq     []byte
	entries    int
	labels     int

	// capture is a header-only pcap (pcap-replay: the workload itself;
	// live workloads: a small capture of one subscriber's traffic for
	// the staged packet layers); hosts restores server names.
	capture []byte
	hosts   [][2]string
	packets int
}

func (w *inputs) describe() string {
	if w.name == "pcap-replay" {
		return fmt.Sprintf("%s: %d packets, %.1f MB capture", w.name, w.packets, float64(len(w.capture))/1e6)
	}
	return fmt.Sprintf("%s: %d entries, %d labels, %d frames, %.1f MB encoded",
		w.name, w.entries, w.labels, len(w.frameOff)-1, float64(len(w.stream))/1e6)
}

// entriesPerFrame is the entries per frame for a paced rate.
func entriesPerFrame(rate float64) int {
	return max(1, int(math.Round(rate*pacedTick.Seconds())))
}

func buildSteady(seed int64, rate float64) (*inputs, error) {
	cfg := workload.DefaultLiveConfig()
	cfg.Subscribers = steadySubs
	cfg.SessionsPerSubscriber = 2
	cfg.CatalogSize = liveCatalog
	cfg.MeanGapSec = 5
	cfg.Seed = seed
	base := workload.GenerateLive(cfg)

	periods := make([]float64, 0, len(base.PerSubscriber))
	var start float64 = math.Inf(1)
	for _, s := range base.PerSubscriber {
		if len(s) == 0 {
			continue
		}
		periods = append(periods, s[len(s)-1].Timestamp-s[0].Timestamp+tileGapSec)
		start = math.Min(start, s[0].Timestamp)
	}
	end := start + steadyTiles*median(periods)
	var entries []weblog.Entry
	for _, s := range base.PerSubscriber {
		if len(s) == 0 {
			continue
		}
		period := s[len(s)-1].Timestamp - s[0].Timestamp + tileGapSec
	tiles:
		for k := 0; ; k++ {
			shift := float64(k) * period
			for _, e := range s {
				e.Timestamp += shift
				if e.Timestamp >= end {
					break tiles
				}
				entries = append(entries, e)
			}
		}
	}
	sortByTime(entries)
	w := &inputs{name: "live-steady"}
	w.encode(entries, nil, entriesPerFrame(rate))
	must(w.setCapture(base.PerSubscriber[0], seed)) // for the staged packet layers
	return w, nil
}

func buildChurn(seed int64, rate float64) (*inputs, error) {
	cfg := workload.DefaultLiveConfig()
	cfg.Subscribers = churnSubs
	cfg.SessionsPerSubscriber = 2
	cfg.CatalogSize = liveCatalog
	cfg.MeanGapSec = 5
	cfg.LabelRate = churnLabelRate
	cfg.HotspotRegion = churnHotspot
	cfg.Seed = seed
	base := workload.GenerateLive(cfg)
	if len(base.Entries) == 0 {
		return nil, fmt.Errorf("live-churn: empty base stream")
	}
	first, last := base.Entries[0].Timestamp, base.Entries[len(base.Entries)-1].Timestamp
	stride := (last - first) * churnStrideFrac
	cut := peakActive(base.PerSubscriber, stride)

	var entries []weblog.Entry
	var labels []qualitymon.Label
	for k := 0; k < churnTiles; k++ {
		shift := float64(k) * stride
		names := map[string]string{}
		rename := func(sub string) string {
			n, ok := names[sub]
			if !ok {
				n = fmt.Sprintf("t%02d-%s", k, sub)
				names[sub] = n
			}
			return n
		}
		for _, e := range base.Entries {
			e.Timestamp += shift
			if e.Timestamp >= cut {
				break // base.Entries is time-ordered
			}
			e.Subscriber = rename(e.Subscriber)
			entries = append(entries, e)
		}
		for _, l := range base.Labels {
			if l.End+shift >= cut {
				continue // the session is still open at the cut
			}
			labels = append(labels, qualitymon.Label{
				Type:        qualitymon.LabelType,
				Subscriber:  rename(l.Subscriber),
				Start:       l.Start + shift,
				End:         l.End + shift,
				AvailableAt: l.AvailableAt + shift,
				Stall:       int(l.Stall),
				Rep:         int(l.Rep),
			})
		}
	}
	sortByTime(entries)
	sort.SliceStable(labels, func(i, j int) bool { return labels[i].AvailableAt < labels[j].AvailableAt })
	w := &inputs{name: "live-churn"}
	w.encode(entries, labels, entriesPerFrame(rate))
	must(w.setCapture(base.PerSubscriber[0], seed)) // for the staged packet layers
	return w, nil
}

// peakActive returns the time, in the last tile, at which the most
// subscribers of all tiles are between their first and last entry.
func peakActive(subs [][]weblog.Entry, stride float64) float64 {
	type edge struct {
		t     float64
		delta int
	}
	var edges []edge
	for k := 0; k < churnTiles; k++ {
		shift := float64(k) * stride
		for _, s := range subs {
			if len(s) > 0 {
				edges = append(edges, edge{s[0].Timestamp + shift, 1}, edge{s[len(s)-1].Timestamp + shift, -1})
			}
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].t != edges[j].t {
			return edges[i].t < edges[j].t
		}
		return edges[i].delta < edges[j].delta
	})
	lastTile := float64(churnTiles-1) * stride
	active, best, at := 0, -1, 0.0
	for _, e := range edges {
		active += e.delta
		if e.t >= lastTile && active > best {
			best, at = active, e.t
		}
	}
	// just past the peak's last arrival, so that entry is in the stream
	return at + 1e-6
}

func buildPcap(seed int64) (*inputs, error) {
	cfg := workload.DefaultStudyConfig()
	cfg.Sessions = pcapSessions
	cfg.MeanGapSec = pcapGapSec
	cfg.Seed = seed
	study := workload.GenerateStudy(cfg)
	// keep each view's first transactions and close the gap the rest
	// of the view leaves, so views follow each other after their
	// original think time
	var stream []weblog.Entry
	cursor := 0.0
	for i, sess := range study.Corpus.Sessions {
		es := sess.Entries[:min(len(sess.Entries), pcapViewEntries)]
		if len(es) == 0 {
			continue
		}
		shift := cursor - es[0].Timestamp
		for _, e := range es {
			e.Timestamp += shift
			stream = append(stream, e)
		}
		if i+1 < len(study.Corpus.Sessions) {
			full := sess.Entries[len(sess.Entries)-1].Timestamp
			cursor = es[len(es)-1].Timestamp + shift + study.Corpus.Sessions[i+1].Entries[0].Timestamp - full
		}
	}
	w := &inputs{name: "pcap-replay"}
	if err := w.setCapture(stream, seed); err != nil {
		return nil, err
	}
	return w, nil
}

func sortByTime(es []weblog.Entry) {
	sort.SliceStable(es, func(i, j int) bool { return es[i].Timestamp < es[j].Timestamp })
}

// encode renders entries as frames of perFrame entries. Each label
// rides in the first frame whose last entry is at or past its
// AvailableAt (labels still pending at the end go in the last frame),
// as a collector would interleave them on the capture clock.
func (w *inputs) encode(entries []weblog.Entry, labels []qualitymon.Label, perFrame int) {
	var buf bytes.Buffer
	enc := wire.NewEncoder(&buf)
	w.frameOff = []int{0}
	w.frameFirst = []int{0}
	li := 0
	for lo := 0; lo < len(entries); lo += perFrame {
		hi := min(lo+perFrame, len(entries))
		for i := lo; i < hi; i++ {
			must(enc.AppendEntry(&entries[i]))
		}
		tmax := entries[hi-1].Timestamp
		for li < len(labels) && (labels[li].AvailableAt <= tmax || hi == len(entries)) {
			must(enc.AppendLabel(&labels[li]))
			li++
		}
		must(enc.Flush(0))
		w.frameOff = append(w.frameOff, buf.Len())
		w.frameFirst = append(w.frameFirst, hi)
	}
	w.stream = offHeap(buf.Bytes())
	w.entries, w.labels = len(entries), len(labels)

	var ack bytes.Buffer
	must(wire.NewEncoder(&ack).Flush(wire.FlagAckRequest))
	w.ackReq = ack.Bytes()
}

// setCapture renders one subscriber timeline as a header-only pcap
// held in memory, as qoepcap -export writes it, plus its host map.
//
// Entries whose retransmission rate exceeds 100% — impossible, and
// produced by the netsim loss defect the ROADMAP lists — are clamped
// to 100% on the way into packet.Synthesize, which otherwise loops
// forever drawing more distinct retransmitted segments than the
// transfer has. Each clamp is reported on stderr.
func (w *inputs) setCapture(stream []weblog.Entry, seed int64) error {
	clamped := 0
	for i := range stream {
		if stream[i].RetransPct > 100 {
			stream[i].RetransPct = 100
			clamped++
		}
	}
	if clamped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d entries had RetransPct > 100%% (netsim loss defect); clamped to 100%% for packet.Synthesize\n", clamped)
	}
	pkts := packet.Synthesize(stream, stats.NewRand(seed))
	var buf bytes.Buffer
	pw, err := pcapio.NewWriter(&buf, time.Unix(1_500_000_000, 0).UTC())
	if err != nil {
		return err
	}
	if err := pw.WriteAll(pkts); err != nil {
		return err
	}
	w.capture, w.packets = offHeap(buf.Bytes()), len(pkts)
	seen := map[string]bool{}
	w.hosts = w.hosts[:0]
	for _, e := range stream {
		if !seen[e.ServerIP] {
			seen[e.ServerIP] = true
			w.hosts = append(w.hosts, [2]string{e.ServerIP, e.Host})
		}
	}
	return nil
}

// captureReader opens the in-memory capture with hosts resolved.
func (w *inputs) captureReader() *pcapio.Reader {
	r, err := pcapio.NewReader(bytes.NewReader(w.capture))
	must(err)
	for _, h := range w.hosts {
		r.ResolveHost(h[0], h[1])
	}
	return r
}

// offHeap copies b into an anonymous memory mapping. The pre-encoded
// inputs run to hundreds of MB; held on the Go heap they would raise
// the collector's heap goal and so make the server under test collect
// less often than it would on its own.
func offHeap(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	m, err := syscall.Mmap(-1, 0, len(b), syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	must(err)
	copy(m, b)
	return m
}

// must panics on an error only a bug can produce (writes to an
// in-memory buffer, reads of bytes this program encoded).
func must(err error) {
	if err != nil {
		panic(err)
	}
}
