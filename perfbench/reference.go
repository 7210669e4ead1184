package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"
	"strings"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/pipeline"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

// ttvHorizonSec bounds the gap between a session's last entry and the
// entry that closes it for the session to be a time-to-verdict
// sample: the engine's default idle gap plus its eviction slack. A
// session whose successor comes later may be closed by the idle sweep
// before that entry is sent, so its verdict has no closing entry.
var ttvHorizonSec = engineDefaults.IdleGapSec + engineDefaults.EvictSlackSec

// sessKey identifies one session of one subscriber.
type sessKey struct {
	sub   string
	start float64
}

// closing is the entry that closed a session under the §5.2 rules.
type closing struct {
	idx      int  // global entry index
	eligible bool // sampled for time-to-verdict (see ttvHorizonSec)
}

// reference is the in-process answer key: the reports a single-shard
// engine produces from the same stream by sequential Ingest then
// Drain, plus, for each session, the entry that closed it.
type reference struct {
	canon         map[string]int // canonical report → multiplicity
	reports       int
	digest        string
	labelsMatched int64
	closeAt       map[sessKey]closing

	// pcap-replay only: the entries the replay emits, in order, and
	// the first entry index of each handler batch (len batches+1).
	replayed   []weblog.Entry
	batchFirst []int
}

// canonReport renders every field of a report with full float
// precision; two reports are equal iff their renderings are.
func canonReport(r pipeline.SessionReport) string {
	q := r.Report
	return fmt.Sprintf("%s|%v|%v|%d|%d|%v|%v|%v|%v|%d", r.Subscriber, r.Start, r.End,
		q.Stall, q.Representation, q.StallConf, q.RepConf, q.SwitchVariance, q.SwitchScore, q.Chunks)
}

// refPass feeds batches into the reference engine and the closing-entry
// tracker.
type refPass struct {
	eng     *engine.Engine
	tr      *sessionizer.Tracker
	reps    []engine.Report
	closeAt map[sessKey]closing
	next    int // global index of the next entry
	lastAdv float64
}

func newRefPass(fw *core.Framework) *refPass {
	return &refPass{
		eng: engine.New(fw, engine.Config{
			Shards:  1,
			Quality: core.NewQualityMonitor(fw, 1, qualitymon.Thresholds{}),
		}, nil),
		tr:      sessionizer.NewTracker(sessionizer.DefaultConfig()),
		closeAt: map[sessKey]closing{},
	}
}

func (p *refPass) entries(es []weblog.Entry) {
	for i := range es {
		e := es[i]
		if c, ok := p.tr.Push(e); ok {
			p.closeAt[sessKey{c.Subscriber, c.Start}] = closing{
				idx:      p.next + i,
				eligible: e.Timestamp-c.End <= ttvHorizonSec,
			}
		}
		// sessions idle past the horizon can no longer yield a sample;
		// dropping them bounds the tracker's memory on churn
		if t := e.Timestamp; t-p.lastAdv > ttvHorizonSec {
			p.tr.Advance(t - ttvHorizonSec)
			p.lastAdv = t
		}
	}
	p.next += len(es)
	p.reps = append(p.reps, p.eng.Ingest(es)...)
}

func (p *refPass) finish() *reference {
	p.reps = append(p.reps, p.eng.Drain()...)
	ref := &reference{
		canon:         make(map[string]int, len(p.reps)),
		reports:       len(p.reps),
		labelsMatched: p.eng.Quality().Snapshot().Labels.Matched,
		closeAt:       p.closeAt,
	}
	lines := make([]string, len(p.reps))
	for i, r := range p.reps {
		lines[i] = canonReport(pipeline.SessionReport{Subscriber: r.Subscriber, Start: r.Start, End: r.End, Report: r.Report})
		ref.canon[lines[i]]++
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	ref.digest = hex.EncodeToString(sum[:])
	return ref
}

// buildReference runs the reference pass over exactly what the front
// door receives: the encoded live stream decoded frame by frame, or
// the capture's replay batches.
func buildReference(fw *core.Framework, w *inputs) (*reference, error) {
	p := newRefPass(fw)
	if w.name == "pcap-replay" {
		var replayed []weblog.Entry
		batchFirst := []int{0}
		_, err := wire.ReplayPcap(w.captureReader(), wire.Handler{Entries: func(es []weblog.Entry) {
			replayed = append(replayed, es...)
			batchFirst = append(batchFirst, len(replayed))
			p.entries(es)
		}}, wire.ReplayOptions{})
		if err != nil {
			return nil, fmt.Errorf("reference replay: %w", err)
		}
		ref := p.finish()
		ref.replayed, ref.batchFirst = replayed, batchFirst
		return ref, nil
	}
	fr := wire.NewFrameReader(bytes.NewReader(w.stream))
	dec := wire.NewDecoder()
	for {
		h, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("reference decode: %w", err)
		}
		es, ls, err := dec.DecodeFrame(h, payload)
		if err != nil {
			return nil, fmt.Errorf("reference decode: %w", err)
		}
		p.entries(es)
		for i := range ls {
			p.eng.ObserveLabel(ls[i])
		}
	}
	return p.finish(), nil
}

// check compares one run's reports with the reference as multisets:
// a report the reference lacks is extra, one it has that the run
// lacks is missing (a mismatched report counts as both).
func (ref *reference) check(reps []pipeline.SessionReport) (missing, extra int) {
	seen := make(map[string]int, len(reps))
	for _, r := range reps {
		seen[canonReport(r)]++
	}
	for k, n := range ref.canon {
		if m := seen[k]; m < n {
			missing += n - m
		}
	}
	for k, m := range seen {
		if n := ref.canon[k]; m > n {
			extra += m - n
		}
	}
	return missing, extra
}
