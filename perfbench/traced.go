package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"vqoe/internal/pipeline"
	"vqoe/internal/qualitymon"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

// spanDir is where the traced run writes its span file, relative to
// the directory the benchmark runs in (ignored by git).
const spanDir = ".bench_build/spans"

// span is one call the server made through a public boundary.
type span struct {
	name       string
	start, dur time.Duration // since the pass start
	first, n   int           // global index of the first entry, and count
}

// tracer records, from outside the server, every wire handler
// callback (the Entries callback is Engine.Feed, the Labels callback
// Engine.ObserveLabel) and samples Engine.Snapshot while a pass runs.
// Spans stay in memory; the last traced pass is written at exit.
type tracer struct {
	t0    time.Time
	spans []span
	next  int // global index of the next entry

	stop, done chan struct{}
	depths     []float64 // per-shard mailbox depth samples
	openPeak   int
}

// wrap returns h with every callback recorded as a span.
func (tr *tracer) wrap(h wire.Handler) wire.Handler {
	return wire.Handler{
		Entries: func(es []weblog.Entry) {
			s := time.Since(tr.t0)
			h.Entries(es)
			tr.spans = append(tr.spans, span{"engine.feed", s, time.Since(tr.t0) - s, tr.next, len(es)})
			tr.next += len(es)
		},
		Labels: func(ls []qualitymon.Label) {
			s := time.Since(tr.t0)
			h.Labels(ls)
			tr.spans = append(tr.spans, span{"engine.observe_label", s, time.Since(tr.t0) - s, tr.next, len(ls)})
		},
	}
}

// watch samples the engine's gauges every millisecond until end.
func (tr *tracer) watch(srv *pipeline.Server) {
	tr.stop, tr.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(tr.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-tr.stop:
				return
			case <-t.C:
				open := 0
				for _, st := range srv.Engine().Snapshot() {
					tr.depths = append(tr.depths, float64(st.Mailbox))
					open += st.Open
				}
				tr.openPeak = max(tr.openPeak, open)
			}
		}
	}()
}

func (tr *tracer) end() {
	close(tr.stop)
	<-tr.done
}

// feedNs is the time spent in Engine.Feed per entry: intern, route and
// enqueue, including blocking on a full mailbox.
func (tr *tracer) feedNs() float64 {
	var d time.Duration
	n := 0
	for _, s := range tr.spans {
		if s.name == "engine.feed" {
			d += s.dur
			n += s.n
		}
	}
	return float64(d) / float64(max(n, 1))
}

// traced is the per-layer run. It alternates untraced and traced
// paced (pcap: replay) passes — their CPU per entry gives the tracing
// overhead — then replays the workload stage by stage on one
// goroutine for each layer's self time.
func (b *bench) traced(deadline time.Time, su setupResult) (result, error) {
	live := b.wl.name != "pcap-replay"
	var plain, traced []pass
	var tr *tracer
	var last *harness
	err := rounds(deadline, 1, func() error {
		p, _, err := b.pass(true, nil)
		if err != nil {
			return err
		}
		plain = append(plain, p)
		tr = &tracer{}
		p, last, err = b.pass(true, tr)
		traced = append(traced, p)
		return err
	})
	if err != nil {
		return result{}, err
	}

	cpuPerEntry := func(ps []pass) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, float64(p.cpu.Nanoseconds())/float64(p.entries))
		}
		return median(xs)
	}
	var gc []float64
	for _, p := range plain {
		gc = append(gc, p.gcCPU)
	}
	untracedCPU := cpuPerEntry(plain)
	_, ttvP95, ttvP99, _ := ttvQuantiles(quiet(plain))

	// slo.tick_ns: the sampler stopped at Drain, so ticking the last
	// server from here races nothing
	slo := last.srv.SLO()
	const ticks = 200
	t := time.Now()
	for i := 0; i < ticks; i++ {
		slo.Tick(slo.Now())
	}
	tickNs := float64(time.Since(t).Nanoseconds()) / ticks

	var evicted, reports int64
	for _, st := range last.srv.Engine().Snapshot() {
		evicted += st.Evicted
		reports += st.Reports
	}
	q := last.srv.Engine().Quality().Snapshot().Labels
	fl := last.srv.Flight().Metrics()
	var ws wire.Snapshot
	if last.ws != nil {
		ws = last.ws.Snapshot()
	}

	c := stagedPass(b.fw, b.wl, b.ref)
	ne, ns := float64(max(c.entries, 1)), float64(max(c.sessions, 1))
	np := float64(max(c.packets, 1))
	m := map[string]metric{
		"wire.decode_ns_per_entry":          {c.decode / ne, "ns"},
		"wire.encode_ns_per_entry":          {c.encode / ne, "ns"},
		"wire.bytes_per_entry":              {float64(c.bytes) / ne, "B"},
		"wire.frames":                       {float64(ws.Frames), "count"},
		"wire.errors":                       {float64(ws.Errors), "count"},
		"engine.feed_ns_per_entry":          {tr.feedNs(), "ns"},
		"engine.mailbox_depth_p99":          {quantile(tr.depths, 0.99), "count"},
		"engine.evicted_frac":               {float64(evicted) / float64(max(reports, 1)), "frac"},
		"engine.open_peak":                  {float64(tr.openPeak), "count"},
		"sessionizer.push_ns_per_entry":     {c.push / ne, "ns"},
		"sessionizer.closes_per_kentry":     {1000 * float64(c.closes) / ne, "count"},
		"features.featurize_ns_per_session": {c.featurize / ns, "ns"},
		"core.infer_ns_per_session":         {c.infer / ns, "ns"},
		"ml.forest_ns_per_session":          {c.forest / ns, "ns"},
		"timeseries.cusum_ns_per_session":   {c.cusum / ns, "ns"},
		"qualitymon.track_ns_per_session":   {c.track / ns, "ns"},
		"qualitymon.label_match_frac":       {float64(q.Matched) / float64(max(q.Total, 1)), "frac"},
		"cohort.observe_ns_per_session":     {c.observe / ns, "ns"},
		"flight.decide_ns_per_session":      {c.decide / ns, "ns"},
		"flight.retained_frac":              {float64(fl.Retained) / float64(max(fl.Recorded, 1)), "frac"},
		"slo.tick_ns":                       {tickNs, "ns"},
		"pcapio.read_ns_per_packet":         {c.read / np, "ns"},
		"packet.meter_ns_per_packet":        {c.meter / np, "ns"},
		"packet.entries_per_kpacket":        {1000 * float64(c.metered) / np, "count"},
		"workload.corpus_s":                 {su.corpusS, "s"},
		"core.train_s":                      {su.trainS, "s"},
		"runtime.gc_cpu_frac":               {median(gc), "frac"},
		"layers.coverage":                   {c.perEntry(!live) / untracedCPU, "frac"},
		"trace.overhead_frac":               {cpuPerEntry(traced)/untracedCPU - 1, "frac"},
		"staged.ns_per_entry":               {float64(c.wall.Nanoseconds()) / ne, "ns"},
		"ttv.p95_ms":                        {ttvP95, "ms"},
		"ttv.p99_ms":                        {ttvP99, "ms"},
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d untraced + %d traced passes; staged pass %.2fs over %d entries, %d sessions, %d packets\n",
		len(plain), len(traced), c.wall.Seconds(), c.entries, c.sessions, c.packets)
	path, err := b.writeSpans(tr, last)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: spans of the last traced pass in %s\n", path)
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// traceEvent is one Chrome trace_event record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // µs since the pass start
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeSpans writes the last traced pass as Chrome trace JSON: one
// complete event per handler callback on track 1, one instant per
// report on track 2 whose args name the entry that closed the session
// and the feed span that carried it.
func (b *bench) writeSpans(tr *tracer, h *harness) (string, error) {
	if err := os.MkdirAll(spanDir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(spanDir, fmt.Sprintf("%s.json", b.wl.name))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	var evs []traceEvent
	var feeds []span
	for i, s := range tr.spans {
		evs = append(evs, traceEvent{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.dur), PID: 1, TID: 1,
			Args: map[string]any{"span": i, "first_entry": s.first, "n": s.n}})
		if s.name == "engine.feed" {
			feeds = append(feeds, s)
		}
	}
	for i, r := range h.sink.reps {
		args := map[string]any{"subscriber": r.Subscriber, "start": r.Start, "chunks": r.Report.Chunks}
		if c, ok := b.ref.closeAt[sessKey{r.Subscriber, r.Start}]; ok {
			args["closing_entry"] = c.idx
			args["ttv_sampled"] = c.eligible
			if k := sort.Search(len(feeds), func(k int) bool { return feeds[k].first+feeds[k].n > c.idx }); k < len(feeds) {
				args["cause_feed_start_us"] = us(feeds[k].start)
			}
		}
		evs = append(evs, traceEvent{Name: "report", Ph: "i", TS: us(h.sink.at[i]), PID: 1, TID: 2, Args: args})
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"}); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return path, f.Close()
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
