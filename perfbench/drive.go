package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/pipeline"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

// bench holds what every pass shares.
type bench struct {
	fw   *core.Framework
	wl   *inputs
	ref  *reference
	rate float64 // paced offered rate, entries/s (live workloads)

	// correctness, summed over every pass
	attempted, failed int64
}

// pass is one fresh server driven through one copy of the workload.
type pass struct {
	wall      time.Duration // first byte sent → Drain returned
	cpu       time.Duration // process CPU over the same interval
	gcCPU     float64       // GC share of that CPU (runtime/metrics)
	entries   int
	ttv       []float64 // ms, every sampled session
	steal     int64     // machine steal ticks over the pass (see readSteal)
	late      []float64 // ms, paced generator lateness per frame
	peakMB    float64   // peak live heap above the pre-server baseline
	drainedMB float64   // live heap after Drain + GC, server still referenced
	missing   int
	extra     int
	unacked   int64
	labels    int64 // labels matched by the run's quality monitor
	paced     bool
}

// reportSink collects every report the server emits with its arrival
// time. OnReport runs on the shard goroutines.
type reportSink struct {
	t0   time.Time
	mu   sync.Mutex
	reps []pipeline.SessionReport
	at   []time.Duration
}

func (s *reportSink) add(r pipeline.SessionReport) {
	at := time.Since(s.t0)
	s.mu.Lock()
	s.reps = append(s.reps, r)
	s.at = append(s.at, at)
	s.mu.Unlock()
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	must(syscall.Getrusage(syscall.RUSAGE_SELF, &ru))
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtMetrics reads the runtime/metrics the benchmark uses.
type rtMetrics struct{ liveHeap, gcCPU, totalCPU float64 }

func readRuntime() rtMetrics {
	s := []metrics.Sample{
		{Name: "/gc/heap/live:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtMetrics{
		liveHeap: float64(s[0].Value.Uint64()),
		gcCPU:    s[1].Value.Float64(),
		totalCPU: s[2].Value.Float64(),
	}
}

// heapPeak records the live heap at the end of every GC cycle until
// stopped. A finalizer on a sentinel runs once per cycle and re-arms
// itself, so no polling goroutine competes with the server.
type heapPeak struct {
	mu      sync.Mutex
	peak    float64
	stopped bool
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{peak: readRuntime().liveHeap}
	h.arm()
	return h
}

func (h *heapPeak) arm() {
	sentinel := &struct {
		_ *int
		_ [16]byte
	}{}
	runtime.SetFinalizer(sentinel, func(any) {
		live := readRuntime().liveHeap
		h.mu.Lock()
		defer h.mu.Unlock()
		if h.stopped {
			return
		}
		h.peak = max(h.peak, live)
		h.arm()
	})
}

func (h *heapPeak) end() float64 {
	live := readRuntime().liveHeap
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	return max(h.peak, live)
}

// baselineHeap collects garbage and returns the live heap.
func baselineHeap() float64 {
	runtime.GC()
	return readRuntime().liveHeap
}

// harness is one server under test with its wire listener and the
// benchmark's single persistent connection to it.
type harness struct {
	srv    *pipeline.Server
	sink   *reportSink
	ws     *wire.Server
	served chan error
	conn   net.Conn
}

// newHarness builds a server the way qoeserve does (default engine,
// quality, cohort, flight and SLO layers) with the report sink on
// Options.OnReport. A tracer, when set, wraps the server's wire
// handler (the traced run); the wire server is then assembled from
// the same public parts Server.NewWireServer uses.
func (b *bench) newHarness(tr *tracer, sink *reportSink) (*harness, error) {
	h := &harness{sink: sink}
	h.srv = pipeline.NewServerOpts(b.fw, pipeline.Options{OnReport: h.sink.add})
	if b.wl.name == "pcap-replay" {
		return h, nil
	}
	if tr == nil {
		h.ws = h.srv.NewWireServer()
	} else {
		h.ws = wire.NewServer(wire.Config{Handler: tr.wrap(h.srv.WireHandler()), Stages: true})
		h.srv.Metrics().AttachWire(h.ws.Snapshot)
		pipeline.AttachWireSLO(h.srv.SLO(), h.ws)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	h.served = make(chan error, 1)
	go func() { h.served <- h.ws.Serve(ln) }()
	h.conn, err = net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("dialing: %w", err)
	}
	return h, nil
}

// sync sends the ack request and waits for the server's ack: every
// frame sent before it has been decoded and handed to the engine.
func (h *harness) sync(ackReq []byte) (wire.Ack, error) {
	if _, err := h.conn.Write(ackReq); err != nil {
		return wire.Ack{}, fmt.Errorf("sending sync: %w", err)
	}
	fr := wire.NewFrameReader(h.conn)
	dec := wire.NewDecoder()
	for {
		hd, payload, err := fr.Next()
		if err != nil {
			return wire.Ack{}, fmt.Errorf("waiting for ack: %w", err)
		}
		if _, _, err := dec.DecodeFrame(hd, payload); err != nil {
			return wire.Ack{}, fmt.Errorf("decoding ack: %w", err)
		}
		if hd.Flags&wire.FlagAck != 0 {
			return dec.LastAck(), nil
		}
	}
}

// close shuts the wire side down after Drain.
func (h *harness) close() error {
	if h.ws == nil {
		return nil
	}
	_ = h.conn.Close() // the server side is closed next; nothing left to send
	if err := h.ws.Close(); err != nil {
		return err
	}
	if err := <-h.served; err != nil {
		return fmt.Errorf("wire serve: %w", err)
	}
	return nil
}

// measure builds a fresh server, runs drive against it, drains it,
// and fills in the pass's wall time, CPU time, GC share and heap
// figures. The timed region runs from the first input to the end of
// Drain. The benchmark's own per-pass storage is allocated before the
// baseline is taken, so the heap figures are the server's alone.
func (b *bench) measure(p *pass, tr *tracer, drive func(*harness) error) (*harness, error) {
	sink := &reportSink{
		reps: make([]pipeline.SessionReport, 0, b.ref.reports),
		at:   make([]time.Duration, 0, b.ref.reports),
	}
	base := baselineHeap()
	h, err := b.newHarness(tr, sink)
	if err != nil {
		return nil, err
	}
	peak := startHeapPeak()
	if tr != nil {
		tr.watch(h.srv)
	}
	rt0, cpu0 := readRuntime(), cpuTime()
	t0 := time.Now()
	h.sink.t0 = t0 // no report can arrive before the first input
	if tr != nil {
		tr.t0 = t0
	}
	steal0, _ := readSteal()
	if err := drive(h); err != nil {
		return nil, err
	}
	h.srv.Drain()
	p.wall = time.Since(t0)
	if steal1, ok := readSteal(); ok {
		p.steal = steal1 - steal0
	}
	p.cpu = cpuTime() - cpu0
	rt1 := readRuntime()
	p.gcCPU = (rt1.gcCPU - rt0.gcCPU) / max(rt1.totalCPU-rt0.totalCPU, 1e-9)
	if tr != nil {
		tr.end()
	}
	peakHeap := peak.end()
	if err := h.close(); err != nil {
		return nil, err
	}
	p.drainedMB = (baselineHeap() - base) / 1e6
	// the drained heap is a live heap of the same pass, so it bounds
	// the peak from below (Drain's mass close can set the peak)
	p.peakMB = max((peakHeap-base)/1e6, p.drainedMB)
	runtime.KeepAlive(h.srv)
	return h, nil
}

// livePass drives one fresh server with the whole live stream: paced
// at b.rate when paced, else as fast as the server accepts it (a
// closed loop: a full mailbox blocks Feed, which stops the socket
// reads, which blocks the writes). The final Sync is timed.
func (b *bench) livePass(paced bool, tr *tracer) (pass, *harness, error) {
	w := b.wl
	p := pass{paced: paced, entries: w.entries}
	if paced {
		p.late = make([]float64, 0, len(w.frameOff)-1)
	}
	h, err := b.measure(&p, tr, func(h *harness) error {
		if paced {
			nsPerEntry := 1e9 / b.rate
			var prevEnd time.Duration
			for k := 0; k+1 < len(w.frameOff); k++ {
				due := time.Duration(float64(w.frameFirst[k+1]-1) * nsPerEntry)
				if d := due - time.Since(h.sink.t0); d > 0 {
					time.Sleep(d)
				}
				start := time.Since(h.sink.t0)
				// lateness counts only the generator's own delay: time
				// past the later of the frame's due time and the end of
				// the previous write (a write blocked by backpressure is
				// the server's delay, and it shows in time-to-verdict)
				p.late = append(p.late, float64(start-max(due, prevEnd))/1e6)
				if _, err := h.conn.Write(w.stream[w.frameOff[k]:w.frameOff[k+1]]); err != nil {
					return fmt.Errorf("sending frame %d: %w", k, err)
				}
				prevEnd = time.Since(h.sink.t0)
			}
		} else if _, err := h.conn.Write(w.stream); err != nil {
			return fmt.Errorf("sending stream: %w", err)
		}
		ack, err := h.sync(w.ackReq)
		p.unacked = int64(w.entries-int(ack.Entries)) + int64(w.labels-int(ack.Labels))
		return err
	})
	if err != nil {
		return pass{}, nil, err
	}
	due := func(idx int) time.Duration { return time.Duration(float64(idx) * 1e9 / b.rate) }
	if !paced {
		due = nil // a closed loop has no schedule to be late against
	}
	b.score(&p, h, due)
	return p, h, nil
}

// pcapPass replays the capture through a fresh server's wire handler
// as fast as the replay runs, as qoeserve -pcap does. Time-to-verdict
// runs from the handoff of the batch holding the closing entry.
func (b *bench) pcapPass(tr *tracer) (pass, *harness, error) {
	var p pass
	handoff := make([]time.Duration, 0, len(b.ref.batchFirst))
	h, err := b.measure(&p, tr, func(h *harness) error {
		inner := h.srv.WireHandler()
		if tr != nil {
			inner = tr.wrap(inner)
		}
		st, err := wire.ReplayPcap(b.wl.captureReader(), wire.Handler{Entries: func(es []weblog.Entry) {
			handoff = append(handoff, time.Since(h.sink.t0))
			inner.Entries(es)
		}}, wire.ReplayOptions{})
		p.entries = st.Entries
		p.unacked = int64(len(b.ref.replayed) - st.Entries)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		return nil
	})
	if err != nil {
		return pass{}, nil, err
	}
	b.score(&p, h, func(idx int) time.Duration {
		return handoff[sort.SearchInts(b.ref.batchFirst, idx+1)-1]
	})
	return p, h, nil
}

// score checks a finished pass against the reference and, when due is
// set, extracts its time-to-verdict samples: due maps a global entry
// index to the time (since the pass start) it was due at the front
// door.
func (b *bench) score(p *pass, h *harness, due func(int) time.Duration) {
	reps := h.sink.reps
	p.missing, p.extra = b.ref.check(reps)
	p.labels = h.srv.Engine().Quality().Snapshot().Labels.Matched
	for i, r := range reps {
		c, ok := b.ref.closeAt[sessKey{r.Subscriber, r.Start}]
		if due == nil || !ok || !c.eligible {
			continue
		}
		p.ttv = append(p.ttv, float64(h.sink.at[i]-due(c.idx))/1e6)
	}
	kind := map[bool]string{true: "paced", false: "closed"}[p.paced]
	if b.wl.name == "pcap-replay" {
		kind = "replay"
	}
	fmt.Fprintf(os.Stderr, "perfbench:   pass %-6s %6.3fs %9.0f entries/s %7.0f cpu ns/entry  steal %3d ticks  ttv p50 %.3f p99 %.3f ms (%d)  late p50 %.3f p99 %.3f ms  heap peak %.1f drained %.1f MB\n",
		kind, p.wall.Seconds(), float64(p.entries)/p.wall.Seconds(), float64(p.cpu.Nanoseconds())/float64(p.entries), p.steal,
		quantile(p.ttv, 0.5), quantile(p.ttv, 0.99), len(p.ttv), quantile(p.late, 0.5), quantile(p.late, 0.99), p.peakMB, p.drainedMB)
	labelDiff := p.labels - b.ref.labelsMatched
	if labelDiff < 0 {
		labelDiff = -labelDiff
	}
	b.attempted += int64(p.entries+b.wl.labels+b.ref.reports) + b.ref.labelsMatched
	b.failed += p.unacked + int64(p.missing+p.extra) + labelDiff
	if p.missing+p.extra > 0 || p.unacked != 0 || labelDiff != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH missing=%d extra=%d unacked=%d labels matched %d (reference %d)\n",
			p.missing, p.extra, p.unacked, p.labels, b.ref.labelsMatched)
	}
}
