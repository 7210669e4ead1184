package main

import (
	"bytes"
	"io"
	"time"

	"vqoe/internal/cohort"
	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/flight"
	"vqoe/internal/packet"
	"vqoe/internal/qualitymon"
	"vqoe/internal/sessionizer"
	"vqoe/internal/weblog"
	"vqoe/internal/wire"
)

// stagedCosts is the staged pass's self time per layer (ns, summed)
// and its work counts. The pass replays the workload on one goroutine
// through each layer's public function, in the order the server runs
// them, timing every call.
type stagedCosts struct {
	decode, encode, push, featurize, infer, forest, cusum float64
	track, observe, decide, read, meter                   float64
	entries, bytes, closes, sessions, packets, metered    int
	wall                                                  time.Duration
}

// perEntry is the sum of the per-entry layer costs the server pays on
// the workload's own path, in ns per entry.
func (c *stagedCosts) perEntry(pcap bool) float64 {
	n := float64(max(c.entries, 1))
	sum := c.push + c.featurize + c.infer + c.track + c.observe + c.decide
	if pcap {
		sum += c.read + c.meter
	} else {
		sum += c.decode
	}
	return sum / n
}

// stagedEngine re-enacts one engine shard with the public layer calls:
// interning (untimed benchmark glue), the columnar sessionizer with the
// engine's idle sweep, featurization, batched inference and the
// session-close observers.
type stagedEngine struct {
	fw      *core.Framework
	c       *stagedCosts
	tr      *sessionizer.ColTracker
	subs    map[string]uint32
	names   []string
	cohorts map[cohort.Key]uint32
	keys    []cohort.Key

	hw, lastSweep float64
	recs          []sessionizer.Rec
	closed        []sessionizer.ColClosed
	sobs          []features.SessionObs
	kept          []sessionizer.ColClosed

	sc             core.AnalyzeScratch
	ss             core.ScoreScratch
	stallSp, repSp *features.Sparse
	stallX, repX   [][]float64
	dist           []float64
	cls            []int

	qm   *qualitymon.Monitor
	roll *cohort.Rollup
	fr   *flight.ShardRecorder
}

// engineDefaults are the session parameters the server's engine runs
// with; the staged shard and the reference mirror them.
var engineDefaults = engine.DefaultConfig()

func newStagedEngine(fw *core.Framework, c *stagedCosts) *stagedEngine {
	s := &stagedEngine{
		fw:        fw,
		c:         c,
		tr:        sessionizer.NewColTracker(sessionizer.Config{IdleGap: engineDefaults.IdleGapSec, PageBoundary: true}),
		subs:      map[string]uint32{},
		names:     []string{""}, // IDs start at 1
		cohorts:   map[cohort.Key]uint32{},
		keys:      []cohort.Key{{}},
		lastSweep: -1e18,
		stallSp:   features.NewStallSparse(columns(fw.Stall.Selected, features.StallFeatureNames())),
		repSp:     features.NewRepSparse(columns(fw.Rep.Selected, features.RepFeatureNames())),
		qm:        core.NewQualityMonitor(fw, 1, qualitymon.Thresholds{}),
		roll:      cohort.NewRollup(cohort.Config{Shards: 1}),
		fr:        flight.New(flight.Config{Shards: 1}).Shard(0),
	}
	s.tr.Resolve = func(id uint32) string { return s.names[id] }
	return s
}

// columns maps selected feature names to their full-schema columns,
// as the detectors' sparse featurizers are built.
func columns(selected, schema []string) []int {
	out := make([]int, len(selected))
	for i, name := range selected {
		out[i] = -1
		for j, n := range schema {
			if n == name {
				out[i] = j
				break
			}
		}
	}
	return out
}

func (s *stagedEngine) intern(e *weblog.Entry) (uint32, uint32) {
	sub, ok := s.subs[e.Subscriber]
	if !ok {
		sub = uint32(len(s.names))
		s.subs[e.Subscriber] = sub
		s.names = append(s.names, e.Subscriber)
	}
	if e.Region == "" && e.Device == "" && e.Cap == "" {
		return sub, 0
	}
	k := cohort.FromEntry(e)
	co, ok := s.cohorts[k]
	if !ok {
		co = uint32(len(s.keys))
		s.cohorts[k] = co
		s.keys = append(s.keys, k)
	}
	return sub, co
}

// feed runs one batch through the shard path.
func (s *stagedEngine) feed(es []weblog.Entry) {
	s.recs = s.recs[:0]
	for i := range es {
		e := &es[i]
		sub, co := s.intern(e)
		s.recs = append(s.recs, sessionizer.Rec{
			Sub: sub, Cohort: co, Kind: weblog.ClassifyHost(e.Host),
			Ts: e.Timestamp, Dur: e.TransactionSec, KB: float64(e.Bytes) / 1000,
			RTTMin: e.RTTMin, RTTAvg: e.RTTAvg, RTTMax: e.RTTMax, BDP: e.BDP,
			BIFAvg: e.BIFAvg, BIFMax: e.BIFMax, Loss: e.LossPct, Retrans: e.RetransPct,
		})
	}
	s.c.entries += len(es)
	closed := s.closed[:0]
	t := time.Now()
	for i := range s.recs {
		r := &s.recs[i]
		if c, ok := s.tr.Push(r); ok {
			closed = append(closed, c)
		}
		s.hw = max(s.hw, r.Ts)
	}
	if s.hw-s.lastSweep >= engineDefaults.SweepEverySec {
		closed = s.tr.AdvanceInto(s.hw-engineDefaults.EvictSlackSec, closed)
		s.lastSweep = s.hw
	}
	s.c.push += float64(time.Since(t))
	s.c.closes += len(closed)
	s.assess(closed)
	s.closed = closed[:0]
}

func (s *stagedEngine) drain() {
	closed := s.tr.FlushInto(s.closed[:0])
	s.c.closes += len(closed)
	s.assess(closed)
}

// assess times each session-close layer over one batch of closed
// sessions. Forest and CUSUM are timed again on their own (inside
// infer they are not separable from outside).
func (s *stagedEngine) assess(closed []sessionizer.ColClosed) {
	if len(closed) == 0 {
		return
	}
	sobs, kept := s.sobs[:0], s.kept[:0]
	t := time.Now()
	for i := range closed {
		c := &closed[i]
		o := features.FromChunks(c.Chunks, s.tr.TakeChunks(len(c.Chunks)))
		if o.Len() < engineDefaults.MinChunks {
			s.tr.Recycle(o.Chunks)
			s.tr.Recycle(c.Chunks)
			continue
		}
		sobs = append(sobs, o)
		kept = append(kept, *c)
	}
	s.c.featurize += float64(time.Since(t))
	s.sobs, s.kept = sobs, kept
	if len(sobs) == 0 {
		return
	}
	s.c.sessions += len(sobs)

	t = time.Now()
	reps := s.fw.AnalyzeBatchInto(sobs, nil, &s.sc)
	s.c.infer += float64(time.Since(t))

	s.forest(sobs)
	t = time.Now()
	for _, o := range sobs {
		s.fw.Switch.ScoreInto(o, &s.ss)
	}
	s.c.cusum += float64(time.Since(t))

	t = time.Now()
	for i, r := range reps {
		c := &kept[i]
		s.qm.TrackPrediction(qualitymon.Prediction{
			Subscriber: s.names[c.Sub], Start: c.Start, End: c.End,
			Stall: int(r.Stall), Rep: int(r.Representation),
			StallConf: r.StallConf, RepConf: r.RepConf,
		})
	}
	s.c.track += float64(time.Since(t))

	t = time.Now()
	for i, r := range reps {
		s.roll.Observe(0, s.keys[kept[i].Cohort], r)
	}
	s.c.observe += float64(time.Since(t))

	t = time.Now()
	for _, r := range reps {
		s.fr.Decide(r)
	}
	s.c.decide += float64(time.Since(t))

	for i := range sobs {
		s.tr.Recycle(sobs[i].Chunks)
	}
	for i := range kept {
		s.tr.Recycle(kept[i].Chunks)
	}
}

// forest times the two forests alone on the projected vectors.
func (s *stagedEngine) forest(sobs []features.SessionObs) {
	s.stallX = project(s.stallX, s.stallSp, sobs, len(s.fw.Stall.Selected))
	s.repX = project(s.repX, s.repSp, sobs, len(s.fw.Rep.Selected))
	n := len(sobs)
	nc := max(len(s.fw.Stall.Forest.Classes), len(s.fw.Rep.Forest.Classes))
	if cap(s.dist) < n*nc {
		s.dist = make([]float64, n*nc)
	}
	if cap(s.cls) < n {
		s.cls = make([]int, n)
	}
	t := time.Now()
	s.fw.Stall.Forest.PredictBatchInto(s.stallX, s.dist[:n*len(s.fw.Stall.Forest.Classes)], s.cls[:n])
	s.fw.Rep.Forest.PredictBatchInto(s.repX, s.dist[:n*len(s.fw.Rep.Forest.Classes)], s.cls[:n])
	s.c.forest += float64(time.Since(t))
}

func project(xs [][]float64, sp *features.Sparse, sobs []features.SessionObs, k int) [][]float64 {
	xs = xs[:0]
	for _, o := range sobs {
		x := make([]float64, k)
		sp.EvalInto(o, x)
		xs = append(xs, x)
	}
	return xs
}

// stagedPass replays the workload through every layer on one
// goroutine. Live workloads decode their own frames; pcap-replay reads
// and meters its capture. The layers off a workload's path are still
// timed on its traffic — wire encode/decode of the replayed entries,
// the packet layers on a capture of one live subscriber — so every
// workload reports every layer, and the README marks which ones its
// end-to-end figures include.
func stagedPass(fw *core.Framework, w *inputs, ref *reference) *stagedCosts {
	c := &stagedCosts{}
	t0 := time.Now()
	se := newStagedEngine(fw, c)
	stagedPackets(w, c)
	if w.name == "pcap-replay" {
		// the replay hands the engine the batches the reference saw
		for k := 0; k+1 < len(ref.batchFirst); k++ {
			se.feed(ref.replayed[ref.batchFirst[k]:ref.batchFirst[k+1]])
		}
		stagedWire(encodeAll(ref.replayed), c, nil)
	} else {
		stagedWire(w.stream, c, se)
	}
	se.drain()
	c.wall = time.Since(t0)
	return c
}

// stagedPackets times pcapio.Reader.Next and the flow meter over the
// workload's capture, with the replay's flush cadence.
func stagedPackets(w *inputs, c *stagedCosts) {
	r := w.captureReader()
	m := packet.NewMeter()
	const flushEvery, idleGap = 2.0, 10.0 // wire.ReplayOptions defaults
	next, started := 0.0, false
	for {
		t := time.Now()
		p, err := r.Next()
		c.read += float64(time.Since(t))
		if err == io.EOF {
			break
		}
		must(err)
		c.packets++
		if !started {
			started, next = true, p.Time+flushEvery
		}
		t = time.Now()
		m.Observe(p)
		if p.Time >= next {
			c.metered += len(m.FlushIdle(p.Time, idleGap))
			next = p.Time + flushEvery
		}
		c.meter += float64(time.Since(t))
	}
	t := time.Now()
	c.metered += len(m.Finish())
	c.meter += float64(time.Since(t))
}

// stagedWire times the wire decode (FrameReader.Next + DecodeFrame) of
// an encoded stream and the client-side encode of what it decodes,
// feeding each decoded frame to se when set.
func stagedWire(stream []byte, c *stagedCosts, se *stagedEngine) {
	fr := wire.NewFrameReader(bytes.NewReader(stream))
	dec := wire.NewDecoder()
	var sink bytes.Buffer
	enc := wire.NewEncoder(&sink)
	c.bytes = len(stream)
	for {
		t := time.Now()
		h, payload, err := fr.Next()
		if err == io.EOF {
			break
		}
		must(err)
		es, ls, err := dec.DecodeFrame(h, payload)
		must(err)
		c.decode += float64(time.Since(t))

		t = time.Now()
		for i := range es {
			must(enc.AppendEntry(&es[i]))
		}
		for i := range ls {
			must(enc.AppendLabel(&ls[i]))
		}
		must(enc.Flush(0))
		c.encode += float64(time.Since(t))
		sink.Reset()

		if se != nil {
			se.feed(es)
			for i := range ls {
				se.qm.ObserveLabel(ls[i])
			}
		}
	}
}

// encodeAll renders entries as one VQW1 stream.
func encodeAll(es []weblog.Entry) []byte {
	var buf bytes.Buffer
	must(wire.EncodeBatch(&buf, es, nil))
	return buf.Bytes()
}
