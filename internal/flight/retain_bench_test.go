package flight

import (
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/weblog"
)

func benchEntries(n int) []weblog.Entry {
	out := make([]weblog.Entry, n)
	for i := range out {
		out[i] = weblog.Entry{
			Timestamp:      float64(i) * 4,
			Subscriber:     "bench-sub",
			Host:           "r3---sn-test.googlevideo.com",
			Bytes:          500_000,
			TransactionSec: 0.8,
		}
	}
	return out
}

func benchAssessment(entries []weblog.Entry) Assessment {
	rep := core.Report{StallConf: 0.9, RepConf: 0.9, Chunks: len(entries)}
	rep.Stall = 2
	return Assessment{
		Subscriber: "bench-sub", Start: 0, End: 480, Report: rep,
		Chunks: chunksOf(entries), RawEntries: len(entries),
		Cohort: "us-east/mobile/50",
	}
}

// BenchmarkRetain times the ingest-path cost of keeping one session:
// the compaction pass over the chunk observations (float-only, one
// chunk-record append per video chunk), the header build, and ring bookkeeping —
// a few allocations and ~1.5µs for a 120-entry session, paid only by
// the retained tail.
func BenchmarkRetain(b *testing.B) {
	a := benchAssessment(benchEntries(120))
	rec := New(Config{Shards: 1})
	sh := rec.Shard(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh.retain(a, 2.5, ReasonStalled)
		if i%64 == 0 {
			sh.mu.Lock()
			sh.ring = sh.ring[:0]
			sh.bytes = 0
			sh.mu.Unlock()
		}
	}
}

// BenchmarkTimelineRender times the read-path materialization a
// drill-down pays: the entry scan, gap synthesis, and the assess-time
// fold. This cost moved off the ingest path deliberately — it runs
// once per operator click, not once per retained session.
func BenchmarkTimelineRender(b *testing.B) {
	a := benchAssessment(benchEntries(120))
	sess := newSession(a, 2.5, ReasonStalled, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sess.timeline(nil)
	}
}
