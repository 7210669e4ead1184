package pipeline

import (
	"sync"
	"testing"

	"vqoe/internal/core"
	"vqoe/internal/engine"
	"vqoe/internal/features"
	"vqoe/internal/weblog"
	"vqoe/internal/workload"
)

var (
	fwOnce sync.Once
	fw     *core.Framework
	study  *workload.Study
)

func testFramework(t *testing.T) (*core.Framework, *workload.Study) {
	t.Helper()
	fwOnce.Do(func() {
		clearCfg := workload.DefaultConfig(700)
		clearCfg.Seed = 31
		hasCfg := workload.DefaultConfig(350)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Seed = 32
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 15
		var err error
		fw, _, err = core.TrainFramework(workload.Generate(clearCfg), workload.Generate(hasCfg), tcfg)
		if err != nil {
			panic(err)
		}
		scfg := workload.DefaultStudyConfig()
		scfg.Sessions = 20
		scfg.Seed = 33
		study = workload.GenerateStudy(scfg)
	})
	return fw, study
}

// oneShard is the engine layout the offline tools run on: one shard,
// no auto-eviction, so sessions close only on §5.2 boundaries, an
// explicit Advance, or Drain.
func oneShard() engine.Config {
	cfg := engine.DefaultConfig()
	cfg.Shards = 1
	cfg.SweepEverySec = -1
	return cfg
}

func newOneShardServer(fw *core.Framework) *Server {
	return NewServerOpts(fw, Options{Engine: oneShard()})
}

// ingestEach feeds entries one Ingest call at a time, as qoewatch does,
// and returns the reports in emission order.
func ingestEach(s *Server, entries []weblog.Entry) []SessionReport {
	var out []SessionReport
	for i := range entries {
		out = append(out, s.Ingest(entries[i:i+1])...)
	}
	return out
}

func openSessions(s *Server) int {
	n := 0
	for _, sh := range s.Engine().Snapshot() {
		n += sh.Open
	}
	return n
}

func TestStreamingMatchesBatchSessionCount(t *testing.T) {
	fw, study := testFramework(t)
	s := newOneShardServer(fw)
	reports := ingestEach(s, study.Stream)
	reports = append(reports, s.Drain()...)
	// the study has 20 sequential sessions; each should emit one report
	if len(reports) < 18 || len(reports) > 22 {
		t.Errorf("emitted %d reports for 20 sessions", len(reports))
	}
	if n := openSessions(s); n != 0 {
		t.Errorf("%d sessions left open after drain", n)
	}
}

func TestReportsCarryAssessments(t *testing.T) {
	fw, study := testFramework(t)
	s := newOneShardServer(fw)
	reports := ingestEach(s, study.Stream)
	reports = append(reports, s.Drain()...)
	for _, r := range reports {
		if r.Subscriber != "study-device" {
			t.Fatalf("subscriber %q", r.Subscriber)
		}
		if r.End < r.Start {
			t.Fatal("report interval inverted")
		}
		if r.Report.Chunks < engine.DefaultConfig().MinChunks {
			t.Fatalf("report with %d chunks below minimum", r.Report.Chunks)
		}
		if int(r.Report.Stall) < 0 || int(r.Report.Stall) > 2 {
			t.Fatal("invalid stall label")
		}
	}
}

func TestPushIgnoresForeignHosts(t *testing.T) {
	fw, _ := testFramework(t)
	s := newOneShardServer(fw)
	defer s.Drain()
	if got := s.Ingest([]weblog.Entry{{Host: "ads.example.com", Subscriber: "x"}}); got != nil {
		t.Error("foreign host should not emit")
	}
	if openSessions(s) != 0 {
		t.Error("foreign host should not open a session")
	}
}

func TestAdvanceClosesIdleSessions(t *testing.T) {
	fw, study := testFramework(t)
	s := newOneShardServer(fw)
	defer s.Drain()
	// feed only the first session's worth of entries
	first := study.StreamLabels[0]
	n := 0
	for n < len(study.Stream) && study.StreamLabels[n] == first {
		n++
	}
	ingestEach(s, study.Stream[:n])
	if got := openSessions(s); got != 1 {
		t.Fatalf("open sessions = %d", got)
	}
	if got := s.Engine().Advance(1e9); len(got) != 1 {
		t.Errorf("advance emitted %d reports, want 1", len(got))
	}
	if openSessions(s) != 0 {
		t.Error("advance should close the idle session")
	}
	// advancing again is a no-op
	if got := s.Engine().Advance(2e9); len(got) != 0 {
		t.Error("second advance should be empty")
	}
}

func TestFragmentsSuppressed(t *testing.T) {
	fw, _ := testFramework(t)
	s := newOneShardServer(fw)
	// a lone page load with no media must not produce a report
	s.Ingest([]weblog.Entry{{Host: weblog.HostPage, Subscriber: "s", Timestamp: 0}})
	if got := s.Drain(); len(got) != 0 {
		t.Errorf("fragment emitted %d reports", len(got))
	}
}

func TestMultipleSubscribersInterleaved(t *testing.T) {
	fw, study := testFramework(t)
	s := newOneShardServer(fw)
	// duplicate the stream under two subscriber IDs, interleaved
	var reports []SessionReport
	for _, e := range study.Stream {
		e1 := e
		e1.Subscriber = "alice"
		e2 := e
		e2.Subscriber = "bob"
		reports = append(reports, s.Ingest([]weblog.Entry{e1})...)
		reports = append(reports, s.Ingest([]weblog.Entry{e2})...)
	}
	reports = append(reports, s.Drain()...)
	counts := map[string]int{}
	for _, r := range reports {
		counts[r.Subscriber]++
	}
	if counts["alice"] == 0 || counts["alice"] != counts["bob"] {
		t.Errorf("per-subscriber reports unbalanced: %v", counts)
	}
}

func TestStreamingAgreesWithDirectAnalysis(t *testing.T) {
	fw, study := testFramework(t)
	s := newOneShardServer(fw)
	reports := ingestEach(s, study.Stream)
	reports = append(reports, s.Drain()...)

	// compare against analyzing each true session's entries directly
	direct := map[string]core.Report{}
	for _, s := range study.Corpus.Sessions {
		direct[s.Trace.SessionID] = fw.Analyze(features.FromEntries(s.Entries))
	}
	agree := 0
	for _, r := range reports {
		for _, d := range direct {
			if d.Chunks == r.Report.Chunks && d.Stall == r.Report.Stall {
				agree++
				break
			}
		}
	}
	if agree < len(reports)*8/10 {
		t.Errorf("only %d/%d streaming reports match a direct analysis", agree, len(reports))
	}
}
