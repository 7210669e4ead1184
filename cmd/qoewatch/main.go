// Command qoewatch is the operator's live monitor: it reads a weblog
// stream (JSONL, one entry per line — the format cmd/qoegen emits) from
// stdin, reconstructs sessions on the fly and prints a QoE report the
// moment each session completes. It runs the same live-session engine
// and server wiring as qoeserve, cut to one shard with idle eviction
// off and fed one entry at a time, so reports appear in stream order.
//
// Models are loaded from files written by qoetrain, or trained on a
// synthetic corpus at startup when no files are given.
//
//	qoegen -kind encrypted -n 50 -format jsonl | qoewatch
//	qoewatch -stall stall.model -rep rep.model < weblog.jsonl
//
// With -metrics-addr the same Prometheus exposition qoeserve offers is
// served for this process, including the per-shard engine gauges and
// the vqoe_stage_duration_seconds pipeline-latency histograms (one
// shard), so batch and live tooling share one instrumentation surface.
//
// The stream may interleave {"type":"label",...} lines (the delayed
// ground-truth side-channel qoegen -label-rate emits); qoewatch feeds
// them to the model-quality monitor and closes with a model-health
// summary — feature drift vs the training baseline, calibration, and
// online accuracy — flagging any tripped degradation threshold.
//
// When entries carry cohort metadata (region/device/cap, as qoegen
// -kind live emits), the run also closes with a "worst cohorts" fleet
// summary: the five cohorts with the lowest median MOS, with their
// impairment rates — the same rollup qoeserve serves at /debug/cohorts.
//
// A session flight recorder rides the same path: sessions that stall,
// score in the worst MOS decile, confuse a detector, or land on the
// uniform 1-in-N sample keep their full event timeline, and the run
// closes with a "worst sessions" report naming them. -flight-sample
// and -flight-max-bytes tune it; -no-flight turns it off.
//
// qoeserve's SLO alert rules run over the same stream (-slo-cadence
// seconds per sampler tick) and the run closes with an alert summary — rules
// that fired or were pending, and episodes that resolved mid-run.
// -alert-log appends each state transition as a JSON line to a file.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"vqoe/internal/cli"
	"vqoe/internal/cohort"
	"vqoe/internal/engine"
	"vqoe/internal/flight"
	"vqoe/internal/obs"
	"vqoe/internal/pipeline"
	"vqoe/internal/qualitymon"
	"vqoe/internal/slo"
	"vqoe/internal/weblog"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "qoewatch:", err)
		os.Exit(1)
	}
}

// run is the whole command: flags from args, the weblog stream from
// stdin, reports and the closing summaries to stdout.
func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("qoewatch", flag.ExitOnError)
	var (
		stallPath = fs.String("stall", "", "trained stall model (from qoetrain -save-stall)")
		repPath   = fs.String("rep", "", "trained representation model (from qoetrain -save-rep)")
		quietOK   = fs.Bool("problems-only", false, "print only sessions with QoE issues")
		metricsAt = fs.String("metrics-addr", "", "serve Prometheus metrics on this address (e.g. 127.0.0.1:9090)")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = fs.String("log-format", "text", "log format: text or json")

		flightBytes = fs.Int64("flight-max-bytes", 0, "flight recorder byte budget for retained timelines (0 = default 8MiB)")
	)
	common := cli.Register(fs)
	_ = fs.Parse(args) // ExitOnError: a bad command line exits 2, -h exits 0

	log, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		return err
	}
	fw, err := common.BuildFramework(*stallPath, *repPath, log)
	if err != nil {
		return fmt.Errorf("startup failed: %w", err)
	}
	scfg, alertLog, err := common.SLO()
	if err != nil {
		return fmt.Errorf("alert log: %w", err)
	}
	if alertLog != nil {
		defer alertLog.Close()
	}

	// the engine qoeserve runs, cut to one shard with auto-eviction off
	// and fed one entry per Ingest: sessions close on §5.2 boundaries
	// and at Drain, and reports come back in stream order
	ecfg := engine.DefaultConfig()
	ecfg.Shards = 1
	ecfg.SweepEverySec = -1
	fcfg := common.Flight()
	fcfg.MaxBytes = *flightBytes
	srv := pipeline.NewServerOpts(fw, pipeline.Options{
		Engine: ecfg,
		Logger: log,
		Flight: fcfg,
		SLO:    scfg,
	})
	eng := srv.Engine()
	if *metricsAt != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", srv.Metrics().Handler())
		go func() {
			if err := http.ListenAndServe(*metricsAt, obs.HTTPMiddleware(log, mux)); err != nil {
				log.Error("metrics server failed", "err", err)
			}
		}()
		log.Info("serving metrics", "addr", *metricsAt)
	}
	in := bufio.NewScanner(stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	var lines, emitted, labels int
	typeProbe := []byte(`"type"`)
	for in.Scan() {
		if len(in.Bytes()) == 0 {
			continue
		}
		if bytes.Contains(in.Bytes(), typeProbe) {
			var probe struct {
				Type string `json:"type"`
			}
			if json.Unmarshal(in.Bytes(), &probe) == nil && probe.Type == qualitymon.LabelType {
				var l qualitymon.Label
				if err := json.Unmarshal(in.Bytes(), &l); err != nil {
					log.Warn("skipping malformed label line", "err", err)
					continue
				}
				labels++
				eng.ObserveLabel(l)
				continue
			}
		}
		var e weblog.Entry
		if err := json.Unmarshal(in.Bytes(), &e); err != nil {
			log.Warn("skipping malformed line", "line", lines+1, "err", err)
			continue
		}
		lines++
		for _, rep := range srv.Ingest([]weblog.Entry{e}) {
			emitted += printReport(out, rep, *quietOK)
		}
	}
	if err := in.Err(); err != nil && err != io.EOF {
		return fmt.Errorf("read failed: %w", err)
	}
	// Drain stops the background sampler before flushing; one final
	// tick picks up the flush before the summary reads the alert table
	for _, rep := range srv.Drain() {
		emitted += printReport(out, rep, *quietOK)
	}
	sloEng := srv.SLO()
	sloEng.Tick(sloEng.Now())
	sn := eng.Quality().Snapshot()
	fmt.Fprintf(out, "-- %d entries, %d session reports\n", lines, emitted)
	if labels > 0 {
		// matched from the monitor, not ObserveLabel's return: a label
		// that arrives before its session closes is buffered and only
		// matches when the prediction lands (possibly at Drain)
		fmt.Fprintf(out, "-- %d ground-truth labels, %d matched\n", labels, sn.Labels.Matched)
	}
	printModelHealth(out, sn)
	printWorstCohorts(out, eng.Cohorts().Snapshot())
	printWorstSessions(out, srv.Flight())
	printAlertSummary(out, sloEng.Alerts())
	log.Debug("stream finished", "entries", lines, "reports", emitted, "labels", labels)
	return nil
}

// printModelHealth renders the closing model-health summary: one line
// per classifier plus one per tripped degradation threshold.
func printModelHealth(w io.Writer, sn qualitymon.Snapshot) {
	for _, ms := range sn.Models {
		fmt.Fprintf(w, "-- model %s: %s", ms.Name, ms.Status)
		if ms.HasBaseline && ms.Samples > 0 {
			fmt.Fprintf(w, " (max PSI %.3f on %s", ms.MaxPSI, ms.MaxPSIFeature)
			if ms.Labeled > 0 {
				fmt.Fprintf(w, ", online accuracy %.1f%% over %d labels vs %.1f%% baseline",
					100*ms.OnlineAccuracy, ms.Labeled, 100*ms.BaselineAccuracy)
			}
			fmt.Fprint(w, ")")
		}
		fmt.Fprintln(w)
		for _, r := range ms.Reasons {
			fmt.Fprintf(w, "--   degraded: %s\n", r)
		}
	}
}

// printWorstCohorts closes the run with the fleet view an operator
// pages on: up to five cohorts, worst median MOS first. Streams
// without cohort metadata produce an empty rollup and no output.
func printWorstCohorts(w io.Writer, snap *cohort.Snapshot) {
	if snap == nil || len(snap.Cohorts) == 0 {
		return
	}
	show := snap.Cohorts
	if len(show) > 5 {
		show = show[:5]
	}
	fmt.Fprintf(w, "-- worst cohorts (%d sessions across %d cohorts):\n", snap.Total, len(snap.Cohorts))
	for _, st := range show {
		fmt.Fprintf(w, "--   %-24s mos p50 %.2f (%s)  sessions %-5d stall %.0f%% lowq %.0f%% switch %.0f%%\n",
			st.Cohort, st.MOSP50, st.Verbal, st.Sessions,
			100*st.StallRate, 100*st.LowQualityRate, 100*st.SwitchRate)
	}
	if snap.Overflow != nil {
		fmt.Fprintf(w, "--   (+%d sessions in evicted-cohort overflow)\n", snap.Overflow.Sessions)
	}
}

// printWorstSessions closes the run with the flight recorder's view:
// up to five retained sessions, worst MOS first, with the policies
// that kept them — the per-session evidence behind the cohort lines
// above. No output when recording is off or nothing was retained.
func printWorstSessions(w io.Writer, rec *flight.Recorder) {
	snap := rec.Snapshot()
	if len(snap.Retained) == 0 {
		return
	}
	fmt.Fprintf(w, "-- worst sessions (%d retained of %d recorded):\n",
		snap.Counters.Retained, snap.Counters.Recorded)
	show := snap.Retained
	if len(show) > 5 {
		show = show[:5]
	}
	for _, s := range show {
		fmt.Fprintf(w, "--   %-28s mos %.2f (%s)  stall %-13s entries %-4d kept: %s\n",
			s.ID, s.MOS, s.Verbal, s.Stall, s.Entries, strings.Join(s.Reasons, ","))
	}
}

// printAlertSummary closes the run with the SLO alert view: every
// rule that is not quietly inactive, worst state first, plus the
// firing episodes that resolved during the run. A healthy stream
// prints a single all-clear line.
func printAlertSummary(w io.Writer, snap slo.AlertsSnapshot) {
	var noisy []slo.Alert
	for _, a := range snap.Alerts {
		if a.StateCode != int(slo.Inactive) {
			noisy = append(noisy, a)
		}
	}
	if len(noisy) == 0 && len(snap.RecentResolved) == 0 {
		fmt.Fprintf(w, "-- slo: all %d alert rules inactive\n", len(snap.Alerts))
		return
	}
	fmt.Fprintf(w, "-- slo alerts (%d firing, %d pending):\n", snap.Firing, snap.Pending)
	for _, a := range noisy {
		fmt.Fprintf(w, "--   %-20s %-8s", a.Rule, a.State)
		if a.Value != nil {
			fmt.Fprintf(w, " value %.4g", *a.Value)
		}
		if a.Detail != "" {
			fmt.Fprintf(w, "  %s", a.Detail)
		}
		fmt.Fprintln(w)
	}
	for _, ep := range snap.RecentResolved {
		fmt.Fprintf(w, "--   resolved %-11s fired %.0fs, peak %.4g  %s\n",
			ep.Rule, ep.ResolvedAt-ep.StartedAt, ep.PeakValue, ep.Detail)
	}
}

func printReport(w io.Writer, rep pipeline.SessionReport, problemsOnly bool) int {
	problem := rep.Report.Stall != 0 || rep.Report.SwitchVariance
	if problemsOnly && !problem {
		return 0
	}
	marker := " "
	if problem {
		marker = "!"
	}
	fmt.Fprintf(w, "%s %-12s t=%8.1fs dur=%6.1fs  %s\n",
		marker, rep.Subscriber, rep.Start, rep.End-rep.Start, rep.Report)
	return 1
}
