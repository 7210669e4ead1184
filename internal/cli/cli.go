// Package cli is the startup plumbing the vqoe commands share: the
// flags qoeserve, qoewatch and qoepcap all declare (training corpus,
// flight recorder, SLO sampler), the SLO settings and alert-log file
// built from them, and the framework qoeserve and qoewatch load from
// model files or train on a synthetic encrypted corpus.
package cli

import (
	"flag"
	"log/slog"
	"os"

	"vqoe/internal/core"
	"vqoe/internal/flight"
	"vqoe/internal/slo"
	"vqoe/internal/workload"
)

// Flags holds the values of the shared flags.
type Flags struct {
	TrainN       int
	Seed         int64
	FlightSample int
	NoFlight     bool
	AlertLog     string
	SLOCadence   float64
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.TrainN, "train-n", 800, "sessions in the synthetic training corpus (trained when no model files are given)")
	fs.Int64Var(&f.Seed, "seed", 1, "seed for synthetic data: the training corpus, and the capture qoepcap -export writes")
	fs.IntVar(&f.FlightSample, "flight-sample", 0, "flight recorder uniform sample: retain 1 in N sessions (0 = default 32, negative = outcome-driven policies only)")
	fs.BoolVar(&f.NoFlight, "no-flight", false, "disable the session flight recorder")
	fs.StringVar(&f.AlertLog, "alert-log", "", "append one JSON line per SLO alert state transition to this file (capture-time stamps for qoepcap -analyze)")
	fs.Float64Var(&f.SLOCadence, "slo-cadence", 0, "SLO sampler period in seconds (0 = default 1; capture-time seconds for qoepcap -analyze)")
	return f
}

// Flight returns the flight-recorder settings the flags select.
func (f *Flags) Flight() flight.Config {
	return flight.Config{SampleN: f.FlightSample, Disabled: f.NoFlight}
}

// SLO returns the SLO settings the flags select. With -alert-log it
// opens the file for appending; the caller closes the returned file
// (nil without -alert-log) once the SLO engine is done.
func (f *Flags) SLO() (slo.Config, *os.File, error) {
	cfg := slo.Config{CadenceSec: f.SLOCadence}
	if f.AlertLog == "" {
		return cfg, nil, nil
	}
	lf, err := os.OpenFile(f.AlertLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return cfg, nil, err
	}
	cfg.AlertLog = lf
	return cfg, lf, nil
}

// BuildFramework loads the stall and representation detectors from
// model files written by qoetrain when both paths are given, and
// otherwise trains on a synthetic corpus of f.TrainN sessions.
func (f *Flags) BuildFramework(stallPath, repPath string, log *slog.Logger) (*core.Framework, error) {
	if stallPath != "" && repPath != "" {
		stall, err := loadDetector(stallPath)
		if err != nil {
			return nil, err
		}
		rep, err := loadDetector(repPath)
		if err != nil {
			return nil, err
		}
		return &core.Framework{
			Stall:  &core.StallDetector{Detector: *stall},
			Rep:    &core.RepresentationDetector{Detector: *rep},
			Switch: core.NewSwitchDetector(),
		}, nil
	}
	log.Info("training on synthetic corpus", "sessions", f.TrainN)
	// train on the traffic the live engine serves — encrypted adaptive
	// streams — so the quality monitor's baseline describes the live
	// population rather than flagging a train/serve mismatch at once
	stallCfg := workload.DefaultConfig(f.TrainN)
	stallCfg.AdaptiveFraction = 1
	stallCfg.Encrypted = true
	stallCfg.Seed = f.Seed
	hasCfg := workload.DefaultConfig(f.TrainN / 2)
	hasCfg.AdaptiveFraction = 1
	hasCfg.Encrypted = true
	hasCfg.Seed = f.Seed + 1
	tcfg := core.DefaultTrainConfig()
	tcfg.CVFolds = 3
	tcfg.Forest.Trees = 30
	fw, _, err := core.TrainFramework(workload.Generate(stallCfg), workload.Generate(hasCfg), tcfg)
	return fw, err
}

func loadDetector(path string) (*core.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadDetector(f)
}
