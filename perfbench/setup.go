package main

import (
	"fmt"
	"net"
	"os"
	"time"

	"vqoe/internal/core"
	"vqoe/internal/pipeline"
	"vqoe/internal/wire"
	"vqoe/internal/workload"
)

// setupRounds is how many times a run sets up; setup_s is the median.
const setupRounds = 3

// setupResult is the framework the runs use plus the set-up timings.
type setupResult struct {
	fw *core.Framework
	// setupS is the median total set-up time; corpusS and trainS are
	// the medians of its corpus-generation and training parts.
	setupS, corpusS, trainS float64
}

// measureSetup builds the service setupRounds times the way qoeserve
// does with no model files — synthetic encrypted adaptive corpora, then
// core.TrainFramework with qoeserve's hyperparameters — followed by
// server construction and a wire listener ready to accept, and
// reports the medians. The last framework is kept for the runs.
func measureSetup(trainN int, seed int64) (setupResult, error) {
	var total, corpus, train []float64
	var fw *core.Framework
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		stallCfg := workload.DefaultConfig(trainN)
		stallCfg.AdaptiveFraction = 1
		stallCfg.Encrypted = true
		stallCfg.Seed = seed
		hasCfg := workload.DefaultConfig(trainN / 2)
		hasCfg.AdaptiveFraction = 1
		hasCfg.Encrypted = true
		hasCfg.Seed = seed + 1
		stallCorpus, hasCorpus := workload.Generate(stallCfg), workload.Generate(hasCfg)
		t1 := time.Now()
		tcfg := core.DefaultTrainConfig()
		tcfg.CVFolds = 3
		tcfg.Forest.Trees = 30
		f, _, err := core.TrainFramework(stallCorpus, hasCorpus, tcfg)
		if err != nil {
			return setupResult{}, fmt.Errorf("training: %w", err)
		}
		t2 := time.Now()
		srv := pipeline.NewServerOpts(f, pipeline.Options{})
		ws := srv.NewWireServer()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return setupResult{}, fmt.Errorf("listening: %w", err)
		}
		served := make(chan error, 1)
		go func() { served <- ws.Serve(ln) }()
		// ready = an ack round trip succeeds, so Serve is accepting
		c, err := wire.Dial(ln.Addr().String())
		if err != nil {
			return setupResult{}, fmt.Errorf("dialing: %w", err)
		}
		if _, err := c.Sync(); err != nil {
			return setupResult{}, fmt.Errorf("ready probe: %w", err)
		}
		t3 := time.Now()
		_ = c.Close() // probe connection only; the server is closed next
		if err := ws.Close(); err != nil {
			return setupResult{}, err
		}
		if err := <-served; err != nil {
			return setupResult{}, fmt.Errorf("wire serve: %w", err)
		}
		srv.Drain()
		total = append(total, t3.Sub(t0).Seconds())
		corpus = append(corpus, t1.Sub(t0).Seconds())
		train = append(train, t2.Sub(t1).Seconds())
		fw = f
	}
	r := setupResult{fw: fw, setupS: median(total), corpusS: median(corpus), trainS: median(train)}
	fmt.Fprintf(os.Stderr, "perfbench: set-up x%d median %.3fs (corpus %.3fs, train %.3fs)\n",
		setupRounds, r.setupS, r.corpusS, r.trainS)
	return r, nil
}
