// Package pipeline runs the detection framework in the operator's
// online deployment mode (§8: "the trained models can be directly
// applied on the passively monitored traffic and report issues in real
// time"). Server wraps the sharded live-session engine
// (internal/engine) with the HTTP and wire front doors, the metrics
// exposition, and the SLO sampler; entries arrive incrementally — as
// the proxy emits them — and a QoE report is emitted the moment the
// §5.2 reconstruction heuristics consider a session finished.
package pipeline

import "vqoe/internal/engine"

// SessionReport is an emitted assessment of one finished session.
type SessionReport = engine.Report
