package server

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// GET /health/score: a derived verdict over the same cells /metrics
// exposes — windowed error rate, windowed p99 against the configured SLO,
// admission-queue pressure, and drain state — plus every check registered
// on the registry through obs.Registry.OnHealth (a cluster coordinator's
// membership, stale-shard and ownerless-shard checks), each carrying a
// human-readable reason. Always 200: the verdict is the body, not the
// status code (that is /readyz's job).
func (s *Server) handleHealthScore(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.healthReport(time.Now()))
}

// healthReport samples the lifetime counters into the sliding windows and
// scores them. Until a window holds two samples the lifetime ratios stand
// in, so the very first request already reports something sensible.
func (s *Server) healthReport(now time.Time) *obs.HealthReport {
	req := float64(s.cQuery.Value() + s.cBatch.Value() + s.cStream.Value() + s.cMutate.Value())
	errs := float64(s.cErrors.Value())
	s.reqWin.Observe(now, req)
	s.errWin.Observe(now, errs)
	errRate := 0.0
	if d := s.reqWin.Delta(); d > 0 {
		errRate = s.errWin.Delta() / d
	} else if req > 0 {
		errRate = errs / req
	}
	rep := obs.NewHealthReport()
	rep.Add(obs.CheckErrorRate(errRate))

	bounds, cum, total := obs.MergedHistogram(s.queryDur)
	s.latWin.Observe(now, cum, total)
	p99, ok := s.latWin.Quantile(bounds, 0.99)
	if !ok {
		p99 = obs.QuantileFromCells(bounds, cum, total, 0.99)
	}
	rep.Add(obs.CheckLatency(p99, s.cfg.SLO.Seconds()))

	waiting := max(s.gAdmitted.Value()-s.gInflight.Value(), 0)
	rep.Add(obs.CheckQueue(waiting, int64(s.cfg.MaxQueue)))

	if s.draining.Load() {
		rep.Add(obs.HealthCheck{Name: "draining", Status: obs.HealthDegraded,
			Reason: "server is draining", Value: 1})
	} else {
		rep.Add(obs.HealthCheck{Name: "draining", Status: obs.HealthOK,
			Reason: "accepting requests"})
	}
	for _, c := range s.reg.HealthChecks() {
		rep.Add(c)
	}
	return rep
}
