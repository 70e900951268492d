// Slow-query forensics. When the tracer's slow threshold is crossed,
// two artifacts land in Config.SlowDir: the request's trace as JSON
// (written from the tracer's OnSlow hook, where the completed span tree
// is available) and a WKT dump of the request's slowest geometry pair
// in the oracle regression-corpus format (written synchronously by the
// handler, where the geometries are still live) — so a latency outlier
// becomes both an explainable timeline and a replayable input.
package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// installSlowLog wires the tracer's slow-trace hook to the slow-query
// counter, the server log, and (when SlowDir is set) a trace JSON dump.
func (s *Server) installSlowLog() {
	if s.tracer == nil {
		return
	}
	slowCtr := s.met.Counter("server_slow_queries_total")
	s.tracer.OnSlow(func(td trace.TraceData) {
		slowCtr.Inc()
		ms := float64(td.DurNs) / 1e6
		if path := writeSlowTrace(s.cfg.SlowDir, td); path != "" {
			s.logf("server: slow query %s (%s, %.1fms): trace dumped to %s",
				td.ID, td.Root.Name, ms, path)
		} else {
			s.logf("server: slow query %s (%s, %.1fms)", td.ID, td.Root.Name, ms)
		}
	})
}

// writeSlowTrace persists one slow trace as indented JSON named by its
// trace id. Returns "" when disabled or on failure — forensics must
// never add a failure mode to the request that was merely slow.
func writeSlowTrace(dir string, td trace.TraceData) string {
	if dir == "" {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	data, err := json.MarshalIndent(td, "", "  ")
	if err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("slow-%s.json", td.ID))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return ""
	}
	return path
}

// dumpSlowPair writes the slow request's worst pair in the oracle
// regression-corpus format, named by route and trace id so it sits next
// to the trace JSON. The handler calls this synchronously while the
// geometries are live.
func (s *Server) dumpSlowPair(route string, traceID uint64, r, o *core.Object, d time.Duration) {
	id := trace.FormatID(traceID)
	note := fmt.Sprintf("slow-%s: trace=%s pair_ns=%d", route, id, d.Nanoseconds())
	path := writeCorpusPair(s.cfg.SlowDir, note, r, o, func(string, string) string {
		return fmt.Sprintf("slow-%s-%s.txt", route, id)
	})
	if path != "" {
		s.logf("server: slow %s pair dumped to %s", route, path)
	}
}
