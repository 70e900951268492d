// Panic isolation for the serving path. A panic while evaluating one
// geometry pair — degenerate input, a pipeline bug, an injected fault —
// must cost exactly that pair's request, never the process: the core
// sweep executor recovers at pair granularity, the HTTP middleware
// recovers whatever leaks past it, and every recovered pair is counted
// and dumped as a WKT repro case in the oracle's
// regression-corpus format so the crash becomes a replayable test.
package server

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime/debug"
	"strings"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/wkt"
)

// pairPanic records one recovered per-pair panic: counter, log line,
// and (when Config.ReproDir is set) a WKT dump of the offending pair.
func (s *Server) pairPanic(tag string, r, o *core.Object, rv any) {
	s.met.Counter("server_pair_panics_total").Inc()
	s.logf("server: pair panic in %s: %v (repro dump: %q)", tag, rv, dumpReproPair(s.cfg.ReproDir, tag, r, o, rv))
}

// dumpReproPair writes the pair as a panic repro in the oracle
// regression-corpus format, so the differential oracle replays the exact
// crash input. The name hashes the geometry, so re-hitting the same bug
// is idempotent.
func dumpReproPair(dir, tag string, r, o *core.Object, rv any) string {
	return writeCorpusPair(dir, fmt.Sprintf("panic-%s: %v", tag, rv), r, o, func(wa, wb string) string {
		h := fnv.New32a()
		fmt.Fprint(h, tag, wa, wb)
		return fmt.Sprintf("panic-%s-%08x.txt", tag, h.Sum32())
	})
}

// writeCorpusPair writes one pair in the oracle regression-corpus
// format (`# note`, `A <wkt>`, `B <wkt>`, `V nA nB`) to the file that
// name picks from the two WKT strings, and returns its path. It returns ""
// when dumping is disabled or fails: a dump must never add a second
// failure mode to the request it records.
func writeCorpusPair(dir, note string, r, o *core.Object, name func(wa, wb string) string) string {
	if dir == "" || r == nil || o == nil || r.Poly == nil || o.Poly == nil {
		return ""
	}
	wa := wkt.MarshalMultiPolygon(geom.NewMultiPolygon(r.Poly))
	wb := wkt.MarshalMultiPolygon(geom.NewMultiPolygon(o.Poly))
	body := fmt.Sprintf("# %s\nA %s\nB %s\nV %d %d\n",
		strings.ReplaceAll(note, "\n", " "), wa, wb, r.Poly.NumVertices(), o.Poly.NumVertices())
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, name(wa, wb))
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		return ""
	}
	return path
}

// handlerPanic records a panic that escaped every per-pair guard and
// reached the HTTP middleware (the outermost barrier).
func (s *Server) handlerPanic(route string, rv any) {
	s.met.Counter("server_handler_panics_total").Inc()
	s.logf("server: handler %s panicked: %v\n%s", route, rv, debug.Stack())
}
