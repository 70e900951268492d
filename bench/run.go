package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sort"
	"time"
)

// sample is one completed request of a round: its latency from just
// before the request is written to the last byte of the body, and where
// the body sits in the round's buffer.
type sample struct {
	kind     opKind
	status   int
	dur      time.Duration
	off, end int
}

// loadgen is the one closed-loop client: one goroutine, one keep-alive
// connection, the next request only after the previous body is read.
// Bodies are kept in one buffer and validated after the round, so that
// decoding them is not part of what is measured.
type loadgen struct {
	hc      *http.Client
	base    string
	buf     bytes.Buffer
	samples []sample
}

func (g *loadgen) do(o *op) (sample, error) {
	req, err := http.NewRequest(o.method, g.base+o.path, bytes.NewReader(o.body))
	if err != nil {
		return sample{}, err
	}
	if o.body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	off := g.buf.Len()
	t0 := time.Now()
	resp, err := g.hc.Do(req)
	if err != nil {
		return sample{}, err
	}
	_, err = g.buf.ReadFrom(resp.Body)
	dur := time.Since(t0)
	resp.Body.Close()
	return sample{o.kind, resp.StatusCode, dur, off, g.buf.Len()}, err
}

// round sends the ops in order and returns the wall time of the pass.
func (g *loadgen) round(ops []op) (time.Duration, error) {
	g.buf.Reset()
	g.samples = g.samples[:0]
	t0 := time.Now()
	for i := range ops {
		s, err := g.do(&ops[i])
		if err != nil {
			return 0, fmt.Errorf("op %d %s %s: %w", i, ops[i].method, ops[i].path, err)
		}
		g.samples = append(g.samples, s)
	}
	return time.Since(t0), nil
}

func (g *loadgen) body(s sample) []byte { return g.buf.Bytes()[s.off:s.end] }

// measured is what the untraced rounds of one workload produced.
type measured struct {
	RoundWallS  []float64 `json:"round_wall_s"`
	RoundSpread float64   `json:"round_spread"` // (median round − fastest round) / fastest round
	Disturbed   bool      `json:"disturbed"`    // RoundSpread above disturbedSpread
	Attempted   int       `json:"attempted"`
	Failed      int       `json:"failed"`
	FirstError  string    `json:"first_error,omitempty"`
	Fingerprint string    `json:"fingerprint"`

	opsPerRound   int
	pairsPerRound int
	respBytes     int
	writes        []time.Duration   // insert latencies of every measured round
	roundReads    [][]time.Duration // read latencies of each measured round
}

// disturbedSpread marks a run whose rounds the host slowed unevenly: the
// rounds of a quiet run are within 1–6 % of the fastest. Metrics of a
// disturbed run are to be read as unresolved, not as a regression.
const disturbedSpread = 0.10

func (m *measured) allReads() []time.Duration { return slices.Concat(m.roundReads...) }

// measure runs 1 warm-up round and n measured rounds and validates every
// response. A transport error aborts; a wrong answer is counted.
func measure(next func() round, g *loadgen, n int) (*measured, error) {
	m := &measured{}
	var sum tally
	for r := 0; r <= n; r++ {
		rd := next()
		wall, err := g.round(rd.ops)
		if err != nil {
			return nil, err
		}
		var rt tally
		var reads []time.Duration
		for i, s := range g.samples {
			t, err := rd.check(i, s.status, g.body(s))
			m.Attempted++
			if err != nil {
				if m.Failed++; m.FirstError == "" {
					m.FirstError = fmt.Sprintf("round %d op %d: %v", r, i, err)
				}
			}
			rt.add(t)
			if r == 0 {
				continue
			}
			m.respBytes += s.end - s.off
			switch {
			case s.kind.read():
				reads = append(reads, s.dur)
			case s.kind == opInsert:
				m.writes = append(m.writes, s.dur)
			}
		}
		if r == 0 {
			continue
		}
		m.RoundWallS = append(m.RoundWallS, wall.Seconds())
		m.roundReads = append(m.roundReads, reads)
		m.opsPerRound, m.pairsPerRound = len(rd.ops), rt.evaluated
		sum.add(rt)
	}
	fastest := slices.Min(m.RoundWallS)
	m.RoundSpread = (median(m.RoundWallS) - fastest) / fastest
	m.Disturbed = m.RoundSpread > disturbedSpread
	m.Fingerprint = fmt.Sprintf("ops=%d candidates=%d refined=%d results=%d",
		n*m.opsPerRound, sum.candidates, sum.refined, sum.results)
	return m, nil
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// percentileMS is the nearest-rank percentile of the latencies, in ms.
func percentileMS(d []time.Duration, p float64) float64 {
	if len(d) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return float64(s[i]) / float64(time.Millisecond)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the artifact of one workload run, written to the out
// directory; result is the driver's line.
type report struct {
	Header   header            `json:"header"`
	Options  options           `json:"options"`
	Workload string            `json:"workload"`
	Loadavg  string            `json:"loadavg_before"`
	SetupS   []float64         `json:"setup_s"`
	Measured *measured         `json:"measured"`
	OKRatio  float64           `json:"ok_ratio"`
	Metrics  map[string]metric `json:"metrics"`
	// Estimators holds the timed end-to-end metrics under the estimators
	// not chosen, so that the choice can be checked on any run's own
	// artifact (-selfcheck prints them beside the metrics).
	Estimators map[string]float64 `json:"estimators,omitempty"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// estimatorNames lists what endToEnd reports beside the metrics: the
// timed quantities under the estimators the issue proposed.
var estimatorNames = []string{"ops_per_s.median_round", "read_p50_ms.all_rounds"}

// endToEnd derives the user-visible metrics and, beside them, the same
// quantities under the estimators not chosen. Rates and the median read
// latency come from the fastest round: the work of a round is fixed, so
// the host's other guests can only add to its time, and on this host they
// do for minutes at a stretch (README has the measurements of both).
func endToEnd(m *measured, setups []float64) (map[string]metric, map[string]float64) {
	wall := slices.Min(m.RoundWallS)
	fastest := slices.Index(m.RoundWallS, wall)
	est := map[string]float64{
		"ops_per_s.median_round": float64(m.opsPerRound) / median(m.RoundWallS),
		"read_p50_ms.all_rounds": percentileMS(m.allReads(), 0.50),
	}
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]metric{
		"setup_s":           {median(setups), "s"},
		"ops_per_s":         {float64(m.opsPerRound) / wall, "1/s"},
		"pairs_per_s":       {float64(m.pairsPerRound) / wall, "1/s"},
		"read_p50_ms":       {percentileMS(m.roundReads[fastest], 0.50), "ms"},
		"resp_bytes_per_op": {float64(m.respBytes) / float64(len(m.RoundWallS)*m.opsPerRound), "B"},
		"heap_live_mb":      {float64(ms.HeapAlloc) / (1 << 20), "MB"},
	}, est
}

// runWorkload is one full run of a workload: set-ups, plan, untraced
// rounds and, with -trace 1, the traced passes and layer metrics.
func runWorkload(e *env, w workload) (*report, error) {
	opt := e.opt
	rep := &report{Header: e.hdr, Options: opt, Workload: w.name, Loadavg: loadavg()}
	setups, rounds := opt.Setups, opt.measuredRounds()
	if opt.Trace == 1 {
		// The traced run reports layers, not set-up or rates: one build
		// and a short untraced baseline for the overhead ratio.
		setups, rounds = 1, min(rounds, 6)
	}
	s, times, err := e.setup(setups)
	if err != nil {
		return nil, err
	}
	defer s.close()
	rep.SetupS = times

	ops := w.ops
	if opt.Ops > 0 {
		ops = opt.Ops
	}
	next, err := w.plan(e, s, opt.Seed, ops)
	if err != nil {
		return nil, err
	}
	g := &loadgen{hc: s.hc, base: s.ts.URL}
	if rep.Measured, err = measure(next, g, rounds); err != nil {
		return nil, err
	}
	if opt.Trace == 1 {
		tops := w.traced
		if opt.Ops > 0 {
			tops = min(tops, opt.Ops)
		}
		tnext, err := w.plan(e, s, opt.Seed, tops)
		if err != nil {
			return nil, err
		}
		if rep.Metrics, err = traced(e, s, w, tnext, g, rep.Measured); err != nil {
			return nil, err
		}
	} else {
		rep.Metrics, rep.Estimators = endToEnd(rep.Measured, times)
	}
	rep.OKRatio = 1 - float64(rep.Measured.Failed)/float64(rep.Measured.Attempted)
	return rep, nil
}

func (r *report) result() result {
	return result{r.Measured.Failed == 0, r.Measured.Attempted, r.Measured.Failed, r.Metrics}
}

func (r *report) summary() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s: ok_ratio %.4f (%d/%d) rounds %.3f..%.3fs  %s\n", r.Workload, r.OKRatio,
		r.Measured.Attempted-r.Measured.Failed, r.Measured.Attempted,
		slices.Min(r.Measured.RoundWallS), slices.Max(r.Measured.RoundWallS), r.Measured.Fingerprint)
	if r.Measured.Disturbed {
		fmt.Fprintf(&b, "  DISTURBED: the median round is %.0f %% slower than the fastest (loadavg before: %s); read the timings as unresolved\n",
			100*r.Measured.RoundSpread, r.Loadavg)
	}
	if r.Measured.FirstError != "" {
		fmt.Fprintf(&b, "  first error: %s\n", r.Measured.FirstError)
	}
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(&b, "  %-38s %14.4f %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	return b.String()
}

func writeJSONFile(path string, data []byte) error {
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
