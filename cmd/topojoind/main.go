// Command topojoind is the resident topology query service: it loads
// named datasets, builds their APRIL approximations and STR R-tree
// indexes once, and serves relate probes and dataset-pair joins over an
// HTTP JSON API with bounded concurrency, per-request deadlines and
// graceful drain. The batch CLIs rebuild everything per run; topojoind
// amortizes preprocessing across the life of the process.
//
//	topojoind -data data/                         # serve source datasets
//	topojoind -gen OLE,OPE -scale 0.2             # serve generated synthetic sets
//	topojoind -addr :9090 -max-inflight 32 -timeout 5s -grace 15s
//	topojoind -data data/ -snapshots /var/lib/topojoin  # warm restarts
//
// With -snapshots, preprocessed indexes are persisted as checksummed
// snapshots and restarts load them instead of re-rasterizing; a corrupt
// snapshot is quarantined and its dataset served in degraded mode
// (MBR + refine) while a background rebuild recovers it. -repro names a
// directory receiving WKT dumps of any geometry pair whose evaluation
// panicked. The STJ_FAULTS environment variable arms fault-injection
// points (testing only). With -wal, every accepted mutation is appended
// to a per-dataset write-ahead log and fsynced before the HTTP ack, so
// acked ingest survives a crash: restart replays the log over the last
// snapshot epoch; writers that queue while a commit fsyncs share the
// next batch's fsync. -trace-sample and -trace-slow enable
// request-scoped span tracing (buffer served on /debug/traces);
// -slowlog names a directory receiving slow-query forensics (trace
// JSON + WKT dump of the slowest pair).
//
// Endpoints: /v1/healthz, /v1/datasets, /v1/relate, /v1/join, plus the
// observability surface (/metrics, /metrics.json, /debug/pprof/) on the
// same listener. SIGINT/SIGTERM starts a graceful drain: new requests
// get 503, in-flight requests finish (or are cancelled when -grace
// expires), then the process exits.
//
// With -shard-id and -keyrange the daemon serves as one shard of a
// partitioned fleet behind a topojoinrouter: it registers only the
// objects overlapping its Hilbert key range (boundary-straddling
// objects are replicated onto every overlapped shard) and answers only
// the candidate pairs it owns under the reference-point rule, so the
// router's merged answers match a single full server exactly. Snapshots
// go to a per-shard subdirectory: shards of one fleet can share a
// -snapshots root.
//
//	topojoind -gen OLE,OPE -shard-id 0 -keyrange 0:1365  # shard 0 of 3
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/datagen"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "localhost:8080", "listen address")
		data        = flag.String("data", "", "directory of source datasets to serve ("+strings.Join(dataset.SourceExts, ", ")+")")
		gen         = flag.String("gen", "", "comma-separated synthetic suite sets to generate and serve (e.g. OLE,OPE)")
		seed        = flag.Int64("seed", 2026, "generator seed for -gen")
		scale       = flag.Float64("scale", 0.2, "cardinality multiplier for -gen")
		order       = flag.Uint("order", datagen.DefaultOrder, "global grid order (2^order cells per side)")
		space       = flag.String("space", "", "data space minX,minY,maxX,maxY (default: synthetic suite space)")
		maxInFlight = flag.Int("max-inflight", 0, "max concurrently executing queries (0 = 4×GOMAXPROCS)")
		maxQueue    = flag.Int("max-queue", 0, "max queries waiting for a slot (0 = max-inflight)")
		queueWait   = flag.Duration("queue-wait", 100*time.Millisecond, "max time a query waits for a slot before 429")
		timeout     = flag.Duration("timeout", 10*time.Second, "default per-request deadline")
		maxTimeout  = flag.Duration("max-timeout", time.Minute, "ceiling on client-requested deadlines")
		grace       = flag.Duration("grace", 10*time.Second, "graceful shutdown drain period")
		workers     = flag.Int("workers", 0, "sweep worker-pool size (0 = GOMAXPROCS)")
		snapshots   = flag.String("snapshots", "", "directory of durable index snapshots (warm restarts; empty disables)")
		repro       = flag.String("repro", "", "directory receiving WKT repro dumps of panicking pairs (empty disables)")
		traceSample = flag.Float64("trace-sample", 0, "fraction of requests recording full span traces (0 disables, 1 traces all)")
		traceSlow   = flag.Duration("trace-slow", 0, "keep any request's trace at or above this duration, sampled or not (0 disables)")
		slowlog     = flag.String("slowlog", "", "directory receiving slow-query forensics: trace JSON + WKT pair dumps (needs -trace-slow)")
		compactThr  = flag.Int("compact-threshold", server.DefaultCompactThreshold, "pending mutations before a background compaction rolls a new index epoch (0 disables auto-compaction)")
		shardID     = flag.Int("shard-id", -1, "serve as shard N of a partitioned fleet (-1 = standalone; requires -keyrange)")
		keyrange    = flag.String("keyrange", "", "Hilbert key range lo:hi (half-open) this shard owns (from topojoinrouter -print-plan)")
		routeOrder  = flag.Uint("route-order", shard.DefaultRouteOrder, "Hilbert order of the fleet's routing grid (must match the router)")
		walFlag     = flag.String("wal", "", "directory of per-dataset write-ahead logs: mutations fsync before the ack and replay on restart (empty disables durability)")
		walMaxSeg   = flag.Int64("wal-max-segment", 64<<20, "WAL segment rotation threshold in bytes")
	)
	flag.Parse()
	if *data == "" && *gen == "" {
		fmt.Fprintln(os.Stderr, "topojoind: one of -data or -gen is required")
		os.Exit(2)
	}
	if err := fault.ArmFromEnv(os.Getenv(fault.EnvVar)); err != nil {
		fmt.Fprintln(os.Stderr, "topojoind:", err)
		os.Exit(2)
	}
	asg, err := shardAssignment(*shardID, *keyrange, *routeOrder, *space)
	if err != nil {
		fmt.Fprintln(os.Stderr, "topojoind:", err)
		os.Exit(2)
	}
	var tracer *trace.Tracer
	if *traceSample > 0 || *traceSlow > 0 {
		tracer = trace.New(trace.Config{Sample: *traceSample, SlowThreshold: *traceSlow})
	}
	compactThreshold = *compactThr
	walConf = server.WALOptions{Dir: *walFlag, MaxSegment: *walMaxSeg}
	if err := run(*addr, *data, *gen, *seed, *scale, *order, *space, server.Config{
		MaxInFlight:    *maxInFlight,
		MaxQueue:       *maxQueue,
		QueueWait:      *queueWait,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		JoinWorkers:    *workers,
		ReproDir:       *repro,
		Tracer:         tracer,
		SlowDir:        *slowlog,
		Shard:          asg,
	}, *grace, *snapshots, nil); err != nil {
		fmt.Fprintln(os.Stderr, "topojoind:", err)
		os.Exit(1)
	}
}

// shardAssignment builds the fleet assignment from the shard flags
// (nil when -shard-id is -1). The data space must agree with the
// router's: the key range addresses cells of a grid over that space.
func shardAssignment(id int, keyrange string, routeOrder uint, spaceSpec string) (*shard.Assignment, error) {
	if id < 0 {
		if keyrange != "" {
			return nil, errors.New("-keyrange requires -shard-id")
		}
		return nil, nil
	}
	if keyrange == "" {
		return nil, errors.New("-shard-id requires -keyrange")
	}
	space := datagen.Space()
	if spaceSpec != "" {
		var err error
		if space, err = parseSpace(spaceSpec); err != nil {
			return nil, err
		}
	}
	rng, err := shard.ParseKeyRange(keyrange)
	if err != nil {
		return nil, err
	}
	return shard.NewAssignment(space, routeOrder, id, rng)
}

// buildRegistry assembles the dataset registry from -gen sets and/or a
// -data directory. With snapDir, registrations are snapshot-aware:
// valid snapshots warm-start, corrupt ones quarantine and serve
// degraded while a background rebuild recovers them.
func buildRegistry(data, gen string, seed int64, scale float64, order uint, spaceSpec, snapDir string, asg *shard.Assignment, met *obs.Registry) (*server.Registry, error) {
	space := datagen.Space()
	if spaceSpec != "" {
		var err error
		if space, err = parseSpace(spaceSpec); err != nil {
			return nil, err
		}
	}
	reg := server.NewRegistry(space, order)
	reg.SetCompactThreshold(compactThreshold)
	reg.Instrument(met)
	reg.SetLogf(logf)
	if asg != nil {
		reg.SetShard(asg)
	}
	if snapDir != "" {
		if err := reg.EnableSnapshots(snapDir); err != nil {
			return nil, err
		}
	}
	if walConf.Dir != "" {
		if err := reg.EnableWAL(walConf); err != nil {
			return nil, err
		}
	}
	if gen != "" {
		suite := datagen.NewSuite(seed, scale)
		for _, name := range strings.Split(gen, ",") {
			name = strings.TrimSpace(name)
			polys, ok := suite.Sets[name]
			if !ok {
				return nil, fmt.Errorf("unknown synthetic set %q (have %s)",
					name, strings.Join(datagen.DatasetNames, ","))
			}
			start := time.Now()
			if _, err := reg.Register(name, datagen.EntityTypes[name], polys); err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "generated %s: %d objects, indexed in %v\n",
				name, len(polys), time.Since(start).Round(time.Millisecond))
		}
	}
	if data != "" {
		names, err := reg.LoadDir(data)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "loaded %d datasets from %s: %s\n",
			len(names), data, strings.Join(names, ", "))
	}
	if reg.Len() == 0 {
		return nil, errors.New("no datasets registered")
	}
	return reg, nil
}

func parseSpace(s string) (geom.MBR, error) {
	parts := strings.Split(s, ",")
	if len(parts) != 4 {
		return geom.MBR{}, fmt.Errorf("space: want minX,minY,maxX,maxY, got %q", s)
	}
	var v [4]float64
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return geom.MBR{}, fmt.Errorf("space: %w", err)
		}
		v[i] = f
	}
	return geom.MBR{MinX: v[0], MinY: v[1], MaxX: v[2], MaxY: v[3]}, nil
}

// compactThreshold is the -compact-threshold flag value; a package var
// (not a run parameter) so tests driving buildRegistry/run directly get
// the default without threading one more argument everywhere.
var compactThreshold = server.DefaultCompactThreshold

// walConf carries the -wal flags the same way (zero Dir = durability
// off). Like -snapshots, shards of one fleet may share a -wal root:
// run() appends the per-shard subdirectory.
var walConf server.WALOptions

// logf routes operational log lines (quarantines, rebuilds, recovered
// panics) to stderr.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}

// run serves until SIGINT/SIGTERM, then drains within grace. ready, when
// non-nil, receives the bound address once the listener is up (tests).
func run(addr, data, gen string, seed int64, scale float64, order uint, spaceSpec string, cfg server.Config, grace time.Duration, snapDir string, ready chan<- string) error {
	cfg.Metrics = obs.NewRegistry()
	obs.RegisterRuntimeMetrics(cfg.Metrics)
	cfg.Logf = logf
	if cfg.Shard != nil && snapDir != "" {
		// Shards of one fleet can share a -snapshots root: each key
		// range holds a different object subset, so snapshots must not
		// collide across shards.
		snapDir = filepath.Join(snapDir, fmt.Sprintf("shard-%d", cfg.Shard.Index()))
	}
	if cfg.Shard != nil && walConf.Dir != "" {
		walConf.Dir = filepath.Join(walConf.Dir, fmt.Sprintf("shard-%d", cfg.Shard.Index()))
	}
	reg, err := buildRegistry(data, gen, seed, scale, order, spaceSpec, snapDir, cfg.Shard, cfg.Metrics)
	if err != nil {
		return err
	}
	svc := server.New(reg, cfg)

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: svc.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	if a := cfg.Shard; a != nil {
		fmt.Fprintf(os.Stderr, "topojoind: shard %d owning keyrange %s (route order %d)\n",
			a.Index(), a.Range(), a.RouteOrder())
	}
	fmt.Fprintf(os.Stderr, "topojoind: serving %d datasets on http://%s (grace %v)\n",
		reg.Len(), ln.Addr(), grace)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second signal kills hard
	fmt.Fprintln(os.Stderr, "topojoind: draining...")

	gctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	drainErr := svc.Shutdown(gctx)
	if err := httpSrv.Shutdown(gctx); err != nil && drainErr == nil {
		drainErr = err
	}
	// The listener is down and requests have drained: let background
	// compactions finish (their snapshot writes move the WAL prune
	// watermark), then close the logs. Every acked mutation was fsynced
	// at commit time, so nothing here can lose data.
	reg.WaitCompactions()
	reg.CloseWAL()
	if drainErr != nil {
		return fmt.Errorf("shutdown: %w", drainErr)
	}
	fmt.Fprintln(os.Stderr, "topojoind: drained cleanly")
	return nil
}
