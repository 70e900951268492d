// Package server is the resident query service over the topology-join
// pipeline: a dataset registry that loads named datasets and builds
// their APRIL approximations and STR R-tree indexes once, an HTTP JSON
// API serving relate probes and dataset-pair joins from those indexes,
// bounded-concurrency admission control, per-request deadlines plumbed
// down to the parallel sweeps (a relate probe is a one-row join on the
// same path as a dataset-pair join), and graceful drain. The batch CLIs rebuild everything per invocation; the
// server amortizes preprocessing across millions of requests, which is
// where filter-and-refine joins actually pay off (cf. Kipf et al.,
// "Adaptive Geospatial Joins for Modern Hardware").
package server

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/april"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/wal"
)

// Entry is one published epoch view of a registered dataset: the
// immutable base indexes — preprocessed objects (MBR + APRIL
// approximation) and the STR R-tree over their MBRs — plus the
// immutable mutation overlay (Delta) accumulated since the base epoch.
// Entries are never mutated after publication, so request handlers
// read them without locks; mutation, compaction and recovery all
// publish a *successor* entry through the slot's atomic pointer, never
// touching a published one.
type Entry struct {
	Dataset *dataset.Dataset
	Tree    *join.RTree
	// BuildTime is how long preprocessing + index build took; it is the
	// cost the server amortizes across requests.
	BuildTime time.Duration
	// Degraded marks an entry serving without APRIL approximations
	// (objects carry empty interval lists) while a background rebuild
	// runs: handlers must force the MBR+refine pipeline (ST2), which
	// never reads approximations, so answers stay correct — just
	// slower.
	Degraded bool

	// Epoch is the compaction generation of the base: 0 for a dataset
	// built straight from source, N after the Nth compaction.
	Epoch uint64
	// Version counts publications of this slot (every mutation,
	// compaction or rebuild swap bumps it): two responses carrying the
	// same version were served from the same published entry.
	Version uint64
	// NextID is the id the next inserted object receives; ids are
	// never reused.
	NextID int
	// Tombs is the cumulative set of deleted ids (persisted with each
	// epoch so a warm start never resurrects them).
	Tombs []int
	// Delta is the mutation overlay since the base epoch; nil when the
	// dataset has no uncompacted mutations (the common case — and the
	// read paths then cost exactly what they did before mutation
	// existed).
	Delta *Delta
	// idIndex maps object id → base array position; nil when ids are
	// positional (fresh unsharded builds).
	idIndex map[int]int32
	// walLSN is the WAL watermark of the base epoch: every WAL record
	// at or below it is folded into the base, so warm-start replay
	// applies only records past it. Zero without a WAL.
	walLSN uint64
}

// slot is one dataset's publication cell: readers load cur with a
// single atomic pointer read and never block; mutation and compaction
// publishes serialize on mu; compacting admits one compactor at a
// time. When a WAL is attached, writers queue on wmu and a rotating
// leader commits whole batches (group commit — see wal.go); idem is
// the recent-mutation dedupe cache behind Idempotency-Key, guarded by
// mu like every publication.
type slot struct {
	mu         sync.Mutex
	cur        atomic.Pointer[Entry]
	compacting atomic.Bool

	wal  *wal.Log
	idem *idemCache

	wmu     sync.Mutex
	wq      []*mutReq
	wleader bool
}

// Registry holds the named datasets a server instance answers queries
// from. All datasets and every probe geometry share one global grid
// (the paper's setup; approximations from different grids are not
// comparable), so the registry owns the april.Builder.
type Registry struct {
	builder *april.Builder

	// snapDir, when non-empty, is the durable snapshot directory:
	// registrations load from it when a valid snapshot exists and
	// persist into it after source builds (see resilience.go).
	snapDir string
	met     *obs.Registry
	logf    func(format string, args ...any)

	// shard, when set, restricts every registration to the objects whose
	// MBR overlaps the assignment's key range (boundary-straddling
	// objects are held by every overlapped shard). Registered objects
	// keep their GLOBAL ids — the index in the full source slice — so
	// per-shard answers merge against single-node answers verbatim.
	shard *shard.Assignment

	mu         sync.RWMutex
	slots      map[string]*slot
	rebuilding map[string]bool
	rebuilds   sync.WaitGroup

	// compactEvery is the auto-compaction threshold: a dataset whose
	// pending op log reaches it gets a background compaction. <= 0
	// disables auto-compaction (explicit Compact calls still work).
	compactEvery int
	compactions  sync.WaitGroup

	// walDir, when non-empty, attaches a write-ahead log to every
	// registered dataset: accepted mutations are fsynced before the
	// ack and replayed over the snapshot epoch on warm start (see
	// wal.go). walMaxSegment is the segment rotation threshold.
	walDir        string
	walMaxSegment int64
}

// DefaultCompactThreshold is the pending-op count that triggers an
// automatic background compaction.
const DefaultCompactThreshold = 4096

// NewRegistry creates a registry whose datasets and probes share a
// 2^order × 2^order grid over the given data space. Geometry reaching
// outside the space is accepted: the parts outside alias onto the
// grid's edge cells, which keeps the approximations conservative (the
// filters stay sound, merely less selective there).
func NewRegistry(space geom.MBR, order uint) *Registry {
	return &Registry{
		builder:      april.NewBuilder(space, order),
		slots:        make(map[string]*slot),
		rebuilding:   make(map[string]bool),
		logf:         func(string, ...any) {},
		compactEvery: DefaultCompactThreshold,
	}
}

// SetCompactThreshold sets the pending-op count that triggers an
// automatic background compaction; n <= 0 disables auto-compaction.
func (g *Registry) SetCompactThreshold(n int) { g.compactEvery = n }

// Instrument mirrors the registry's lifecycle counters (preprocessed
// objects, snapshot loads/writes/corruptions, rebuilds) and the
// degraded-datasets gauge into met.
func (g *Registry) Instrument(met *obs.Registry) { g.met = met }

// SetLogf routes the registry's recovery log lines (quarantines,
// rebuild outcomes) to f; the default discards them.
func (g *Registry) SetLogf(f func(format string, args ...any)) {
	if f != nil {
		g.logf = f
	}
}

func (g *Registry) count(name string, n int64) {
	if g.met != nil {
		g.met.Counter(name).Add(n)
	}
}

// ValidateName rejects dataset names that are empty, over-long, or
// could escape a directory when used as a file stem ("../../etc/…",
// absolute paths, separators, control bytes). Names arrive from network
// requests, CLI flags and file names — all hostile inputs — and are
// later joined into snapshot and quarantine paths, so the gate sits in
// front of every registration.
func ValidateName(name string) error {
	if name == "" {
		return fmt.Errorf("server: dataset name must not be empty")
	}
	if err := snapshot.ValidName(name); err != nil {
		return fmt.Errorf("server: invalid dataset name %q: %w", name, err)
	}
	return nil
}

// Builder exposes the shared approximation builder.
func (g *Registry) Builder() *april.Builder { return g.builder }

// SetShard puts the registry in shard mode: subsequent registrations
// keep only the objects overlapping a's key range. Must be called
// before any dataset is registered.
func (g *Registry) SetShard(a *shard.Assignment) { g.shard = a }

// ownedSubset filters polys down to the shard's share, returning the
// subset and each kept polygon's index in the original slice (its
// global object id). A registry without a shard assignment returns
// (polys, nil): ids stay positional.
func (g *Registry) ownedSubset(polys []*geom.Polygon) ([]*geom.Polygon, []int) {
	if g.shard == nil {
		return polys, nil
	}
	owned := make([]*geom.Polygon, 0, len(polys))
	ids := make([]int, 0, len(polys))
	for i, p := range polys {
		if g.shard.Overlaps(p.Bounds()) {
			owned = append(owned, p)
			ids = append(ids, i)
		}
	}
	return owned, ids
}

// gid maps a subset index to its global object id (identity when the
// registry is not sharded).
func gid(ids []int, i int) int {
	if ids == nil {
		return i
	}
	return ids[i]
}

// Add preprocesses polygons into a named dataset and builds its R-tree.
func (g *Registry) Add(name, entity string, polys []*geom.Polygon) (*Entry, error) {
	owned, ids := g.ownedSubset(polys)
	return g.add(name, entity, owned, ids)
}

// add registers an already-subset polygon slice (ids carry the global
// object ids, nil for unsharded registries).
func (g *Registry) add(name, entity string, polys []*geom.Polygon, ids []int) (*Entry, error) {
	e, err := g.build(name, entity, polys, ids)
	if err != nil {
		return nil, err
	}
	if err := g.insert(name, e); err != nil {
		return nil, err
	}
	return e, nil
}

// build preprocesses polygons into a complete (non-degraded) entry
// without registering it; rasterization cost is counted so warm starts
// can assert they skipped it.
func (g *Registry) build(name, entity string, polys []*geom.Polygon, ids []int) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	start := time.Now()
	ds, err := dataset.Precompute(name, entity, polys, g.builder)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for i, o := range ds.Objects {
		o.ID = gid(ids, i)
	}
	g.count("server_preprocess_objects_total", int64(len(polys)))
	return indexEntry(&Entry{Dataset: ds, Tree: buildTree(ds), BuildTime: time.Since(start)}), nil
}

func buildTree(ds *dataset.Dataset) *join.RTree {
	entries := make([]join.Entry, len(ds.Objects))
	for i, o := range ds.Objects {
		entries[i] = join.Entry{Box: o.MBR, ID: int32(i)}
	}
	return join.BuildRTree(entries)
}

// insert registers a built entry under name, rejecting duplicates.
// With a WAL enabled the dataset's log is opened and its surviving
// records replayed on top of e before the dataset is visible to
// writers — a failure there unregisters the slot again, since serving
// writes we cannot make durable would silently break the ack contract.
func (g *Registry) insert(name string, e *Entry) error {
	g.mu.RLock()
	_, dup := g.slots[name]
	g.mu.RUnlock()
	if dup {
		return fmt.Errorf("server: dataset %s already registered", name)
	}
	sl := &slot{}
	sl.cur.Store(e)
	if g.walDir != "" {
		// Attach before the slot is visible: recovery replay must not
		// race queries or writers, and a dataset whose log cannot open
		// must not serve writes we could never make durable.
		if err := g.attachWAL(name, sl); err != nil {
			return fmt.Errorf("server: wal for dataset %s: %w", name, err)
		}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, dup := g.slots[name]; dup {
		if sl.wal != nil {
			sl.wal.Close()
		}
		return fmt.Errorf("server: dataset %s already registered", name)
	}
	g.slots[name] = sl
	return nil
}

// slot returns the publication cell registered under name (nil when
// unknown).
func (g *Registry) slot(name string) *slot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.slots[name]
}

// LoadFile registers the source dataset in path (see
// dataset.ReadSource), named after the file's basename.
func (g *Registry) LoadFile(path string) (*Entry, error) {
	name, polys, err := dataset.ReadSource(path)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	return g.register(name, name, polys)
}

// LoadDir registers every source file in dir and returns the
// registered names in sorted order.
func (g *Registry) LoadDir(dir string) ([]string, error) {
	files, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, f := range files {
		if f.IsDir() || !dataset.IsSource(f.Name()) {
			continue
		}
		e, err := g.LoadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			return nil, err
		}
		names = append(names, e.Dataset.Name)
	}
	sort.Strings(names)
	return names, nil
}

// Get returns the current epoch entry registered under name: one
// atomic pointer load after the map lookup, so readers never contend
// with mutation or compaction publishes.
func (g *Registry) Get(name string) (*Entry, bool) {
	sl := g.slot(name)
	if sl == nil {
		return nil, false
	}
	return sl.cur.Load(), true
}

// Len returns the number of registered datasets.
func (g *Registry) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.slots)
}

// List describes every registered dataset, sorted by name.
func (g *Registry) List() []DatasetInfo {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]DatasetInfo, 0, len(g.slots))
	for name, sl := range g.slots {
		e := sl.cur.Load()
		sz := e.Dataset.Sizes()
		status := "ok"
		switch {
		case e.Degraded && g.rebuilding[name]:
			status = "rebuilding"
		case e.Degraded:
			status = "degraded"
		}
		info := DatasetInfo{
			Name:        name,
			Entity:      e.Dataset.Entity,
			Objects:     e.Live(),
			Vertices:    sz.Vertices,
			ApproxBytes: sz.Approx,
			BuildMS:     float64(e.BuildTime) / float64(time.Millisecond),
			Status:      status,
			Epoch:       e.Epoch,
			PendingOps:  e.PendingOps(),
		}
		if sl.wal != nil {
			info.WalBytes = sl.wal.Size()
		}
		out = append(out, info)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Probe preprocesses a request geometry on the registry's grid so it
// can run through the filters against any registered dataset. Probe
// objects use ID -1: they exist for one request only.
func (g *Registry) Probe(p *geom.Polygon) (*core.Object, error) {
	return core.NewObject(-1, p, g.builder)
}
