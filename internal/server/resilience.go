// Resilience layer of the registry: durable snapshot warm starts,
// quarantine of corrupt snapshots, degraded (MBR+refine) serving while
// a background rebuild re-rasterizes from source, and the panic barrier
// around that rebuild. The invariant throughout: a corrupt snapshot can
// delay answers — never change them. Every path either serves indexes
// proven bit-exact by checksums, or serves the ST2 pipeline, which
// reads no approximations at all.
package server

import (
	"fmt"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/snapshot"
)

// EnableSnapshots makes the registry persist preprocessed datasets
// under dir and warm-start from them: subsequent registrations check
// dir for a valid snapshot before rasterizing anything. Must be called
// before datasets are registered.
func (g *Registry) EnableSnapshots(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("server: snapshot dir: %w", err)
	}
	g.snapDir = dir
	return nil
}

// SnapshotDir returns the snapshot directory ("" when disabled).
func (g *Registry) SnapshotDir() string { return g.snapDir }

// Register is the resilient registration entry point for callers
// holding source polygons (the daemon's -gen path); see register.
func (g *Registry) Register(name, entity string, polys []*geom.Polygon) (*Entry, error) {
	return g.register(name, entity, polys)
}

// register is the resilient registration path behind Add-from-source
// loaders. Without snapshots it is exactly Add. With snapshots:
//
//   - a valid snapshot on the registry's grid → warm start, zero
//     rasterization;
//   - no snapshot (or one from another grid) → build from source, then
//     persist a fresh snapshot;
//   - a corrupt snapshot → quarantine the file as evidence, serve the
//     dataset degraded (MBR-only objects, handlers force ST2), and
//     rebuild the real indexes in the background, swapping them in and
//     re-snapshotting when done.
func (g *Registry) register(name, entity string, polys []*geom.Polygon) (*Entry, error) {
	// Shard-mode subsetting happens once, here: every path below —
	// warm start, cold build, degraded serving, background rebuild —
	// works on the owned subset with its global ids.
	polys, ids := g.ownedSubset(polys)
	if g.snapDir == "" {
		return g.add(name, entity, polys, ids)
	}
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	path, err := snapshot.DatasetPath(g.snapDir, name)
	if err != nil {
		return nil, err
	}

	snap, rerr := snapshot.Read(path)
	switch {
	case rerr == nil:
		if e, ok := g.tryWarmStart(name, entity, snap, polys, ids); ok {
			return e, nil
		}
		// Grid or contents mismatch: the snapshot is internally valid
		// but stale (built for another space/order or another source).
		// Rebuild from source and overwrite it below.
		g.logf("server: snapshot %s is stale, rebuilding from source", path)
	case os.IsNotExist(rerr):
		// Cold start: build and persist below.
	case snapshot.IsCorrupt(rerr):
		g.count("server_snapshot_corrupt_total", 1)
		qpath, qerr := snapshot.Quarantine(path)
		if qerr != nil {
			g.logf("server: quarantine of %s failed: %v", path, qerr)
		} else {
			g.logf("server: %v — quarantined to %s", rerr, qpath)
		}
		return g.serveDegraded(name, entity, polys, ids)
	default:
		// I/O trouble reading the snapshot (permissions, device): treat
		// like a cold start rather than failing the dataset.
		g.logf("server: snapshot %s unreadable (%v), rebuilding from source", path, rerr)
	}

	e, err := g.add(name, entity, polys, ids)
	if err != nil {
		return nil, err
	}
	g.writeSnapshotMeta(name, e.Dataset, snapshot.EpochMeta{NextID: e.NextID})
	return e, nil
}

// tryWarmStart registers the snapshot contents if they match the
// registry's grid; reports success.
//
// Epoch-0 snapshots describe exactly what a source build would produce,
// so they are additionally checked against the (owned subset of the)
// source polygons object by object: the per-object id and MBR
// comparison rejects a snapshot of a different subset (e.g. one written
// under another key range).
//
// Epoch-N snapshots (N > 0) carry mutations the source files never saw:
// the snapshot is the *newer* truth, fully checksummed, so it is
// trusted outright — comparing against source would wrongly classify
// every mutated dataset as stale and silently discard its mutations.
// Warm start therefore resumes from the latest complete epoch, with
// NextID and the tombstone set restored so ids are never reused.
func (g *Registry) tryWarmStart(name, entity string, snap *snapshot.Snapshot, polys []*geom.Polygon, ids []int) (*Entry, bool) {
	grid := g.builder.Grid()
	if snap.Space != grid.Space() || snap.Order != grid.Order() {
		return nil, false
	}
	if snap.Name != name {
		return nil, false
	}
	start := time.Now()
	ds := snap.Dataset
	ds.Entity = entity
	if snap.EpochMeta.Epoch == 0 {
		if len(ds.Objects) != len(polys) {
			return nil, false
		}
		for j, o := range ds.Objects {
			if o.ID != gid(ids, j) || o.MBR != polys[j].Bounds() {
				return nil, false
			}
		}
	}
	e := indexEntry(&Entry{
		Dataset:   ds,
		Tree:      buildTree(ds),
		BuildTime: time.Since(start),
		Epoch:     snap.EpochMeta.Epoch,
		NextID:    snap.EpochMeta.NextID,
		Tombs:     snap.EpochMeta.Tombs,
		walLSN:    snap.EpochMeta.WalLSN,
	})
	if err := g.insert(name, e); err != nil {
		return nil, false
	}
	g.count("server_snapshot_loads_total", 1)
	if e.Epoch > 0 {
		g.logf("server: dataset %s warm-started from epoch %d snapshot (%d objects)", name, e.Epoch, ds.Len())
	} else {
		g.logf("server: dataset %s warm-started from snapshot (%d objects)", name, ds.Len())
	}
	return e, true
}

// serveDegraded registers an MBR-only entry (no approximations built —
// cheap) and kicks off the background rebuild. Queries against it are
// answered by the ST2 pipeline: sound, just slower.
func (g *Registry) serveDegraded(name, entity string, polys []*geom.Polygon, ids []int) (*Entry, error) {
	e, err := g.addDegraded(name, entity, polys, ids)
	if err != nil {
		return nil, err
	}
	g.startRebuild(name, entity, polys, ids)
	return e, nil
}

// AddDegraded registers a dataset without building approximations:
// objects carry their exact geometry and MBR only, with empty interval
// lists. The entry is marked Degraded so handlers force the MBR+refine
// pipeline (an empty conservative list would make the APRIL filter
// unsound: empty overlap reads as "definitely disjoint").
func (g *Registry) AddDegraded(name, entity string, polys []*geom.Polygon) (*Entry, error) {
	owned, ids := g.ownedSubset(polys)
	return g.addDegraded(name, entity, owned, ids)
}

func (g *Registry) addDegraded(name, entity string, polys []*geom.Polygon, ids []int) (*Entry, error) {
	if err := ValidateName(name); err != nil {
		return nil, err
	}
	start := time.Now()
	arena := geom.BuildArena(polys)
	ds := &dataset.Dataset{Name: name, Entity: entity, Arena: arena,
		Objects: make([]*core.Object, 0, len(polys))}
	for i := range polys {
		p := arena.Polygon(i)
		ds.Objects = append(ds.Objects, &core.Object{ID: gid(ids, i), Poly: p, MBR: p.Bounds()})
	}
	// indexEntry matters here: without it a degraded entry would hand
	// out NextID 0 and a degraded-mode insert would collide with a base
	// object's id.
	e := indexEntry(&Entry{Dataset: ds, Tree: buildTree(ds), BuildTime: time.Since(start), Degraded: true})
	if err := g.insert(name, e); err != nil {
		return nil, err
	}
	g.count("server_degraded_starts_total", 1)
	g.updateDegradedGauge()
	return e, nil
}

// startRebuild launches the background re-preprocessing of a degraded
// dataset behind a recover barrier: a panicking rebuild is recorded and
// the dataset stays degraded; the process never dies.
func (g *Registry) startRebuild(name, entity string, polys []*geom.Polygon, ids []int) {
	g.mu.Lock()
	if g.rebuilding[name] {
		g.mu.Unlock()
		return
	}
	g.rebuilding[name] = true
	g.mu.Unlock()
	g.updateDegradedGauge()

	g.rebuilds.Add(1)
	go func() {
		defer g.rebuilds.Done()
		defer func() {
			if r := recover(); r != nil {
				g.count("server_rebuild_panics_total", 1)
				g.logf("server: rebuild of %s panicked (dataset stays degraded): %v", name, r)
			}
			g.mu.Lock()
			delete(g.rebuilding, name)
			g.mu.Unlock()
			g.updateDegradedGauge()
		}()
		if err := fault.Check("registry.rebuild"); err != nil {
			panic(err)
		}
		e, err := g.build(name, entity, polys, ids)
		if err != nil {
			g.count("server_rebuild_failures_total", 1)
			g.logf("server: rebuild of %s failed (dataset stays degraded): %v", name, err)
			return
		}
		sl := g.slot(name)
		if sl == nil {
			return
		}
		// Snapshot metadata is captured from the source-built entry
		// before the swap: the snapshot persists the rebuilt base only,
		// and mutations accepted while degraded stay volatile until the
		// next compaction (same durability contract as normal serving).
		em := snapshot.EpochMeta{Epoch: e.Epoch, NextID: e.NextID, Tombs: e.Tombs}
		// Publish under the slot mutex so the swap can't race a writer:
		// mutations accepted while the dataset served degraded live in
		// the current entry's delta and must survive the swap.
		sl.mu.Lock()
		if cur := sl.cur.Load(); cur != nil {
			e.Delta = cur.Delta
			e.Tombs = cur.Tombs
			e.Epoch = cur.Epoch
			e.walLSN = cur.walLSN
			if cur.NextID > e.NextID {
				e.NextID = cur.NextID
			}
			e.Version = cur.Version + 1
		}
		sl.cur.Store(e)
		sl.mu.Unlock()
		g.count("server_rebuilds_total", 1)
		g.logf("server: dataset %s recovered from degraded mode in %v", name, e.BuildTime)
		g.writeSnapshotMeta(name, e.Dataset, em)
	}()
}

// WaitRebuilds blocks until every background rebuild in flight has
// finished (drain paths and tests).
func (g *Registry) WaitRebuilds() { g.rebuilds.Wait() }

// writeSnapshotMeta persists a dataset together with its epoch
// metadata; failures are counted and logged but never fail the caller —
// the snapshot is an optimization (and, for epochs, a durability
// checkpoint), not a source of truth for the running process. The
// returned bool reports whether the epoch is durably on disk: only
// then may the WAL prune the records the epoch covers.
func (g *Registry) writeSnapshotMeta(name string, ds *dataset.Dataset, em snapshot.EpochMeta) bool {
	if g.snapDir == "" {
		return false
	}
	path, err := snapshot.DatasetPath(g.snapDir, name)
	if err == nil {
		grid := g.builder.Grid()
		err = snapshot.WriteEpoch(path, ds, grid.Space(), grid.Order(), em)
	}
	if err != nil {
		g.count("server_snapshot_write_failures_total", 1)
		g.logf("server: writing snapshot for %s failed: %v", name, err)
		return false
	}
	g.count("server_snapshot_writes_total", 1)
	return true
}

// States lists the currently degraded and rebuilding dataset names,
// sorted (the /v1/healthz payload).
func (g *Registry) States() (degraded, rebuilding []string) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for name, sl := range g.slots {
		e := sl.cur.Load()
		if e == nil || !e.Degraded {
			continue
		}
		if g.rebuilding[name] {
			rebuilding = append(rebuilding, name)
		} else {
			degraded = append(degraded, name)
		}
	}
	sort.Strings(degraded)
	sort.Strings(rebuilding)
	return degraded, rebuilding
}

func (g *Registry) updateDegradedGauge() {
	if g.met == nil {
		return
	}
	g.mu.RLock()
	var n, reb int64
	for name, sl := range g.slots {
		if e := sl.cur.Load(); e != nil && e.Degraded {
			n++
		}
		if g.rebuilding[name] {
			reb++
		}
	}
	g.mu.RUnlock()
	g.met.Gauge("server_datasets_degraded").Set(n)
	g.met.Gauge("server_datasets_rebuilding").Set(reb)
}
