// Copy-on-write index epochs: the registry's mutation layer. Every
// published *Entry is an immutable epoch view — base indexes plus an
// immutable Delta overlay — swapped in with a single atomic pointer
// store, so readers grab one pointer and see one consistent state
// while writers publish successors. Mutations (insert/upsert/delete)
// re-rasterize only the dirty object (the paper's approximations are
// strictly per object, so incremental maintenance needs no global
// work), accumulate in the delta, and a compactor folds the delta into
// a fresh base — epoch N+1 — in the background, replaying the ops that
// arrived while it merged, then persists the new epoch through
// internal/snapshot. Readers never block: they are either entirely on
// epoch N or entirely on N+1.
package server

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/snapshot"
)

// MutKind selects a mutation operation.
type MutKind uint8

const (
	// MutInsert adds a new object under a fresh id.
	MutInsert MutKind = iota
	// MutUpsert creates or replaces the object with a given id.
	MutUpsert
	// MutDelete removes the object with a given id.
	MutDelete
)

func (k MutKind) String() string {
	switch k {
	case MutInsert:
		return "insert"
	case MutUpsert:
		return "upsert"
	case MutDelete:
		return "delete"
	default:
		return fmt.Sprintf("MutKind(%d)", uint8(k))
	}
}

// Mutation errors, mapped to HTTP statuses by the ingest handlers.
var (
	// ErrNoDataset reports a mutation against an unregistered dataset.
	ErrNoDataset = errors.New("server: unknown dataset")
	// ErrNoObject reports a delete of an id that is not live.
	ErrNoObject = errors.New("server: unknown object id")
	// ErrNotDurable reports a mutation that applied cleanly but could
	// not be made durable (WAL append or fsync failed): nothing was
	// published, the client must retry. Mapped to 503.
	ErrNotDurable = errors.New("server: mutation not durable")
)

// mutation is one entry of a delta's append-only op log. The log since
// the base epoch is what the compactor replays: it snapshots the log
// length, merges offline, then re-applies ops[snapLen:] — the ops that
// raced the merge — onto the new base before publishing.
type mutation struct {
	kind MutKind
	id   int
	obj  *core.Object // prepared dirty object; nil for delete
	// lsn is the op's WAL sequence number (0 when the dataset is
	// served without a WAL). Compaction persists the last folded op's
	// lsn as the snapshot watermark, so warm-start replay skips
	// everything the epoch already contains.
	lsn uint64
}

// Delta is the immutable mutation overlay of a published entry: the
// live delta objects with a side R-tree over their MBRs (entry IDs are
// positions in Objects), a tombstone bitset over base positions, and
// the op log since the base epoch. Every mutation builds a fresh Delta
// (copy-on-write) so readers holding the previous entry keep a frozen
// view; deltas are expected to stay small between compactions, so the
// O(delta) copy per mutation is the price of lock-free reads.
type Delta struct {
	Objects []*core.Object
	Tree    *join.RTree
	// dead is a bitset over base object positions: set bits are
	// tombstoned (deleted, or superseded by a delta object with the
	// same id).
	dead      []uint64
	deadCount int
	// idx maps a live delta object's id to its position in Objects.
	idx map[int]int32
	// ops is the append-only mutation log since the base epoch.
	// Successive deltas share the array as a growing prefix.
	ops []mutation
}

// clone copies the delta's object list, tombstones and id index for a
// copy-on-write mutation; the op log is carried as the shared prefix.
func (d *Delta) clone(basePositions int) *Delta {
	nd := &Delta{}
	if d != nil {
		nd.Objects = append(make([]*core.Object, 0, len(d.Objects)+1), d.Objects...)
		nd.dead = append([]uint64(nil), d.dead...)
		nd.deadCount = d.deadCount
		nd.idx = make(map[int]int32, len(d.idx)+1)
		for id, p := range d.idx {
			nd.idx[id] = p
		}
		nd.ops = d.ops
	} else {
		nd.idx = make(map[int]int32, 1)
	}
	if want := (basePositions + 63) / 64; len(nd.dead) < want {
		nd.dead = append(nd.dead, make([]uint64, want-len(nd.dead))...)
	}
	return nd
}

func (d *Delta) setDead(pos int32) {
	w := int(pos) >> 6
	if d.dead[w]&(1<<(uint(pos)&63)) == 0 {
		d.dead[w] |= 1 << (uint(pos) & 63)
		d.deadCount++
	}
}

func (d *Delta) isDead(pos int32) bool {
	w := int(pos) >> 6
	return w < len(d.dead) && d.dead[w]&(1<<(uint(pos)&63)) != 0
}

// seal rebuilds the side tree over the (possibly re-positioned) delta
// objects and returns the delta. An empty overlay keeps a nil tree.
func (d *Delta) seal() *Delta {
	if len(d.Objects) == 0 {
		d.Tree = nil
		return d
	}
	entries := make([]join.Entry, len(d.Objects))
	for i, o := range d.Objects {
		entries[i] = join.Entry{Box: o.MBR, ID: int32(i)}
	}
	d.Tree = join.BuildRTree(entries)
	return d
}

// View assembles the entry's merged read view: one value carrying the
// base tree, the tombstone bitset and the delta side tree. Requests
// resolve it once from the atomically loaded entry, so every candidate
// they generate comes from the same epoch.
func (e *Entry) View() join.View {
	v := join.View{Base: e.Tree}
	if d := e.Delta; d != nil {
		if d.deadCount > 0 {
			v.Dead = d.dead
		}
		v.Side = d.Tree
	}
	return v
}

// objAt resolves a view entry to its object: delta entries index the
// delta's object array, base entries the dataset's.
func (e *Entry) objAt(delta bool, id int32) *core.Object {
	if delta {
		return e.Delta.Objects[id]
	}
	return e.Dataset.Objects[id]
}

// Live returns the number of live objects the entry serves (base minus
// tombstones plus delta).
func (e *Entry) Live() int {
	n := len(e.Dataset.Objects)
	if d := e.Delta; d != nil {
		n += len(d.Objects) - d.deadCount
	}
	return n
}

// PendingOps returns the length of the entry's uncompacted op log.
func (e *Entry) PendingOps() int {
	if e.Delta == nil {
		return 0
	}
	return len(e.Delta.ops)
}

// basePos maps an object id to its base array position.
func (e *Entry) basePos(id int) (int32, bool) {
	if e.idIndex != nil {
		p, ok := e.idIndex[id]
		return p, ok
	}
	if id >= 0 && id < len(e.Dataset.Objects) {
		return int32(id), true
	}
	return 0, false
}

// indexEntry fills an entry's mutation bookkeeping: NextID (one past
// the highest id, never below a carried value) and idIndex (nil when
// ids are positional — the common fresh-build case, where basePos
// needs no map).
func indexEntry(e *Entry) *Entry {
	next := e.NextID
	identity := true
	for i, o := range e.Dataset.Objects {
		if o.ID != i {
			identity = false
		}
		if o.ID >= next {
			next = o.ID + 1
		}
	}
	e.NextID = next
	if !identity {
		idx := make(map[int]int32, len(e.Dataset.Objects))
		for i, o := range e.Dataset.Objects {
			idx[o.ID] = int32(i)
		}
		e.idIndex = idx
	}
	return e
}

// MutationResult reports one applied mutation.
type MutationResult struct {
	ID      int
	Epoch   uint64
	Version uint64
	// Created is false when an upsert replaced an existing object.
	Created bool
	// Pending is the op-log length after this mutation (what the
	// compaction threshold watches).
	Pending int
	// Deduped is true when the mutation was not applied because its
	// idempotency key matched an already-committed mutation; the rest
	// of the result replays that mutation's outcome.
	Deduped bool
}

// Mutate applies one mutation to a registered dataset and publishes
// the successor entry. For insert and upsert, poly is validated and
// rasterized on the registry's grid *outside* the publication lock —
// only the delta bookkeeping and the atomic store are serialized.
func (g *Registry) Mutate(name string, kind MutKind, id int, poly *geom.Polygon) (MutationResult, error) {
	return g.MutateKey(name, kind, id, poly, "")
}

// MutateKey is Mutate with an optional idempotency key. A non-empty
// key is remembered with the mutation's result (surviving restarts
// when a WAL is enabled, since the key rides in the WAL record): a
// later mutation carrying the same key is not applied again — it
// replays the recorded result with Deduped set, which is what makes a
// client retry of a non-idempotent insert safe.
func (g *Registry) MutateKey(name string, kind MutKind, id int, poly *geom.Polygon, key string) (MutationResult, error) {
	sl := g.slot(name)
	if sl == nil {
		return MutationResult{}, fmt.Errorf("%w %q", ErrNoDataset, name)
	}
	var obj *core.Object
	if kind != MutDelete {
		if poly == nil {
			return MutationResult{}, fmt.Errorf("server: %s requires a geometry", kind)
		}
		if err := geom.ValidatePolygon(poly); err != nil {
			return MutationResult{}, fmt.Errorf("server: invalid geometry: %w", err)
		}
		var err error
		if obj, err = core.NewObject(id, poly, g.builder); err != nil {
			return MutationResult{}, fmt.Errorf("server: %w", err)
		}
	}
	if kind != MutInsert && id < 0 {
		return MutationResult{}, fmt.Errorf("server: %s requires a non-negative id", kind)
	}
	if sl.wal != nil {
		// Durable path: group-commit through the slot's WAL — apply,
		// append, fsync, then publish (see wal.go).
		return g.mutateDurable(name, sl, kind, id, obj, key)
	}

	sl.mu.Lock()
	if res, ok := sl.idem.get(key); ok {
		sl.mu.Unlock()
		g.count("server_ingest_deduped_total", 1)
		return res, nil
	}
	cur := sl.cur.Load()
	ne, res, err := applyMutation(cur, mutation{kind: kind, id: id, obj: obj})
	if err != nil {
		sl.mu.Unlock()
		return MutationResult{}, err
	}
	sl.cur.Store(ne)
	if key != "" {
		sl.remember(key, res)
	}
	sl.mu.Unlock()

	g.count("server_ingest_total{op=\""+kind.String()+"\"}", 1)
	g.maybeCompact(name, sl, res.Pending)
	return res, nil
}

// applyMutation derives the successor entry of e under m: a shallow
// entry copy with a fresh delta. Caller serializes (the slot lock) and
// publishes. An insert's object gets its id here, before anything can
// publish it; every other path only reads the object, because it may
// already be visible to readers. Replays (WAL recovery, a compaction's
// residual ops) therefore apply a logged insert as an upsert with its
// recorded id.
func applyMutation(e *Entry, m mutation) (*Entry, MutationResult, error) {
	ne := *e
	ne.Version = e.Version + 1
	d := e.Delta.clone(len(e.Dataset.Objects))
	res := MutationResult{Created: true}

	switch m.kind {
	case MutInsert:
		m.id = ne.NextID
		ne.NextID++
		m.obj.ID = m.id
		d.idx[m.id] = int32(len(d.Objects))
		d.Objects = append(d.Objects, m.obj)

	case MutUpsert:
		if pos, ok := e.basePos(m.id); ok {
			if !d.isDead(pos) {
				d.setDead(pos) // supersede the base copy
				res.Created = false
			}
		}
		if dp, ok := d.idx[m.id]; ok {
			d.Objects[dp] = m.obj
			res.Created = false
		} else {
			d.idx[m.id] = int32(len(d.Objects))
			d.Objects = append(d.Objects, m.obj)
		}
		if m.id >= ne.NextID {
			ne.NextID = m.id + 1
		}
		if res.Created {
			// Reviving a tombstoned id: it is live again, so it leaves
			// the cumulative tombstone set.
			ne.Tombs = removeTomb(ne.Tombs, m.id)
		}

	case MutDelete:
		res.Created = false
		switch dp, ok := d.idx[m.id]; {
		case ok:
			d.Objects = append(d.Objects[:dp], d.Objects[dp+1:]...)
			delete(d.idx, m.id)
			for oid, p := range d.idx {
				if p > dp {
					d.idx[oid] = p - 1
				}
			}
		default:
			pos, ok := e.basePos(m.id)
			if !ok || d.isDead(pos) {
				return nil, res, fmt.Errorf("%w %d in %s", ErrNoObject, m.id, e.Dataset.Name)
			}
			d.setDead(pos)
		}
		ne.Tombs = appendTomb(e.Tombs, m.id)

	default:
		return nil, res, fmt.Errorf("server: unknown mutation kind %d", m.kind)
	}

	d.ops = append(d.ops, m)
	ne.Delta = d.seal()
	res.ID = m.id
	res.Epoch = ne.Epoch
	res.Version = ne.Version
	res.Pending = len(d.ops)
	return &ne, res, nil
}

// appendTomb returns a copy of tombs with id added (entries stay
// unique; the slice is copy-on-write like everything an entry holds).
func appendTomb(tombs []int, id int) []int {
	out := make([]int, 0, len(tombs)+1)
	out = append(out, tombs...)
	for _, t := range out {
		if t == id {
			return out
		}
	}
	return append(out, id)
}

// removeTomb returns a copy of tombs without id.
func removeTomb(tombs []int, id int) []int {
	out := make([]int, 0, len(tombs))
	for _, t := range tombs {
		if t != id {
			out = append(out, t)
		}
	}
	return out
}

// CompactStats reports one compaction.
type CompactStats struct {
	// Epoch is the epoch serving after the call (bumped by one when a
	// merge happened).
	Epoch uint64
	// Compacted is the number of delta ops folded into the new base;
	// zero means there was nothing to do (or another compaction was
	// already running).
	Compacted int
	// Objects is the live object count of the serving base.
	Objects int
	// Elapsed is the offline merge + replay time.
	Elapsed time.Duration
}

// Compact folds a dataset's delta overlay into a fresh base and
// publishes it as epoch N+1. The expensive merge — new arena (slab
// copies for surviving base runs), new STR R-tree, approximations
// carried over untouched — runs without any lock held while readers
// keep serving epoch N and writers keep appending to its delta; only
// the residual op replay and the atomic pointer store are serialized.
// The new epoch is then persisted through the snapshot layer (see
// WriteEpoch): a crash at any point leaves the previous complete epoch
// on disk. At most one compaction per dataset runs at a time; a
// concurrent call is a no-op.
func (g *Registry) Compact(name string) (CompactStats, error) {
	sl := g.slot(name)
	if sl == nil {
		return CompactStats{}, fmt.Errorf("%w %q", ErrNoDataset, name)
	}
	if !sl.compacting.CompareAndSwap(false, true) {
		cur := sl.cur.Load()
		return CompactStats{Epoch: cur.Epoch, Objects: cur.Live()}, nil
	}
	defer sl.compacting.Store(false)

	base := sl.cur.Load()
	if base.Degraded {
		// A degraded base has no approximations to carry over; the
		// background rebuild recovers it first, carrying the delta.
		return CompactStats{Epoch: base.Epoch, Objects: base.Live()},
			fmt.Errorf("server: dataset %s is degraded; compaction deferred", name)
	}
	if base.PendingOps() == 0 {
		return CompactStats{Epoch: base.Epoch, Objects: base.Live()}, nil
	}
	start := time.Now()
	snapLen := len(base.Delta.ops)

	// Offline merge against the frozen base epoch: no locks held,
	// readers and writers undisturbed.
	merged := base.Dataset.Merge(base.Delta.dead, base.Delta.Objects)
	ne := indexEntry(&Entry{
		Dataset:   merged,
		Tree:      buildTree(merged),
		BuildTime: base.BuildTime,
		Epoch:     base.Epoch + 1,
		NextID:    base.NextID,
		Tombs:     base.Tombs,
		// The folded ops are durable in the new base once snapshotted:
		// the last one's WAL sequence number is the epoch's watermark
		// (zero without a WAL — ops then carry no lsn).
		walLSN: base.Delta.ops[snapLen-1].lsn,
	})
	em := snapshot.EpochMeta{Epoch: ne.Epoch, NextID: ne.NextID, Tombs: ne.Tombs, WalLSN: ne.walLSN}

	// Publish: replay the ops that raced the merge onto the new base,
	// then swap the pointer. The replayed log is a suffix of the
	// current delta's log — deltas share the op array as a growing
	// prefix, so ops[snapLen:] is exactly what the merge missed.
	sl.mu.Lock()
	cur := sl.cur.Load()
	resid := cur.Delta.ops[snapLen:]
	for _, op := range resid {
		if op.kind == MutInsert {
			op.kind = MutUpsert // op.id was assigned when it first applied
		}
		var err error
		if ne, _, err = applyMutation(ne, op); err != nil {
			sl.mu.Unlock()
			g.count("server_compaction_failures_total", 1)
			return CompactStats{Epoch: cur.Epoch, Objects: cur.Live()},
				fmt.Errorf("server: compaction of %s: residual replay: %w", name, err)
		}
	}
	ne.Version = cur.Version + 1
	sl.cur.Store(ne)
	sl.mu.Unlock()

	elapsed := time.Since(start)
	g.count("server_compactions_total", 1)
	g.logf("server: dataset %s compacted to epoch %d (%d ops folded, %d residual, %d objects) in %v",
		name, ne.Epoch, snapLen, len(resid), merged.Len(), elapsed)

	// Persist the complete epoch (the merged base, not the residual
	// delta) outside every lock. A crash mid-write leaves the previous
	// epoch's file intact — warm start resumes from there. Only once
	// the epoch is durably on disk may the WAL shed the records it
	// covers; if the snapshot write failed (or snapshots are off) the
	// log keeps them, and the next restart replays instead.
	if g.writeSnapshotMeta(name, merged, em) && sl.wal != nil && em.WalLSN > 0 {
		if err := sl.wal.Prune(em.WalLSN); err != nil {
			g.logf("server: wal prune of %s through lsn %d: %v", name, em.WalLSN, err)
		}
	}
	return CompactStats{Epoch: ne.Epoch, Compacted: snapLen, Objects: ne.Live(), Elapsed: elapsed}, nil
}

// maybeCompact starts a background compaction when the pending op log
// crossed the registry's threshold and none is running.
func (g *Registry) maybeCompact(name string, sl *slot, pending int) {
	if g.compactEvery <= 0 || pending < g.compactEvery || sl.compacting.Load() {
		return
	}
	g.compactions.Add(1)
	go func() {
		defer g.compactions.Done()
		defer func() {
			if r := recover(); r != nil {
				g.count("server_compaction_failures_total", 1)
				g.logf("server: compaction of %s panicked: %v", name, r)
			}
		}()
		if _, err := g.Compact(name); err != nil {
			g.logf("server: %v", err)
		}
	}()
}

// WaitCompactions blocks until every background compaction in flight
// has finished (drain paths and tests).
func (g *Registry) WaitCompactions() { g.compactions.Wait() }
