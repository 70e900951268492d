// Durable ingest: the registry's write-ahead-log layer. With a WAL
// enabled every accepted mutation is appended to the dataset's log and
// fsynced *before* it is published (and before the HTTP ack), so a
// crash between an ack and the next compaction loses nothing — warm
// start loads the last complete snapshot epoch and replays the log's
// suffix through the ordinary mutation path.
//
// Writers group-commit: concurrent mutations queue on the slot and a
// rotating leader drains the queue, applies the whole batch, writes it
// as one WAL append (one fsync), publishes, and wakes every waiter.
// Each leader commits exactly the batch containing its own request,
// then hands leadership to the first waiter of the next batch — under
// sustained load the fsync cost amortizes across the batch without any
// request being able to capture the leader role forever.
//
// Ordering is the crash-consistency contract: apply (build successor
// entries in memory) → append+fsync → publish → ack. A failed append
// or fsync publishes nothing and surfaces ErrNotDurable (HTTP 503,
// never a silent ack); reads keep serving the last published state.
package server

import (
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// WALOptions configures EnableWAL.
type WALOptions struct {
	// Dir is the log directory (per-dataset segment files inside).
	Dir string
	// MaxSegment is the segment rotation threshold in bytes. Zero
	// uses a default of 64 MiB.
	MaxSegment int64
}

// EnableWAL makes the registry journal every accepted mutation to a
// per-dataset write-ahead log under o.Dir, fsynced before the ack, and
// replay surviving records over the snapshot epoch when a dataset
// registers. Must be called before datasets are registered (the log is
// opened and replayed at registration time).
func (g *Registry) EnableWAL(o WALOptions) error {
	if o.Dir == "" {
		return fmt.Errorf("server: wal dir must not be empty")
	}
	if g.Len() > 0 {
		return fmt.Errorf("server: EnableWAL must precede dataset registration")
	}
	if err := os.MkdirAll(o.Dir, 0o755); err != nil {
		return fmt.Errorf("server: wal dir: %w", err)
	}
	g.walDir = o.Dir
	g.walMaxSegment = o.MaxSegment
	if g.walMaxSegment <= 0 {
		g.walMaxSegment = 64 << 20
	}
	if g.met != nil {
		g.met.GaugeFunc("wal_pending_bytes", g.WalPendingBytes)
	}
	return nil
}

// WalPendingBytes is the total on-disk size of every dataset's log:
// bytes of acked mutations not yet folded into a durable epoch.
func (g *Registry) WalPendingBytes() int64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	var total int64
	for _, sl := range g.slots {
		if sl.wal != nil {
			total += sl.wal.Size()
		}
	}
	return total
}

// CloseWAL closes every dataset's log (drain path: call after the
// listener is down and WaitCompactions has returned). Appends were
// fsynced when acked, so close loses nothing.
func (g *Registry) CloseWAL() {
	g.mu.RLock()
	defer g.mu.RUnlock()
	for name, sl := range g.slots {
		if sl.wal == nil {
			continue
		}
		if err := sl.wal.Close(); err != nil {
			g.logf("server: closing wal of %s: %v", name, err)
		}
	}
}

// attachWAL opens (and recovers) the dataset's log and replays every
// surviving record past the entry's snapshot watermark through the
// ordinary mutation path, then arms the slot for durable ingest. The
// slot is not yet published, so no lock discipline applies.
func (g *Registry) attachWAL(name string, sl *slot) error {
	floor := sl.cur.Load().walLSN
	l, recs, err := wal.Open(g.walDir, name, wal.Options{
		MaxSegment: g.walMaxSegment,
		Floor:      floor,
		Logf:       g.logf,
		OnFsync: func(d time.Duration) {
			if g.met != nil {
				g.met.Histogram("wal_fsync_seconds", obs.DurationBuckets).Observe(d.Seconds())
			}
		},
	})
	if err != nil {
		return err
	}
	replayed, skipped := 0, 0
	for _, rec := range recs {
		if rec.LSN <= floor {
			skipped++
			continue
		}
		if err := g.replayRecord(sl, rec); err != nil {
			// A record that no longer applies (e.g. a delete whose id
			// the snapshot epoch already folded away under a later
			// LSN) is diagnostic, not fatal: the epoch is the newer
			// truth for everything at or below its watermark, and
			// semantic replay failures past it mean the log and
			// snapshot disagree — log loudly, serve what we can.
			g.count("wal_replay_failures_total", 1)
			g.logf("server: wal replay %s lsn %d (%s id %d): %v — skipped",
				name, rec.LSN, MutKind(rec.Kind), rec.ID, err)
			continue
		}
		replayed++
	}
	sl.wal = l
	g.count("wal_replayed_total", int64(replayed))
	if replayed > 0 || skipped > 0 {
		e := sl.cur.Load()
		g.logf("server: dataset %s: replayed %d wal records over epoch %d (%d below watermark %d skipped), %d pending ops",
			name, replayed, e.Epoch, skipped, floor, e.PendingOps())
	}
	return nil
}

// replayRecord applies one recovered WAL record. A logged insert
// replays as an upsert with its recorded id: applyMutation would
// otherwise assign a fresh id, and the upsert path reproduces both the
// id and the NextID advance exactly. Idempotency keys re-enter the
// dedupe cache so a client retry straddling the crash still dedupes.
func (g *Registry) replayRecord(sl *slot, rec wal.Record) error {
	kind := MutKind(rec.Kind)
	if kind > MutDelete {
		return fmt.Errorf("unknown mutation kind %d", rec.Kind)
	}
	var obj *core.Object
	if kind != MutDelete {
		poly, err := store.DecodePolygon(rec.Geom)
		if err != nil {
			return fmt.Errorf("geometry: %w", err)
		}
		if obj, err = core.NewObject(rec.ID, poly, g.builder); err != nil {
			return err
		}
	}
	applyKind := kind
	if applyKind == MutInsert {
		applyKind = MutUpsert
	}
	cur := sl.cur.Load()
	ne, res, err := applyMutation(cur, mutation{kind: applyKind, id: rec.ID, obj: obj, lsn: rec.LSN})
	if err != nil {
		return err
	}
	sl.cur.Store(ne)
	if rec.Key != "" {
		sl.remember(rec.Key, res)
	}
	return nil
}

// mutReq is one writer waiting in a slot's group-commit queue. The
// geometry is encoded at enqueue time — off the serialized leader path
// — and reused verbatim as the WAL record payload.
type mutReq struct {
	kind MutKind
	id   int
	obj  *core.Object
	key  string
	geom []byte

	res  MutationResult
	err  error
	done chan struct{} // closed once res/err are final
	lead chan struct{} // closed to promote this waiter to leader
}

// mutateDurable is the WAL-backed mutation path: enqueue, then either
// lead the commit of the batch containing this request or wait for a
// leader to commit it.
func (g *Registry) mutateDurable(name string, sl *slot, kind MutKind, id int, obj *core.Object, key string) (MutationResult, error) {
	req := &mutReq{
		kind: kind, id: id, obj: obj, key: key,
		done: make(chan struct{}),
		lead: make(chan struct{}),
	}
	if obj != nil {
		req.geom = store.EncodePolygon(obj.Poly)
	}

	sl.wmu.Lock()
	sl.wq = append(sl.wq, req)
	promote := !sl.wleader
	if promote {
		sl.wleader = true
	}
	sl.wmu.Unlock()

	if promote {
		g.commitLead(name, sl)
	} else {
		select {
		case <-req.done:
		case <-req.lead:
			g.commitLead(name, sl)
		}
	}
	<-req.done
	return req.res, req.err
}

// commitLead runs one group commit as the slot's leader: drain the
// queue — every writer that enqueued while the previous batch was
// fsyncing — commit it as one batch, then hand leadership to the next
// batch's first waiter (or retire if none is queued).
func (g *Registry) commitLead(name string, sl *slot) {
	sl.wmu.Lock()
	batch := sl.wq
	sl.wq = nil
	sl.wmu.Unlock()

	g.commitBatch(name, sl, batch)

	sl.wmu.Lock()
	if len(sl.wq) > 0 {
		next := sl.wq[0]
		sl.wmu.Unlock()
		close(next.lead)
		return
	}
	sl.wleader = false
	sl.wmu.Unlock()
}

// commitBatch applies, journals, and publishes one batch under the
// slot's publication lock. Each request applies onto the successor
// chain independently: one request's semantic failure (unknown id)
// fails only that request. If the WAL append fails, nothing publishes
// and every applied request fails with ErrNotDurable — the entries
// built here are garbage-collected, the served state is untouched.
func (g *Registry) commitBatch(name string, sl *slot, batch []*mutReq) {
	if len(batch) == 0 {
		return
	}
	sl.mu.Lock()
	ne := sl.cur.Load()
	lsn := sl.wal.NextLSN()
	recs := make([]wal.Record, 0, len(batch))
	applied := make([]*mutReq, 0, len(batch))
	for _, r := range batch {
		if res, ok := sl.idem.get(r.key); ok {
			r.res = res
			continue
		}
		next, res, err := applyMutation(ne, mutation{kind: r.kind, id: r.id, obj: r.obj, lsn: lsn})
		if err != nil {
			r.err = err
			continue
		}
		ne = next
		r.res = res
		recs = append(recs, wal.Record{
			Kind:  byte(r.kind),
			ID:    res.ID,
			LSN:   lsn,
			Epoch: res.Epoch,
			Key:   r.key,
			Geom:  r.geom,
		})
		applied = append(applied, r)
		lsn++
	}

	pending := 0
	if len(applied) > 0 {
		if err := sl.wal.Append(recs); err != nil {
			g.count("wal_append_failures_total", 1)
			for _, r := range applied {
				r.res = MutationResult{}
				r.err = fmt.Errorf("%w: %v", ErrNotDurable, err)
			}
		} else {
			sl.cur.Store(ne)
			for _, r := range applied {
				if r.key != "" {
					sl.remember(r.key, r.res)
				}
			}
			pending = applied[len(applied)-1].res.Pending
		}
	}
	sl.mu.Unlock()

	var appended, deduped int64
	for _, r := range batch {
		if r.err == nil && r.res.Deduped {
			deduped++
		}
		close(r.done)
	}
	for _, r := range applied {
		if r.err == nil {
			g.count("server_ingest_total{op=\""+r.kind.String()+"\"}", 1)
			appended++
		}
	}
	g.count("wal_appended_total", appended)
	if deduped > 0 {
		g.count("server_ingest_deduped_total", deduped)
	}
	if pending > 0 {
		g.maybeCompact(name, sl, pending)
	}
}

// idemCacheCap bounds each slot's dedupe cache: a FIFO ring of the
// most recent keyed mutations. Retries arrive promptly (the client's
// backoff is bounded in seconds), so "recent" is plenty — and the WAL
// re-seeds the cache across restarts.
const idemCacheCap = 4096

// idemCache maps idempotency keys to committed mutation results. All
// access is under the owning slot's mu.
type idemCache struct {
	m    map[string]MutationResult
	ring []string
	pos  int
}

// get returns the remembered result for key, flagged Deduped. A nil
// cache or empty key misses without allocating (the keyless hot path).
func (c *idemCache) get(key string) (MutationResult, bool) {
	if c == nil || key == "" {
		return MutationResult{}, false
	}
	res, ok := c.m[key]
	if !ok {
		return MutationResult{}, false
	}
	res.Deduped = true
	return res, true
}

// remember records a committed keyed mutation in the slot's dedupe
// cache, evicting the oldest entry once the ring is full. Caller holds
// sl.mu (or the slot is not yet published).
func (sl *slot) remember(key string, res MutationResult) {
	c := sl.idem
	if c == nil {
		c = &idemCache{m: make(map[string]MutationResult, 64)}
		sl.idem = c
	}
	if _, exists := c.m[key]; exists {
		c.m[key] = res
		return
	}
	if len(c.ring) < idemCacheCap {
		c.ring = append(c.ring, key)
	} else {
		delete(c.m, c.ring[c.pos])
		c.ring[c.pos] = key
		c.pos = (c.pos + 1) % idemCacheCap
	}
	c.m[key] = res
}
