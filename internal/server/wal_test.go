package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/join"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/wal"
)

// walRegistry builds an instrumented WAL-backed registry over the
// resilience fixture. snapDir may be empty (durability without
// snapshots: restart replays the whole log over a fresh build). Auto-
// compaction is off so tests control exactly when the watermark moves.
func walRegistry(t *testing.T, walDir, snapDir string) (*Registry, *obs.Registry) {
	t.Helper()
	met := obs.NewRegistry()
	reg := NewRegistry(resSpace, resOrder)
	reg.Instrument(met)
	reg.SetLogf(t.Logf)
	reg.SetCompactThreshold(0)
	if snapDir != "" {
		if err := reg.EnableSnapshots(snapDir); err != nil {
			t.Fatal(err)
		}
	}
	if err := reg.EnableWAL(WALOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("grid", "squares", resPolys()); err != nil {
		t.Fatal(err)
	}
	return reg, met
}

// walSq is a small test square polygon in one of the fixture's gaps.
func walSq(x, y float64) *geom.Polygon {
	return geom.NewPolygon(geom.Ring{
		{X: x, Y: y}, {X: x + 6, Y: y}, {X: x + 6, Y: y + 6}, {X: x, Y: y + 6},
	})
}

// liveSet renders the dataset's live objects as sorted "id@mbr" strings
// through the real serving view — the durability oracle two registries
// are compared by.
func liveSet(t *testing.T, reg *Registry) []string {
	t.Helper()
	e, ok := reg.Get("grid")
	if !ok {
		t.Fatal("dataset missing")
	}
	probe, err := reg.Probe(geom.NewPolygon(geom.Ring{
		{X: 0, Y: 0}, {X: 256, Y: 0}, {X: 256, Y: 256}, {X: 0, Y: 256},
	}))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	view := e.View()
	err = view.QueryContext(context.Background(), probe.MBR, func(delta bool, en join.Entry) {
		o := e.objAt(delta, en.ID)
		out = append(out, fmt.Sprintf("%d@%.1f,%.1f,%.1f,%.1f",
			o.ID, o.MBR.MinX, o.MBR.MinY, o.MBR.MaxX, o.MBR.MaxY))
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

func TestDurableIngestSurvivesRestart(t *testing.T) {
	walDir := t.TempDir()
	reg1, _ := walRegistry(t, walDir, "")

	// Acked mutations: three inserts, one replace, one delete.
	var insertIDs []int
	for i := 0; i < 3; i++ {
		res, err := reg1.Mutate("grid", MutInsert, -1, walSq(34+float64(i)*40, 34))
		if err != nil {
			t.Fatal(err)
		}
		insertIDs = append(insertIDs, res.ID)
	}
	if _, err := reg1.Mutate("grid", MutUpsert, 0, walSq(34, 74)); err != nil {
		t.Fatal(err)
	}
	if _, err := reg1.Mutate("grid", MutDelete, 1, nil); err != nil {
		t.Fatal(err)
	}
	if got := reg1.WalPendingBytes(); got <= 0 {
		t.Fatalf("WalPendingBytes = %d after acked mutations, want > 0", got)
	}
	var info DatasetInfo
	for _, di := range reg1.List() {
		if di.Name == "grid" {
			info = di
		}
	}
	if info.WalBytes <= 0 {
		t.Fatalf("DatasetInfo.WalBytes = %d, want > 0", info.WalBytes)
	}
	want := liveSet(t, reg1)

	// "Crash": abandon reg1 without closing anything, then restart from
	// the same directories. Every acked mutation must come back.
	reg2, met2 := walRegistry(t, walDir, "")
	if got := liveSet(t, reg2); !equalStrings(got, want) {
		t.Fatalf("restart lost acked mutations\n got %v\nwant %v", got, want)
	}
	if got := met2.Counter("wal_replayed_total").Value(); got != 5 {
		t.Fatalf("replayed %d records, want 5", got)
	}
	// Id continuity: the next insert must not reuse a logged id.
	res, err := reg2.Mutate("grid", MutInsert, -1, walSq(74, 74))
	if err != nil {
		t.Fatal(err)
	}
	if wantID := insertIDs[len(insertIDs)-1] + 1; res.ID != wantID {
		t.Fatalf("post-restart insert id = %d, want %d", res.ID, wantID)
	}
}

// TestWALReplayRefusesNonFiniteGeometry: a logged insert whose geometry
// carries a NaN coordinate passes the record CRC, but the blob decoder
// rejects it, so replay skips the record instead of indexing it.
func TestWALReplayRefusesNonFiniteGeometry(t *testing.T) {
	walDir := t.TempDir()
	l, _, err := wal.Open(walDir, "grid", wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := geom.Polygon{Shell: geom.Ring{{X: 34, Y: 34}, {X: 40, Y: math.NaN()}, {X: 34, Y: 40}}}
	good := walSq(74, 34)
	if err := l.Append([]wal.Record{
		{Kind: byte(MutInsert), ID: 900, LSN: l.NextLSN(), Geom: store.EncodePolygon(&bad)},
		{Kind: byte(MutInsert), ID: 901, LSN: l.NextLSN() + 1, Geom: store.EncodePolygon(good)},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reg, met := walRegistry(t, walDir, "")
	if got := met.Counter("wal_replay_failures_total").Value(); got != 1 {
		t.Fatalf("wal_replay_failures_total = %d, want 1", got)
	}
	if got := met.Counter("wal_replayed_total").Value(); got != 1 {
		t.Fatalf("wal_replayed_total = %d, want 1", got)
	}
	for _, o := range liveSet(t, reg) {
		if strings.HasPrefix(o, "900@") {
			t.Fatalf("the NaN record was replayed into the index: %s", o)
		}
	}
}

func TestWALPruneAfterCompaction(t *testing.T) {
	walDir, snapDir := t.TempDir(), t.TempDir()
	reg1, _ := walRegistry(t, walDir, snapDir)
	for i := 0; i < 4; i++ {
		if _, err := reg1.Mutate("grid", MutInsert, -1, walSq(34+float64(i)*40, 34)); err != nil {
			t.Fatal(err)
		}
	}
	before := reg1.WalPendingBytes()
	if _, err := reg1.Compact("grid"); err != nil {
		t.Fatal(err)
	}
	after := reg1.WalPendingBytes()
	if after >= before {
		t.Fatalf("wal not pruned after compaction: %d -> %d bytes", before, after)
	}
	want := liveSet(t, reg1)

	// Restart: the snapshot epoch carries the watermark, so nothing is
	// replayed — and nothing is lost.
	reg2, met2 := walRegistry(t, walDir, snapDir)
	if got := met2.Counter("wal_replayed_total").Value(); got != 0 {
		t.Fatalf("replayed %d records after full compaction, want 0", got)
	}
	if got := liveSet(t, reg2); !equalStrings(got, want) {
		t.Fatalf("compacted state lost across restart\n got %v\nwant %v", got, want)
	}

	// Mutations after the compaction replay on the next restart.
	if _, err := reg2.Mutate("grid", MutDelete, 0, nil); err != nil {
		t.Fatal(err)
	}
	want = liveSet(t, reg2)
	reg3, met3 := walRegistry(t, walDir, snapDir)
	if got := met3.Counter("wal_replayed_total").Value(); got != 1 {
		t.Fatalf("replayed %d records, want 1 (the post-compaction delete)", got)
	}
	if got := liveSet(t, reg3); !equalStrings(got, want) {
		t.Fatalf("post-compaction mutation lost across restart\n got %v\nwant %v", got, want)
	}
}

func TestWALFsyncFailureNeverSilentlyAcks(t *testing.T) {
	t.Cleanup(fault.Reset)
	walDir := t.TempDir()
	reg, met := walRegistry(t, walDir, "")
	before := liveSet(t, reg)

	fault.Arm("wal.fsync", fault.Behavior{Err: errors.New("disk gone")})
	_, err := reg.Mutate("grid", MutInsert, -1, walSq(34, 34))
	if !errors.Is(err, ErrNotDurable) {
		t.Fatalf("mutation with failing fsync: err = %v, want ErrNotDurable", err)
	}
	if got := liveSet(t, reg); !equalStrings(got, before) {
		t.Fatal("non-durable mutation was published")
	}
	if got := met.Counter("wal_append_failures_total").Value(); got != 1 {
		t.Fatalf("wal_append_failures_total = %d, want 1", got)
	}
	// The log is failed permanently: later mutations (fault disarmed)
	// still refuse rather than risk a hole in the record sequence.
	fault.Reset()
	if _, err := reg.Mutate("grid", MutInsert, -1, walSq(34, 34)); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("mutation after failed fsync: err = %v, want ErrNotDurable", err)
	}

	// A restart recovers: the log tail is intact (the append before the
	// failed fsync was torn or truncated), and ingest works again.
	reg2, _ := walRegistry(t, walDir, "")
	if got := liveSet(t, reg2); !equalStrings(got, before) {
		t.Fatal("restart resurrected a never-acked mutation")
	}
	if _, err := reg2.Mutate("grid", MutInsert, -1, walSq(34, 34)); err != nil {
		t.Fatalf("ingest after restart: %v", err)
	}
}

func TestWALFsyncFailureMapsTo503(t *testing.T) {
	t.Cleanup(fault.Reset)
	walDir := t.TempDir()
	reg, _ := walRegistry(t, walDir, "")
	svc := New(reg, Config{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	c := NewClient(ts.URL)

	fault.Arm("wal.fsync", fault.Behavior{Err: errors.New("disk gone")})
	_, err := c.Insert(context.Background(), "grid", IngestRequest{WKT: sq6(33, 33)})
	var api *APIError
	if !errors.As(err, &api) || api.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("insert with failing fsync: %v, want 503", err)
	}
	if api.Reason != "wal_append_failed" {
		t.Fatalf("error reason = %q, want wal_append_failed", api.Reason)
	}
}

func TestIdempotencyKeyDedupes(t *testing.T) {
	walDir := t.TempDir()
	reg, met := walRegistry(t, walDir, "")
	n0 := len(liveSet(t, reg))

	first, err := reg.MutateKey("grid", MutInsert, -1, walSq(34, 34), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if first.Deduped {
		t.Fatal("first keyed insert flagged Deduped")
	}
	second, err := reg.MutateKey("grid", MutInsert, -1, walSq(34, 34), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("retry not deduped: first id %d, retry %+v", first.ID, second)
	}
	if got := len(liveSet(t, reg)); got != n0+1 {
		t.Fatalf("live objects = %d, want %d (retry must not create a second object)", got, n0+1)
	}
	if got := met.Counter("server_ingest_deduped_total").Value(); got != 1 {
		t.Fatalf("server_ingest_deduped_total = %d, want 1", got)
	}

	// Dedupe must survive a crash: the key rides in the WAL record and
	// re-seeds the cache on replay.
	reg2, _ := walRegistry(t, walDir, "")
	third, err := reg2.MutateKey("grid", MutInsert, -1, walSq(34, 34), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !third.Deduped || third.ID != first.ID {
		t.Fatalf("retry across restart not deduped: first id %d, got %+v", first.ID, third)
	}
	if got := len(liveSet(t, reg2)); got != n0+1 {
		t.Fatalf("live objects after restart retry = %d, want %d", got, n0+1)
	}
}

func TestIdempotencyKeyDedupesWithoutWAL(t *testing.T) {
	// The dedupe cache also guards the volatile path, so retried inserts
	// are safe (within a process lifetime) even with durability off.
	reg := NewRegistry(resSpace, resOrder)
	if _, err := reg.Add("grid", "squares", resPolys()); err != nil {
		t.Fatal(err)
	}
	first, err := reg.MutateKey("grid", MutInsert, -1, walSq(34, 34), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	second, err := reg.MutateKey("grid", MutInsert, -1, walSq(34, 34), "key-1")
	if err != nil {
		t.Fatal(err)
	}
	if !second.Deduped || second.ID != first.ID {
		t.Fatalf("volatile retry not deduped: first id %d, got %+v", first.ID, second)
	}
}

func TestClientInsertRetriesWithStableKey(t *testing.T) {
	walDir := t.TempDir()
	reg, _ := walRegistry(t, walDir, "")
	svc := New(reg, Config{})

	// Flaky front: the first attempt dies with 503 after the backend has
	// fully processed it — the worst case for a retry, because resending
	// without dedupe would create a second object.
	var mu sync.Mutex
	var keys []string
	attempt := 0
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.Contains(r.URL.Path, "/objects") {
			mu.Lock()
			keys = append(keys, r.Header.Get("Idempotency-Key"))
			n := attempt
			attempt++
			mu.Unlock()
			if n == 0 {
				rec := httptest.NewRecorder()
				svc.Handler().ServeHTTP(rec, r) // backend applies the insert...
				writeError(w, http.StatusServiceUnavailable, "ack lost")
				return // ...but the client never sees the ack
			}
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(func() {
		front.Close()
		svc.Close()
	})

	c := NewClient(front.URL)
	c.Retry = &RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond}
	n0 := len(liveSet(t, reg))
	resp, err := c.Insert(context.Background(), "grid", IngestRequest{WKT: sq6(33, 33)})
	if err != nil {
		t.Fatalf("insert through flaky front: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 2 || keys[0] == "" || keys[0] != keys[1] {
		t.Fatalf("idempotency keys across attempts = %q, want two identical non-empty", keys)
	}
	if !resp.Deduped {
		t.Fatal("retried insert not flagged Deduped")
	}
	if got := len(liveSet(t, reg)); got != n0+1 {
		t.Fatalf("live objects = %d, want %d (retry created a duplicate)", got, n0+1)
	}
}

func TestGroupCommitConcurrentWriters(t *testing.T) {
	walDir := t.TempDir()
	met := obs.NewRegistry()
	reg := NewRegistry(resSpace, resOrder)
	reg.Instrument(met)
	reg.SetLogf(t.Logf)
	reg.SetCompactThreshold(0)
	if err := reg.EnableWAL(WALOptions{Dir: walDir}); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Register("grid", "squares", resPolys()); err != nil {
		t.Fatal(err)
	}

	// Concurrent inserts, upserts and deletes race the group-commit
	// leaders; every acked result must be distinct and must survive a
	// crash. Run under -race this doubles as group commit's race gate.
	const writers, perWriter = 8, 20
	ids := make(chan int, writers*perWriter)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch i % 4 {
				case 0, 1: // insert
					res, err := reg.Mutate("grid", MutInsert, -1, walSq(34, 34))
					if err != nil {
						t.Errorf("writer %d insert: %v", w, err)
						return
					}
					ids <- res.ID
				case 2: // upsert a private id
					id := 1000 + w*perWriter + i
					if _, err := reg.Mutate("grid", MutUpsert, id, walSq(74, 34)); err != nil {
						t.Errorf("writer %d upsert: %v", w, err)
						return
					}
				default: // delete the id just upserted
					id := 1000 + w*perWriter + i - 1
					if _, err := reg.Mutate("grid", MutDelete, id, nil); err != nil {
						t.Errorf("writer %d delete: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(ids)
	seen := make(map[int]bool)
	for id := range ids {
		if seen[id] {
			t.Fatalf("insert id %d acked twice", id)
		}
		seen[id] = true
	}
	want := liveSet(t, reg)

	reg2, _ := walRegistry(t, walDir, "")
	if got := liveSet(t, reg2); !equalStrings(got, want) {
		t.Fatalf("concurrent acked mutations lost across restart:\n got %d objects\nwant %d objects",
			len(got), len(want))
	}
}

// TestMutationCrashReplayOracle is the durability differential oracle
// (run by `make difftest`): a WAL-backed registry takes a randomized
// mutation sequence with compactions sprinkled in, and at every
// checkpoint a "crash replica" — a fresh registry opened over the same
// snapshot + WAL directories, exactly what a restart after SIGKILL
// would see — must answer identically to the mutated original AND to a
// cold build of the surviving object set.
func TestMutationCrashReplayOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runCrashReplayOracle(t, seed)
		})
	}
}

func runCrashReplayOracle(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	randRect := func() *geom.Polygon {
		x := float64(rng.Intn(240))
		y := float64(rng.Intn(240))
		w := float64(2 + rng.Intn(14))
		h := float64(2 + rng.Intn(14))
		return geom.NewPolygon(geom.Ring{
			{X: x, Y: y}, {X: x + w, Y: y}, {X: x + w, Y: y + h}, {X: x, Y: y + h},
		})
	}
	walDir, snapDir := t.TempDir(), t.TempDir()
	initial := make([]*geom.Polygon, 16)
	model := make(map[int]*geom.Polygon, 64)
	for i := range initial {
		initial[i] = randRect()
		model[i] = initial[i]
	}
	open := func() *Registry {
		reg := NewRegistry(resSpace, resOrder)
		reg.SetLogf(t.Logf)
		reg.SetCompactThreshold(0)
		if err := reg.EnableSnapshots(snapDir); err != nil {
			t.Fatal(err)
		}
		if err := reg.EnableWAL(WALOptions{Dir: walDir}); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Register("dyn", "", initial); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	regA := open()
	nextID := len(initial)

	probes := make([]*geom.Polygon, 6)
	for i := range probes {
		probes[i] = randRect()
	}
	liveIDs := func() []int {
		ids := make([]int, 0, len(model))
		for id := range model {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return ids
	}
	canonical := func(reg *Registry, idOf func(int) int) string {
		e, ok := reg.Get("dyn")
		if !ok {
			t.Fatal("dataset missing")
		}
		var sb strings.Builder
		for pi, p := range probes {
			probe, err := reg.Probe(p)
			if err != nil {
				t.Fatal(err)
			}
			var objs []*core.Object
			view := e.View()
			err = view.QueryContext(context.Background(), probe.MBR, func(delta bool, en join.Entry) {
				objs = append(objs, e.objAt(delta, en.ID))
			})
			if err != nil {
				t.Fatal(err)
			}
			sort.Slice(objs, func(i, j int) bool { return idOf(objs[i].ID) < idOf(objs[j].ID) })
			for _, o := range objs {
				res := core.FindRelation(core.PC, probe, o)
				fmt.Fprintf(&sb, "%d:%d=%s\n", pi, idOf(o.ID), res.Relation)
			}
		}
		return sb.String()
	}

	checkpoint := func(step int) {
		// The crash replica: restart from disk, mid-sequence.
		regR := open()
		gotA := canonical(regA, func(id int) int { return id })
		gotR := canonical(regR, func(id int) int { return id })
		if gotA != gotR {
			t.Fatalf("step %d: crash replica diverged from the registry it journaled\n--- live ---\n%s--- replayed ---\n%s",
				step, gotA, gotR)
		}
		ids := liveIDs()
		rebuilt := make([]*geom.Polygon, len(ids))
		for j, id := range ids {
			rebuilt[j] = model[id]
		}
		regB := NewRegistry(resSpace, resOrder)
		if _, err := regB.Add("dyn", "", rebuilt); err != nil {
			t.Fatal(err)
		}
		gotB := canonical(regB, func(pos int) int { return ids[pos] })
		if gotR != gotB {
			t.Fatalf("step %d: crash replica diverged from fresh rebuild\n--- replayed ---\n%s--- rebuilt ---\n%s",
				step, gotR, gotB)
		}
	}

	const steps = 120
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(10); {
		case op < 4: // insert
			p := randRect()
			res, err := regA.Mutate("dyn", MutInsert, -1, p)
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if res.ID != nextID {
				t.Fatalf("step %d: insert id %d, model expected %d", step, res.ID, nextID)
			}
			model[nextID] = p
			nextID++
		case op < 7: // upsert
			var id int
			if ids := liveIDs(); len(ids) > 0 && rng.Intn(3) > 0 {
				id = ids[rng.Intn(len(ids))]
			} else {
				id = rng.Intn(nextID + 3)
			}
			p := randRect()
			if _, err := regA.Mutate("dyn", MutUpsert, id, p); err != nil {
				t.Fatalf("step %d upsert %d: %v", step, id, err)
			}
			model[id] = p
			if id >= nextID {
				nextID = id + 1
			}
		default: // delete
			ids := liveIDs()
			if len(ids) == 0 {
				continue
			}
			id := ids[rng.Intn(len(ids))]
			if _, err := regA.Mutate("dyn", MutDelete, id, nil); err != nil {
				t.Fatalf("step %d delete %d: %v", step, id, err)
			}
			delete(model, id)
		}
		if rng.Intn(25) == 0 {
			if _, err := regA.Compact("dyn"); err != nil {
				t.Fatalf("step %d compact: %v", step, err)
			}
		}
		if step%30 == 29 {
			checkpoint(step)
		}
	}
	checkpoint(steps)
}

func TestIdempotencyKeyValidation(t *testing.T) {
	reg := NewRegistry(resSpace, resOrder)
	if _, err := reg.Add("grid", "squares", resPolys()); err != nil {
		t.Fatal(err)
	}
	svc := New(reg, Config{})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	for _, bad := range []string{strings.Repeat("x", 129), "has space", "tab\tkey"} {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/datasets/grid/objects",
			strings.NewReader(`{"wkt":"`+sq6(33, 33)+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", bad)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		json.NewDecoder(resp.Body).Decode(&eb)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("key %q: status %d (%s), want 400", bad, resp.StatusCode, eb.Error)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
