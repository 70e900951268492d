package harness

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/de9im"
	"repro/internal/geom"
)

// DataAccessRow reports the geometry I/O of one method over a workload
// when exact geometries live in a disk-like store (Sec. 4.3's
// data-access saving, in bytes rather than object counts).
type DataAccessRow struct {
	Method    core.Method
	Loads     int
	Hits      int
	BytesRead int64
	StoreSize int64
}

// DataAccess replays the OLE-OPE workload for every method with
// geometries served from serialized stores through an LRU cache of
// cacheSize decoded objects per dataset. The filter stages see objects
// with nil geometry, proving they never touch it.
func (e *Env) DataAccess(cacheSize int) ([]DataAccessRow, error) {
	pairs, err := e.CandidatePairs(ComplexityCombo)
	if err != nil {
		return nil, err
	}
	left, right := e.Datasets[ComplexityCombo[0]], e.Datasets[ComplexityCombo[1]]
	lpolys := make([]*geom.Polygon, left.Len())
	for i, o := range left.Objects {
		lpolys[i] = o.Poly
	}
	rpolys := make([]*geom.Polygon, right.Len())
	for i, o := range right.Objects {
		rpolys[i] = o.Poly
	}

	// Lite objects: approximations and MBRs only. Any filter-stage access
	// to exact geometry would nil-panic, which the tests rely on.
	lite := func(o *core.Object) *core.Object {
		return &core.Object{ID: o.ID, MBR: o.MBR, Approx: o.Approx}
	}
	litePairs := make([]core.Pair, len(pairs))
	liteCache := make(map[*core.Object]*core.Object)
	get := func(o *core.Object) *core.Object {
		if l, ok := liteCache[o]; ok {
			return l
		}
		l := lite(o)
		liteCache[o] = l
		return l
	}
	for i, p := range pairs {
		litePairs[i] = core.Pair{R: get(p.R), S: get(p.S)}
	}

	rows := make([]DataAccessRow, 0, core.NumMethods)
	for _, m := range core.Methods {
		ls := newGeomStore(lpolys, cacheSize)
		rs := newGeomStore(rpolys, cacheSize)
		var fetchErr error
		refiner := func(r, s *core.Object) de9im.Matrix {
			lp, err := ls.geometry(r.ID)
			if err != nil && fetchErr == nil {
				fetchErr = err
			}
			sp, err := rs.geometry(s.ID)
			if err != nil && fetchErr == nil {
				fetchErr = err
			}
			if fetchErr != nil {
				return de9im.Matrix{}
			}
			return de9im.Relate(geom.NewMultiPolygon(lp), geom.NewMultiPolygon(sp))
		}
		for _, p := range litePairs {
			core.FindRelationWith(m, p.R, p.S, refiner)
		}
		if fetchErr != nil {
			return nil, fmt.Errorf("harness: data access: %w", fetchErr)
		}
		lst, rst := ls.stats, rs.stats
		rows = append(rows, DataAccessRow{
			Method:    m,
			Loads:     lst.Loads + rst.Loads,
			Hits:      lst.Hits + rst.Hits,
			BytesRead: lst.BytesRead + rst.BytesRead,
			StoreSize: ls.storedBytes() + rs.storedBytes(),
		})
	}
	return rows, nil
}

// UniqueObjectsRefined counts how many distinct objects of each side had
// their exact geometry accessed (refined pairs touch both geometries):
// the data-access saving reported in Sec. 4.3.
func UniqueObjectsRefined(m core.Method, pairs []core.Pair) (left, right int) {
	ls := make(map[int]bool)
	rs := make(map[int]bool)
	_, err := core.RunFindRelation(context.Background(), m, pairs, 1, func(i int, res core.Result) {
		if res.Refined {
			ls[pairs[i].R.ID] = true
			rs[pairs[i].S.ID] = true
		}
	})
	if err != nil {
		panic(err)
	}
	return len(ls), len(rs)
}
