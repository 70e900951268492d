package server

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/geojson"
	"repro/internal/geom"
	"repro/internal/wkt"
)

// Wire types of the HTTP JSON API, shared by the handlers and the Go
// client. All durations cross the wire as integer milliseconds so
// non-Go clients need no duration parsing.

// RelateRequest probes one geometry against an indexed dataset:
// find-relation mode by default, relate_p with Predicate, or an
// arbitrary DE-9IM mask query with Mask (Predicate and Mask are
// mutually exclusive). Exactly one of WKT or GeoJSON supplies the probe
// geometry. The server picks the pipeline: P+C, or ST2 when a dataset
// involved is degraded.
type RelateRequest struct {
	// Dataset names the registered dataset to probe against.
	Dataset string `json:"dataset"`
	// WKT is the probe geometry as a WKT POLYGON.
	WKT string `json:"wkt,omitempty"`
	// GeoJSON is the probe geometry as a GeoJSON Polygon (or a
	// single-member MultiPolygon / Feature wrapping one).
	GeoJSON json.RawMessage `json:"geojson,omitempty"`
	// Predicate asks relate_p: return only objects for which the named
	// relation (equals|meets|inside|covered_by|contains|covers|
	// intersects|disjoint) holds, probe as the left operand.
	Predicate string `json:"predicate,omitempty"`
	// Mask asks the three-argument ST_Relate form with a 9-character
	// DE-9IM pattern such as "T*F**F***".
	Mask string `json:"mask,omitempty"`
	// Limit caps the returned matches (default and ceiling are server
	// configuration); Truncated reports when the cap was hit.
	Limit int `json:"limit,omitempty"`
	// TimeoutMS is the per-request deadline in milliseconds; 0 selects
	// the server default, values above the server maximum are clamped.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// Geometry decodes the probe geometry of the request (exactly one of
// WKT or GeoJSON must be set). Shared by the server's relate handler
// and the scatter-gather router, which needs the probe's MBR to pick
// the shards worth asking.
func (req *RelateRequest) Geometry() (*geom.Polygon, error) {
	switch {
	case req.WKT != "" && len(req.GeoJSON) > 0:
		return nil, errors.New("give wkt or geojson, not both")
	case req.WKT != "":
		p, err := wkt.ParsePolygon(req.WKT)
		if err != nil {
			return nil, fmt.Errorf("wkt: %w", err)
		}
		return p, nil
	case len(req.GeoJSON) > 0:
		fs, err := geojson.ParseFeatureCollection(req.GeoJSON)
		if err != nil {
			return nil, fmt.Errorf("geojson: %w", err)
		}
		if len(fs) != 1 || len(fs[0].Geometry.Polys) != 1 {
			return nil, errors.New("probe must be a single polygon")
		}
		return fs[0].Geometry.Polys[0], nil
	default:
		return nil, errors.New("missing probe geometry (wkt or geojson)")
	}
}

// RelateMatch is one dataset object matched by a relate probe.
type RelateMatch struct {
	ID int `json:"id"`
	// Relation is the most specific relation (find mode) or the name of
	// the satisfied predicate; empty in mask mode.
	Relation string `json:"relation,omitempty"`
}

// RelateResponse reports one relate probe.
type RelateResponse struct {
	Dataset string `json:"dataset"`
	// Candidates is how many index entries survived the MBR filter.
	Candidates int `json:"candidates"`
	// Evaluated is how many candidates the pipeline actually settled
	// before the deadline (equals Candidates on a completed probe).
	Evaluated int `json:"evaluated"`
	// Refined counts candidates that needed DE-9IM refinement.
	Refined   int           `json:"refined"`
	Matches   []RelateMatch `json:"matches"`
	Truncated bool          `json:"truncated,omitempty"`
	// BatchSize is always 1: probes are evaluated on their own request;
	// kept for wire compatibility.
	BatchSize int     `json:"batch_size"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Epoch and IndexVersion identify the exact index state that
	// answered: every candidate and match came from this one atomically
	// loaded epoch view. Single-node servers only (a router merges
	// shards with independent epochs).
	Epoch        uint64 `json:"epoch,omitempty"`
	IndexVersion uint64 `json:"index_version,omitempty"`
	// Partial marks a scatter-gather answer that is missing the listed
	// shards (all their replicas were down): the matches present are
	// exact, but shards in MissingShards contributed nothing. Single-node
	// servers never set these.
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// JoinRequest evaluates a dataset-pair topology join.
type JoinRequest struct {
	Left  string `json:"left"`
	Right string `json:"right"`
	// Predicate, Mask, Limit, TimeoutMS as in RelateRequest.
	Predicate string `json:"predicate,omitempty"`
	Mask      string `json:"mask,omitempty"`
	Limit     int    `json:"limit,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
}

// JoinPair is one reported result pair.
type JoinPair struct {
	LeftID   int    `json:"left_id"`
	RightID  int    `json:"right_id"`
	Relation string `json:"relation,omitempty"`
}

// JoinResponse reports one dataset-pair join.
type JoinResponse struct {
	Left       string `json:"left"`
	Right      string `json:"right"`
	Candidates int    `json:"candidates"`
	Evaluated  int    `json:"evaluated"`
	Refined    int    `json:"refined"`
	// Relations tallies the most specific relation of every evaluated
	// pair (find mode only).
	Relations map[string]int `json:"relations,omitempty"`
	// Holds counts pairs satisfying the predicate or mask.
	Holds     int        `json:"holds,omitempty"`
	Pairs     []JoinPair `json:"pairs,omitempty"`
	Truncated bool       `json:"truncated,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	// Per-side index identity, as in RelateResponse: both operand views
	// were loaded atomically, so each side is internally consistent.
	LeftEpoch    uint64 `json:"left_epoch,omitempty"`
	LeftVersion  uint64 `json:"left_version,omitempty"`
	RightEpoch   uint64 `json:"right_epoch,omitempty"`
	RightVersion uint64 `json:"right_version,omitempty"`
	// Partial / MissingShards as in RelateResponse: set only by a router
	// when every replica of one or more shards was unreachable.
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// DatasetInfo describes one registered dataset.
type DatasetInfo struct {
	Name        string  `json:"name"`
	Entity      string  `json:"entity,omitempty"`
	Objects     int     `json:"objects"`
	Vertices    int     `json:"vertices"`
	ApproxBytes int     `json:"approx_bytes"`
	BuildMS     float64 `json:"build_ms"`
	// Status is "ok", "degraded" (serving MBR+refine without
	// approximations after a corrupt snapshot) or "rebuilding" (degraded
	// with the background rebuild still running).
	Status string `json:"status"`
	// Epoch is the compaction generation of the serving index (0 for a
	// dataset that has never been compacted).
	Epoch uint64 `json:"epoch"`
	// PendingOps counts mutations accepted since the serving epoch was
	// built — the delta the next compaction will fold in.
	PendingOps int `json:"pending_ops,omitempty"`
	// WalBytes is the on-disk size of the dataset's write-ahead log
	// (0 when durability is disabled). It shrinks when compaction
	// persists an epoch and the covered prefix is pruned.
	WalBytes int64 `json:"wal_bytes,omitempty"`
}

// IngestRequest carries one object mutation. Exactly one of WKT or
// GeoJSON supplies the geometry for insert/upsert; delete bodies are
// empty (the id rides in the URL).
type IngestRequest struct {
	// WKT is the object geometry as a WKT POLYGON.
	WKT string `json:"wkt,omitempty"`
	// GeoJSON is the object geometry as a GeoJSON Polygon (or a
	// single-member MultiPolygon / Feature wrapping one).
	GeoJSON json.RawMessage `json:"geojson,omitempty"`
}

// Geometry decodes the mutation geometry (exactly one of WKT or
// GeoJSON must be set), with the same parsing rules as relate probes.
func (req *IngestRequest) Geometry() (*geom.Polygon, error) {
	r := RelateRequest{WKT: req.WKT, GeoJSON: req.GeoJSON}
	return r.Geometry()
}

// IngestResponse reports one accepted mutation.
type IngestResponse struct {
	Dataset string `json:"dataset"`
	// ID is the object's id — server-assigned for inserts, echoed for
	// upserts and deletes.
	ID int `json:"id"`
	// Op is "insert", "upsert" or "delete".
	Op string `json:"op"`
	// Created reports whether an upsert created the object (false: it
	// replaced an existing one). Always true for inserts.
	Created bool `json:"created,omitempty"`
	// Epoch and Version identify the index state that first serves the
	// mutation: Epoch is the base generation, Version increments on
	// every published index state (mutation, compaction or rebuild).
	Epoch   uint64 `json:"epoch"`
	Version uint64 `json:"version"`
	// PendingOps counts delta mutations not yet compacted, after this one.
	PendingOps int `json:"pending_ops"`
	// Deduped reports that an Idempotency-Key matched a previously
	// applied mutation: the stored result is echoed and nothing was
	// re-applied.
	Deduped bool `json:"deduped,omitempty"`
}

// CompactResponse reports one explicit compaction request.
type CompactResponse struct {
	Dataset string `json:"dataset"`
	// Epoch is the serving generation after the call.
	Epoch uint64 `json:"epoch"`
	// Compacted is false when there was nothing to fold in or a
	// compaction was already running (the call is then a no-op).
	Compacted bool `json:"compacted"`
	// Objects is the live object count of the serving epoch.
	Objects   int     `json:"objects"`
	ElapsedMS float64 `json:"elapsed_ms"`
}

// BuildInfo identifies the serving binary.
type BuildInfo struct {
	Version string `json:"version"`
	Go      string `json:"go"`
	// GridOrder is k of the shared 2^k × 2^k approximation grid — part
	// of build identity because approximations from different grids are
	// not comparable.
	GridOrder uint `json:"grid_order"`
}

// ShardInfo identifies the key-range slice a shard-mode server owns.
type ShardInfo struct {
	Index    int    `json:"index"`
	KeyRange string `json:"key_range"`
	// RouteOrder is the Hilbert order of the routing grid the key range
	// addresses — must match across the fleet and the router.
	RouteOrder uint `json:"route_order"`
}

// ShardHealth is one shard's aggregate health as seen by a router.
type ShardHealth struct {
	Index    int    `json:"index"`
	KeyRange string `json:"key_range"`
	// Replicas / Alive count configured vs currently-responding hosts.
	Replicas int `json:"replicas"`
	Alive    int `json:"alive"`
	// Status is "ok", "degraded" (alive but fewer than Replicas, or a
	// replica reports dataset degradation) or "dead" (no replica
	// answered).
	Status string `json:"status"`
	// Datasets is the dataset count of the first live replica.
	Datasets int `json:"datasets,omitempty"`
	// Error is the last probe error when no replica answered.
	Error string `json:"error,omitempty"`
}

// HealthResponse is the /v1/healthz payload.
type HealthResponse struct {
	// Status is "ok", "degraded" (at least one dataset serving without
	// its approximations; on a router: at least one shard not fully
	// healthy) or "draining".
	Status   string    `json:"status"`
	Build    BuildInfo `json:"build"`
	Datasets int       `json:"datasets"`
	InFlight int64     `json:"in_flight"`
	Queued   int64     `json:"queued"`
	// Degraded and Rebuilding list datasets currently serving in
	// degraded mode, split by whether a background rebuild is running.
	Degraded   []string `json:"degraded,omitempty"`
	Rebuilding []string `json:"rebuilding,omitempty"`
	// DegradedServed counts requests (lifetime) answered by the forced
	// ST2 pipeline because a dataset involved was degraded.
	DegradedServed int64 `json:"degraded_served"`
	// Shard is set by shard-mode servers: the key-range slice served.
	Shard *ShardInfo `json:"shard,omitempty"`
	// Shards is set by routers: per-shard aggregate health.
	Shards []ShardHealth `json:"shards,omitempty"`
	// WalPendingBytes sums the on-disk write-ahead log bytes across all
	// datasets — the replay debt a cold restart would pay. Omitted when
	// durability is disabled.
	WalPendingBytes int64 `json:"wal_pending_bytes,omitempty"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
	// Reason is a stable machine-readable cause code (for example
	// "unroutable_write" or "wal_append_failed") so clients can branch
	// without parsing the human-oriented Error text.
	Reason string `json:"reason,omitempty"`
}
