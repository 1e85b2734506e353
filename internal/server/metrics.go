package server

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videodb/internal/core"
)

// metricsRegistry is the in-process metrics layer: per-route request
// counters and latency histograms, plus write-path counters. It renders
// in the Prometheus text exposition format, so the server is scrapable
// without taking on a client-library dependency.
type metricsRegistry struct {
	mu sync.Mutex
	// routes holds each route's series, created when the route is
	// registered; requests update them atomically, without mu.
	routes       map[string]*routeStats
	ingests      int64
	ingestFrames int64
	removes      int64
	snapshots    int64
	batches      int64
	batchQueries int64
	// replSnapshots / replChunks / replBytes count the primary side of
	// WAL shipping: bootstrap snapshots streamed and journal chunks
	// (and their bytes) served to replicas.
	replSnapshots int64
	replChunks    int64
	replBytes     int64
	// migrExports / migrImports count the per-clip record traffic of
	// online resharding: records exported to a migrating coordinator and
	// records imported from one (with their byte volumes).
	migrExports     int64
	migrExportBytes int64
	migrImports     int64
	migrImportBytes int64
	// snapshotLastUnix is the wall-clock time of the last successful
	// POST /api/snapshot, as Unix seconds; 0 until one succeeds.
	snapshotLastUnix float64
	// ingestPhase accumulates ingest-pipeline time by phase label
	// (analyze, detect, tree, index); detect is the sequential share
	// inside analyze, not an additional phase.
	ingestPhase map[string]float64
}

// durationBuckets are the histogram upper bounds in seconds, spanning
// sub-millisecond index lookups to multi-second live ingests.
var durationBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 1, 5, 30}

func newMetricsRegistry() *metricsRegistry {
	return &metricsRegistry{
		routes:      make(map[string]*routeStats),
		ingestPhase: make(map[string]float64),
	}
}

// routeStats is one route's request counter, by status code, and its
// latency histogram.
type routeStats struct {
	codes   [1000]atomic.Int64 // by status code; WriteHeader takes 100–999
	buckets [9]atomic.Int64    // len(durationBuckets)+1, last is +Inf
	nanos   atomic.Int64       // latency sum
}

// route returns the series for a route pattern, creating them on first
// registration.
func (m *metricsRegistry) route(pattern string) *routeStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	st := m.routes[pattern]
	if st == nil {
		st = &routeStats{}
		m.routes[pattern] = st
	}
	return st
}

// observe records one served request.
func (st *routeStats) observe(code int, d time.Duration) {
	i := 0
	for i < len(durationBuckets) && d.Seconds() > durationBuckets[i] {
		i++
	}
	st.buckets[i].Add(1)
	st.nanos.Add(int64(d))
	if code >= 0 && code < len(st.codes) {
		st.codes[code].Add(1)
	}
}

// addIngest records one live-ingested clip: its frame count and where
// the pipeline's time went.
func (m *metricsRegistry) addIngest(frames int, st core.IngestStats) {
	m.mu.Lock()
	m.ingests++
	m.ingestFrames += int64(frames)
	m.ingestPhase["analyze"] += st.AnalyzeSeconds
	m.ingestPhase["detect"] += st.DetectSeconds
	m.ingestPhase["tree"] += st.TreeSeconds
	m.ingestPhase["index"] += st.IndexSeconds
	m.mu.Unlock()
}

func (m *metricsRegistry) addRemove() { m.mu.Lock(); m.removes++; m.mu.Unlock() }

func (m *metricsRegistry) addSnapshot() {
	m.mu.Lock()
	m.snapshots++
	m.snapshotLastUnix = float64(time.Now().Unix())
	m.mu.Unlock()
}

// addReplicationSnapshot records one bootstrap snapshot streamed to a
// replica.
func (m *metricsRegistry) addReplicationSnapshot() {
	m.mu.Lock()
	m.replSnapshots++
	m.mu.Unlock()
}

// addReplicationChunk records one WAL chunk of n bytes shipped.
func (m *metricsRegistry) addReplicationChunk(n int) {
	m.mu.Lock()
	m.replChunks++
	m.replBytes += int64(n)
	m.mu.Unlock()
}

// addMigrationExport records one clip record of n bytes exported to a
// resharding coordinator.
func (m *metricsRegistry) addMigrationExport(n int) {
	m.mu.Lock()
	m.migrExports++
	m.migrExportBytes += int64(n)
	m.mu.Unlock()
}

// addMigrationImport records one clip record of n bytes imported from a
// resharding coordinator.
func (m *metricsRegistry) addMigrationImport(n int) {
	m.mu.Lock()
	m.migrImports++
	m.migrImportBytes += int64(n)
	m.mu.Unlock()
}

// addBatch records one served batch of n queries.
func (m *metricsRegistry) addBatch(n int) {
	m.mu.Lock()
	m.batches++
	m.batchQueries += int64(n)
	m.mu.Unlock()
}

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// render writes the registry plus caller-supplied counters and gauges
// (journal totals and database sizes are read at scrape time, not
// tracked incrementally).
func (m *metricsRegistry) render(w io.Writer, counters, gauges map[string]float64) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// A route appears once it has served a request.
	routes := make([]string, 0, len(m.routes))
	for r, st := range m.routes {
		for i := range st.codes {
			if st.codes[i].Load() > 0 {
				routes = append(routes, r)
				break
			}
		}
	}
	sort.Strings(routes)

	fmt.Fprintln(w, "# HELP videodb_http_requests_total HTTP requests served, by route pattern and status code.")
	fmt.Fprintln(w, "# TYPE videodb_http_requests_total counter")
	for _, route := range routes {
		st := m.routes[route]
		for c := range st.codes {
			if n := st.codes[c].Load(); n > 0 {
				fmt.Fprintf(w, "videodb_http_requests_total{route=%q,code=\"%d\"} %d\n",
					escapeLabel(route), c, n)
			}
		}
	}

	fmt.Fprintln(w, "# HELP videodb_http_request_duration_seconds Request latency, by route pattern.")
	fmt.Fprintln(w, "# TYPE videodb_http_request_duration_seconds histogram")
	for _, route := range routes {
		st := m.routes[route]
		label := escapeLabel(route)
		cum := int64(0)
		for i, le := range durationBuckets {
			cum += st.buckets[i].Load()
			fmt.Fprintf(w, "videodb_http_request_duration_seconds_bucket{route=%q,le=\"%g\"} %d\n", label, le, cum)
		}
		cum += st.buckets[len(durationBuckets)].Load()
		fmt.Fprintf(w, "videodb_http_request_duration_seconds_bucket{route=%q,le=\"+Inf\"} %d\n", label, cum)
		fmt.Fprintf(w, "videodb_http_request_duration_seconds_sum{route=%q} %g\n", label, time.Duration(st.nanos.Load()).Seconds())
		fmt.Fprintf(w, "videodb_http_request_duration_seconds_count{route=%q} %d\n", label, cum)
	}

	for _, c := range []struct {
		name, help string
		value      int64
	}{
		{"videodb_ingests_total", "Clips ingested through POST /api/clips.", m.ingests},
		{"videodb_ingest_frames_total", "Frames analyzed by live ingests through POST /api/clips.", m.ingestFrames},
		{"videodb_removes_total", "Clips removed through DELETE /api/clips/{name}.", m.removes},
		{"videodb_snapshots_total", "Snapshots persisted through POST /api/snapshot.", m.snapshots},
		{"videodb_query_batches_total", "Batch requests served through POST /api/query/batch.", m.batches},
		{"videodb_batch_queries_total", "Individual queries answered inside batch requests.", m.batchQueries},
		{"videodb_replication_snapshots_total", "Bootstrap snapshots streamed to replicas.", m.replSnapshots},
		{"videodb_replication_chunks_total", "WAL chunks shipped to replicas.", m.replChunks},
		{"videodb_replication_bytes_total", "WAL bytes shipped to replicas.", m.replBytes},
		{"videodb_migration_exports_total", "Clip records exported to a resharding coordinator.", m.migrExports},
		{"videodb_migration_export_bytes_total", "Clip record bytes exported to a resharding coordinator.", m.migrExportBytes},
		{"videodb_migration_imports_total", "Clip records imported during a reshard.", m.migrImports},
		{"videodb_migration_import_bytes_total", "Clip record bytes imported during a reshard.", m.migrImportBytes},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.value)
	}

	fmt.Fprintln(w, "# HELP videodb_ingest_phase_seconds_total Ingest-pipeline time by phase; detect is the sequential share inside analyze.")
	fmt.Fprintln(w, "# TYPE videodb_ingest_phase_seconds_total counter")
	for _, phase := range []string{"analyze", "detect", "index", "tree"} {
		fmt.Fprintf(w, "videodb_ingest_phase_seconds_total{phase=%q} %g\n", phase, m.ingestPhase[phase])
	}

	if m.snapshotLastUnix > 0 {
		fmt.Fprintln(w, "# HELP videodb_snapshot_last_success_timestamp_seconds Unix time of the last successful snapshot.")
		fmt.Fprintf(w, "# TYPE videodb_snapshot_last_success_timestamp_seconds gauge\nvideodb_snapshot_last_success_timestamp_seconds %g\n", m.snapshotLastUnix)
	}

	for _, set := range []struct {
		kind   string
		values map[string]float64
	}{{"counter", counters}, {"gauge", gauges}} {
		names := make([]string, 0, len(set.values))
		for n := range set.values {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "# TYPE %s %s\n%s %g\n", n, set.kind, n, set.values[n])
		}
	}
}

// handleMetrics serves GET /api/metrics in Prometheus text format.
// Journal counters come straight from the writer's lifetime stats at
// scrape time; recovery gauges describe the last startup replay.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	cs := s.db.QueryCacheStats()
	counters := map[string]float64{
		"videodb_query_cache_hits_total":      float64(cs.Hits),
		"videodb_query_cache_misses_total":    float64(cs.Misses),
		"videodb_query_cache_evictions_total": float64(cs.Evictions),
	}
	gauges := map[string]float64{
		"videodb_clips":                float64(len(s.db.Clips())),
		"videodb_indexed_shots":        float64(s.db.ShotCount()),
		"videodb_ingest_workers":       float64(s.db.Workers()),
		"videodb_query_cache_size":     float64(cs.Size),
		"videodb_query_cache_capacity": float64(cs.Capacity),
	}
	if s.journal != nil {
		st := s.journal.Stats()
		counters["videodb_wal_records_total"] = float64(st.Records)
		counters["videodb_wal_fsyncs_total"] = float64(st.Fsyncs)
		counters["videodb_wal_fsync_seconds_total"] = st.FsyncSeconds
		counters["videodb_wal_rotations_total"] = float64(st.Rotations)
		gauges["videodb_wal_bytes"] = float64(st.Bytes)
	}
	if s.storage != nil {
		st := s.storage.Stats()
		counters["videodb_segment_flushes_total"] = float64(st.Flushes)
		counters["videodb_segment_compactions_total"] = float64(st.Compactions)
		gauges["videodb_segments"] = float64(st.Segments)
		gauges["videodb_segment_bytes"] = float64(st.SegmentBytes)
		gauges["videodb_segment_max_generation"] = float64(st.MaxGen)
		gauges["videodb_memtable_clips"] = float64(s.db.MemtableClips())
		gauges["videodb_cold_clips"] = float64(s.db.ColdClips())
		cc := s.db.ClipCacheStats()
		counters["videodb_clip_cache_hits_total"] = float64(cc.Hits)
		counters["videodb_clip_cache_misses_total"] = float64(cc.Misses)
		gauges["videodb_clip_cache_size"] = float64(cc.Entries)
		gauges["videodb_clip_cache_capacity"] = float64(cc.Max)
	}
	if s.recovery != nil {
		gauges["videodb_recovery_replayed_records"] = float64(s.recovery.Records)
		gauges["videodb_recovery_truncated_bytes"] = float64(s.recovery.TruncatedBytes())
		damaged := 0.0
		if s.recovery.Damaged {
			damaged = 1
		}
		gauges["videodb_recovery_damaged"] = damaged
	}
	if s.admission != nil {
		st := s.admission.Stats()
		counters["videodb_admission_shed_total"] = float64(st.ShedTotal)
		for _, reason := range []string{"rate_limit", "client_limit", "queue_full", "queue_timeout"} {
			counters["videodb_admission_shed_"+reason+"_total"] = float64(st.Shed[reason])
		}
		counters["videodb_admission_queued_total"] = float64(st.Queued)
		counters["videodb_admission_admitted_total"] = float64(st.Admitted)
		gauges["videodb_admission_inflight"] = float64(st.Inflight)
		gauges["videodb_admission_waiting"] = float64(st.Waiting)
		gauges["videodb_admission_clients"] = float64(st.Clients)
	}
	if s.extraMetrics != nil {
		s.extraMetrics(counters, gauges)
	}
	s.metrics.render(w, counters, gauges)
}
