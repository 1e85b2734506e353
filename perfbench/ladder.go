package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"videodb/internal/cluster"
	"videodb/internal/core"
	"videodb/internal/feature"
	"videodb/internal/pyramid"
	"videodb/internal/region"
	"videodb/internal/sbd"
	"videodb/internal/scenetree"
	"videodb/internal/segstore"
	"videodb/internal/server"
	"videodb/internal/store"
	"videodb/internal/varindex"
	"videodb/internal/video"
	"videodb/internal/wal"
)

// ladderClips are the corpus clips (by index) the ingest rungs analyze:
// five genres, 1,579 frames — enough for steady per-frame figures in a
// few seconds.
var ladderClips = []int{2, 6, 7, 11, 20}

// segmentFlushes is how many segments the traced store is built from;
// it equals the compactor's default fanout, so one CompactOnce merges
// them all.
const segmentFlushes = segstore.DefaultFanout

// opens is how many times segstore.Open is timed.
const opens = 5

// ladder accumulates the traced run's metrics.
type ladder struct {
	res  *result
	vals map[string]float64
}

func (l *ladder) add(name, unit string, v float64, note string) {
	l.res.metrics = append(l.res.metrics, metric{name: name, unit: unit, value: v, note: note})
	l.vals[name] = v
}

// runLadder times each layer's public entry point in process, over the
// corpus and the workload's open-loop request stream. Each rung adds one
// layer to the one below it, so the gap between adjacent rungs is that
// layer's own time.
func runLadder(ctx context.Context, w *workload, c *corpus, o *oracle, seed uint64, d time.Duration, runDir string) (*result, error) {
	l := &ladder{res: &result{}, vals: map[string]float64{}}
	st, err := l.storeRungs(o, filepath.Join(runDir, "store"))
	if err != nil {
		return nil, fmt.Errorf("segstore rungs: %w", err)
	}
	defer st.Close()

	cat := newCatalog(o.db)
	reqs := newStreamGen(w.mix, cat, seed, 1).take(int(w.rate * (d * 5 / 8).Seconds()))
	for i := range reqs {
		bindStatic(&reqs[i], cat)
	}
	if err := l.queryRungs(ctx, o, st.DB(), reqs); err != nil {
		return nil, err
	}
	if err := l.clusterRungs(ctx, o, reqs); err != nil {
		return nil, fmt.Errorf("cluster rungs: %w", err)
	}
	if err := l.ingestRungs(c, o, filepath.Join(runDir, "wal")); err != nil {
		return nil, err
	}
	l.checkMonotone()
	return l.res, nil
}

// bindStatic resolves a live-rank request against the corpus names, as
// the in-process rungs have no changing live set.
func bindStatic(r *request, cat *catalog) {
	if r.clip != "" || (r.kind != kindTree && r.kind != kindSimilar) {
		return
	}
	i := r.rank % len(cat.names)
	r.clip = cat.names[i]
	r.shot = int(r.shotFrac * float64(len(cat.feats[i])))
}

// storeRungs builds a segment store holding the corpus in
// segmentFlushes segments (timing each Flush), compacts them (timing
// CompactOnce), then times reopening it. It returns the reopened store,
// whose clips are all cold — the state a -data server serves from.
func (l *ladder) storeRungs(o *oracle, dir string) (*segstore.Store, error) {
	opts := segstore.Options{
		Core:   core.DefaultOptions(),
		Extra:  []core.OpenOption{core.WithQueryCache(4096)},
		Policy: wal.PolicyNone,
	}
	st, err := segstore.Open(dir, opts)
	if err != nil {
		return nil, err
	}
	names := o.db.Clips()
	var flushes []float64
	var flushed int64
	for k := range segmentFlushes {
		for i := k; i < len(names); i += segmentFlushes {
			if _, err := st.DB().ImportClipRecord(o.payloads[names[i]]); err != nil {
				st.Close()
				return nil, err
			}
		}
		t0 := time.Now()
		fr, err := st.Flush()
		if err != nil {
			st.Close()
			return nil, err
		}
		flushes = append(flushes, ms(time.Since(t0)))
		flushed += fr.Bytes
	}
	t0 := time.Now()
	merged, err := st.CompactOnce()
	compact := ms(time.Since(t0))
	if err == nil && !merged {
		err = fmt.Errorf("CompactOnce merged nothing over %d segments", segmentFlushes)
	}
	rewritten := st.Stats().SegmentBytes
	if cerr := st.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	var openT []float64
	for k := range opens {
		t0 := time.Now()
		st, err = segstore.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		openT = append(openT, ms(time.Since(t0)))
		if k < opens-1 {
			if err := st.Close(); err != nil {
				return nil, err
			}
		}
	}
	l.add("segstore.flush_ms", "ms", median(flushes), fmt.Sprintf("median of %d flushes, %d bytes in all", len(flushes), flushed))
	l.add("segstore.compact_ms", "ms", compact, fmt.Sprintf("one CompactOnce over %d segments", segmentFlushes))
	l.add("segstore.rewrite_bytes_per_flushed_byte", "ratio", float64(rewritten)/float64(flushed), "compacted segment bytes over flushed bytes")
	l.add("segstore.open_ms", "ms", median(openT), fmt.Sprintf("median of %d opens of the compacted corpus", opens))
	return st, nil
}

// queryRungs: varindex kernel → core (scene resolution) → core with the
// query cache → the server handler (parsing, middleware, encoding) →
// loopback HTTP.
func (l *ladder) queryRungs(ctx context.Context, o *oracle, db *core.Database, reqs []request) error {
	var qs []varindex.Query
	var tols []float64
	for _, r := range reqs {
		if r.kind == kindQuery || r.kind == kindBatch {
			for _, q := range r.qs {
				qs = append(qs, varindex.Query{VarBA: q.VarBA, VarOA: q.VarOA})
				tols = append(tols, r.tol)
			}
		}
	}
	ix := varindex.New()
	for _, rec := range o.db.Records() {
		for k, s := range rec.Shots {
			ix.Add(varindex.Entry{Clip: rec.Name, Shot: k, Start: s.Shot.Start, End: s.Shot.End,
				VarBA: s.Feature.VarBA, VarOA: s.Feature.VarOA, MeanBA: s.Feature.MeanBA})
		}
	}
	ix.Build()
	var sc varindex.Scratch
	var ents []varindex.Entry
	var search, uncached, cached []float64
	matches := 0
	for i, q := range qs {
		t0 := time.Now()
		var err error
		ents, err = ix.SearchAppend(ents[:0], q, tolerance(db, tols[i]), &sc)
		search = append(search, us(time.Since(t0)))
		if err != nil {
			return err
		}
		matches += len(ents)
	}
	cc0 := db.ClipCacheStats()
	var dst []core.Match
	for i, q := range qs {
		t0 := time.Now()
		var err error
		dst, err = db.QueryUncachedAppend(dst[:0], q, tolerance(db, tols[i]))
		uncached = append(uncached, us(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	qc0 := db.QueryCacheStats()
	for i, q := range qs {
		t0 := time.Now()
		var err error
		dst, err = db.QueryAppend(dst[:0], q, tolerance(db, tols[i]))
		cached = append(cached, us(time.Since(t0)))
		if err != nil {
			return err
		}
	}
	qc1 := db.QueryCacheStats()
	n := len(qs)
	l.res.attempted += 3 * n
	l.add("varindex.search_us_p50", "us", quantile(search, 0.5), fmt.Sprintf("n=%d queries", n))
	l.add("varindex.matches_per_query", "count", float64(matches)/float64(max(n, 1)), fmt.Sprintf("n=%d queries", n))
	l.add("core.query_us_p50", "us", quantile(uncached, 0.5), fmt.Sprintf("n=%d, QueryUncachedAppend", n))
	l.add("core.cached_query_us_p50", "us", quantile(cached, 0.5), fmt.Sprintf("n=%d, QueryAppend replaying the stream", n))
	l.add("core.query_cache_hit_ratio", "ratio", ratio(qc1.Hits-qc0.Hits, qc1.Misses-qc0.Misses), fmt.Sprintf("%d hits, %d misses", qc1.Hits-qc0.Hits, qc1.Misses-qc0.Misses))

	h := server.New(db).Handler()
	var handler []float64
	var respBytes int64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range reqs {
		method, path, body := reqs[i].httpParts()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, us(time.Since(t0)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler rung: %s %s: status %d", method, path, rec.Code)
		}
		respBytes += int64(rec.Body.Len())
	}
	runtime.ReadMemStats(&m1)
	cc1 := db.ClipCacheStats()
	l.add("core.clip_cache_hit_ratio", "ratio", ratio(cc1.Hits-cc0.Hits, cc1.Misses-cc0.Misses),
		fmt.Sprintf("%d hits, %d misses from the first read after open through the handler rung", cc1.Hits-cc0.Hits, cc1.Misses-cc0.Misses))
	nr := len(reqs)
	l.res.attempted += 2 * nr
	l.add("server.handler_us_p50", "us", quantile(handler, 0.5), fmt.Sprintf("n=%d requests via httptest", nr))
	l.add("server.handler_us_p99", "us", quantile(handler, 0.99), fmt.Sprintf("n=%d requests via httptest", nr))
	l.add("server.resp_bytes_per_req", "bytes", float64(respBytes)/float64(nr), fmt.Sprintf("n=%d", nr))
	l.add("server.allocs_per_req", "count", float64(m1.Mallocs-m0.Mallocs)/float64(nr), "heap allocations per request, recorder and request included")

	srv, base, err := serveLoopback(h)
	if err != nil {
		return err
	}
	defer srv.Close()
	loop, err := timeOverHTTP(ctx, base, reqs, nil)
	if err != nil {
		return fmt.Errorf("loopback rung: %w", err)
	}
	l.add("http.loopback_us_p50", "us", quantile(loop, 0.5), fmt.Sprintf("n=%d requests, one keep-alive connection", nr))
	return nil
}

// shards is how many in-process shards the cluster rungs scatter to.
const shards = 3

// clusterRungs: one shard answering alone over loopback, then the
// coordinator handler scattering to three in-process shards that hold
// the corpus by ring placement.
func (l *ladder) clusterRungs(ctx context.Context, o *oracle, reqs []request) error {
	ring := cluster.NewRing(shards, cluster.DefaultVnodes)
	var bases []string
	var cfg cluster.Config
	for i := range shards {
		db, err := core.Open(core.DefaultOptions(), core.WithQueryCache(4096))
		if err != nil {
			return err
		}
		for _, name := range o.db.Clips() {
			if ring.Owner(name) == i {
				if _, err := db.ApplyIngestRecord(o.payloads[name]); err != nil {
					return err
				}
			}
		}
		srv, base, err := serveLoopback(server.New(db).Handler())
		if err != nil {
			return err
		}
		defer srv.Close()
		bases = append(bases, base)
		cfg.Shards = append(cfg.Shards, cluster.ShardConfig{Primary: base})
	}
	shard, err := timeOverHTTP(ctx, "", reqs, func(r *request) string {
		if r.kind == kindTree || r.kind == kindSimilar {
			return bases[ring.Owner(r.clip)]
		}
		return bases[0]
	})
	if err != nil {
		return fmt.Errorf("shard rung: %w", err)
	}
	coord, err := cluster.New(cfg)
	if err != nil {
		return err
	}
	defer coord.Close()
	h := coord.Handler()
	var scatter []float64
	for i := range reqs {
		method, path, body := reqs[i].httpParts()
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		scatter = append(scatter, us(time.Since(t0)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("scatter rung: %s %s: status %d", method, path, rec.Code)
		}
	}
	l.res.attempted += 2 * len(reqs)
	l.add("cluster.shard_us_p50", "us", quantile(shard, 0.5), fmt.Sprintf("n=%d requests to one of %d shards", len(reqs), shards))
	l.add("cluster.scatter_us_p50", "us", quantile(scatter, 0.5), fmt.Sprintf("n=%d requests through the coordinator handler", len(reqs)))
	return nil
}

// ingestRungs times the write path stage by stage over ladderClips:
// upload decode, region extraction, pyramid reduction, the whole frame
// analysis, shot detection, scene-tree construction, core ingest, the
// journal, and the upload handler. Fresh core ingests must reproduce
// the oracle's records byte for byte.
func (l *ladder) ingestRungs(c *corpus, o *oracle, walDir string) error {
	var decode, regionT, pyr, analyze, detect, ingest, handler time.Duration
	var trees []float64
	var decodeAlloc, ingestAlloc uint64
	frames := 0
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return err
	}
	fresh, err := core.Open(core.DefaultOptions())
	if err != nil {
		return err
	}
	h := server.New(fresh).Handler()
	cfg := core.DefaultOptions()
	nc := len(ladderClips)
	for _, ci := range ladderClips {
		raw, err := os.ReadFile(c.path(ci))
		if err != nil {
			return err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		clip, err := store.ReadClip(bytes.NewReader(raw))
		decode += time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		decodeAlloc += m1.TotalAlloc - m0.TotalAlloc
		frames += clip.Len()

		w, hgt := clip.Frames[0].W, clip.Frames[0].H
		g, err := region.New(w, hgt)
		if err != nil {
			return err
		}
		tba, foa := video.NewFrame(g.L, g.W), video.NewFrame(g.B, g.H)
		red := pyramid.NewReducer(max(g.L, g.B), max(g.W, g.H))
		sig := make([]video.Pixel, g.L)
		for _, f := range clip.Frames {
			t0 := time.Now()
			g.TBAInto(f, tba)
			g.FOAInto(f, foa)
			t1 := time.Now()
			red.SignatureInto(tba, sig)
			red.Sign(foa)
			regionT += t1.Sub(t0)
			pyr += time.Since(t1)
		}
		an := feature.NewAnalyzerWithGeometry(g)
		feats := make([]feature.FrameFeature, clip.Len())
		t0 = time.Now()
		for i, f := range clip.Frames {
			feats[i] = an.Analyze(f)
		}
		analyze += time.Since(t0)
		det, err := sbd.NewCameraTracking(cfg.SBD, an)
		if err != nil {
			return err
		}
		stream := det.NewStream()
		t0 = time.Now()
		for i := range feats {
			stream.Push(&feats[i])
		}
		detect += time.Since(t0)
		bounds, _ := stream.Result()
		shots := sbd.ShotsFromBoundaries(bounds, clip.Len())
		t0 = time.Now()
		if _, err := scenetree.Build(cfg.Tree, feats, shots); err != nil {
			return err
		}
		trees = append(trees, us(time.Since(t0)))

		runtime.ReadMemStats(&m0)
		t0 = time.Now()
		rec, err := db.IngestContext(context.Background(), clip)
		ingest += time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return err
		}
		ingestAlloc += m1.TotalAlloc - m0.TotalAlloc
		if p, err := core.EncodeClipRecord(rec); err != nil || !bytes.Equal(p, o.payloads[rec.Name]) {
			l.res.check.fail(&request{kind: kindClip, clip: rec.Name}, "fresh in-process ingest differs from the oracle record")
		}
		l.res.check.checked++

		req := httptest.NewRequest(http.MethodPost, "/api/clips", bytes.NewReader(raw))
		rr := httptest.NewRecorder()
		t0 = time.Now()
		h.ServeHTTP(rr, req)
		handler += time.Since(t0)
		if rr.Code != http.StatusCreated {
			return fmt.Errorf("ingest handler rung: %q: status %d", clip.Name, rr.Code)
		}
	}
	l.res.attempted += 2 * nc
	perFrame := func(d time.Duration) float64 { return us(d) / float64(frames) }
	note := fmt.Sprintf("%d frames of %d clips", frames, nc)
	l.add("store.decode_us_per_frame", "us", perFrame(decode), note)
	l.add("store.decode_alloc_bytes_per_frame", "bytes", float64(decodeAlloc)/float64(frames), note)
	l.add("region.extract_us_per_frame", "us", perFrame(regionT), note+", TBAInto+FOAInto")
	l.add("pyramid.reduce_us_per_frame", "us", perFrame(pyr), note+", SignatureInto+Sign")
	l.add("feature.analyze_us_per_frame", "us", perFrame(analyze), note+", serial Analyze")
	l.add("sbd.detect_us_per_frame", "us", perFrame(detect), note+", Stream.Push")
	l.add("scenetree.build_us_per_clip", "us", median(trees), fmt.Sprintf("median of %d clips", nc))
	l.add("core.ingest_us_per_frame", "us", perFrame(ingest), note+", IngestContext at GOMAXPROCS workers")
	l.add("core.ingest_alloc_bytes_per_frame", "bytes", float64(ingestAlloc)/float64(frames), note)
	l.add("server.ingest_handler_ms_per_clip", "ms", ms(handler)/float64(nc), fmt.Sprintf("%d VDBF uploads via httptest", nc))
	return l.walRungs(o, walDir)
}

// walRungs appends every corpus record to a fresh journal, syncing
// after each append.
func (l *ladder) walRungs(o *oracle, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	wr, err := wal.OpenWriter(filepath.Join(dir, "wal.log"), wal.PolicyNone, 0)
	if err != nil {
		return err
	}
	var lat []float64
	names := o.db.Clips()
	for _, name := range names {
		t0 := time.Now()
		err := wr.Append(wal.OpIngest, o.payloads[name])
		if err == nil {
			err = wr.Sync()
		}
		lat = append(lat, us(time.Since(t0)))
		if err != nil {
			wr.Close()
			return err
		}
	}
	size := wr.Size()
	if err := wr.Close(); err != nil {
		return err
	}
	l.res.attempted += len(names)
	l.add("wal.append_sync_us", "us", median(lat), fmt.Sprintf("median of %d Append+Sync", len(lat)))
	l.add("wal.bytes_per_clip", "bytes", float64(size)/float64(len(names)), fmt.Sprintf("%d records", len(names)))
	return nil
}

// checkMonotone flags a rung that reads faster than the rung below it,
// which means the ladder no longer measures nested work.
func (l *ladder) checkMonotone() {
	v := l.vals
	pairs := [][2]string{
		{"varindex.search_us_p50", "core.query_us_p50"},
		{"core.cached_query_us_p50", "server.handler_us_p50"},
		{"server.handler_us_p50", "http.loopback_us_p50"},
		{"cluster.shard_us_p50", "cluster.scatter_us_p50"},
		{"region.extract_us_per_frame", "feature.analyze_us_per_frame"},
		{"pyramid.reduce_us_per_frame", "feature.analyze_us_per_frame"},
		{"sbd.detect_us_per_frame", "core.ingest_us_per_frame"},
	}
	for _, p := range pairs {
		if v[p[0]] > v[p[1]] {
			l.res.inversions = append(l.res.inversions, fmt.Sprintf("%s %.4g > %s %.4g", p[0], v[p[0]], p[1], v[p[1]]))
		}
	}
}

// serveLoopback serves h on a fresh loopback listener.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) // returns ErrServerClosed when the caller closes srv
	return srv, "http://" + ln.Addr().String(), nil
}

// timeOverHTTP sends each request in turn over one keep-alive
// connection to base (or to where(r) when base is empty) and returns
// the per-request latencies in microseconds.
func timeOverHTTP(ctx context.Context, base string, reqs []request, where func(*request) string) ([]float64, error) {
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{DisableCompression: true}}
	defer client.CloseIdleConnections()
	s := newSender(client, base)
	var out []float64
	for _, r := range reqs {
		if where != nil {
			s.base = where(&r)
		}
		t0 := time.Now()
		ok, _ := s.do(ctx, r)
		out = append(out, us(time.Since(t0)))
		if !ok {
			m, p, _ := r.httpParts()
			return nil, fmt.Errorf("%s %s failed", m, p)
		}
	}
	return out, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func ratio(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
