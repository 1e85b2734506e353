package integration

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"videodb/internal/cluster"
	"videodb/internal/core"
	"videodb/internal/server"
	"videodb/internal/synth"
)

// serverFamilies is the metric family set a default vdbserver (no
// journal, segment store or admission) exposes after
// exercisedRequests, pinned so a change to the metrics code cannot
// drop, rename or add a family unnoticed.
var serverFamilies = []string{
	"videodb_batch_queries_total",
	"videodb_clips",
	"videodb_http_request_duration_seconds",
	"videodb_http_requests_total",
	"videodb_indexed_shots",
	"videodb_ingest_frames_total",
	"videodb_ingest_phase_seconds_total",
	"videodb_ingest_workers",
	"videodb_ingests_total",
	"videodb_migration_export_bytes_total",
	"videodb_migration_exports_total",
	"videodb_migration_import_bytes_total",
	"videodb_migration_imports_total",
	"videodb_query_batches_total",
	"videodb_query_cache_capacity",
	"videodb_query_cache_evictions_total",
	"videodb_query_cache_hits_total",
	"videodb_query_cache_misses_total",
	"videodb_query_cache_size",
	"videodb_removes_total",
	"videodb_replication_bytes_total",
	"videodb_replication_chunks_total",
	"videodb_replication_snapshots_total",
	"videodb_snapshots_total",
}

// exercisedRequests is the fixed request sequence sent through the
// coordinator before both expositions are scraped: reads, a batch, a
// miss and a bad query, so route series exist for several codes.
var exercisedRequests = []struct{ method, path, body string }{
	{"GET", "/api/clips", ""},
	{"GET", "/api/clips/expo-a", ""},
	{"GET", "/api/clips/expo-a/tree", ""},
	{"GET", "/api/clips/missing", ""},
	{"GET", "/api/query?varba=20&varoa=5", ""},
	{"GET", "/api/query?varba=oops&varoa=5", ""},
	{"POST", "/api/query/batch", `{"queries":[{"varba":20,"varoa":5},{"varba":60,"varoa":1}]}`},
	{"GET", "/api/similar?clip=expo-a&shot=0&k=2", ""},
	{"GET", "/api/health", ""},
}

// TestMetricsExpositionShape checks the Prometheus text of a server and
// of a coordinator in front of it: every sample belongs to the family
// of the nearest preceding # TYPE line (so each family has exactly one
// TYPE and never appears twice), every name carries the videodb_
// prefix, and the server's family set equals serverFamilies.
func TestMetricsExpositionShape(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	spec, err := synth.BuildClip(synth.GenreDrama, synth.ClipParams{
		Name: "expo-a", Shots: 4, DurationSec: 20, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	clip, _, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Ingest(clip); err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(server.New(db).Handler())
	defer shard.Close()
	coord, err := cluster.New(cluster.Config{
		Shards:        []cluster.ShardConfig{{Primary: shard.URL}},
		ProbeInterval: time.Hour,
		Timeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	front := httptest.NewServer(coord.Handler())
	defer front.Close()

	for _, rq := range exercisedRequests {
		req, err := http.NewRequest(rq.method, front.URL+rq.path, strings.NewReader(rq.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	got := checkExposition(t, "server", scrape(t, shard.URL))
	if !slices.Equal(got, serverFamilies) {
		t.Errorf("server metric families changed:\n got %q\nwant %q", got, serverFamilies)
	}
	checkExposition(t, "coordinator", scrape(t, front.URL))
}

func scrape(t *testing.T, base string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s/api/metrics: status %d", base, resp.StatusCode)
	}
	return body
}

// checkExposition validates the shape of one Prometheus text exposition
// and returns its sorted family names.
func checkExposition(t *testing.T, who string, text []byte) []string {
	t.Helper()
	types := make(map[string]string) // family -> TYPE
	var family string                // family of the latest # TYPE line
	for i, line := range strings.Split(strings.TrimRight(string(text), "\n"), "\n") {
		fail := func(format string, args ...any) {
			t.Errorf("%s line %d %q: "+format, append([]any{who, i + 1, line}, args...)...)
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if _, dup := types[name]; dup {
				fail("family %s has a second # TYPE line", name)
			}
			types[name] = kind
			family = name
			if !strings.HasPrefix(name, "videodb_") {
				fail("family %s lacks the videodb_ prefix", name)
			}
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			if name, _, _ := strings.Cut(rest, " "); !strings.HasPrefix(name, "videodb_") {
				fail("HELP for %s, which lacks the videodb_ prefix", name)
			}
			continue
		}
		// Label values may hold spaces ("GET /api/clips"); the value
		// follows the last one.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			fail("not a sample")
			continue
		}
		if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
			fail("sample value: %v", err)
		}
		name, _, _ := strings.Cut(line[:sp], "{")
		if !sampleOf(name, family, types[family]) {
			fail("sample %s outside its family (latest # TYPE is %q)", name, family)
		}
	}
	names := make([]string, 0, len(types))
	for n := range types {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// sampleOf reports whether a sample name belongs to family, given the
// family's type: histograms expose _bucket, _sum and _count series.
func sampleOf(name, family, kind string) bool {
	if name == family {
		return kind != "histogram"
	}
	if kind != "histogram" {
		return false
	}
	suffix, ok := strings.CutPrefix(name, family)
	return ok && (suffix == "_bucket" || suffix == "_sum" || suffix == "_count")
}
