package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"videodb/internal/admission"
	"videodb/internal/core"
)

func newAdmissionServer(t *testing.T, cfg admission.Config) (*httptest.Server, *Server) {
	t.Helper()
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, WithAdmission(admission.New(cfg)))
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts, s
}

// checkBackpressure asserts the unified shed/timeout contract: a
// Retry-After header in whole seconds and a JSON body with error and
// reason fields.
func checkBackpressure(t *testing.T, resp *http.Response, wantReason string) {
	t.Helper()
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("backpressure response missing Retry-After")
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("backpressure content type %q, want JSON", ct)
	}
	var body map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("backpressure body is not JSON: %v", err)
	}
	if body["error"] == "" {
		t.Errorf("backpressure body missing error field: %v", body)
	}
	if wantReason != "" && body["reason"] != wantReason {
		t.Errorf("backpressure reason = %q, want %q", body["reason"], wantReason)
	}
}

func TestAdmissionShedsWith429(t *testing.T) {
	ts, _ := newAdmissionServer(t, admission.Config{Rate: 1, Burst: 2})

	codes := make(map[int]int)
	for i := 0; i < 6; i++ {
		resp, err := http.Get(ts.URL + "/api/clips")
		if err != nil {
			t.Fatal(err)
		}
		codes[resp.StatusCode]++
		if resp.StatusCode == http.StatusTooManyRequests {
			checkBackpressure(t, resp, "rate_limit")
		}
		resp.Body.Close()
	}
	if codes[http.StatusOK] == 0 {
		t.Errorf("no request admitted within the burst: %v", codes)
	}
	if codes[http.StatusTooManyRequests] == 0 {
		t.Errorf("no request shed past the burst: %v", codes)
	}
}

func TestAdmissionExemptsOperationalEndpoints(t *testing.T) {
	// Rate 1/burst 1: after the first request the bucket is empty, yet
	// health and metrics keep answering.
	ts, _ := newAdmissionServer(t, admission.Config{Rate: 1, Burst: 1})
	if resp, err := http.Get(ts.URL + "/api/clips"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	for _, path := range []string{"/api/health", "/api/metrics", "/api/health", "/api/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("exempt %s answered %d under overload, want 200", path, resp.StatusCode)
		}
	}
}

func TestAdmissionPerClientIsolation(t *testing.T) {
	ts, _ := newAdmissionServer(t, admission.Config{ClientRate: 1, ClientBurst: 2})

	get := func(client string) int {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/api/clips", nil)
		req.Header.Set(admission.ClientHeader, client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	shed := 0
	for i := 0; i < 5; i++ {
		if get("abuser") == http.StatusTooManyRequests {
			shed++
		}
	}
	if shed == 0 {
		t.Fatal("abusive client never shed")
	}
	if code := get("polite"); code != http.StatusOK {
		t.Errorf("well-behaved client answered %d while another client was abusive", code)
	}
}

func TestAdmissionMetricsExported(t *testing.T) {
	ts, _ := newAdmissionServer(t, admission.Config{Rate: 1, Burst: 1})
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/api/clips")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/api/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"videodb_admission_shed_total",
		"videodb_admission_shed_rate_limit_total",
		"videodb_admission_admitted_total",
		"videodb_admission_inflight",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %s", want)
		}
	}
	if strings.Contains(text, "videodb_admission_shed_total 0\n") {
		t.Error("shed_total still 0 after requests past the burst")
	}
}

func TestTimeoutResponseCarriesRetryAfter(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, WithTimeout(20*time.Millisecond))
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
	})
	ts := httptest.NewServer(s.serve("/", 0, slow))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/slow")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("slow request returned %d, want 503", resp.StatusCode)
	}
	checkBackpressure(t, resp, "timeout")
}

func TestTimeoutDeliversFastResponsesIntact(t *testing.T) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(db, WithTimeout(time.Second))
	fast := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Custom", "yes")
		w.WriteHeader(http.StatusTeapot)
		_, _ = io.WriteString(w, "short and stout")
	})
	ts := httptest.NewServer(s.serve("/", 0, fast))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/fast")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTeapot {
		t.Errorf("status %d, want 418 passed through", resp.StatusCode)
	}
	if resp.Header.Get("X-Custom") != "yes" {
		t.Error("custom header lost through the timeout buffer")
	}
	if string(body) != "short and stout" {
		t.Errorf("body %q lost through the timeout buffer", body)
	}
}
