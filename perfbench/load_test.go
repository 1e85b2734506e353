package main

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.1, 1}, {0.11, 2}, {0.9, 9}, {0.99, 10}, {1, 10}, {0, 1},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(1000 - i)
	}
	if got := quantile(many, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples is not NaN")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestOpenLoopTimesFromDue stalls the first request of a fixed-rate run
// over one connection: the requests due during the stall must be
// charged the wait, because latency runs from the due time, not from
// the send.
func TestOpenLoopTimesFromDue(t *testing.T) {
	const stall = 200 * time.Millisecond
	var n atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 1 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	s := newSender(client, srv.URL)
	reqs := make([]request, 10)
	for i := range reqs {
		reqs[i] = request{kind: kindList}
	}
	const rate = 100.0 // one request due every 10ms
	res := openLoop(context.Background(), s, reqs, rate, 1, time.Now())
	for i, o := range res.outcomes {
		if !o.ok {
			t.Fatalf("request %d failed", i)
		}
		due := time.Duration(float64(i) / rate * float64(time.Second))
		// Request i could not be sent before the stall ended.
		if want := stall - due; o.lat < want {
			t.Errorf("request %d: latency %v, want at least %v (it waited behind the stall)", i, o.lat, want)
		}
	}
	for i, l := range res.lateness {
		if l > 50*time.Millisecond {
			t.Errorf("dispatch %d was %v late: the dispatcher blocked on the busy connection", i, l)
		}
	}
	if res.sched != 100*time.Millisecond {
		t.Errorf("scheduled span %v, want 100ms", res.sched)
	}
}

func TestClosedLoopGoodput(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
	}))
	defer srv.Close()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	s := newSender(client, srv.URL)
	cat := testCatalog()
	gens := []*streamGen{newStreamGen(mixWide, cat, 1, 100)}
	res := closedLoop(context.Background(), s, gens, 300*time.Millisecond, 10*time.Millisecond, 100*time.Millisecond, time.Now())
	if len(res.outcomes) == 0 || res.good != 0 {
		t.Errorf("%d reads, %d within the limit; want some reads, none within 10ms", len(res.outcomes), res.good)
	}
	if len(res.goodput) != 3 || res.goodput[0] != 0 {
		t.Errorf("goodput windows %v, want 3 windows of zero", res.goodput)
	}
	if len(s.distinct()) == 0 {
		t.Error("sender remembered no distinct reads")
	}
}
