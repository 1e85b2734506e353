package main

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// sender issues resolved reads and remembers each distinct one for the
// answer check.
type sender struct {
	client *http.Client
	base   string
	// resolve binds a live-set rank to a clip name (ingest-mixed); nil
	// when every request names its clip.
	resolve func(r *request)

	mu   sync.Mutex
	seen map[string]request
}

func newSender(client *http.Client, base string) *sender {
	return &sender{client: client, base: base, seen: make(map[string]request)}
}

// outcome is one read's result.
type outcome struct {
	lat   time.Duration
	end   time.Duration // completion, from the phase's start
	ok    bool
	bytes int64
}

// do resolves and sends r, reading the whole answer; ok means a 200.
func (s *sender) do(ctx context.Context, r request) (ok bool, n int64) {
	if r.clip == "" && s.resolve != nil && (r.kind == kindTree || r.kind == kindSimilar) {
		s.resolve(&r)
	}
	method, path, body := r.httpParts()
	s.mu.Lock()
	s.seen[r.key()] = r
	s.mu.Unlock()
	req, err := http.NewRequestWithContext(ctx, method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return false, 0
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return false, 0
	}
	n, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return err == nil && resp.StatusCode == http.StatusOK, n
}

// distinct returns every distinct request sent so far.
func (s *sender) distinct() []request {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]request, 0, len(s.seen))
	for _, r := range s.seen {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// openResult is a fixed-rate phase's outcome.
type openResult struct {
	outcomes []outcome       // per request, latency from its due time
	lateness []time.Duration // per request, dispatcher wake-up after due
	wall     time.Duration   // first due time to last completion
	sched    time.Duration   // scheduled span: len(reqs)/rate
}

// openLoop sends reqs at a fixed rate over conns connections from
// start on. Each request is due at start + i/rate; its latency runs from
// that due time, so a stall that delays later sends is charged to them.
// The dispatcher records how late it woke for each due time: that
// lateness is the generator's own, not the server's.
func openLoop(ctx context.Context, s *sender, reqs []request, rate float64, conns int, start time.Time) openResult {
	type job struct {
		i   int
		due time.Time
	}
	res := openResult{
		outcomes: make([]outcome, len(reqs)),
		lateness: make([]time.Duration, len(reqs)),
		sched:    time.Duration(float64(len(reqs)) / rate * float64(time.Second)),
	}
	// Sized to the number of sends, so the dispatcher never blocks on a
	// busy connection: queueing behind the server belongs to the
	// request's latency, not to the generator's lateness.
	jobs := make(chan job, len(reqs))
	var wg sync.WaitGroup
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ok, n := s.do(ctx, reqs[j.i])
				now := time.Now()
				res.outcomes[j.i] = outcome{lat: now.Sub(j.due), end: now.Sub(start), ok: ok, bytes: n}
			}
		}()
	}
	// The runtime's timers wake up to a millisecond late, as much as a
	// browse read takes; nanosleep on a locked thread wakes within the
	// kernel's timer slack (~50µs).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := range reqs {
		if ctx.Err() != nil {
			break
		}
		due := start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		sleepUntil(due)
		res.lateness[i] = time.Since(due)
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	res.wall = time.Since(start)
	return res
}

// sleepUntil blocks the calling thread until t.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		if err := syscall.Nanosleep(&ts, nil); err != nil && err != syscall.EINTR {
			time.Sleep(d)
		}
	}
}

// closedResult is a closed-loop phase's outcome.
type closedResult struct {
	outcomes []outcome
	good     int // successful reads within the latency limit
	// goodput is the rate of good reads in each consecutive window,
	// by completion time.
	goodput []float64
}

// closedLoop runs one client per generator from start on, each sending
// its next read as soon as the previous answer arrives, for d, counting
// good reads in windows of win.
func closedLoop(ctx context.Context, s *sender, gens []*streamGen, d, limit, win time.Duration, start time.Time) closedResult {
	per := make([][]outcome, len(gens))
	time.Sleep(time.Until(start))
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for w, g := range gens {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				t0 := time.Now()
				ok, n := s.do(ctx, g.next())
				now := time.Now()
				per[w] = append(per[w], outcome{lat: now.Sub(t0), end: now.Sub(start), ok: ok, bytes: n})
			}
		}()
	}
	wg.Wait()
	var res closedResult
	k := max(1, int(d/win))
	good := make([]int, k)
	for _, ws := range per {
		for _, o := range ws {
			if o.ok && o.lat <= limit {
				res.good++
				good[min(int(o.end/win), k-1)]++
			}
			res.outcomes = append(res.outcomes, o)
		}
	}
	for _, g := range good {
		res.goodput = append(res.goodput, float64(g)/win.Seconds())
	}
	return res
}

// quantile returns the exact q-quantile of samples by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
// It sorts samples in place; an empty input gives NaN.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	if rank < 1 {
		rank = 1
	}
	return samples[rank-1]
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// median returns the middle value (mean of the two middle values for
// an even count) without modifying xs.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
