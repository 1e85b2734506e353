package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Server flags shared by every workload. The journal sync policy is
// part of the workload definition (BENCHMARK.json states it), so both
// sides of a comparison run it.
const (
	syncPolicy      = "interval"
	compactInterval = "500ms"
)

// target is the system under test: one vdbserver on a fresh segment
// store.
type target struct {
	*proc
}

// cpu returns the server's CPU time so far.
func (t *target) cpu() (time.Duration, error) { return cpuTime(t.pid()) }

// rss returns the server's peak resident set since it started or since
// the last resetPeak.
func (t *target) rss() (int64, error) { return peakRSS(t.pid()) }

// resetPeak starts the server's peak resident set afresh from its
// current resident set, so a later rss covers only what follows.
func (t *target) resetPeak() error { return resetPeakRSS(t.pid()) }

// windows are a phase's per-window readings of the server and the
// machine.
type windows struct {
	cores []float64 // CPU cores the server used
	steal []float64 // share of the machine's CPU time the hypervisor took
	err   error
}

// sampleWindows reads the server's CPU time and the machine's steal
// time at start and at the end of each of k windows of length win.
func sampleWindows(ctx context.Context, t *target, start time.Time, win time.Duration, k int) <-chan windows {
	out := make(chan windows, 1)
	go func() {
		var res windows
		var prevCPU time.Duration
		var prevSteal uint64
		capacity := win.Seconds() * clockTicks * float64(runtime.NumCPU())
		for j := 0; j <= k; j++ {
			select {
			case <-time.After(time.Until(start.Add(time.Duration(j) * win))):
			case <-ctx.Done():
				res.err = ctx.Err()
				out <- res
				return
			}
			c, err := t.cpu()
			st, serr := stealTicks()
			if err == nil {
				err = serr
			}
			if err != nil {
				res.err = err
				break
			}
			if j > 0 {
				res.cores = append(res.cores, (c-prevCPU).Seconds()/win.Seconds())
				res.steal = append(res.steal, float64(st-prevSteal)/capacity)
			}
			prevCPU, prevSteal = c, st
		}
		out <- res
	}()
	return out
}

// startTarget starts a vdbserver on a fresh segment store under dir.
func startTarget(ctx context.Context, bins, dir string) (*target, error) {
	p, err := startProc(ctx, "vdbserver", filepath.Join(bins, "vdbserver"), dir,
		"-data", filepath.Join(dir, "data"), "-sync", syncPolicy, "-compact-interval", compactInterval)
	if err != nil {
		return nil, err
	}
	return &target{p}, nil
}

// setupTiming is one set-up's cost.
type setupTiming struct {
	total  time.Duration // process start to first successful read
	upload time.Duration // summed upload request time
	frames int
}

// setupOnce starts a fresh target in dir, uploads the corpus to it with
// one closed-loop uploader, flushes its memtable into a segment, and
// returns once a first read succeeds.
func setupOnce(ctx context.Context, bins, dir string, c *corpus, up *http.Client) (*target, setupTiming, error) {
	var st setupTiming
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, err
	}
	start := time.Now()
	t, err := startTarget(ctx, bins, dir)
	if err != nil {
		return nil, st, err
	}
	for i, cc := range c.clips {
		d, err := upload(ctx, up, t.base, c.path(i), cc.Name)
		if err != nil {
			t.stop()
			return nil, st, err
		}
		st.upload += d
		st.frames += cc.Frames
	}
	if err := t.flush(ctx, up); err != nil {
		t.stop()
		return nil, st, err
	}
	if err := call(ctx, up, http.MethodGet, t.base+"/api/clips", http.StatusOK); err != nil {
		t.stop()
		return nil, st, fmt.Errorf("first read: %w", err)
	}
	st.total = time.Since(start)
	return t, st, nil
}

// flush posts /api/snapshot, turning the memtable into a segment.
func (t *target) flush(ctx context.Context, client *http.Client) error {
	return call(ctx, client, http.MethodPost, t.base+"/api/snapshot", http.StatusOK)
}

// upload posts one VDBF file as ?name=name and returns the request's
// wall time; anything but 201 is an error.
func upload(ctx context.Context, client *http.Client, base, path, name string) (time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+"/api/clips?name="+url.QueryEscape(name), f)
	if err != nil {
		return 0, err
	}
	req.ContentLength = st.Size()
	t0 := time.Now()
	resp, err := client.Do(req)
	if err != nil {
		return 0, fmt.Errorf("uploading %q: %w", name, err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if resp.StatusCode != http.StatusCreated {
		return d, fmt.Errorf("uploading %q: status %d: %.200s", name, resp.StatusCode, body)
	}
	return d, nil
}

// call sends a body-less request and wants the given status.
func call(ctx context.Context, client *http.Client, method, u string, want int) error {
	req, err := http.NewRequestWithContext(ctx, method, u, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %.200s", method, u, resp.StatusCode, body)
	}
	return nil
}

// genSep separates a re-posted clip's corpus name from its generation.
const genSep = "~"

// snapshotEvery is ingest-mixed's flush cadence, in uploads.
const snapshotEvery = 2

// uploader is ingest-mixed's writer: one closed-loop client re-posting
// corpus clips round-robin under fresh names, deleting the oldest clip
// after each upload to hold the live set at the corpus size, and
// flushing every snapshotEvery uploads so segments accumulate and the
// compactor runs.
type uploader struct {
	t      *target
	client *http.Client
	c      *corpus
	shots  map[string]int // shot count by corpus name

	mu   sync.Mutex
	live []string // oldest first

	// Written by run only, read after done closes.
	frames, ops, failed int
	postWall            time.Duration
	err                 error

	stopOnce    sync.Once
	stopc, done chan struct{}
}

func startUploader(ctx context.Context, t *target, client *http.Client, c *corpus, cat *catalog) *uploader {
	u := &uploader{t: t, client: client, c: c, shots: make(map[string]int),
		stopc: make(chan struct{}), done: make(chan struct{})}
	for i, n := range cat.names {
		u.shots[n] = len(cat.feats[i])
	}
	for _, cc := range c.clips {
		u.live = append(u.live, cc.Name)
	}
	go u.run(ctx)
	return u
}

func (u *uploader) run(ctx context.Context) {
	defer close(u.done)
	for gen := 1; ; gen++ {
		select {
		case <-u.stopc:
			return
		case <-ctx.Done():
			return
		default:
		}
		i := (gen - 1) % len(u.c.clips)
		name := u.c.clips[i].Name + genSep + strconv.Itoa(gen)
		u.ops++
		d, err := upload(ctx, u.client, u.t.base, u.c.path(i), name)
		if err != nil {
			u.failed++
			u.err = err
			continue
		}
		u.postWall += d
		u.frames += u.c.clips[i].Frames
		u.mu.Lock()
		u.live = append(u.live, name)
		oldest := u.live[0]
		u.mu.Unlock()
		u.ops++
		if err := call(ctx, u.client, http.MethodDelete, u.t.base+"/api/clips/"+url.PathEscape(oldest), http.StatusOK); err != nil {
			u.failed++
			u.err = err
		} else {
			u.mu.Lock()
			u.live = u.live[1:]
			u.mu.Unlock()
		}
		if gen%snapshotEvery == 0 {
			u.ops++
			if err := u.t.flush(ctx, u.client); err != nil {
				u.failed++
				u.err = err
			}
		}
	}
}

// stop ends the upload loop after its current operation and returns
// the final live set. It may be called more than once.
func (u *uploader) stop() []string {
	u.stopOnce.Do(func() { close(u.stopc) })
	<-u.done
	return append([]string(nil), u.live...)
}

// resolve binds a live-rank read to the rank-th newest live clip.
func (u *uploader) resolve(r *request) {
	u.mu.Lock()
	r.clip = u.live[len(u.live)-1-r.rank]
	u.mu.Unlock()
	r.shot = int(r.shotFrac * float64(u.shots[baseName(r.clip)]))
}
