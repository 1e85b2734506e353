// Command perfbench is the repository's end-to-end benchmark. It drives
// the real vdbserver binary over loopback HTTP with one of three seeded
// workloads, checks every distinct answer against an in-process core
// oracle, and prints each metric by name with its unit; the last line
// of standard output is a JSON summary. With -trace 1 it
// runs the in-process layer ladder instead. See README.md.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench -workload browse -seed 1 -seconds 10 -trace 0 -bin .bench_build/bin -work .bench_build
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"videodb/internal/core"
)

// workload is one named traffic mix.
type workload struct {
	name   string
	mix    mix
	ingest bool          // an uploader runs beside the reads
	rate   float64       // open-loop reads per second
	limit  time.Duration // latency limit behind read_goodput_rps
}

// workloads lists the named traffic mixes. Each open-loop rate is a
// quarter of the workload's closed-loop capacity (README.md, "Where the
// mixes come from").
var workloads = []*workload{
	{name: "browse", mix: mixBrowse, rate: 950, limit: 25 * time.Millisecond},
	{name: "query-wide", mix: mixWide, rate: 100, limit: 100 * time.Millisecond},
	{name: "ingest-mixed", mix: mixLive, ingest: true, rate: 600, limit: 100 * time.Millisecond},
}

// setups is how many times a run sets the target up; setup_s is their
// median and the last one serves the timed phases.
const setups = 3

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
	note       string // sample count or basis, printed beside the value
	// printOnly keeps the figure out of the JSON summary: the read
	// latencies and goodput follow the host's steal time, and upload
	// throughput the host's speed, which on a shared two-vCPU host
	// swing them more from run to run than any bound a comparison
	// could use (README.md, "Measured spread").
	printOnly bool
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload: browse | query-wide | ingest-mixed")
		seed    = flag.Uint64("seed", 1, "seed of the request streams")
		seconds = flag.Int("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 runs the in-process layer ladder instead of the end-to-end phases")
		bins    = flag.String("bin", ".bench_build/bin", "directory holding the vdbserver binary")
		work    = flag.String("work", ".bench_build", "directory for the corpus cache and run state")
	)
	flag.Parse()
	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need -workload (one of %s), -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	// An interrupted run still stops its servers and removes its state.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	runDir := filepath.Join(*work, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(runDir)

	c, err := loadCorpus(*work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: corpus:", err)
		return 1
	}
	o, err := loadOracle(c, *work)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: oracle:", err)
		return 1
	}
	// Bound the measured part: a run must end well within three minutes
	// once the corpus and oracle caches exist.
	ctx, cancel := context.WithTimeout(sigCtx, 150*time.Second)
	defer cancel()
	fmt.Printf("perfbench workload=%s seed=%d seconds=%d trace=%d nproc=%d corpus=%d clips/%d frames\n",
		w.name, *seed, *seconds, *trace, runtime.NumCPU(), len(c.clips), c.frames)

	var res *result
	if *trace == 1 {
		res, err = runLadder(ctx, w, c, o, *seed, time.Duration(*seconds)*time.Second, runDir)
	} else {
		res, err = runEndToEnd(ctx, w, c, o, *seed, time.Duration(*seconds)*time.Second, *bins, runDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return res.print()
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, ", ")
}

// result is what a run reports.
type result struct {
	metrics    []metric
	info       []string // extra human-readable lines
	attempted  int
	failed     int
	check      checkReport
	invalid    string // why the run is invalid, if it is
	inversions []string
}

// print writes every metric by name with its unit, then the JSON
// summary line, and returns the exit code: non-zero on a mismatch or
// an invalid run.
func (r *result) print() int {
	for _, m := range r.metrics {
		only := ""
		if m.printOnly {
			only = "(printed only) "
		}
		fmt.Printf("%-38s %14.6g %-8s %s%s\n", m.name, m.value, m.unit, only, m.note)
	}
	for _, s := range r.info {
		fmt.Println(s)
	}
	fmt.Printf("answers: %d checked against the core oracle, %d skipped (clip no longer live), %d mismatches\n",
		r.check.checked, r.check.skipped, r.check.mismatches)
	if r.check.first != "" {
		fmt.Println("first mismatch:", r.check.first)
	}
	if len(r.inversions) == 0 {
		fmt.Println("ladder: every rung is monotone")
	}
	for _, inv := range r.inversions {
		fmt.Println("ladder inversion:", inv)
	}
	if r.invalid != "" {
		fmt.Println("INVALID RUN:", r.invalid)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{r.check.mismatches == 0 && r.invalid == "", r.attempted, r.failed, map[string]jm{}}
	for _, m := range r.metrics {
		if !m.printOnly {
			out.Metrics[m.name] = jm{m.value, m.unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}

// Phase shape of an end-to-end run: the fixed-rate open-loop phase
// takes openShare of the measured time, the closed-loop phase the rest.
// Each phase is cut into windows of win, and the server's CPU time and
// the machine's steal time are read at every window boundary.
const (
	openShare = 2.0 / 3
	win       = 500 * time.Millisecond
	warmup    = time.Second // untimed reads between set-up and the timed phases
)

// runEndToEnd sets the target up setups times, measures the open-loop
// and closed-loop phases, and replays every distinct read against the
// oracle.
func runEndToEnd(ctx context.Context, w *workload, c *corpus, o *oracle, seed uint64, d time.Duration, bins, runDir string) (*result, error) {
	conns := runtime.NumCPU()
	upClient := &http.Client{Timeout: 120 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1, DisableCompression: true}}
	defer upClient.CloseIdleConnections()
	var t *target
	var totals, fps, setupRSS []float64
	for k := range setups {
		dir := filepath.Join(runDir, fmt.Sprintf("setup%d", k))
		tk, st, err := setupOnce(ctx, bins, dir, c, upClient)
		if err != nil {
			return nil, fmt.Errorf("setup %d: %w", k+1, err)
		}
		totals = append(totals, st.total.Seconds())
		fps = append(fps, float64(st.frames)/st.upload.Seconds())
		r, err := tk.rss()
		if err != nil {
			tk.stop()
			return nil, err
		}
		setupRSS = append(setupRSS, float64(r)/(1<<20))
		if k == setups-1 {
			t = tk
			break
		}
		tk.stop()
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	defer t.stop()

	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	cat := newCatalog(o.db)
	s := newSender(client, t.base)
	var up *uploader
	if w.ingest {
		up = startUploader(ctx, t, upClient, c, cat)
		defer up.stop()
		s.resolve = up.resolve
	}
	res := &result{}
	// Warm-up: the open-loop stream, untimed, until the server has
	// collected the garbage set-up left and returned it to the system.
	// Then its peak resident set is started afresh, so that rss_peak_mb
	// covers the open-loop phase only: its offered load is fixed, while
	// the closed loop does as much work as the host lets it.
	warm := openLoop(ctx, s, newStreamGen(w.mix, cat, seed, 0).take(int(w.rate*warmup.Seconds())), w.rate, conns, time.Now())
	for _, oc := range warm.outcomes {
		if !oc.ok {
			res.failed++
		}
	}
	res.attempted += len(warm.outcomes)
	if err := t.resetPeak(); err != nil {
		return nil, err
	}

	openD := time.Duration(float64(d) * openShare)
	kOpen, kClosed := max(1, int(openD/win)), max(1, int((d-openD)/win))
	openD = time.Duration(kOpen) * win
	reqs := newStreamGen(w.mix, cat, seed, 1).take(int(w.rate * openD.Seconds()))
	start := time.Now().Add(5 * time.Millisecond)
	openWin := sampleWindows(ctx, t, start, win, kOpen)
	open := openLoop(ctx, s, reqs, w.rate, conns, start)
	ow := <-openWin
	if ow.err != nil {
		return nil, ow.err
	}
	peak, err := t.rss()
	if err != nil {
		return nil, err
	}
	gens := make([]*streamGen, conns)
	for i := range gens {
		gens[i] = newStreamGen(w.mix, cat, seed, 100+uint64(i))
	}
	start = time.Now().Add(5 * time.Millisecond)
	closedWin := sampleWindows(ctx, t, start, win, kClosed)
	closed := closedLoop(ctx, s, gens, time.Duration(kClosed)*win, w.limit, win, start)
	cw := <-closedWin
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if cw.err != nil {
		return nil, cw.err
	}
	oracleDB := o.db
	if up != nil {
		live := up.stop()
		var err error
		if oracleDB, err = o.liveOracle(live); err != nil {
			return nil, err
		}
		res.attempted += up.ops
		res.failed += up.failed
		if up.err != nil {
			res.info = append(res.info, "last upload error: "+up.err.Error())
		}
	}
	var lats, late []float64
	var bytes int64
	for i, oc := range open.outcomes {
		lats = append(lats, ms(oc.lat))
		late = append(late, ms(open.lateness[i]))
		bytes += oc.bytes
		if !oc.ok {
			res.failed++
		}
	}
	for _, oc := range closed.outcomes {
		if !oc.ok {
			res.failed++
		}
	}
	res.attempted += len(open.outcomes) + len(closed.outcomes)

	n := len(lats)
	p50, p99 := quantile(lats, 0.50), quantile(lats, 0.99)
	late50, late99 := quantile(late, 0.50), quantile(late, 0.99)
	ingest := median(fps)
	ingestNote := fmt.Sprintf("median of %d set-ups' uploads: %s", setups, fmtList(fps, "%.0f"))
	if up != nil {
		ingest = float64(up.frames) / up.postWall.Seconds()
		ingestNote = fmt.Sprintf("%d frames acknowledged beside the reads", up.frames)
	}
	res.metrics = []metric{
		{name: "setup_s", unit: "s", value: median(totals), note: fmt.Sprintf("median of %d: %s", setups, fmtList(totals, "%.3f"))},
		{name: "read_p50_ms", unit: "ms", value: p50, printOnly: true,
			note: fmt.Sprintf("n=%d open-loop reads at %.0f req/s", n, w.rate)},
		{name: "read_p99_ms", unit: "ms", value: p99, printOnly: true,
			note: fmt.Sprintf("n=%d, %d above", n, n-int(math.Ceil(0.99*float64(n))))},
		{name: "read_goodput_rps", unit: "req/s", value: mean(closed.goodput), printOnly: true,
			note: fmt.Sprintf("per window: %s; %d of %d reads within %v, %d clients closed loop",
				fmtList(closed.goodput, "%.0f"), closed.good, len(closed.outcomes), w.limit, conns)},
		{name: "ingest_fps", unit: "frames/s", value: ingest, printOnly: true, note: ingestNote},
		{name: "rss_peak_mb", unit: "MiB", value: float64(peak) / (1 << 20), note: "VmHWM over the open-loop phase"},
		{name: "setup_rss_peak_mb", unit: "MiB", value: median(setupRSS), note: fmt.Sprintf("VmHWM at the end of set-up, median of %d: %s",
			setups, fmtList(setupRSS, "%.1f"))},
		{name: "server_cpu_cores", unit: "cores", value: mean(ow.cores), note: fmt.Sprintf("open-loop windows: %s",
			fmtList(ow.cores, "%.3f"))},
	}
	res.info = append(res.info,
		fmt.Sprintf("error_rate %.6g (%d failed of %d attempted)", float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted),
		fmt.Sprintf("generator lateness p50 %.4f ms, p99 %.4f ms (n=%d); open phase %.3fs for a %.3fs schedule",
			late50, late99, len(late), open.wall.Seconds(), open.sched.Seconds()),
		fmt.Sprintf("open-loop answer bytes per read %.0f", float64(bytes)/float64(max(n, 1))),
		fmt.Sprintf("hypervisor steal per window, open loop: %s; closed loop: %s",
			fmtList(ow.steal, "%.3f"), fmtList(cw.steal, "%.3f")),
	)
	if up != nil {
		res.info = append(res.info, fmt.Sprintf("uploader: %d operations, %d failed, %d frames in %.3fs of upload time",
			up.ops, up.failed, up.frames, up.postWall.Seconds()))
	}
	// The generator set the latency when its own wake-up lateness is a
	// large share of the latency it measured, or when it could not keep
	// to the schedule at all.
	if late50 > 0.5*p50 {
		res.invalid = fmt.Sprintf("generator lateness p50 %.3f ms exceeds half of read p50 %.3f ms", late50, p50)
	}
	if open.wall > open.sched*5/4+time.Second {
		res.invalid = fmt.Sprintf("open-loop phase took %v for a %v schedule", open.wall, open.sched)
	}
	if p50 > p99 {
		res.inversions = append(res.inversions, "read_p50_ms > read_p99_ms")
	}

	checks := s.distinct()
	// The listing and every live clip's shot table and scene tree are
	// checked on every workload: they prove the HTTP ingest stored what
	// core computes.
	checks = append(checks, request{kind: kindList})
	for _, rec := range oracleDB.Records() {
		checks = append(checks, request{kind: kindClip, clip: rec.Name}, request{kind: kindTree, clip: rec.Name})
	}
	t0 := time.Now()
	res.check = replay(ctx, client, t.base, oracleDB, checks, conns)
	res.info = append(res.info, fmt.Sprintf("answer check took %.3fs", time.Since(t0).Seconds()))
	return res, nil
}

func fmtList(xs []float64, f string) string {
	var parts []string
	for _, x := range xs {
		parts = append(parts, fmt.Sprintf(f, x))
	}
	return strings.Join(parts, " ")
}

// liveOracle assembles an oracle holding exactly the named clips, each
// a (possibly renamed) copy of a corpus clip's record.
func (o *oracle) liveOracle(live []string) (*core.Database, error) {
	db, err := core.Open(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for _, name := range live {
		p := o.payloads[name]
		if p == nil {
			if p, err = o.renamedPayload(baseName(name), name); err != nil {
				return nil, err
			}
		}
		if _, err := db.ApplyIngestRecord(p); err != nil {
			return nil, fmt.Errorf("live oracle %q: %w", name, err)
		}
	}
	return db, nil
}
