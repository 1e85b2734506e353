package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"testing"
	"time"
)

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := []byte("4242 (vdb (server) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 100 123456 789 18446744073709551615\n")
	got, err := parseStatCPU(line)
	if err != nil || got != 1000 {
		t.Fatalf("parseStatCPU = %d, %v; want 1000 ticks", got, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Error("short stat line parsed")
	}
	if _, err := parseStatCPU([]byte("no command")); err == nil {
		t.Error("stat line without a command parsed")
	}
}

func TestParseVmHWM(t *testing.T) {
	status := []byte("Name:\tvdbserver\nVmPeak:\t  900000 kB\nVmHWM:\t  153600 kB\nVmRSS:\t  100000 kB\n")
	got, err := parseVmHWM(status)
	if err != nil || got != 153600<<10 {
		t.Fatalf("parseVmHWM = %d, %v; want %d", got, err, 153600<<10)
	}
	if _, err := parseVmHWM([]byte("Name:\tx\n")); err == nil {
		t.Error("status without VmHWM parsed")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Error("VmHWM in an unknown unit parsed")
	}
}

func TestOwnProcessCounters(t *testing.T) {
	before, err := cpuTime(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	for end := time.Now().Add(100 * time.Millisecond); time.Now().Before(end); {
	}
	after, err := cpuTime(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if d := after - before; d < 50*time.Millisecond {
		t.Errorf("100ms of spinning read as %v of CPU", d)
	}
	if rss, err := peakRSS(os.Getpid()); err != nil || rss < 1<<20 {
		t.Errorf("peakRSS = %d, %v; want at least 1 MiB", rss, err)
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  176495 0 22349 433021 2418 0 3019 4246 0 0\ncpu0 88000 0 11000 216000 1200 0 1500 2100 0 0\n")
	if got, err := parseSteal(stat); err != nil || got != 4246 {
		t.Fatalf("parseSteal = %d, %v; want 4246", got, err)
	}
	if _, err := parseSteal([]byte("cpu  1 2 3 4\n")); err == nil {
		t.Error("a cpu line without a steal field parsed")
	}
	if _, err := stealTicks(); err != nil {
		t.Errorf("stealTicks: %v", err)
	}
}

func TestResetPeakRSS(t *testing.T) {
	pid := os.Getpid()
	ballast := make([]byte, 64<<20)
	for i := range ballast {
		ballast[i] = 1
	}
	before, err := peakRSS(pid)
	if err != nil {
		t.Fatal(err)
	}
	ballast = nil
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(pid); err != nil {
		t.Fatalf("resetPeakRSS: %v", err)
	}
	after, err := peakRSS(pid)
	if err != nil {
		t.Fatal(err)
	}
	if after > before-32<<20 {
		t.Errorf("VmHWM %d MiB after freeing 64 MiB and resetting, %d MiB before", after>>20, before>>20)
	}
}
