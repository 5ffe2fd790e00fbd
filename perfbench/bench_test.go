package main

import (
	"reflect"
	"testing"
	"time"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPctInterpolatesWithinEqualValues(t *testing.T) {
	// 60 samples at 10 and 40 at 20: the median lies 5/6 of the way
	// through the run of 10s, so it reads 10 + 5/6·(20-10).
	s := make([]int64, 100)
	for i := range s {
		s[i] = 10
		if i >= 60 {
			s[i] = 20
		}
	}
	v, err := pct(s, 0.5)
	if err != nil || v < 18.33 || v > 18.34 {
		t.Fatalf("median = %g, %v; want 18.33", v, err)
	}
	// The last run has no larger value to move toward.
	if v, _ := pct(s, 0.9); v != 20 {
		t.Fatalf("p90 = %g, want 20", v)
	}
}

func TestPctRefusesThinTail(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i)
	}
	// Nearest rank is sample 989, with 10 samples beyond it; p·n = 990
	// closes its run, so the value reaches the next sample.
	if v, err := pct(s, 0.99); err != nil || v != 990 {
		t.Fatalf("p99 of 0..999 = %g, %v; want 990", v, err)
	}
	if _, err := pct(s, 0.999); err == nil {
		t.Fatal("p99.9 of 1000 samples was reported with fewer than 10 samples beyond it")
	}
}

// replay checks a generated sequence against a model of the table: each
// read expects the current version, each write bumps it by one, and the
// final map matches.
func replay(t *testing.T, name string, wl workload) {
	t.Helper()
	ver := map[uint64]uint64{}
	for _, k := range wl.preload {
		ver[k] = 1
	}
	for i, o := range wl.ops {
		switch o.kind {
		case opGet:
			if o.version != ver[o.key] {
				t.Fatalf("%s: op %d reads version %d, model holds %d", name, i, o.version, ver[o.key])
			}
		default:
			if o.version != ver[o.key]+1 {
				t.Fatalf("%s: op %d writes version %d over %d", name, i, o.version, ver[o.key])
			}
			ver[o.key] = o.version
		}
	}
	if !reflect.DeepEqual(ver, wl.final) {
		t.Fatalf("%s: final versions differ from the replayed model", name)
	}
}

func TestGeneratorsRepeatPerSeed(t *testing.T) {
	for name, w := range workloads {
		a, b, c := w.gen(7), w.gen(7), w.gen(8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different operations", name)
		}
		if reflect.DeepEqual(a.ops, c.ops) {
			t.Errorf("%s: different seeds gave the same operations", name)
		}
		replay(t, name, a)
	}
}

func TestServeConnectionsOwnTheirKeys(t *testing.T) {
	wl := genServe(3)
	var n [serveConns]int
	for i, o := range wl.ops {
		if o.conn != keyConn(o.key, serveConns) {
			t.Fatalf("op %d travels on connection %d but its key belongs to %d", i, o.conn, keyConn(o.key, serveConns))
		}
		n[o.conn]++
	}
	if n[0] != n[1] {
		t.Fatalf("connections get %d and %d operations", n[0], n[1])
	}
}

func TestValueCheck(t *testing.T) {
	v := make([]byte, valueLen)
	encodeValue(v, 42, 3)
	if err := checkValue(v, 42, 3); err != nil {
		t.Fatal(err)
	}
	if checkValue(v, 42, 2) == nil || checkValue(v, 43, 3) == nil {
		t.Fatal("a value passed the check for another key or version")
	}
	v[50] ^= 1
	if checkValue(v, 42, 3) == nil {
		t.Fatal("a corrupted value passed its CRC check")
	}
}

func TestSelfTime(t *testing.T) {
	for _, c := range []struct {
		name     string
		children [][2]int64
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", [][2]int64{{10, 20}, {30, 50}}, 70},
		{"overlapping", [][2]int64{{10, 20}, {15, 30}}, 80},
		{"nested", [][2]int64{{10, 60}, {20, 30}}, 50},
		{"clipped at both ends", [][2]int64{{-5, 2}, {90, 120}}, 88},
		{"outside", [][2]int64{{100, 150}, {-20, 0}}, 100},
		{"covers all", [][2]int64{{-1, 101}}, 0},
	} {
		if got := selfTime(0, 100, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestClassifyCommit(t *testing.T) {
	for _, c := range []struct {
		res, ckpt int64
		want      commitClass
	}{
		{0, 0, commitPlain}, {1, 0, commitReserve}, {0, 1, commitCkpt}, {2, 1, commitCkpt},
	} {
		if got := classifyCommit(c.res, c.ckpt); got != c.want {
			t.Errorf("classifyCommit(%d, %d) = %s, want %s", c.res, c.ckpt, commitClassNames[got], commitClassNames[c.want])
		}
	}
}

func TestSameBacking(t *testing.T) {
	msg := make([]byte, 64)
	if !sameBacking(msg[10:18], msg) {
		t.Fatal("a sub-slice of the message was not matched to it")
	}
	if sameBacking(msg[10:18:20], msg) {
		t.Fatal("a capacity-limited sub-slice ending early was matched")
	}
	if sameBacking(make([]byte, 8), msg) {
		t.Fatal("an unrelated slice was matched")
	}
}

func TestSamplePackage(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"runtime.memmove", "repro/internal/memsim.(*Domain).Write", "repro/internal/core.(*NVWAL).x"}, "memsim"},
		{[]string{"sync.(*Mutex).Lock", "repro/internal/metrics.(*Counters).Inc"}, "metrics"},
		{[]string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime.gcDrain", "runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/btree.(*Tree).Put"}, "gc"},
		{[]string{"repro/internal/server.(*Client).do", "main.serveOp"}, "client"},
		{[]string{"repro/internal/server.(*Server).handle"}, "server"},
		{[]string{"hash/crc32.update", "main.encodeValue"}, "bench"},
		{[]string{"runtime.futex"}, "other"},
	} {
		if got := samplePackage(c.stack); got != c.want {
			t.Errorf("samplePackage(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func spin(d time.Duration) int {
	n := 0
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

func TestProfileParsesOwnSamples(t *testing.T) {
	var p profiler
	if err := p.start(); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	prof, err := p.stop()
	if err != nil {
		t.Fatal(err)
	}
	shares := map[string]int64{}
	total := prof.packageShares(shares)
	if total == 0 {
		t.Skip("no CPU samples were taken")
	}
	if shares["bench"]*2 < total {
		t.Fatalf("only %d of %d samples attributed to the spinning test code: %v", shares["bench"], total, shares)
	}
}
