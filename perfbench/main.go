// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the NVWAL database stack for a fixed host time,
// checks every result, and prints each metric by name and unit, ending
// with one JSON line:
//
//	go run . --workload insert-commit --seed 1 --seconds 10 --trace 0
//
// The run repeats rounds of set-up → timed loop → power failure →
// recovery → verification until --seconds have passed. Every round of a
// run replays the same operations, so on the single-goroutine workloads
// each round's virtual-clock figures and counters must be identical;
// a difference is reported as a failure. With --trace 1 the first half
// of the time runs untraced rounds and the second half traced ones, and
// the run reports the per-layer metrics (see METRICS.md) instead of the
// end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	pm "repro/internal/metrics"
)

type workloadDef struct {
	gen func(seed int64) workload
	run func(wl workload, seed int64, tr *tracer) (*round, error)
	// deterministic: one goroutine and inline checkpoints, so the
	// virtual clock and every counter must repeat exactly.
	deterministic bool
}

var workloads = map[string]workloadDef{
	"insert-commit": {
		gen:           genInsert,
		run:           func(wl workload, _ int64, tr *tracer) (*round, error) { return embedded(wl, tr) },
		deterministic: true,
	},
	"zipf-read-update": {
		gen:           genZipfReadUpdate,
		run:           func(wl workload, _ int64, tr *tracer) (*round, error) { return embedded(wl, tr) },
		deterministic: true,
	},
	"serve-zipf": {
		gen: genServe,
		run: serve,
	},
}

// minRounds rounds at least make up an untraced run, so set-up time and
// recovery time are medians of several.
const minRounds = 3

// watchdog ends a run that hangs, well inside the 180 s a run may take.
const watchdog = 170 * time.Second

type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "insert-commit, zipf-read-update or serve-zipf")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "host seconds to measure")
	trace := flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
	spansDir := flag.String("spans-dir", "", "directory for the traced run's span dump (empty: not written)")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload insert-commit|zipf-read-update|serve-zipf --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", watchdog)
		os.Exit(3)
	})
	res, err := run(*name, w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *spansDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(name string, w workloadDef, seed int64, total time.Duration, trace bool, spansDir string) (*result, error) {
	wl := w.gen(seed)
	var untraced, traced []*round
	var spans layerSpans
	var last *tracer // the last traced round's spans, written out at the end
	start := time.Now()
	for {
		el := time.Since(start)
		if el >= total && (trace && len(traced) > 0 || !trace && len(untraced) >= minRounds) {
			break
		}
		var tr *tracer
		if trace && el >= total/2 && len(untraced) > 0 {
			tr = newTracer(5 * len(wl.ops))
		}
		runtime.GC()
		r, err := w.run(wl, seed, tr)
		if err != nil {
			return nil, err
		}
		if tr != nil {
			traced, last = append(traced, r), tr
			spans.add(tr)
		} else {
			untraced = append(untraced, r)
		}
	}
	all := append(append([]*round(nil), untraced...), traced...)
	res := &result{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, "perfbench: FAIL:", e)
		}
	}
	if w.deterministic {
		want := signature(all[0])
		for i, r := range all[1:] {
			if signature(r) != want {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL: round %d's virtual-clock figures or counters differ from round 0's\n", i+1)
			}
		}
	}
	res.Correct = res.Failed == 0

	fmt.Printf("workload %s  seed %d  rounds %d untraced + %d traced  ops %d  failed %d\n",
		name, seed, len(untraced), len(traced), res.Attempted, res.Failed)
	var ms []metric
	if trace {
		ms = perLayer(untraced, traced, &spans)
		if spansDir != "" {
			path := filepath.Join(spansDir, "spans-"+name+".tsv")
			if err := last.write(path); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	} else {
		var hostN, virtN int
		var err error
		if ms, hostN, virtN, err = endToEnd(untraced, w.deterministic); err != nil {
			return nil, err
		}
		fmt.Printf("latency samples: host %d (reported up to p%g), virtual %d (up to p%g); a percentile needs %d samples beyond it\n",
			hostN, highestPercentile(hostN)*100, virtN, highestPercentile(virtN)*100, minTail)
	}
	for _, m := range ms {
		fmt.Printf("  %-32s %14.4f %s\n", m.name, m.value, m.unit)
		res.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	return res, nil
}

// wallClockKeys are counters that hold host time, not simulated work;
// they are left out of the determinism signature.
var wallClockKeys = map[string]bool{pm.CheckpointNanos: true, pm.CommitStallNanos: true}

// signature hashes what must repeat exactly across rounds of a
// single-goroutine workload: every operation's virtual latency, the
// loop's and the recovery's virtual time, and every simulated counter
// and attributed virtual time of the loop.
func signature(r *round) uint64 {
	h := fnv.New64a()
	put := func(v int64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	for _, v := range r.vlat {
		put(v)
	}
	put(int64(r.vloop))
	put(int64(r.vrecovery))
	keys := make([]string, 0, len(r.delta.Counts))
	for k := range r.delta.Counts {
		if !wallClockKeys[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		put(r.delta.Counts[k])
	}
	keys = keys[:0]
	for k := range r.delta.Times {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.Write([]byte(k))
		put(int64(r.delta.Times[k]))
	}
	return h.Sum64()
}
