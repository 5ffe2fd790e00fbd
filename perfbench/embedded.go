package main

import (
	"errors"
	"fmt"
	"runtime/metrics"
	"time"

	"repro/internal/core"
	"repro/internal/db"
	"repro/internal/memsim"
	pm "repro/internal/metrics"
	"repro/internal/platform"
)

// round is what one set-up → timed loop → crash → recovery cycle
// measured. Host times come from the Go monotonic clock, virtual times
// from the platform's simulated clock.
type round struct {
	setup, loop, recovery time.Duration // host
	vloop, vrecovery      time.Duration // virtual
	ops                   int
	userBytes             int64   // key + value bytes of the writes
	lat, vlat             []int64 // per-operation ns
	delta                 pm.Snapshot
	netDelta, cliDelta    pm.Snapshot // serve-zipf: network and client counters
	allocs                uint64
	peakHeap              uint64
	failed                int
	errs                  []error
	profile               *cpuProfile
}

// fail counts one failed operation, keeping the first few causes.
func (r *round) fail(err error) {
	r.failed++
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err)
	}
}

// memSampler reads the Go heap through runtime/metrics, which does not
// stop the world.
type memSampler struct{ s []metrics.Sample }

func newMemSampler() *memSampler {
	return &memSampler{s: []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/memory/classes/heap/objects:bytes"},
	}}
}

func (m *memSampler) read() (allocs, heap uint64) {
	metrics.Read(m.s)
	return m.s[0].Value.Uint64(), m.s[1].Value.Uint64()
}

// dbOptions is the journal every workload runs: NVWAL UH+LS+Diff with
// the Nexus 5 CPU model and the default 1000-frame checkpoint limit.
func dbOptions(serving bool) db.Options {
	return db.Options{
		Journal:              db.JournalNVWAL,
		NVWAL:                core.VariantUHLSDiff(),
		CPU:                  db.CPUNexus5,
		Concurrent:           serving,
		BackgroundCheckpoint: serving,
	}
}

const dbName = "bench.db"

// openPreloaded builds a Nexus 5, opens the database and loads the
// preloaded records, then checkpoints so the timed loop starts from an
// empty log.
func openPreloaded(keys []uint64, opts db.Options) (*platform.Platform, *db.DB, error) {
	plat, err := platform.NewNexus5()
	if err != nil {
		return nil, nil, err
	}
	d, err := db.Open(plat, dbName, opts)
	if err != nil {
		return nil, nil, err
	}
	if err := d.CreateTable(table); err != nil {
		return nil, nil, err
	}
	key, val := make([]byte, keyLen), make([]byte, valueLen)
	const batch = 500
	for i := 0; i < len(keys); i += batch {
		tx, err := d.Begin()
		if err != nil {
			return nil, nil, err
		}
		for _, k := range keys[i:min(i+batch, len(keys))] {
			putKey(key, k)
			encodeValue(val, k, 1)
			if err := tx.Insert(table, key, val); err != nil {
				return nil, nil, err
			}
		}
		if err := tx.Commit(); err != nil {
			return nil, nil, err
		}
	}
	if err := d.Checkpoint(); err != nil {
		return nil, nil, err
	}
	return plat, d, nil
}

// crashAndVerify closes the database (stopping any background
// checkpointer and checkpointing), reopens it single-goroutine, commits
// the tail inserts, cuts power with every unpersisted NVRAM line lost,
// reboots, reopens the database and checks that every acknowledged
// write is there at its last acknowledged version and nothing else is.
// Every workload thus crashes with the same kind of log: the tail.
func crashAndVerify(r *round, plat *platform.Platform, d *db.DB, wl workload) error {
	if err := d.Close(); err != nil {
		return fmt.Errorf("closing checkpoint: %w", err)
	}
	opts := dbOptions(false)
	d, err := db.Open(plat, dbName, opts)
	if err != nil {
		return fmt.Errorf("reopen for the tail: %w", err)
	}
	key, val := make([]byte, keyLen), make([]byte, valueLen)
	for _, k := range wl.tail {
		putKey(key, k)
		encodeValue(val, k, 1)
		tx, err := d.Begin()
		if err != nil {
			return fmt.Errorf("tail commit: %w", err)
		}
		if err := tx.Insert(table, key, val); err != nil {
			tx.Rollback()
			return fmt.Errorf("tail commit: %w", err)
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("tail commit: %w", err)
		}
	}
	d.Abandon()

	h0, v0 := time.Now(), plat.Clock.Now()
	plat.PowerFail(memsim.FailDropAll, 1)
	if err := plat.Reboot(); err != nil {
		return fmt.Errorf("reboot: %w", err)
	}
	d, err = db.Open(plat, dbName, opts)
	if err != nil {
		return fmt.Errorf("recovery open: %w", err)
	}
	defer d.Abandon()
	r.recovery, r.vrecovery = time.Since(h0), plat.Clock.Now()-v0
	check := func(k, ver uint64) {
		putKey(key, k)
		v, found, err := d.Get(table, key)
		switch {
		case err != nil:
			r.fail(fmt.Errorf("after recovery: get %x: %w", k, err))
		case !found:
			r.fail(fmt.Errorf("after recovery: acknowledged key %x lost", k))
		default:
			if err := checkValue(v, k, ver); err != nil {
				r.fail(fmt.Errorf("after recovery: %w", err))
			}
		}
	}
	for k, ver := range wl.final {
		check(k, ver)
	}
	for _, k := range wl.tail {
		check(k, 1)
	}
	n, err := d.Count(table)
	if err != nil {
		return fmt.Errorf("after recovery: count: %w", err)
	}
	if want := len(wl.final) + len(wl.tail); n != want {
		r.fail(fmt.Errorf("after recovery: table holds %d records, want %d", n, want))
	}
	return nil
}

// embedded runs one round of insert-commit or zipf-read-update on the
// calling goroutine, with checkpoints inline on the commit path.
func embedded(wl workload, tr *tracer) (*round, error) {
	r := &round{ops: len(wl.ops)}
	opts := dbOptions(false)
	h0 := time.Now()
	plat, d, err := openPreloaded(wl.preload, opts)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	r.setup = time.Since(h0)

	m := plat.Metrics
	key, val := make([]byte, keyLen), make([]byte, valueLen)
	r.lat, r.vlat = make([]int64, len(wl.ops)), make([]int64, len(wl.ops))
	mem := newMemSampler()
	var prof profiler
	if tr != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	a0, _ := mem.read()
	snap0, v0 := m.Snapshot(), plat.Clock.Now()
	h0 = time.Now()
	for i, o := range wl.ops {
		if i&1023 == 0 {
			_, heap := mem.read()
			r.peakHeap = max(r.peakHeap, heap)
		}
		t0, vt0 := time.Now(), plat.Clock.Now()
		if err := embeddedOp(d, m, tr, int32(i), o, key, val); err != nil {
			r.fail(fmt.Errorf("op %d: %w", i, err))
		}
		r.lat[i], r.vlat[i] = int64(time.Since(t0)), int64(plat.Clock.Now()-vt0)
		if o.kind != opGet {
			r.userBytes += keyLen + valueLen
		}
	}
	r.loop, r.vloop = time.Since(h0), plat.Clock.Now()-v0
	r.delta = m.Snapshot().Sub(snap0)
	a1, heap := mem.read()
	r.allocs, r.peakHeap = a1-a0, max(r.peakHeap, heap)
	if tr != nil {
		if r.profile, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	if err := crashAndVerify(r, plat, d, wl); err != nil {
		return nil, err
	}
	return r, nil
}

var errMissing = errors.New("record missing")

// embeddedOp runs one generated operation through the db API, timing
// each call into the db layer when tracing.
func embeddedOp(d *db.DB, m *pm.Counters, tr *tracer, i int32, o op, key, val []byte) (err error) {
	putKey(key, o.key)
	opSpan := tr.begin(spanOp, -1, i)
	defer tr.end(opSpan)
	if o.kind == opGet {
		s := tr.begin(spanGet, opSpan, i)
		v, found, err := d.Get(table, key)
		tr.end(s)
		switch {
		case err != nil:
			return err
		case !found:
			return errMissing
		}
		return checkValue(v, o.key, o.version)
	}
	encodeValue(val, o.key, o.version)
	s := tr.begin(spanBegin, opSpan, i)
	tx, err := d.Begin()
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.begin(spanTxOp, opSpan, i)
	if o.kind == opInsert {
		err = tx.Insert(table, key, val)
	} else {
		var found bool
		if found, err = tx.Update(table, key, val); err == nil && !found {
			err = errMissing
		}
	}
	tr.end(s)
	if err != nil {
		tx.Rollback()
		return err
	}
	var res0, ckpt0 int64
	if tr != nil {
		res0, ckpt0 = m.Count(pm.HeapReservations), m.Count(pm.Checkpoints)
	}
	s = tr.begin(spanCommit, opSpan, i)
	err = tx.Commit()
	tr.end(s)
	if tr != nil {
		class := classifyCommit(m.Count(pm.HeapReservations)-res0, m.Count(pm.Checkpoints)-ckpt0)
		tr.mu.Lock()
		tr.spans[s].class = class
		tr.mu.Unlock()
	}
	return err
}
