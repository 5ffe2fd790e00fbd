package main

import (
	"fmt"
	"math"
	"time"

	pm "repro/internal/metrics"
)

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// blockBytes is the flash page size block_write counts.
const blockBytes = 4096

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// sumDeltas adds the counter deltas of rounds.
func sumDeltas(rounds []*round, pick func(*round) pm.Snapshot) pm.Snapshot {
	s := pm.Snapshot{Counts: map[string]int64{}, Times: map[string]time.Duration{}}
	for _, r := range rounds {
		d := pick(r)
		for k, v := range d.Counts {
			s.Counts[k] += v
		}
		for k, v := range d.Times {
			s.Times[k] += v
		}
	}
	return s
}

// pooled concatenates one per-operation series of rounds.
func pooled(rounds []*round, pick func(*round) []int64) []int64 {
	var all []int64
	for _, r := range rounds {
		all = append(all, pick(r)...)
	}
	return all
}

// totals sums the rounds' operations and host loop seconds.
func totals(rounds []*round) (ops int, loopS float64) {
	for _, r := range rounds {
		ops += r.ops
		loopS += r.loop.Seconds()
	}
	return ops, loopS
}

// endToEnd computes the user-visible metrics from untraced rounds.
// Throughput and host latency pool every operation of every round, so
// a tail percentile rests on all the run's samples. Virtual latency
// pools the rounds too, except where rounds are deterministic copies
// of one another: there one round's operations are the distinct
// samples. It counts only operations with a modelled hardware cost (a
// DB.Get served from the pager cache charges none). Set-up, recovery,
// allocation and memory figures are medians over rounds. It also returns the host and virtual latency sample counts.
func endToEnd(rounds []*round, deterministic bool) (ms []metric, hostN, virtN int, err error) {
	var ops int
	var loop, vloop float64
	var lat, vlat []int64
	for i, r := range rounds {
		ops += r.ops
		loop += r.loop.Seconds()
		vloop += r.vloop.Seconds()
		lat = append(lat, r.lat...)
		if i == 0 || !deterministic {
			for _, v := range r.vlat {
				if v > 0 {
					vlat = append(vlat, v)
				}
			}
		}
	}
	sortInt64(lat)
	sortInt64(vlat)
	out := []metric{
		{"setup_s", "s", medianOf(rounds, func(r *round) float64 { return r.setup.Seconds() })},
		{"ops_per_s", "1/s", float64(ops) / loop},
	}
	addPct := func(name string, s []int64, p float64) error {
		v, err := pct(s, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, metric{name, "us", v / 1e3})
		return nil
	}
	for _, c := range []struct {
		name string
		p    float64
	}{{"p50_us", 0.5}, {"p99_us", 0.99}, {"p999_us", 0.999}} {
		if err := addPct(c.name, lat, c.p); err != nil {
			return nil, 0, 0, err
		}
	}
	out = append(out, metric{"vops_per_s", "1/s", float64(ops) / vloop})
	for _, c := range []struct {
		name string
		p    float64
	}{{"vp50_us", 0.5}, {"vp99_us", 0.99}, {"vp999_us", 0.999}} {
		if err := addPct(c.name, vlat, c.p); err != nil {
			return nil, 0, 0, err
		}
	}
	perUser := func(r *round, bytes float64) float64 { return div(bytes, float64(r.userBytes)) }
	out = append(out,
		metric{"nvram_b_per_user_b", "B/B", medianOf(rounds, func(r *round) float64 {
			return perUser(r, float64(r.delta.Count(pm.NVRAMBytes)))
		})},
		metric{"flash_b_per_user_b", "B/B", medianOf(rounds, func(r *round) float64 {
			return perUser(r, float64(r.delta.Count(pm.BlockWrite)*blockBytes))
		})},
		metric{"recover_ms", "ms", medianOf(rounds, func(r *round) float64 { return float64(r.recovery) / 1e6 })},
		metric{"recover_vms", "ms", medianOf(rounds, func(r *round) float64 { return float64(r.vrecovery) / 1e6 })},
		metric{"allocs_per_op", "count/op", medianOf(rounds, func(r *round) float64 { return float64(r.allocs) / float64(r.ops) })},
		metric{"mem_mb", "MB", medianOf(rounds, func(r *round) float64 { return float64(r.peakHeap) / (1 << 20) })},
	)
	return out, len(lat), len(vlat), nil
}

func medianOf(rounds []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rounds))
	for i, r := range rounds {
		xs[i] = f(r)
	}
	return median(xs)
}

// perLayerNames lists every per-layer metric in report order with its
// unit. Spans give host "_us" medians with a "_p99_us" twin; "/txn"
// means per committed transaction. A layer a workload never reaches
// reports 0.
var perLayerNames = []struct{ name, unit string }{
	{"client.retries_per_op", "count/op"},
	{"client.self_us", "us"},
	{"netsim.send_us", "us"}, {"netsim.send_p99_us", "us"},
	{"netsim.recv_wait_us", "us"}, {"netsim.recv_wait_p99_us", "us"},
	{"netsim.transit_us", "us"}, {"netsim.transit_p99_us", "us"},
	{"netsim.msgs_per_op", "count/op"},
	{"netsim.bytes_per_op", "B/op"},
	{"server.self_us", "us"}, {"server.self_p99_us", "us"},
	{"server.shed_frac", "frac"},
	{"db.begin_us", "us"}, {"db.begin_p99_us", "us"},
	{"db.get_us", "us"}, {"db.get_p99_us", "us"},
	{"db.tx_op_us", "us"}, {"db.tx_op_p99_us", "us"},
	{"db.commit_us", "us"}, {"db.commit_p99_us", "us"},
	{"db.commit_plain_us", "us"}, {"db.commit_plain_p99_us", "us"},
	{"db.commit_reserve_us", "us"}, {"db.commit_reserve_p99_us", "us"},
	{"db.commit_ckpt_us", "us"}, {"db.commit_ckpt_p99_us", "us"},
	{"db.commit_total_ms", "ms"},
	{"db.commit_plain_share", "frac"}, {"db.commit_reserve_share", "frac"}, {"db.commit_ckpt_share", "frac"},
	{"db.commit_reserve_frac", "frac"}, {"db.commit_ckpt_frac", "frac"},
	{"db.engine_get_us", "us"}, {"db.engine_get_p99_us", "us"},
	{"db.engine_apply_us", "us"}, {"db.engine_apply_p99_us", "us"},
	{"db.commit_stall_us", "us/txn"},
	{"db.ckpt_per_ktxn", "count/ktxn"},
	{"db.ckpt_wall_ms", "ms/ckpt"},
	{"db.ckpt_pages", "pages/ckpt"},
	{"core.frames_per_txn", "count/txn"},
	{"core.vmemcpy_us", "us/txn"},
	{"core.vflush_us", "us/txn"},
	{"core.vpersist_us", "us/txn"},
	{"memsim.flushes_per_txn", "count/txn"},
	{"memsim.barriers_per_txn", "count/txn"},
	{"memsim.line_writes_per_txn", "count/txn"},
	{"heapo.reserves_per_txn", "count/txn"},
	{"heapo.kallocs_per_txn", "count/txn"},
	{"heapo.syscalls_per_txn", "count/txn"},
	{"heapo.recycle_hit_frac", "frac"},
	{"heapo.vheap_us", "us/txn"},
	{"blockdev.writes_per_txn", "count/txn"},
	{"blockdev.fsyncs_per_txn", "count/txn"},
	{"ext4.journal_writes_per_txn", "count/txn"},
	{"blockdev.vio_us", "us/txn"},
	{"client.cpu_frac", "frac"},
	{"netsim.cpu_frac", "frac"},
	{"server.cpu_frac", "frac"},
	{"db.cpu_frac", "frac"},
	{"core.cpu_frac", "frac"},
	{"memsim.cpu_frac", "frac"},
	{"nvram.cpu_frac", "frac"},
	{"heapo.cpu_frac", "frac"},
	{"pager.cpu_frac", "frac"},
	{"btree.cpu_frac", "frac"},
	{"ext4.cpu_frac", "frac"},
	{"blockdev.cpu_frac", "frac"},
	{"dbfile.cpu_frac", "frac"},
	{"trace.cpu_frac", "frac"},
	{"simclock.cpu_frac", "frac"},
	{"health.cpu_frac", "frac"},
	{"metrics.cpu_frac", "frac"},
	{"runtime.gc_frac", "frac"},
	{"bench.cpu_frac", "frac"},
	{"other.cpu_frac", "frac"},
	{"bench.cpu_samples", "count"},
	{"bench.span_match_frac", "frac"},
	{"bench.breakdown_gap_frac", "frac"},
	{"bench.trace_overhead_frac", "frac"},
	{"bench.trace_p50_overhead_frac", "frac"},
}

// layerSpans collects span durations (ns) by what they time.
type layerSpans struct {
	begin, get, txOp, commit, engineGet, engineApply []int64
	class                                            [numCommitClasses][]int64
	send, recv, transit, clientSelf                  []int64
	op, opServer, opEngine                           []int64 // serve-zipf, per matched request
	clientOps, matched                               int
}

func (ls *layerSpans) add(t *tracer) {
	kids := make([][]int32, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	type connSeq struct{ conn, dial, seq int32 }
	serverAt := map[connSeq]int32{}
	for i, s := range t.spans {
		if s.kind == spanServer {
			serverAt[connSeq{s.conn, s.dial, s.seq}] = int32(i)
		}
	}
	interval := func(ids []int32) [][2]int64 {
		iv := make([][2]int64, len(ids))
		for k, id := range ids {
			iv[k] = [2]int64{t.spans[id].start, t.spans[id].end}
		}
		return iv
	}
	for i, s := range t.spans {
		d := s.end - s.start
		switch s.kind {
		case spanBegin:
			ls.begin = append(ls.begin, d)
		case spanGet:
			ls.get = append(ls.get, d)
		case spanTxOp:
			ls.txOp = append(ls.txOp, d)
		case spanCommit:
			ls.commit = append(ls.commit, d)
			ls.class[s.class] = append(ls.class[s.class], d)
		case spanEngineGet:
			ls.engineGet = append(ls.engineGet, d)
		case spanEngineApply:
			ls.engineApply = append(ls.engineApply, d)
		case spanClientSend:
			ls.send = append(ls.send, d)
		case spanClientRecv:
			ls.recv = append(ls.recv, d)
		case spanOp:
			// Only serving requests have netsim children; split the
			// request into client, wire, server and engine time.
			var first, last int64 = -1, -1
			var srv, srvSelf, eng int64
			ok, wire := true, false
			for _, c := range kids[i] {
				cs := t.spans[c]
				switch cs.kind {
				case spanClientSend:
					wire = true
					if first < 0 {
						first = cs.start
					}
				case spanClientRecv:
					last = cs.end
					si, found := serverAt[connSeq{cs.conn, cs.dial, cs.seq}]
					if !found {
						ok = false
						continue
					}
					ss := t.spans[si]
					srv += ss.end - ss.start
					srvSelf += selfTime(ss.start, ss.end, interval(kids[si]))
					for _, e := range kids[si] {
						eng += t.spans[e].end - t.spans[e].start
					}
				}
			}
			if !wire {
				continue
			}
			ls.clientOps++
			if !ok || last < first {
				continue
			}
			ls.matched++
			ls.op = append(ls.op, d)
			ls.clientSelf = append(ls.clientSelf, d-(last-first))
			ls.transit = append(ls.transit, last-first-srv)
			ls.opServer = append(ls.opServer, srvSelf)
			ls.opEngine = append(ls.opEngine, eng)
		}
	}
}

// perLayer computes the per-layer metrics: spans and CPU profiles from
// the traced rounds, counter deltas from the traced rounds (for
// insert-commit and zipf-read-update they equal the untraced ones, which
// the determinism check enforces), and the tracing overhead against the
// untraced rounds of the same run.
func perLayer(untraced, traced []*round, ls *layerSpans) []metric {
	v := map[string]float64{}
	set50 := func(name string, ns []int64) {
		p50, p99 := spanStats(ns)
		v[name+"_us"] = p50
		v[name+"_p99_us"] = p99
	}
	set50("db.begin", ls.begin)
	set50("db.get", ls.get)
	set50("db.tx_op", ls.txOp)
	set50("db.commit", ls.commit)
	set50("db.engine_get", ls.engineGet)
	set50("db.engine_apply", ls.engineApply)
	set50("netsim.send", ls.send)
	set50("netsim.recv_wait", ls.recv)
	set50("netsim.transit", ls.transit)
	set50("server.self", ls.opServer)
	v["client.self_us"], _ = spanStats(ls.clientSelf)
	var commitTotal float64
	var classTotal [numCommitClasses]float64
	for c := range ls.class {
		set50("db.commit_"+commitClassNames[c], ls.class[c])
		for _, d := range ls.class[c] {
			classTotal[c] += float64(d)
		}
		commitTotal += classTotal[c]
	}
	v["db.commit_total_ms"] = commitTotal / 1e6
	for c := range ls.class {
		v["db.commit_"+commitClassNames[c]+"_share"] = div(classTotal[c], commitTotal)
	}
	v["db.commit_reserve_frac"] = div(float64(len(ls.class[commitReserve])), float64(len(ls.commit)))
	v["db.commit_ckpt_frac"] = div(float64(len(ls.class[commitCkpt])), float64(len(ls.commit)))
	if ls.clientOps > 0 {
		v["bench.span_match_frac"] = float64(ls.matched) / float64(ls.clientOps)
		op, _ := spanStats(ls.op)
		cs, _ := spanStats(ls.clientSelf)
		tr, _ := spanStats(ls.transit)
		ss, _ := spanStats(ls.opServer)
		en, _ := spanStats(ls.opEngine)
		v["bench.breakdown_gap_frac"] = div(math.Abs(op-(cs+tr+ss+en)), op)
	}

	ops, _ := totals(traced)
	delta := sumDeltas(traced, func(r *round) pm.Snapshot { return r.delta })
	cnt := func(k string) float64 { return float64(delta.Count(k)) }
	txns := cnt(pm.Transactions)
	perTxn := func(x float64) float64 { return div(x, txns) }
	usPerTxn := func(keys ...string) float64 {
		var ns float64
		for _, k := range keys {
			ns += float64(delta.Time(k))
		}
		return perTxn(ns / 1e3)
	}
	net := sumDeltas(traced, func(r *round) pm.Snapshot { return r.netDelta })
	cli := sumDeltas(traced, func(r *round) pm.Snapshot { return r.cliDelta })
	v["client.retries_per_op"] = div(float64(cli.Count(pm.ClientRetries)), float64(ops))
	v["netsim.msgs_per_op"] = div(float64(net.Count(pm.NetMessages)), float64(ops))
	v["netsim.bytes_per_op"] = div(float64(net.Count(pm.NetBytes)), float64(ops))
	v["server.shed_frac"] = div(cnt(pm.ServerShed), cnt(pm.ServerRequests))
	v["db.commit_stall_us"] = perTxn(cnt(pm.CommitStallNanos) / 1e3)
	v["db.ckpt_per_ktxn"] = perTxn(cnt(pm.Checkpoints) * 1000)
	v["db.ckpt_wall_ms"] = div(cnt(pm.CheckpointNanos)/1e6, cnt(pm.Checkpoints))
	v["db.ckpt_pages"] = div(cnt(pm.CheckpointPages), cnt(pm.Checkpoints))
	v["core.frames_per_txn"] = perTxn(cnt(pm.WALFrames))
	v["core.vmemcpy_us"] = usPerTxn(pm.TimeMemcpy)
	v["core.vflush_us"] = usPerTxn(pm.TimeFlush)
	v["core.vpersist_us"] = usPerTxn(pm.TimeBarrier, pm.TimePersist)
	v["memsim.flushes_per_txn"] = perTxn(cnt(pm.CacheLineFlush))
	v["memsim.barriers_per_txn"] = perTxn(cnt(pm.MemoryBarrier) + cnt(pm.PersistBarrier))
	v["memsim.line_writes_per_txn"] = perTxn(cnt(pm.NVRAMLineWrites))
	v["heapo.reserves_per_txn"] = perTxn(cnt(pm.HeapReservations))
	v["heapo.kallocs_per_txn"] = perTxn(cnt(pm.HeapAlloc))
	v["heapo.syscalls_per_txn"] = perTxn(cnt(pm.Syscall))
	v["heapo.recycle_hit_frac"] = div(cnt(pm.HeapRecycleHits), cnt(pm.HeapRecycleHits)+cnt(pm.HeapAlloc))
	v["heapo.vheap_us"] = usPerTxn(pm.TimeHeapAlloc)
	v["blockdev.writes_per_txn"] = perTxn(cnt(pm.BlockWrite))
	v["blockdev.fsyncs_per_txn"] = perTxn(cnt(pm.Fsync))
	v["ext4.journal_writes_per_txn"] = perTxn(cnt(pm.JournalWrite))
	v["blockdev.vio_us"] = usPerTxn(pm.TimeBlockIO)

	shares := map[string]int64{}
	var samples int64
	for _, r := range traced {
		if r.profile != nil {
			samples += r.profile.packageShares(shares)
		}
	}
	for pkg, n := range shares {
		name := pkg + ".cpu_frac"
		if pkg == "gc" {
			name = "runtime.gc_frac"
		}
		if _, listed := perLayerUnit[name]; !listed {
			name = "other.cpu_frac"
		}
		v[name] += div(float64(n), float64(samples))
	}
	v["bench.cpu_samples"] = float64(samples)

	uOps, uLoop := totals(untraced)
	tOps, tLoop := totals(traced)
	v["bench.trace_overhead_frac"] = 1 - div(float64(tOps)/tLoop, float64(uOps)/uLoop)
	u50, _ := spanStats(pooled(untraced, func(r *round) []int64 { return r.lat }))
	t50, _ := spanStats(pooled(traced, func(r *round) []int64 { return r.lat }))
	v["bench.trace_p50_overhead_frac"] = div(t50, u50) - 1

	out := make([]metric, 0, len(perLayerNames))
	for _, n := range perLayerNames {
		out = append(out, metric{n.name, n.unit, v[n.name]})
	}
	return out
}

// perLayerUnit indexes perLayerNames.
var perLayerUnit = func() map[string]string {
	m := make(map[string]string, len(perLayerNames))
	for _, n := range perLayerNames {
		m[n.name] = n.unit
	}
	return m
}()
