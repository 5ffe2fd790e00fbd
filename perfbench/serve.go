package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	pm "repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/server"
	"repro/internal/simclock"
)

// serve-zipf settings.
const (
	serveConns   = 2
	netLatency   = 10 * time.Microsecond // one-way virtual wire latency, plus up to netJitter
	netJitter    = 5 * time.Microsecond
	serverName   = "srv"
	recvDeadline = 10 * time.Second // client receive timeout: far above any reply time, so retries mean a fault
)

func clientName(i int) string { return fmt.Sprintf("c%d", i) }

func clientIndex(name string) int32 {
	var i int32
	if _, err := fmt.Sscanf(name, "c%d", &i); err != nil {
		return -1
	}
	return i
}

// serve runs one round of serve-zipf: a server.Server over netsim in
// front of a Concurrent database with background checkpointing, and two
// client connections, each a caller that sends its next request as
// soon as the previous reply arrives (a closed loop).
func serve(wl workload, seed int64, tr *tracer) (*round, error) {
	// One P: clients, server sessions and the checkpointer hand off on
	// one thread. With two, about 0.1 % of requests waited ~4 ms for a
	// cross-thread wake-up on a 2-vCPU host, right at p99.9, which then
	// moved by 38 % from run to run.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	r := &round{ops: len(wl.ops)}
	opts := dbOptions(true)
	h0 := time.Now()
	plat, d, err := openPreloaded(wl.preload, opts)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	netM, cliM := &pm.Counters{}, &pm.Counters{}
	nw := netsim.New(plat.Clock, netsim.Config{Latency: netLatency, Jitter: netJitter}, seed, netM)
	var lanes [serveConns]*simclock.Clock
	for i := range lanes {
		lanes[i] = plat.Clock.NewLane()
		nw.Register(clientName(i), lanes[i])
	}
	lis, err := nw.Listen(serverName)
	if err != nil {
		return nil, err
	}
	var eng server.Engine = server.NewDBEngine(d, 0)
	if tr != nil {
		eng = &engine{Engine: eng, t: tr}
		lis = &listener{Listener: lis, t: tr, dials: map[string]int32{}}
	}
	srv := server.New(eng, server.Options{Clock: plat.Clock, Pressure: d.Pressure, Metrics: plat.Metrics})
	served := make(chan struct{})
	go func() {
		srv.Serve(lis)
		close(served)
	}()
	defer func() {
		srv.Close()
		<-served
	}()

	var cur [serveConns]int32 // span of the operation each client is running
	var clients [serveConns]*server.Client
	for i := range clients {
		name, dials := clientName(i), int32(0)
		cur[i] = -1
		dial := func(addr string) (netsim.Conn, error) {
			c, err := nw.Dial(name, addr)
			if err != nil || tr == nil {
				return c, err
			}
			dials++
			return &clientConn{Conn: c, t: tr, name: int32(i), dial: dials - 1, cur: &cur[i]}, nil
		}
		clients[i] = server.NewClient(dial, []string{serverName}, server.ClientOptions{
			RecvTimeout: recvDeadline, Seed: seed + int64(i), Metrics: cliM,
		})
		defer clients[i].Close()
		// Connect (and discover the primary) before the clock starts.
		if _, err := clients[i].Status(); err != nil {
			return nil, fmt.Errorf("client %d: %w", i, err)
		}
	}
	r.setup = time.Since(h0)

	var byConn [serveConns][]int
	for j, o := range wl.ops {
		byConn[o.conn] = append(byConn[o.conn], j)
	}
	r.lat, r.vlat = make([]int64, len(wl.ops)), make([]int64, len(wl.ops))
	var mu sync.Mutex // guards r.fail and the heap sampler
	mem := newMemSampler()
	var prof profiler
	if tr != nil {
		if err := prof.start(); err != nil {
			return nil, err
		}
	}
	a0, heap := mem.read()
	r.peakHeap = heap
	snap0, net0, cli0 := plat.Metrics.Snapshot(), netM.Snapshot(), cliM.Snapshot()
	v0 := plat.Clock.Now()
	base := time.Now()
	var wg sync.WaitGroup
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cli, lane := clients[i], lanes[i]
			key, val := make([]byte, keyLen), make([]byte, valueLen)
			for _, j := range byConn[i] {
				o := wl.ops[j]
				start, vt0 := time.Now(), lane.Now()
				cur[i] = tr.begin(spanOp, -1, int32(j))
				err := serveOp(cli, o, key, val)
				tr.end(cur[i])
				end := time.Now()
				r.lat[j], r.vlat[j] = int64(end.Sub(start)), int64(lane.Now()-vt0)
				if err != nil {
					mu.Lock()
					r.fail(fmt.Errorf("request %d: %w", j, err))
					mu.Unlock()
				}
				if i == 0 && j&1023 == 0 {
					mu.Lock()
					_, heap := mem.read()
					r.peakHeap = max(r.peakHeap, heap)
					mu.Unlock()
				}
			}
		}(i)
	}
	wg.Wait()
	r.loop, r.vloop = time.Since(base), plat.Clock.Now()-v0
	r.delta = plat.Metrics.Snapshot().Sub(snap0)
	r.netDelta, r.cliDelta = netM.Snapshot().Sub(net0), cliM.Snapshot().Sub(cli0)
	a1, heap := mem.read()
	r.allocs, r.peakHeap = a1-a0, max(r.peakHeap, heap)
	if tr != nil {
		if r.profile, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	for _, o := range wl.ops {
		if o.kind != opGet {
			r.userBytes += keyLen + valueLen
		}
	}
	// A shed request is a failure even when a retry later succeeded.
	for n := r.delta.Count(pm.ServerShed); n > 0; n-- {
		r.fail(fmt.Errorf("request shed with busy"))
	}

	for i := range clients {
		clients[i].Close()
	}
	srv.Close()
	if err := crashAndVerify(r, plat, d, wl); err != nil {
		return nil, err
	}
	return r, nil
}

// serveOp sends one generated request and checks its reply.
func serveOp(cli *server.Client, o op, key, val []byte) error {
	putKey(key, o.key)
	if o.kind == opGet {
		v, found, err := cli.Get(table, key)
		switch {
		case err != nil:
			return err
		case !found:
			return errMissing
		}
		return checkValue(v, o.key, o.version)
	}
	encodeValue(val, o.key, o.version)
	_, err := cli.Put(table, key, val)
	return err
}
