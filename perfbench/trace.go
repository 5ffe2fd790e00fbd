package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/server"
)

// spanKind names a layer boundary the benchmark times.
type spanKind uint8

const (
	spanOp          spanKind = iota // one generated operation, as the caller sees it
	spanBegin                       // db.DB.Begin
	spanTxOp                        // db.Tx.Insert / db.Tx.Update
	spanCommit                      // db.Tx.Commit
	spanGet                         // db.DB.Get
	spanClientSend                  // client-side netsim Conn.Send
	spanClientRecv                  // client-side netsim Conn.Recv (waiting for the reply)
	spanServer                      // server conn: Recv returned .. reply Send entered
	spanEngineGet                   // server.Engine.Get
	spanEngineApply                 // server.Engine.Apply
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"op", "db.begin", "db.tx_op", "db.commit", "db.get",
	"netsim.send", "netsim.recv", "server", "engine.get", "engine.apply",
}

// span is one timed call. Times are host nanoseconds since the tracer's
// origin. parent indexes the tracer's spans (-1: none); req is the
// operation index within the round. conn, dial and seq place netsim
// spans: the client's number, its dial ordinal, and the message ordinal
// on that connection.
type span struct {
	kind       spanKind
	class      commitClass // spanCommit only
	conn, dial int32
	seq        int32
	parent     int32
	req        int32
	start, end int64
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil *tracer records nothing, so untraced loops pay one nil check per
// boundary.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	// open maps a server connection to its request in flight, for the
	// engine wrapper to find its parent.
	open map[*serverConn]int32
}

func newTracer(capacity int) *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, capacity), open: make(map[*serverConn]int32)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(k spanKind, parent, req int32) int32 {
	if t == nil {
		return -1
	}
	s := span{kind: k, parent: parent, req: req, conn: -1, dial: -1, seq: -1}
	t.mu.Lock()
	s.start = t.now()
	t.spans = append(t.spans, s)
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.mu.Unlock()
}

// commitClass sorts commits by the extra work their counter deltas show.
type commitClass uint8

const (
	commitPlain   commitClass = iota // log append only
	commitReserve                    // took a heapo block reservation
	commitCkpt                       // ran a checkpoint inline
	numCommitClasses
)

var commitClassNames = [numCommitClasses]string{"plain", "reserve", "ckpt"}

// classifyCommit classes one commit from the deltas of the
// heap_reservations and checkpoints counters across it. A checkpointing
// commit is classed ckpt even when it also reserved: the checkpoint
// dominates its time.
func classifyCommit(dReserve, dCkpt int64) commitClass {
	switch {
	case dCkpt > 0:
		return commitCkpt
	case dReserve > 0:
		return commitReserve
	default:
		return commitPlain
	}
}

// selfTime is a span's duration minus the part of its interval that its
// children cover (children may overlap each other and stick out of the
// parent; only their union inside the parent counts).
func selfTime(start, end int64, children [][2]int64) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c[0], start), min(c[1], end)
		if s < e {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range iv {
		if c[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c[0], c[1]
		} else if c[1] > curE {
			curE = c[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return end - start - covered
}

// write dumps the spans as tab-separated text.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tname\tstart_ns\tend_ns\tparent\treq\tconn\tdial\tseq\tclass")
	for i, s := range t.spans {
		class := ""
		if s.kind == spanCommit {
			class = commitClassNames[s.class]
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%s\n",
			i, spanNames[s.kind], s.start, s.end, s.parent, s.req, s.conn, s.dial, s.seq, class)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// clientConn times a client's netsim Send and Recv. cur is the span of
// the operation the client goroutine is running.
type clientConn struct {
	netsim.Conn
	t          *tracer
	name, dial int32
	seq        int32
	cur        *int32
}

func (c *clientConn) timed(k spanKind, seq int32, f func()) {
	i := c.t.begin(k, *c.cur, -1)
	f()
	c.t.mu.Lock()
	s := &c.t.spans[i]
	s.end = c.t.now()
	if *c.cur >= 0 {
		s.req = c.t.spans[*c.cur].req
	}
	s.conn, s.dial, s.seq = c.name, c.dial, seq
	c.t.mu.Unlock()
}

func (c *clientConn) Send(msg []byte) (err error) {
	c.timed(spanClientSend, c.seq, func() { err = c.Conn.Send(msg) })
	return err
}

func (c *clientConn) Recv(timeout time.Duration) (msg []byte, err error) {
	c.timed(spanClientRecv, c.seq, func() { msg, err = c.Conn.Recv(timeout) })
	c.seq++
	return msg, err
}

// listener hands the server connections that time each request from
// the return of Recv to the reply's Send.
type listener struct {
	netsim.Listener
	t *tracer
	// dials counts accepted connections per client name, matching the
	// client's dial ordinal (each client dials sequentially).
	mu    sync.Mutex
	dials map[string]int32
}

func (l *listener) Accept(timeout time.Duration) (netsim.Conn, error) {
	c, err := l.Listener.Accept(timeout)
	if err != nil {
		return c, err
	}
	l.mu.Lock()
	d := l.dials[c.RemoteName()]
	l.dials[c.RemoteName()] = d + 1
	l.mu.Unlock()
	return &serverConn{Conn: c, t: l.t, name: clientIndex(c.RemoteName()), dial: d}, nil
}

type serverConn struct {
	netsim.Conn
	t          *tracer
	name, dial int32
	seq        int32
	msg        []byte // request in flight
}

func (c *serverConn) Recv(timeout time.Duration) ([]byte, error) {
	msg, err := c.Conn.Recv(timeout)
	if err != nil {
		return msg, err
	}
	t := c.t
	t.mu.Lock()
	t.spans = append(t.spans, span{kind: spanServer, parent: -1, req: -1,
		conn: c.name, dial: c.dial, seq: c.seq, start: t.now()})
	t.open[c] = int32(len(t.spans) - 1)
	c.msg = msg
	t.mu.Unlock()
	c.seq++
	return msg, nil
}

func (c *serverConn) Send(msg []byte) error {
	t := c.t
	t.mu.Lock()
	if i, ok := t.open[c]; ok {
		t.spans[i].end = t.now()
		delete(t.open, c)
		c.msg = nil
	}
	t.mu.Unlock()
	return c.Conn.Send(msg)
}

// sameBacking reports whether b is a sub-slice reaching the end of buf's
// backing array. The server decodes keys as sub-slices of the request
// message, which is how an engine call finds its connection.
func sameBacking(b, buf []byte) bool {
	return cap(b) > 0 && cap(buf) > 0 && &b[:cap(b)][cap(b)-1] == &buf[:cap(buf)][cap(buf)-1]
}

// engine times server.Engine calls as children of the server span of
// the request they serve.
type engine struct {
	server.Engine
	t *tracer
}

func (e *engine) parentOf(key []byte) int32 {
	e.t.mu.Lock()
	defer e.t.mu.Unlock()
	for c, i := range e.t.open {
		if sameBacking(key, c.msg) {
			return i
		}
	}
	return -1
}

func (e *engine) Get(tbl string, key []byte) ([]byte, bool, error) {
	i := e.t.begin(spanEngineGet, e.parentOf(key), -1)
	v, ok, err := e.Engine.Get(tbl, key)
	e.t.end(i)
	return v, ok, err
}

func (e *engine) Apply(ctx context.Context, tbl string, ops []server.Op) (uint64, error) {
	parent := int32(-1)
	if len(ops) > 0 {
		parent = e.parentOf(ops[0].Key)
	}
	i := e.t.begin(spanEngineApply, parent, -1)
	seq, err := e.Engine.Apply(ctx, tbl, ops)
	e.t.end(i)
	return seq, err
}
