package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"thedb/internal/metrics"
	"thedb/internal/obs"
	"thedb/internal/wire"
)

// conn is one client connection. Two goroutines drive it: a read loop
// (handshake, frame decode, admission) and a writer draining out.
// Responses arrive on out from dispatch goroutines in completion
// order, which is what gives the protocol out-of-order pipelining.
//
// Teardown order is load-bearing: the read loop exits first, waits
// for every admitted request it let in (reqs), then closes out; the
// writer drains the channel, flushes, and closes the socket. Senders
// therefore never race close(out) — a dispatch goroutine's send
// happens strictly before its reqs.Done, which happens before
// reqs.Wait returns.
type conn struct {
	srv *Server
	nc  net.Conn
	out chan []byte

	// sess is the exactly-once session bound in the handshake (nil
	// when dedup is disabled). Written once before the first call is
	// admitted, read by the same read loop thereafter.
	sess *session

	reqs     sync.WaitGroup // this connection's admitted, unanswered requests
	inflight atomic.Int64

	// dead flips when a write fails or shutdown forces the socket
	// closed; the writer then discards instead of writing, so senders
	// drain without blocking on a broken peer.
	dead      atomic.Bool
	closeOnce sync.Once
}

// countConn wraps a net.Conn, feeding byte counts into the server
// stats.
type countConn struct {
	net.Conn
	stats *metrics.Server
}

func (c countConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.stats.Add(&c.stats.BytesIn, int64(n))
	}
	return n, err
}

func (c countConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if n > 0 {
		c.stats.Add(&c.stats.BytesOut, int64(n))
	}
	return n, err
}

// startConn registers a new connection and launches its goroutine
// pair.
func (s *Server) startConn(raw net.Conn) {
	nc := countConn{Conn: raw, stats: s.stats}
	c := &conn{
		srv: s,
		nc:  nc,
		// Capacity covers the admission bound plus reader-side
		// rejections so dispatchers almost never block on a slow peer.
		out: make(chan []byte, s.cfg.PerConnInFlight+16),
	}
	// Register under mu, where Shutdown snapshots the connections it
	// drains: a connection accepted once draining began would join
	// connWG concurrently with Shutdown's Wait and never be woken.
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		cerr := raw.Close()
		_ = cerr // never served: no response bytes to lose
		return
	}
	s.stats.Inc(&s.stats.ConnsOpened)
	s.conns[c] = struct{}{}
	s.connWG.Add(2)
	s.mu.Unlock()
	go c.readLoop()
	go c.writeLoop()
}

// send enqueues an encoded frame for the writer. Callers must hold an
// admission slot (reqs) or be the read loop itself; see the teardown
// comment on conn.
func (c *conn) send(frame []byte) {
	c.out <- frame
}

// wake unblocks a read loop parked in a blocking read (used by
// Shutdown). The expired deadline makes the pending read return
// immediately with a timeout error.
func (c *conn) wake() {
	if err := c.nc.SetReadDeadline(time.Now()); err != nil {
		c.fail()
	}
}

// fail marks the connection broken and closes the socket immediately,
// unblocking both goroutines. Pending output is discarded — the peer
// is gone — but accounting still drains normally.
func (c *conn) fail() {
	c.dead.Store(true)
	c.closeNC()
}

// closeNC closes the socket exactly once. The close error is reported
// through the server stats rather than dropped: a failed close on an
// already-broken conn is noise, but on a healthy conn it can mask
// lost response bytes.
func (c *conn) closeNC() {
	c.closeOnce.Do(func() {
		if err := c.nc.Close(); err != nil && !c.dead.Load() {
			c.srv.stats.Inc(&c.srv.stats.BadFrames)
		}
	})
}

// readLoop performs the handshake then decodes and admits call frames
// until the peer hangs up, a protocol violation occurs, or shutdown
// wakes it.
func (c *conn) readLoop() {
	s := c.srv
	defer s.connWG.Done()
	defer func() {
		// All admitted requests answered, then hand the channel to
		// the writer for final flush + socket close.
		c.reqs.Wait()
		close(c.out)
		if c.sess != nil {
			c.sess.release()
		}
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
	}()

	br := bufio.NewReaderSize(c.nc, 64<<10)
	fr := wire.NewReader(br, s.cfg.MaxFrame)

	if !c.handshake(fr) {
		return
	}

	for {
		if s.cfg.ReadTimeout > 0 {
			if err := c.nc.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout)); err != nil {
				return
			}
		}
		f, err := fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isTimeout(err) {
				s.stats.Inc(&s.stats.BadFrames)
			}
			return
		}
		if f.Op != wire.OpCall {
			s.stats.Inc(&s.stats.BadFrames)
			c.send(wire.AppendError(nil, f.ID, wire.RemoteError{
				Code: wire.CodeBadRequest, Msg: "expected CALL frame, got " + wire.OpName(f.Op),
			}))
			continue
		}
		call, err := wire.DecodeCall(f.Payload)
		if err != nil {
			s.stats.Inc(&s.stats.BadFrames)
			c.send(wire.AppendError(nil, f.ID, wire.RemoteError{
				Code: wire.CodeBadRequest, Msg: "malformed CALL: " + err.Error(),
			}))
			continue
		}
		if !s.db.HasProcedure(call.Proc) {
			c.send(wire.AppendError(nil, f.ID, wire.RemoteError{
				Code: wire.CodeUnknownProc, Msg: "no such procedure " + call.Proc,
			}))
			continue
		}
		c.admit(f.ID, call)
	}
}

// admit applies the admission policy to one decoded call: refuse a
// dead deadline budget, dedup a retried sequence number, shed past the
// per-connection bound, refuse while draining, shed when the global
// queue is full, otherwise hand it to the dispatchers. Shedding always
// answers with a retryable typed error plus backoff hint — never a
// silent drop.
func (c *conn) admit(id uint64, call wire.Call) {
	s := c.srv
	req := &request{
		c: c, id: id, proc: call.Proc, args: call.Args,
		sess: c.sess, seq: call.Seq, readOnly: call.ReadOnly,
		arrival: time.Now(), budget: time.Duration(call.BudgetUS) * time.Microsecond,
	}
	if s.tracer != nil {
		req.trace = call.TraceID
		if req.trace == 0 {
			// Untraced caller: mint the end-to-end ID at admission.
			req.trace = s.mintTrace()
		}
	}
	if req.budget > 0 && time.Since(req.arrival) >= req.budget {
		// The caller's context died in transit; nothing was admitted,
		// so answer plainly without touching the accounting or window.
		s.stats.Inc(&s.stats.DeadlineRejected)
		c.send(wire.AppendError(nil, id, wire.RemoteError{
			Code: wire.CodeDeadline, Msg: "deadline budget exhausted at admission",
		}))
		return
	}
	// Account before offering: a dispatcher may pick the request up
	// and finish it the instant it lands in the channel. Accounting
	// before the draining check below also keeps Shutdown, which sets
	// the flag and then waits for pending to drain, from missing a
	// request admitted behind its back.
	s.pending.Add(1)
	c.reqs.Add(1)
	c.inflight.Add(1)
	s.stats.Add(&s.stats.InFlight, 1)
	// Dedup before any refusal. A retried (or duplicated) sequence
	// number that is executing or done is answered by that one
	// execution; refusing it instead would tell the client the call
	// never ran while the original commits, and the client's next
	// attempt could run it again on a restarted server. Read-only
	// snapshot calls skip the window: they write nothing, so
	// re-executing a retry is safe and cheaper than caching response
	// payloads for it.
	if c.sess != nil && req.seq != 0 && !req.readOnly {
		switch verdict, e := c.sess.register(req); verdict {
		case dedupHit:
			// Already executed: replay the cached response under the
			// retry's request id. The transaction does not run again.
			s.stats.Inc(&s.stats.DedupHits)
			if tr := s.tracer; tr != nil {
				// A cached replay never reaches the engine, so record
				// its trace here (always retained: outcome ≠ committed).
				t := obs.Trace{
					ID: req.trace, Proc: req.proc, Worker: -1,
					Outcome: obs.TraceDedupHit,
					StartNS: req.arrival.UnixNano(),
					TotalUS: time.Since(req.arrival).Microseconds(),
				}
				tr.Keep(&t)
			}
			c.send(wire.AppendFrame(nil, e.op, id, e.payload))
			s.finish(c)
			return
		case dedupJoined:
			// The original attempt is still executing; this retry is
			// parked on its entry and answered by respond when the one
			// execution completes. Accounting stays held until then.
			s.stats.Inc(&s.stats.DedupCoalesced)
			return
		case dedupNew:
			req.entry = e
		}
	}
	switch {
	case c.inflight.Load() > int64(s.cfg.PerConnInFlight):
		s.stats.Inc(&s.stats.Shed)
		s.respond(req, wire.OpError, wire.AppendErrorPayload(nil, wire.RemoteError{
			Code: wire.CodeShed, Backoff: s.cfg.ShedHint, Msg: "connection pipeline full",
		}), false)
		return
	case s.draining.Load():
		s.stats.Inc(&s.stats.DrainRejected)
		s.respond(req, wire.OpError, wire.AppendErrorPayload(nil, wire.RemoteError{
			Code: wire.CodeDraining, Backoff: s.cfg.DrainHint, Msg: "server draining",
		}), false)
		return
	}
	select {
	case s.work <- req:
		s.stats.Inc(&s.stats.Requests)
	default:
		s.stats.Inc(&s.stats.Shed)
		s.respond(req, wire.OpError, wire.AppendErrorPayload(nil, wire.RemoteError{
			Code: wire.CodeShed, Backoff: s.cfg.ShedHint, Msg: "server at capacity",
		}), false)
	}
}

// handshake reads the client hello and answers with the server's
// limits. Returns false when the connection should be torn down.
func (c *conn) handshake(fr *wire.Reader) bool {
	s := c.srv
	if err := c.nc.SetReadDeadline(time.Now().Add(s.cfg.HandshakeTimeout)); err != nil {
		return false
	}
	f, err := fr.Next()
	if err != nil {
		if errors.Is(err, wire.ErrBadVersion) {
			// The header parsed; tell the peer why before hanging up.
			c.send(wire.AppendError(nil, 0, wire.RemoteError{
				Code: wire.CodeVersion, Msg: "unsupported protocol version",
			}))
		} else if !errors.Is(err, io.EOF) {
			s.stats.Inc(&s.stats.BadFrames)
		}
		return false
	}
	if f.Op != wire.OpHello {
		s.stats.Inc(&s.stats.BadFrames)
		c.send(wire.AppendError(nil, f.ID, wire.RemoteError{
			Code: wire.CodeBadRequest, Msg: "expected HELLO, got " + wire.OpName(f.Op),
		}))
		return false
	}
	h, err := wire.DecodeHello(f.Payload)
	if err != nil {
		s.stats.Inc(&s.stats.BadFrames)
		c.send(wire.AppendError(nil, f.ID, wire.RemoteError{
			Code: wire.CodeBadRequest, Msg: "malformed HELLO: " + err.Error(),
		}))
		return false
	}
	if err := c.nc.SetReadDeadline(time.Time{}); err != nil {
		return false
	}
	w := wire.Welcome{
		MaxFrame:    uint32(s.cfg.MaxFrame),
		MaxInFlight: uint32(s.cfg.PerConnInFlight),
		Server:      s.cfg.Banner,
		Incarnation: s.incarnation,
	}
	if s.cfg.DedupWindow > 0 {
		c.sess = s.bindSession(h.Session)
		w.Session = c.sess.token
		w.DedupWindow = uint32(s.cfg.DedupWindow)
	}
	c.send(wire.AppendWelcome(nil, w))
	return true
}

// writeLoop drains out onto the socket, coalescing flushes: it only
// flushes when the channel momentarily empties, so a burst of
// pipelined responses shares one syscall.
func (c *conn) writeLoop() {
	s := c.srv
	defer s.connWG.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	for buf := range c.out {
		if c.dead.Load() {
			continue // peer is gone; drain so senders never block
		}
		if err := c.nc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout)); err != nil {
			c.fail()
			continue
		}
		if _, err := bw.Write(buf); err != nil {
			c.fail()
			continue
		}
		// Flush when the queue momentarily empties (burst over) or
		// once enough has accumulated: without the byte cap, a
		// steadily-fed queue would defer responses until bufio's own
		// buffer fills, adding seconds of latency under load.
		if len(c.out) == 0 || bw.Buffered() >= 16<<10 {
			if err := bw.Flush(); err != nil {
				c.fail()
			}
		}
	}
	if !c.dead.Load() {
		if err := bw.Flush(); err != nil {
			c.fail()
		}
	}
	c.closeNC()
	s.stats.Inc(&s.stats.ConnsClosed)
}

// isTimeout reports whether err is a network timeout (a shutdown wake
// or an idle ReadTimeout expiry — expected teardown, not a protocol
// fault).
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
