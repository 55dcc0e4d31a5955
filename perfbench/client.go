package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"syscall"
	"time"
)

// The client: one pipelined HTTP/1.1 connection per target. In the open
// loop one sending goroutine per connection sends requests at their due
// times whatever the replies are doing; a reader goroutine per connection
// pairs replies with requests in FIFO order and times each from when it
// was due, so a stall is charged to every request queued behind it. In
// the closed loop the sender of each connection keeps a fixed number of
// requests in flight on it.

// connStats is one connection's measurements for one phase. The sender
// writes late; the reader writes everything else.
type connStats struct {
	late Hist // send time minus due time

	write Hist // commands and advance acks, from due time
	read  Hist // status reads, from due time

	writes, reads int64
	failed        int64
	backpressure  int64 // 429s, each retried
}

func (c *connStats) merge(o *connStats) {
	c.late.Merge(&o.late)
	c.write.Merge(&o.write)
	c.read.Merge(&o.read)
	c.writes += o.writes
	c.reads += o.reads
	c.failed += o.failed
	c.backpressure += o.backpressure
}

// phase is one stretch of the open loop at one offered rate, or of the
// closed loop.
type phase struct {
	stats []connStats // per connection
	acked []bool      // by op index; each request sets only its own entry
	wg    sync.WaitGroup

	// Closed loop only: slots[c] holds one token per request in flight on
	// connection c, and doneAt[i-lo] is when op i was answered.
	slots  []chan struct{}
	lo     int
	doneAt []int64
}

// total merges every connection's measurements.
func (ph *phase) total() *connStats {
	var t connStats
	for i := range ph.stats {
		t.merge(&ph.stats[i])
	}
	return &t
}

// flight is a request written to a connection and awaiting its reply.
type flight struct {
	idx       int32 // op index in the stream, also the request id
	due, sent int64 // ns since the clock epoch
	tries     int32
	ph        *phase
}

// clock is the shared monotonic time base of one run.
type clock struct{ epoch time.Time }

func (c clock) now() int64 { return int64(time.Since(c.epoch)) }

// pconn is one pipelined client connection.
type pconn struct {
	id  int
	nc  net.Conn
	s   *stream
	clk clock
	rec *recorder // nil when untraced

	// Only the sending goroutine writes and queues, so replies come back
	// in queue order.
	bw  *bufio.Writer
	buf []byte
	q   chan flight

	rmu   sync.Mutex // guards retries
	retry []flight

	quit chan struct{} // closed by close to stop an idle reader
	done chan struct{} // closed when the reader exits
}

// maxInFlight bounds the requests one connection may have written but
// not yet seen answered; an open loop that outruns the server queues
// here (and the sender, blocked, records the lateness).
const maxInFlight = 1 << 16

func dialConn(id int, addr string, s *stream, clk clock, rec *recorder) (*pconn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	c := &pconn{
		id: id, nc: nc, s: s, clk: clk, rec: rec,
		bw:   bufio.NewWriterSize(nc, 64<<10),
		q:    make(chan flight, maxInFlight),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// close shuts the connection and waits for its reader. Call it once no
// phase is running.
func (c *pconn) close() {
	close(c.quit)
	_ = c.nc.Close() // a reader blocked on a reply sees the error
	<-c.done
}

// send writes op f.idx and queues it for the reader, returning the send
// time. A write error closes the connection, so the reader fails the
// request.
func (c *pconn) send(f flight) int64 {
	f.sent = c.clk.now()
	c.buf = c.s.appendRequest(c.buf[:0], int(f.idx))
	if _, err := c.bw.Write(c.buf); err != nil {
		_ = c.nc.Close()
	}
	c.q <- f
	return f.sent
}

// run sends idxs (ascending op indices) at due = start + (idx-lo)·interval
// and, once done, any retries until the phase completes.
func (c *pconn) run(ph *phase, idxs []int32, lo int, start, interval int64, allDone <-chan struct{}) {
	st := &ph.stats[c.id]
	const slack = 20 * int64(time.Microsecond)
	for k := 0; k < len(idxs); {
		c.sendRetries()
		i := idxs[k]
		due := start + int64(int(i)-lo)*interval
		now := c.clk.now()
		if due > now+slack {
			c.flush()
			sleep(due - now)
			continue
		}
		for ; k < len(idxs); k++ {
			i = idxs[k]
			due = start + int64(int(i)-lo)*interval
			if due > now+slack {
				break
			}
			sent := c.send(flight{idx: i, due: due, ph: ph})
			st.late.Record(time.Duration(max(sent-due, 0)))
		}
	}
	c.flush()
	c.retryUntil(allDone)
}

// retryUntil re-sends refused requests as their back-off passes until
// the phase completes.
func (c *pconn) retryUntil(allDone <-chan struct{}) {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-allDone:
			return
		case <-tick.C:
			c.sendRetries()
		}
	}
}

// runClosed sends idxs in order, each as soon as one of the connection's
// slots is free, until stopAt. It returns how many it sent and when it
// sent the last. A request waiting for a 429 back-off keeps its slot.
func (c *pconn) runClosed(ph *phase, idxs []int32, stopAt, giveUp int64) (int, int64, error) {
	slots := ph.slots[c.id]
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	n, last := 0, int64(0)
	for ; n < len(idxs) && c.clk.now() < stopAt; n++ {
		select {
		case slots <- struct{}{}:
		default:
			// Every slot is taken: put the written requests on the wire
			// and wait for a reply, re-sending 429s meanwhile.
			c.flush()
			for took := false; !took; {
				select {
				case slots <- struct{}{}:
					took = true
				case <-tick.C:
					c.sendRetries()
					if c.clk.now() > giveUp {
						c.flush()
						return n, last, errors.New("no reply for 60 s")
					}
				}
			}
		}
		ph.wg.Add(1)
		last = c.send(flight{idx: idxs[n], due: c.clk.now(), ph: ph})
	}
	c.flush()
	return n, last, nil
}

// sleep blocks the calling thread in nanosleep. time.Sleep rounds a
// sub-millisecond wait up to the runtime's 1 ms poller granularity when
// the process is otherwise idle, which would make the open loop send in
// millisecond bursts; a thread-blocking sleep keeps sends within tens of
// microseconds of their due times. A thread asleep here still holds its
// processor slot, so runHTTP raises GOMAXPROCS by one per sender.
func sleep(ns int64) {
	ts := syscall.NsecToTimespec(ns)
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

func (c *pconn) flush() {
	if err := c.bw.Flush(); err != nil {
		_ = c.nc.Close() // the reader fails every queued request
	}
}

// sendRetries re-sends refused requests whose back-off has passed, with
// their original due times.
func (c *pconn) sendRetries() {
	c.rmu.Lock()
	if len(c.retry) == 0 {
		c.rmu.Unlock()
		return
	}
	now := c.clk.now()
	var ready []flight
	kept := c.retry[:0]
	for _, f := range c.retry {
		if f.sent <= now { // sent holds the not-before time while queued
			ready = append(ready, f)
		} else {
			kept = append(kept, f)
		}
	}
	c.retry = kept
	c.rmu.Unlock()
	if len(ready) == 0 {
		return
	}
	for _, f := range ready {
		c.send(f)
	}
	c.flush()
}

// maxTries bounds 429 retries of one request before it counts as failed.
const maxTries = 12

// readLoop pairs replies with queued requests until the connection dies,
// then fails every request queued after that.
func (c *pconn) readLoop() {
	defer close(c.done)
	br := bufio.NewReaderSize(c.nc, 64<<10)
	var body []byte
	var err error
	for {
		var f flight
		select {
		case f = <-c.q:
		case <-c.quit:
			return
		}
		var code int
		code, body, err = readResponse(br, body[:0])
		if err != nil {
			c.finish(f, 0, err)
			break
		}
		c.handle(f, code, body)
	}
	// The connection is dead: fail whatever the sender still queues until
	// the connection is closed.
	for {
		select {
		case f := <-c.q:
			c.finish(f, 0, err)
		case <-c.quit:
			return
		}
	}
}

var rejectedMark = []byte(`"status":"rejected"`)

func (c *pconn) handle(f flight, code int, body []byte) {
	st := &f.ph.stats[c.id]
	switch {
	case code == 429:
		st.backpressure++
		if f.tries+1 < maxTries {
			f.tries++
			f.sent = c.clk.now() + int64(time.Millisecond)<<min(f.tries, 7)
			c.rmu.Lock()
			c.retry = append(c.retry, f)
			c.rmu.Unlock()
			return
		}
		c.finish(f, code, errors.New("429 retries exhausted"))
	case code == 307:
		c.finish(f, code, errors.New("redirected: the cached route table is stale"))
	case code != 200:
		c.finish(f, code, fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body)))
	case c.s.ops[f.idx].kind == opCommands && bytes.Contains(body, rejectedMark):
		c.finish(f, code, fmt.Errorf("command rejected: %s", bytes.TrimSpace(body)))
	default:
		c.finish(f, code, nil)
	}
}

// finish records the request's outcome and releases it from the phase.
func (c *pconn) finish(f flight, code int, err error) {
	now := c.clk.now()
	st := &f.ph.stats[c.id]
	kind := c.s.ops[f.idx].kind
	h := &st.write
	if kind == opRead {
		h = &st.read
		st.reads++
	} else {
		st.writes++
	}
	if err != nil {
		h.Fail()
		st.failed++
		if st.failed <= 3 {
			logf("conn %d request %d (%v shard %d): %v", c.id, f.idx, kind, c.s.ops[f.idx].shard, err)
		}
	} else {
		h.Record(time.Duration(now - f.due))
		f.ph.acked[f.idx] = true
	}
	if f.ph.doneAt != nil {
		f.ph.doneAt[int(f.idx)-f.ph.lo] = now
	}
	if c.rec != nil {
		c.rec.add(span{start: f.sent, end: now, id: f.idx, kind: spanClient,
			node: int8(c.id), shard: int16(c.s.ops[f.idx].shard), op: kind, code: int32(code)})
	}
	if f.ph.slots != nil {
		<-f.ph.slots[c.id]
	}
	f.ph.wg.Done()
}

func (k opKind) String() string {
	switch k {
	case opCommands:
		return "commands"
	case opAdvance:
		return "advance"
	case opRead:
		return "read"
	}
	return "op" + strconv.Itoa(int(k))
}

// readResponse reads one HTTP/1.1 response, Content-Length or chunked,
// into body (reused).
func readResponse(br *bufio.Reader, body []byte) (int, []byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		return 0, body, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.")) {
		return 0, body, fmt.Errorf("malformed status line %q", line)
	}
	code, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, body, fmt.Errorf("malformed status line %q", line)
	}
	length, chunked := -1, false
	for {
		line, err = br.ReadSlice('\n')
		if err != nil {
			return 0, body, err
		}
		h := bytes.TrimRight(line, "\r\n")
		if len(h) == 0 {
			break
		}
		name, val, ok := bytes.Cut(h, []byte(":"))
		if !ok {
			continue
		}
		val = bytes.TrimSpace(val)
		switch {
		case bytes.EqualFold(name, []byte("Content-Length")):
			if length, err = strconv.Atoi(string(val)); err != nil {
				return 0, body, fmt.Errorf("bad Content-Length %q", val)
			}
		case bytes.EqualFold(name, []byte("Transfer-Encoding")):
			chunked = bytes.EqualFold(val, []byte("chunked"))
		}
	}
	switch {
	case chunked:
		return code, body, readChunked(br, &body)
	case length >= 0:
		body = grow(body, length)
		_, err = io.ReadFull(br, body)
		return code, body, err
	}
	return code, body, nil // no body (e.g. 307 with none declared)
}

func readChunked(br *bufio.Reader, body *[]byte) error {
	for {
		line, err := br.ReadSlice('\n')
		if err != nil {
			return err
		}
		sz, _, _ := bytes.Cut(bytes.TrimRight(line, "\r\n"), []byte(";"))
		n, err := strconv.ParseInt(string(sz), 16, 64)
		if err != nil {
			return fmt.Errorf("bad chunk size %q", sz)
		}
		if n == 0 {
			for { // trailers, then the blank line
				line, err = br.ReadSlice('\n')
				if err != nil {
					return err
				}
				if len(bytes.TrimRight(line, "\r\n")) == 0 {
					return nil
				}
			}
		}
		old := len(*body)
		*body = grow(*body, old+int(n))
		if _, err := io.ReadFull(br, (*body)[old:]); err != nil {
			return err
		}
		if _, err := br.Discard(2); err != nil { // chunk CRLF
			return err
		}
	}
}

func grow(b []byte, n int) []byte {
	if cap(b) < n {
		nb := make([]byte, n, 2*n)
		copy(nb, b)
		return nb
	}
	return b[:n]
}
