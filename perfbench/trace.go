package main

import (
	"bufio"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// Spans come only from the benchmark's own wrappers around the layers it
// drives: the client request, each server's handler, the follower's /repl
// handler, and the engine's Apply and Step. They are kept in a
// preallocated buffer and written out when the run ends.

type spanKind uint8

const (
	spanClient spanKind = iota // client: request sent to reply read
	spanServe                  // serve.Server handler (node-reweight)
	spanNode                   // cluster.Node handler, client-facing path
	spanRepl                   // cluster.Node handler, follower /repl
	spanApply                  // core.Scheduler.Apply
	spanStep                   // core.Scheduler.Step
)

var spanNames = [...]string{"client", "serve", "node", "repl", "apply", "step"}

type span struct {
	start, end int64 // ns since the clock epoch
	id         int32 // benchmark request id; -1 when none
	kind       spanKind
	op         opKind
	node       int8
	shard      int16
	code       int32 // HTTP status
	bytes      int32 // request body length
}

func (s *span) dur() int64 { return s.end - s.start }

// recorder is a fixed-capacity span buffer; adding never allocates.
type recorder struct {
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
	stopped atomic.Bool
}

// newRecorder keeps up to n spans; a longer run keeps the first n and
// counts the rest as dropped.
func newRecorder(n int) *recorder { return &recorder{spans: make([]span, n)} }

func (r *recorder) add(s span) {
	if r.stopped.Load() {
		return
	}
	i := r.n.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return
	}
	r.spans[i] = s
}

// stop ends recording: later spans are neither kept nor counted.
func (r *recorder) stop() { r.stopped.Store(true) }

// kept returns the recorded spans; call after every writer has stopped.
func (r *recorder) kept() []span {
	return r.spans[:min(r.n.Load(), int64(len(r.spans)))]
}

// write dumps the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.kept() {
		fmt.Fprintf(w, `{"kind":%q,"op":%q,"id":%d,"node":%d,"shard":%d,"start_ns":%d,"end_ns":%d,"code":%d,"bytes":%d}`+"\n",
			spanNames[s.kind], s.op, s.id, s.node, s.shard, s.start, s.end, s.code, s.bytes)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedHandler records one span per request around a layer's handler.
type tracedHandler struct {
	h    http.Handler
	rec  *recorder
	clk  clock
	node int8
	kind spanKind // spanServe or spanNode; /repl paths record spanRepl
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := t.clk.now()
	sw := &statusWriter{ResponseWriter: w}
	t.h.ServeHTTP(sw, r)
	end := t.clk.now()
	s := span{start: start, end: end, id: -1, kind: t.kind, node: t.node, shard: -1,
		code: int32(sw.code), bytes: int32(r.ContentLength)}
	if s.code == 0 {
		s.code = http.StatusOK
	}
	if v := r.Header.Get("X-Bench-Req"); v != "" {
		if id, err := strconv.Atoi(v); err == nil {
			s.id = int32(id)
		}
	}
	path := r.URL.Path
	if rest, ok := strings.CutPrefix(path, "/v1/cluster/shards/"); ok {
		if seg, op, _ := strings.Cut(rest, "/"); op == "repl" {
			s.kind = spanRepl
			s.shard = atoi16(seg)
		}
	} else if rest, ok := strings.CutPrefix(path, "/v1/shards/"); ok {
		seg, op, _ := strings.Cut(rest, "/")
		s.shard = atoi16(seg)
		switch {
		case op == "commands":
			s.op = opCommands
		case op == "advance":
			s.op = opAdvance
		case op == "" && r.Method == http.MethodGet:
			s.op = opRead
		default:
			s.shard = -1 // log, state, snapshot: verification traffic
		}
	}
	t.rec.add(s)
}

func atoi16(s string) int16 {
	n, err := strconv.Atoi(s)
	if err != nil {
		return -1
	}
	return int16(n)
}

// layerStats derives the per-layer metrics and self times of one traced
// phase from its spans.
type layerStats struct {
	metrics map[string]float64
	self    []selfRow
}

type selfRow struct {
	layer string
	n     int
	total int64 // ns of self time
}

func usQ(h *Hist, q float64) float64 { return h.Quantile(q) / 1e3 }

// analyzeHTTP computes the serve, cluster and net metrics from the spans
// of one open-loop phase.
func analyzeHTTP(spans []span, nops int) layerStats {
	handler := make([]int32, nops) // request id -> outermost server span
	for i := range handler {
		handler[i] = -1
	}
	var (
		serveCmd, serveAdv, nodeWrite, nodeSelf, nodeAdv, nodeRead, repl, overhead Hist
		redirects, refusals, bg, pushes, writes                                    int64
		replBytes, replInWrites, writeTime                                         int64
		clientSelf, queueSum, serveSelf, nodeSelfSum, replSum                      int64
		nClient, nServe, nNode, nRepl                                              int
	)
	// Primary write spans per shard, sorted by start, to parent /repl spans.
	writeSpans := map[int16][]int{}
	for i := range spans {
		s := &spans[i]
		if s.id >= 0 && int(s.id) < nops && (s.kind == spanServe || s.kind == spanNode) {
			handler[s.id] = int32(i)
		}
		switch s.kind {
		case spanServe:
			switch {
			case s.code != 200:
			case s.op == opCommands && s.shard >= 0:
				serveCmd.Record(time.Duration(s.dur()))
			case s.op == opAdvance:
				serveAdv.Record(time.Duration(s.dur()))
			}
			if s.shard >= 0 {
				serveSelf += s.dur()
				nServe++
			}
		case spanNode:
			if s.code == 307 {
				redirects++
			}
			if s.shard < 0 || s.code != 200 {
				continue
			}
			switch s.op {
			case opCommands, opAdvance:
				nodeWrite.Record(time.Duration(s.dur()))
				if s.op == opAdvance {
					nodeAdv.Record(time.Duration(s.dur()))
				}
				writeSpans[s.shard] = append(writeSpans[s.shard], i)
				writes++
				writeTime += s.dur()
			case opRead:
				nodeRead.Record(time.Duration(s.dur()))
				nodeSelfSum += s.dur()
				nNode++
			}
		}
	}
	for _, idx := range writeSpans {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
	}
	childTime := make(map[int]int64)
	for i := range spans {
		s := &spans[i]
		if s.kind != spanRepl {
			continue
		}
		repl.Record(time.Duration(s.dur()))
		replSum += s.dur()
		nRepl++
		replBytes += int64(max(s.bytes, 0))
		if s.code == 409 {
			refusals++
		}
		parent := -1
		if idx := writeSpans[s.shard]; len(idx) > 0 {
			k := sort.Search(len(idx), func(k int) bool { return spans[idx[k]].start > s.start }) - 1
			if k >= 0 && spans[idx[k]].node != s.node && spans[idx[k]].end >= s.end {
				parent = idx[k]
			}
		}
		if parent < 0 {
			bg++
			continue
		}
		pushes++
		replInWrites += s.dur()
		childTime[parent] += s.dur()
	}
	for _, idx := range writeSpans {
		for _, i := range idx {
			self := spans[i].dur() - childTime[i]
			nodeSelf.Record(time.Duration(self))
			nodeSelfSum += self
			nNode++
		}
	}
	// A pipelined connection's requests are handled one at a time. A
	// request sent while the handler of an earlier one still ran waits
	// for it in the server: that wait is server time, so the client's
	// share of a request starts at max(sent, end of the previous handler
	// on the connection), and the wait is a row of its own.
	conns := map[int8][]int{}
	for i := range spans {
		if spans[i].kind == spanClient {
			conns[spans[i].node] = append(conns[spans[i].node], i)
		}
	}
	for _, idx := range conns {
		sort.Slice(idx, func(a, b int) bool { return spans[idx[a]].start < spans[idx[b]].start })
		var prevEnd int64 // spans start after the clock's epoch
		for _, i := range idx {
			s := &spans[i]
			h := int32(-1)
			if s.id >= 0 && int(s.id) < nops {
				h = handler[s.id]
			}
			if s.code == 200 {
				nClient++
				wait := min(max(prevEnd-s.start, 0), s.dur())
				self := s.dur() - wait
				if h >= 0 {
					self -= spans[h].dur()
					overhead.Record(time.Duration(max(self, 0)))
				}
				queueSum += wait
				clientSelf += self
			}
			if h >= 0 {
				prevEnd = max(prevEnd, spans[h].end)
			}
		}
	}
	m := map[string]float64{
		"serve.commands_us_p50":     usQ(&serveCmd, 0.5),
		"serve.commands_us_p99":     usQ(&serveCmd, 0.99),
		"serve.advance_us_p50":      usQ(&serveAdv, 0.5),
		"serve.advance_us_p99":      usQ(&serveAdv, 0.99),
		"net.overhead_us_p50":       usQ(&overhead, 0.5),
		"cluster.write_us_p50":      usQ(&nodeWrite, 0.5),
		"cluster.write_us_p99":      usQ(&nodeWrite, 0.99),
		"cluster.write_self_us_p50": usQ(&nodeSelf, 0.5),
		"cluster.repl_us_p50":       usQ(&repl, 0.5),
		"cluster.repl_us_p99":       usQ(&repl, 0.99),
		"cluster.repl_refusals":     float64(refusals),
		"cluster.bg_pushes":         float64(bg),
		"cluster.advance_us_p99":    usQ(&nodeAdv, 0.99),
		"cluster.read_us_p99":       usQ(&nodeRead, 0.99),
		"cluster.redirects":         float64(redirects),
	}
	if writeTime > 0 {
		m["cluster.repl_share"] = float64(replInWrites) / float64(writeTime)
	}
	if writes > 0 {
		m["cluster.pushes_per_write"] = float64(pushes) / float64(writes)
	}
	if nRepl > 0 {
		m["cluster.repl_kb_per_push"] = float64(replBytes) / float64(nRepl) / 1024
	}
	var rows []selfRow
	rows = append(rows, selfRow{"client + loopback TCP + net/http", nClient, clientSelf})
	rows = append(rows, selfRow{"queued behind the connection's earlier requests", nClient, queueSum})
	if nServe > 0 {
		rows = append(rows, selfRow{"serve handler (decode, mailbox, admission, engine)", nServe, serveSelf})
	}
	if nNode > 0 {
		rows = append(rows, selfRow{"cluster node outside /repl (serve + tail build + push I/O)", nNode, nodeSelfSum})
	}
	if nRepl > 0 {
		rows = append(rows, selfRow{"follower /repl (decode, replay, digest)", nRepl, replSum})
	}
	return layerStats{metrics: m, self: rows}
}

// printSelf prints the "where the time goes" table of one traced phase.
func printSelf(w *os.File, title string, rows []selfRow, perOp int) {
	var total int64
	for _, r := range rows {
		total += r.total
	}
	fmt.Fprintf(w, "# where the time goes (%s): self time per layer\n", title)
	fmt.Fprintf(w, "#   %-60s %9s %12s %10s %7s\n", "layer", "spans", "self ms", "µs/op", "share")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.total) / float64(total)
		}
		fmt.Fprintf(w, "#   %-60s %9d %12.1f %10.2f %6.1f%%\n", r.layer, r.n, float64(r.total)/1e6,
			float64(r.total)/1e3/float64(max(perOp, 1)), share)
	}
}
