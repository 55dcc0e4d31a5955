package main

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/frac"
	"repro/internal/serve"
)

// httpConfig is one HTTP workload: the stream, the fixed offered rate
// its latencies are read at in an open loop, and the closed loop its
// sustained rate is measured in.
type httpConfig struct {
	Cluster    bool         `json:"cluster"`
	Nodes      int          `json:"nodes"`
	Replicas   int          `json:"replicas"`
	Policy     string       `json:"policy"`
	OIThresh   string       `json:"oi_threshold"`
	Stream     streamConfig `json:"stream"`
	FixedRate  float64      `json:"fixed_rate_cmd_s"`
	FixedShare float64      `json:"fixed_share_of_seconds"`
	InFlight   int          `json:"closed_loop_in_flight"`
	WarmSec    float64      `json:"closed_loop_warm_seconds"` // per instance, not counted
	InstSec    float64      `json:"closed_loop_instance_seconds"`
	CapRate    float64      `json:"closed_loop_cap_cmd_s"` // the stream holds this much
}

func defaultNode() httpConfig {
	return httpConfig{
		Nodes: 1, Policy: "hybrid", OIThresh: "1/16", Stream: defaultStream(),
		FixedRate: 128000, FixedShare: 0.3,
		InFlight: 4, WarmSec: 0.25, InstSec: 1, CapRate: 2e6,
	}
}

func defaultCluster() httpConfig {
	c := defaultNode()
	c.Cluster, c.Nodes, c.Replicas = true, 2, 1
	// One status read per two POSTs, so the fixed phase records several
	// hundred reads. ROADMAP measured 15.9k cmd/s for this traffic on a
	// routed three-node cluster. An advance cycle, over which every
	// shard's pending batch (which each write replicates) fills and
	// empties once, takes over half a second at the closed loop's rate,
	// so a fresh instance, whose batches all start empty, warms up for
	// 0.75 s before it is timed. With 8 requests in flight per connection
	// instead of 2, the rate sat for seconds at a time at two levels about
	// 40% apart, and its spread between runs was 3-4 times as wide.
	c.Stream.ReadShare = 0.5
	c.FixedRate = 8000
	c.InFlight, c.WarmSec, c.InstSec, c.CapRate = 2, 0.75, 2, 80000
	return c
}

// instance is one running system under test: servers on loopback
// listeners, the open-loop connections, and how to take it all down.
type instance struct {
	conns   []*pconn
	connFor []int           // shard -> connection (the shard's primary)
	bases   []string        // connection -> node base URL
	srvs    []*serve.Server // connection -> the node's shards
	setup   *http.Client
	stops   []func()
}

func (in *instance) close() {
	for _, c := range in.conns {
		c.close()
	}
	for i := len(in.stops) - 1; i >= 0; i-- {
		in.stops[i]()
	}
	in.setup.CloseIdleConnections()
}

// listen opens a loopback listener and returns it with its base URL.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// serveOn serves h on ln; stop closes it and waits for the serving
// goroutine.
func serveOn(ln net.Listener, h http.Handler) (stop func()) {
	hs := &http.Server{Handler: h}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = hs.Serve(ln) // returns ErrServerClosed on Close
	}()
	return func() {
		_ = hs.Close()
		wg.Wait()
	}
}

func wrap(h http.Handler, rec *recorder, clk clock, node int, kind spanKind) http.Handler {
	if rec == nil {
		return h
	}
	return &tracedHandler{h: h, rec: rec, clk: clk, node: int8(node), kind: kind}
}

func newServer(hc httpConfig) (*serve.Server, error) {
	srv, err := serve.New(serve.Options{Shards: hc.Stream.Shards, Config: serve.ShardConfig{
		M: hc.Stream.M, Policy: hc.Policy, OIThreshold: frac.MustParse(hc.OIThresh),
	}})
	if err != nil {
		return nil, err
	}
	srv.Start()
	return srv, nil
}

// startInstance brings a system up to the first timed request: listeners
// serving, route table placed (cluster), connections dialed, every task
// joined and applied.
func startInstance(hc httpConfig, s *stream, rec *recorder, clk clock) (*instance, error) {
	in := &instance{setup: &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{}}}
	var err error
	if hc.Cluster {
		err = in.startCluster(hc, rec, clk)
	} else {
		err = in.startNode(hc, rec, clk)
	}
	if err == nil {
		err = in.dialAndJoin(s, rec, clk)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

func (in *instance) startNode(hc httpConfig, rec *recorder, clk clock) error {
	srv, err := newServer(hc)
	if err != nil {
		return err
	}
	ln, base, err := listen()
	if err != nil {
		srv.Stop()
		return err
	}
	stop := serveOn(ln, wrap(srv.Handler(), rec, clk, 0, spanServe))
	in.stops = append(in.stops, func() {
		stop() // quiesce HTTP before stopping the shards
		srv.Stop()
	})
	// Two connections to the one node, shards split between them.
	in.bases = []string{base, base}
	in.srvs = []*serve.Server{srv, srv}
	for sh := 0; sh < hc.Stream.Shards; sh++ {
		in.connFor = append(in.connFor, sh%2)
	}
	return nil
}

// clusterIDs are fixed node names; rendezvous placement gives each node
// the primary role for half of the 8 shards.
var clusterIDs = []string{"node-a", "node-b"}

func (in *instance) startCluster(hc httpConfig, rec *recorder, clk clock) error {
	intra := &http.Client{Timeout: 5 * time.Second, Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	in.stops = append(in.stops, intra.CloseIdleConnections)
	coord, err := cluster.NewCoordinator(cluster.CoordinatorOptions{
		Shards: hc.Stream.Shards, Replicas: hc.Replicas, MinNodes: hc.Nodes, Client: intra,
	})
	if err != nil {
		return err
	}
	ln, coordBase, err := listen()
	if err != nil {
		return err
	}
	in.stops = append(in.stops, serveOn(ln, coord.Handler()))
	nodes := make([]*cluster.Node, hc.Nodes)
	ids := map[string]int{}
	for i := range nodes {
		// The listener exists before the node so it can advertise its base.
		ln, base, err := listen()
		if err != nil {
			return err
		}
		srv, err := newServer(hc)
		if err != nil {
			ln.Close()
			return err
		}
		cs := serve.NewClusterStats(hc.Stream.Shards)
		srv.AttachClusterStats(cs)
		n, err := cluster.NewNode(cluster.NodeOptions{ID: clusterIDs[i], Base: base, Server: srv, Stats: cs, Client: intra})
		if err != nil {
			ln.Close()
			srv.Stop()
			return err
		}
		stop := serveOn(ln, wrap(n.Handler(), rec, clk, i, spanNode))
		n.Start(0)
		in.stops = append(in.stops, func() {
			n.Stop() // anti-entropy first, then HTTP, then the shards
			stop()
			srv.Stop()
		})
		nodes[i] = n
		ids[clusterIDs[i]] = i
		in.bases = append(in.bases, base)
		in.srvs = append(in.srvs, srv)
	}
	for _, n := range nodes {
		if err := n.Register(coordBase); err != nil {
			return err
		}
	}
	// The client caches the route table from the coordinator.
	var tab cluster.RouteTable
	if err := getJSON(in.setup, coordBase+"/v1/cluster/route", &tab); err != nil {
		return fmt.Errorf("route table: %w", err)
	}
	for sh := 0; sh < hc.Stream.Shards; sh++ {
		r, err := tab.Route(sh)
		if err != nil {
			return err
		}
		in.connFor = append(in.connFor, ids[r.Primary])
	}
	for _, n := range nodes {
		if t := n.Table(); t == nil || t.Version != tab.Version {
			return errors.New("cluster: a node missed the route table push")
		}
	}
	return nil
}

func (in *instance) dialAndJoin(s *stream, rec *recorder, clk clock) error {
	for i, base := range in.bases {
		c, err := dialConn(i, base[len("http://"):], s, clk, rec)
		if err != nil {
			return err
		}
		in.conns = append(in.conns, c)
	}
	for sh := 0; sh < s.cfg.Shards; sh++ {
		if err := in.post(sh, "commands", s.joinBody(sh)); err != nil {
			return fmt.Errorf("join shard %d: %w", sh, err)
		}
	}
	return in.advanceAll(s.cfg.Shards)
}

// advanceAll steps every shard one slot on its primary, applying whatever
// is staged.
func (in *instance) advanceAll(shards int) error {
	for sh := 0; sh < shards; sh++ {
		if err := in.post(sh, "advance", advanceBody); err != nil {
			return fmt.Errorf("advance shard %d: %w", sh, err)
		}
	}
	return nil
}

func (in *instance) post(sh int, op string, body []byte) error {
	url := fmt.Sprintf("%s/v1/shards/%d/%s", in.bases[in.connFor[sh]], sh, op)
	resp, err := in.setup.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	_, _ = b.ReadFrom(resp.Body) // the status code decides; the body is for the message
	if resp.StatusCode != http.StatusOK || bytes.Contains(b.Bytes(), rejectedMark) {
		return fmt.Errorf("POST %s: %s %s", url, resp.Status, bytes.TrimSpace(b.Bytes()))
	}
	return nil
}

// runPhase offers ops[lo:hi] at rate commands/s: each connection's sender
// sends its shards' ops at their due times. It returns once every request
// is answered or failed.
func (in *instance) runPhase(s *stream, lo, hi int, rate float64, clk clock, acked []bool) (*connStats, int64, error) {
	idxs := make([][]int32, len(in.conns))
	posts := 0
	for i := lo; i < hi; i++ {
		o := s.ops[i]
		if o.kind == opCommands {
			posts++
		}
		c := in.connFor[o.shard]
		idxs[c] = append(idxs[c], int32(i))
	}
	// Ops are evenly spaced; posts/(hi-lo) of them carry Batch commands.
	interval := int64(float64(posts) / float64(hi-lo) / (rate / float64(s.cfg.Batch)) * 1e9)
	ph := &phase{stats: make([]connStats, len(in.conns)), acked: acked}
	ph.wg.Add(hi - lo)
	start := clk.now() + int64(time.Millisecond)
	allDone := make(chan struct{})
	var senders sync.WaitGroup
	for i, c := range in.conns {
		senders.Add(1)
		go func(c *pconn, idxs []int32) {
			defer senders.Done()
			c.run(ph, idxs, lo, start, interval, allDone)
		}(c, idxs[i])
	}
	waited := make(chan struct{})
	go func() {
		ph.wg.Wait()
		close(waited)
	}()
	var err error
	timeout := time.NewTimer(time.Duration(float64(hi-lo)*float64(interval)) + 60*time.Second)
	select {
	case <-waited:
	case <-timeout.C:
		err = errors.New("requests still unanswered 60 s after the phase")
		for _, c := range in.conns {
			_ = c.nc.Close() // fail the stragglers so the senders can stop
		}
		<-waited
	}
	timeout.Stop()
	close(allDone)
	senders.Wait()
	return ph.total(), int64(posts) * int64(s.cfg.Batch), err
}

// verify flushes every shard and checks each against the ops the
// instance was sent: ops [lo, hi) of the stream or, with ends set, those
// of connection c below ends[c]. The final state it serves must be
// exactly what was acked. The fixed-phase instance (fixed) is read over
// HTTP, as a client would, and also yields the paper's accuracy over
// every task. A closed-loop instance logs millions of commands, so its
// logs are read in-process through ShardTail, the face the /log endpoint
// serves, which skips their JSON round trip.
func (in *instance) verify(s *stream, lo, hi int, ends []int, acked []bool, failed int64, fixed bool) (accuracy, error) {
	var total accuracy
	if err := in.advanceAll(s.cfg.Shards); err != nil {
		return total, err
	}
	var until []int
	if ends != nil {
		for sh := 0; sh < s.cfg.Shards; sh++ {
			until = append(until, ends[in.connFor[sh]])
		}
	}
	exp := expectations(s, lo, hi, until, acked, failed)
	for sh := 0; sh < s.cfg.Shards; sh++ {
		var t *serve.Tail
		var st *serve.ShardStatus
		var err error
		if fixed {
			t, st, err = fetchShard(in.setup, in.bases[in.connFor[sh]], sh)
		} else if t, err = in.srvs[in.connFor[sh]].ShardTail(sh, 0); err == nil {
			st = new(serve.ShardStatus)
			err = getJSON(in.setup, fmt.Sprintf("%s/v1/shards/%d", in.bases[in.connFor[sh]], sh), st)
		}
		if err != nil {
			return total, err
		}
		if err := checkShard(t, st, exp[sh]); err != nil {
			return total, err
		}
		if !fixed {
			continue
		}
		acc, err := replayAccuracy(t)
		if err != nil {
			return total, err
		}
		total.driftSum += acc.driftSum
		total.missSum += acc.missSum
		total.idealSum += acc.idealSum
		total.tasks += acc.tasks
	}
	return total, nil
}

// phaseErr fails a phase on any failed request. The fixed-rate phase
// runs well below the sustained rate, and the closed loop keeps only a
// few requests in flight per connection, on admission-clean workloads, so
// a 5xx, a transport error, a redirect or a 429 out of retries in either
// is a defect of the program.
func phaseErr(st *connStats) error {
	if st.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d requests failed", st.failed, st.writes+st.reads)
}

// opsFor is the number of stream ops that carry rate·seconds commands.
func opsFor(cfg streamConfig, rate, seconds float64) int {
	perPost := 1 + 1/float64(cfg.PostsPerAdvance) + cfg.ReadShare
	return int(math.Ceil(rate * seconds / float64(cfg.Batch) * perPost))
}

// runSaturated is the closed loop over ops [lo, hi): the sender of each
// connection keeps inFlight requests outstanding on it and sends the
// connection's ops in stream order, the next as soon as a reply frees a
// slot, until dur has passed. It returns once every sent request is
// answered or failed, with each connection's end (its ops below end were
// sent, the rest not) and, for each whole window of win after warm, the
// commands acked per second and the share of the machine's CPU the host
// stole.
func (in *instance) runSaturated(s *stream, lo, hi, inFlight int, warm, dur, win time.Duration, clk clock, acked []bool) (*connStats, []int, []window, error) {
	idxs := make([][]int32, len(in.conns))
	for i := lo; i < hi; i++ {
		c := in.connFor[s.ops[i].shard]
		idxs[c] = append(idxs[c], int32(i))
	}
	ph := &phase{stats: make([]connStats, len(in.conns)), acked: acked, lo: lo, doneAt: make([]int64, hi-lo)}
	for range in.conns {
		ph.slots = append(ph.slots, make(chan struct{}, inFlight))
	}
	steal := sampleSteal(clk)
	start := clk.now()
	stopAt, giveUp := start+int64(dur), start+int64(dur)+int64(60*time.Second)
	ends := make([]int, len(in.conns))
	errs := make([]error, len(in.conns))
	t1 := stopAt
	var mu sync.Mutex
	allDone := make(chan struct{})
	var sending, senders sync.WaitGroup
	for i, c := range in.conns {
		sending.Add(1)
		senders.Add(1)
		go func(i int, c *pconn) {
			defer senders.Done()
			n, last, err := c.runClosed(ph, idxs[i], stopAt, giveUp)
			ends[i], errs[i] = hi, err
			if n < len(idxs[i]) {
				ends[i] = int(idxs[i][n])
			} else if n > 0 && last < stopAt {
				logf("closed loop: connection %d ran out of ops %.2f s early", i, float64(stopAt-last)/1e9)
				mu.Lock()
				t1 = min(t1, last)
				mu.Unlock()
			}
			sending.Done()
			c.retryUntil(allDone)
		}(i, c)
	}
	sending.Wait() // no ph.wg.Add after this
	waited := make(chan struct{})
	go func() {
		ph.wg.Wait()
		close(waited)
	}()
	var err error
	timeout := time.NewTimer(time.Duration(giveUp - clk.now()))
	select {
	case <-waited:
	case <-timeout.C:
		err = errors.New("requests still unanswered 60 s after the closed loop")
		for _, c := range in.conns {
			_ = c.nc.Close() // fail the stragglers so the senders can stop
		}
		<-waited
	}
	timeout.Stop()
	close(allDone)
	senders.Wait()
	samples := steal()
	t0 := start + int64(warm)
	var ws []window
	for k, r := range windowRates(s, lo, hi, ph.doneAt, acked, t0, t1, int64(win)) {
		a, b := t0+int64(k)*int64(win), t0+int64(k+1)*int64(win)
		ws = append(ws, window{Rate: r, Steal: (stealAt(samples, b) - stealAt(samples, a)) / ticksPerSec / (float64(b-a) / 1e9 * float64(runtime.NumCPU()))})
	}
	return ph.total(), ends, ws, errors.Join(append(errs, err)...)
}

// window is one rate sample of the closed loop.
type window struct {
	Rate  float64 `json:"cmd_s"`
	Steal float64 `json:"steal_frac"` // share of the machine's CPU time the host stole
}

// windowSec is the length of one rate sample of the closed loop.
const windowSec = 0.25

// maxWindowSteal is the most CPU the host may steal in a window that
// counts towards the sustained rate: 2% of the machine, on 2 vCPUs one
// 10 ms tick in a 0.25 s window.
const maxWindowSteal = 0.02

// sustainedRate is the mean rate of the windows in which the host stole
// at most maxWindowSteal of the machine's CPU, or, if fewer than half did,
// of the half that lost the least: the commands acked in those windows
// over their time, since windows are of equal length. A window the
// hypervisor cut into is slowed by more than the CPU it lost (the servers
// and the client wait on each other, and the vCPU returns with cold
// caches), so it measures the host, not the program. The rate moves
// between faster and slower stretches that last seconds; the mean weighs
// each by its length, where a median would jump from one to the other.
func sustainedRate(ws []window) (rate float64, kept int) {
	var calm []float64
	for _, w := range ws {
		if w.Steal <= maxWindowSteal {
			calm = append(calm, w.Rate)
		}
	}
	if 2*len(calm) < len(ws) {
		byLoss := slices.Clone(ws)
		slices.SortStableFunc(byLoss, func(a, b window) int { return cmp.Compare(a.Steal, b.Steal) })
		calm = calm[:0]
		for _, w := range byLoss[:(len(ws)+1)/2] {
			calm = append(calm, w.Rate)
		}
	}
	var sum float64
	for _, r := range calm {
		sum += r
	}
	return sum / float64(max(len(calm), 1)), len(calm)
}

// windowRates counts the commands of the acked ops in [lo, hi) answered
// in each whole window of win ns from t0 up to t1, per second.
func windowRates(s *stream, lo, hi int, doneAt []int64, acked []bool, t0, t1, win int64) []float64 {
	if t1 <= t0 {
		return nil
	}
	counts := make([]int64, (t1-t0)/win)
	for i := lo; i < hi; i++ {
		if s.ops[i].kind != opCommands || !acked[i] {
			continue
		}
		if t := doneAt[i-lo]; t >= t0 {
			if k := (t - t0) / win; k < int64(len(counts)) {
				counts[k] += int64(s.cfg.Batch)
			}
		}
	}
	rates := make([]float64, len(counts))
	for k, n := range counts {
		rates[k] = float64(n) / (float64(win) / 1e9)
	}
	return rates
}

// runHTTP is one pass of node-reweight or cluster-rw: repeated set-ups,
// the fixed-rate phase, the closed loop, and the output checks on every
// instance.
func runHTTP(hc httpConfig, seed uint64, seconds float64, traced bool, clk clock) (*passResult, error) {
	res := &passResult{}
	fixedSec := seconds * hc.FixedShare
	satSec := seconds - fixedSec
	nFixed := opsFor(hc.Stream, hc.FixedRate, fixedSec)
	// Each sender of the open loop spends its idle time in a
	// thread-blocking sleep that keeps its GOMAXPROCS slot; give the
	// servers their nproc slots back.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(runtime.NumCPU() + 2))
	s := genStream(hc.Stream, seed, nFixed+opsFor(hc.Stream, hc.CapRate, satSec))
	acked := make([]bool, len(s.ops))

	// Each instance the pass starts is one timed set-up: 30 throwaway
	// ones first, since one set-up is only milliseconds of round trips,
	// then the measured ones.
	var rec *recorder
	start := func(ops int, trace bool) (*instance, error) {
		rec = nil
		if trace {
			// A client span, a handler span and (cluster) a /repl span
			// per request, plus set-up traffic.
			rec = newRecorder(3*ops + 1024)
		}
		runtime.GC()     // leave the previous instance's garbage out of this one
		t0 := time.Now() //lint:allow detflow the clock only times set-up; every command comes from the seeded stream
		in, err := startInstance(hc, s, rec, clk)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		return in, nil
	}
	for i := 0; i < 30; i++ {
		in, err := start(0, traced)
		if err != nil {
			return nil, err
		}
		in.close()
	}

	// Fixed rate: latency percentiles, accuracy, memory, per-layer trace.
	inst, err := start(nFixed, traced)
	if err != nil {
		return nil, err
	}
	debug.FreeOSMemory() // the throwaway instances' pages leave the peak
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	u0, w0 := cpuTime(), clk.now()
	fixed, cmds, err := inst.runPhase(s, 0, nFixed, hc.FixedRate, clk, acked)
	wall := clk.now() - w0
	cpu := cpuTime() - u0
	runtime.ReadMemStats(&ms1)
	res.peakRSS = peakRSSMB()
	res.check(err)
	res.check(wrapErr("fixed-rate phase", phaseErr(fixed)))
	res.attempted += fixed.writes + fixed.reads
	res.failed += fixed.failed
	res.acks, res.reads = int64(fixed.write.Count()), int64(fixed.read.Count())
	res.lateP99us = usQ(&fixed.late, 0.99)
	if rec != nil {
		rec.stop() // the per-layer metrics are the fixed phase's
		ls := analyzeHTTP(rec.kept(), len(s.ops))
		res.layer = ls.metrics
		res.self = ls.self
		res.selfPerOp = int(fixed.writes + fixed.reads)
		res.selfTitle = fmt.Sprintf("%s at %.0f cmd/s, per request", map[bool]string{false: "node-reweight", true: "cluster-rw"}[hc.Cluster], hc.FixedRate)
		res.spans = rec
	} else {
		res.layer = map[string]float64{}
	}
	res.layer["proc.cpu_frac"] = cpu / (float64(wall) / 1e9 * float64(runtime.NumCPU()))
	res.layer["proc.alloc_b_per_cmd"] = float64(ms1.TotalAlloc-ms0.TotalAlloc) / float64(max(cmds, 1))
	res.layer["gen.late_us_p99"] = res.lateP99us
	res.layer["serve.backpressure_429"] = float64(fixed.backpressure)
	// The fixed-phase instance is the one whose accuracy is read: its ops
	// are fixed by the seed, whatever the timing.
	acc, err := inst.verify(s, 0, nFixed, nil, acked, fixed.failed, true)
	res.check(wrapErr(fmt.Sprintf("instance of ops [0, %d)", nFixed), err))
	inst.close()

	// Closed loop: the sustained rate. The sender blocks on a channel, not
	// in nanosleep, so the servers get exactly nproc slots. Each instance
	// starts fresh and warms up unmeasured until its shards' pending
	// batches are spread over their advance cycles. It is replaced every
	// InstSec, which keeps its log and heap from growing over the phase:
	// on node-reweight, instances of 1 s ran faster and steadier than
	// instances of 2.5 s.
	runtime.GOMAXPROCS(runtime.NumCPU())
	var closed connStats
	lo := nFixed
	cpu, wall = 0, 0
	for left := satSec; left > hc.WarmSec; left -= hc.InstSec {
		d := math.Min(hc.InstSec, left)
		if inst, err = start(0, false); err != nil { // the closed loop is not traced
			return nil, err
		}
		u0, w0 := cpuTime(), clk.now()
		st, ends, ws, err := inst.runSaturated(s, lo, len(s.ops), hc.InFlight,
			secs(hc.WarmSec), secs(d), secs(windowSec), clk, acked)
		cpu, wall = cpu+cpuTime()-u0, wall+clk.now()-w0
		res.check(wrapErr("closed loop", err))
		res.windows = append(res.windows, ws...)
		closed.merge(st)
		_, err = inst.verify(s, lo, len(s.ops), ends, acked, st.failed, false)
		res.check(wrapErr(fmt.Sprintf("instance of ops [%d, %d)", lo, slices.Max(ends)), err))
		inst.close()
		lo = slices.Max(ends) // the next instance skips what a slower connection left
	}
	res.check(wrapErr("closed loop", phaseErr(&closed)))
	res.failed += closed.failed
	res.attempted += closed.writes + closed.reads
	res.closedP50ms = closed.write.Quantile(0.5) / 1e6
	res.closedP99ms = closed.write.Quantile(0.99) / 1e6
	res.closedCPU = cpu / (float64(wall) / 1e9 * float64(runtime.NumCPU()))

	rate, kept := sustainedRate(res.windows)
	res.keptWindows = kept
	res.latency = latencies(&fixed.write, &fixed.read)
	res.e2e = map[string]float64{
		"sustain_cmd_s": rate,
		"max_abs_drift": acc.driftSum / float64(hc.Stream.Shards),
		"ideal_gap":     acc.idealGap(),
	}
	return res, nil
}

func secs(x float64) time.Duration { return time.Duration(x * float64(time.Second)) }

// stealSample is the host's cumulative CPU steal, in ticks, at time t.
type stealSample struct {
	t     int64
	ticks float64
}

// sampleSteal records the host's CPU steal every 20 ms until the returned
// function is called, which returns the samples.
func sampleSteal(clk clock) func() []stealSample {
	var out []stealSample
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			out = append(out, stealSample{clk.now(), float64(stealTicks())})
			select {
			case <-quit:
				return
			case <-tick.C:
			}
		}
	}()
	return func() []stealSample {
		close(quit)
		<-done
		return out
	}
}

// stealAt interpolates the cumulative steal at time t.
func stealAt(ss []stealSample, t int64) float64 {
	k := sort.Search(len(ss), func(i int) bool { return ss[i].t >= t })
	switch {
	case k == 0:
		return ss[0].ticks
	case k == len(ss):
		return ss[len(ss)-1].ticks
	}
	a, b := ss[k-1], ss[k]
	return a.ticks + (b.ticks-a.ticks)*float64(t-a.t)/float64(b.t-a.t)
}
