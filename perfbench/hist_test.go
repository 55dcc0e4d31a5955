package main

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync/atomic"
	"testing"
	"time"
)

func TestQuantileMatchesExactSort(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	var h Hist
	var xs []float64
	for i := 0; i < 20000; i++ {
		// Log-uniform from 1 µs to 1 s, the range latencies span here.
		v := math.Exp(math.Log(1e3) + r.Float64()*math.Log(1e6))
		h.Record(time.Duration(v))
		xs = append(xs, float64(int64(v)))
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
		exact := xs[int(math.Ceil(q*float64(len(xs))))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 1.0/histSub {
			t.Errorf("q=%v: histogram %v, exact %v (relative error %.4f > %.4f)", q, got, exact, rel, 1.0/histSub)
		}
	}
}

func TestSmallValuesAreExact(t *testing.T) {
	var h Hist
	for v := 0; v < histSub; v++ {
		h.Record(time.Duration(v))
	}
	if got := h.Quantile(1); math.Abs(got-(histSub-1)) > 0.5 {
		t.Errorf("max of 0..%d reads %v", histSub-1, got)
	}
}

func TestFailuresLandAboveEveryLimit(t *testing.T) {
	var h Hist
	for i := 0; i < 98; i++ {
		h.Record(time.Millisecond)
	}
	h.Fail()
	h.Fail()
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %v, want +Inf", got)
	}
	if got := h.Quantile(0.5); math.IsInf(got, 0) || got > 1.01e6 {
		t.Errorf("p50 = %v, want about 1 ms", got)
	}
	var only Hist
	only.Fail()
	if got := only.Quantile(0.5); !math.IsInf(got, 1) {
		t.Errorf("all-failed p50 = %v, want +Inf", got)
	}
	var merged Hist
	merged.Merge(&h)
	if merged.Failed() != 2 || merged.Count() != 98 {
		t.Errorf("merge kept %d failed / %d recorded, want 2 / 98", merged.Failed(), merged.Count())
	}
}

func TestRecordDoesNotAllocate(t *testing.T) {
	var h Hist
	d := time.Duration(1)
	if n := testing.AllocsPerRun(1000, func() {
		h.Record(d)
		d = d*3 + 7
		h.Fail()
	}); n != 0 {
		t.Errorf("Record allocates %v times per call", n)
	}
}

// openLoop runs ops [0, n) of a one-shard stream against h on one pipelined
// connection, each due at start + i·interval.
func openLoop(t *testing.T, h http.Handler, n int, startOffset, interval time.Duration) *connStats {
	t.Helper()
	ts := httptest.NewServer(h)
	defer ts.Close()
	cfg := defaultStream()
	cfg.Shards = 1
	s := genStream(cfg, 1, n)
	clk := clock{epoch: time.Now()}
	c, err := dialConn(0, ts.Listener.Addr().String(), s, clk, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	start := clk.now() + int64(startOffset)
	ph := &phase{stats: make([]connStats, 1), acked: make([]bool, n)}
	ph.wg.Add(n)
	idxs := make([]int32, n)
	for i := range idxs {
		idxs[i] = int32(i)
	}
	done := make(chan struct{})
	sent := make(chan struct{})
	go func() {
		defer close(sent)
		c.run(ph, idxs, 0, start, int64(interval), done)
	}()
	ph.wg.Wait()
	close(done)
	<-sent
	return &ph.stats[0]
}

func okHandler(delay time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay)
		w.Write([]byte(`[{"status":"queued"}]`))
	})
}

func TestLatenessIsReportedSeparately(t *testing.T) {
	// On time, slow server: latency holds the service time, lateness does not.
	st := openLoop(t, okHandler(20*time.Millisecond), 20, 0, 30*time.Millisecond)
	if got := st.write.Quantile(0.5); got < 20e6*(1-1.0/histSub) {
		t.Errorf("slow server: write p50 %v ns, want >= 20 ms", got)
	}
	if got := st.late.Quantile(0.5); got >= 20e6 {
		t.Errorf("slow server: generator lateness p50 %v ns, want well under the 20 ms service time", got)
	}
	// Late generator, fast server: every op is due 50 ms before it is
	// sent, so lateness and latency (timed from due) both hold the 50 ms.
	st = openLoop(t, okHandler(0), 20, -50*time.Millisecond, 0)
	const atLeast50ms = 50e6 * (1 - 1.0/histSub) // within bucket precision
	if got := st.late.Quantile(0.5); got < atLeast50ms {
		t.Errorf("late generator: lateness p50 %v ns, want >= 50 ms", got)
	}
	if got := st.write.Quantile(0.5); got < atLeast50ms {
		t.Errorf("late generator: write p50 %v ns, want >= 50 ms (timed from due)", got)
	}
	if st.failed != 0 {
		t.Errorf("%d requests failed", st.failed)
	}
}

func TestRefusedAndFailedRequests(t *testing.T) {
	// A 429 is retried and its wait counted as delay.
	var calls atomic.Int64
	st := openLoop(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		w.Write([]byte(`[]`))
	}), 4, 0, time.Millisecond)
	if st.backpressure != 1 || st.failed != 0 {
		t.Errorf("429 once: %d backpressure, %d failed; want 1, 0", st.backpressure, st.failed)
	}
	if st.writes+st.reads != 4 {
		t.Errorf("429 once: %d requests completed, want 4", st.writes+st.reads)
	}
	// Server errors and rejected commands fail and sit above every limit.
	st = openLoop(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}), 10, 0, time.Millisecond)
	if st.failed != 10 || !math.IsInf(st.write.Quantile(0.5), 1) {
		t.Errorf("503s: %d failed, write p50 %v; want 10, +Inf", st.failed, st.write.Quantile(0.5))
	}
	st = openLoop(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`[{"status":"rejected","error":"weight"}]`))
	}), 10, 0, time.Millisecond)
	if st.failed == 0 {
		t.Errorf("rejected commands were not counted as failed")
	}
}
