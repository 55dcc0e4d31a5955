package main

import (
	"math"
	"testing"
	"time"
)

// The closed loop stops each connection where its time runs out, so the
// ops an instance was sent are a prefix of each connection's ops, not of
// the stream. The output checks must then hold for exactly those ops.
func TestClosedLoopStopsOnACleanCut(t *testing.T) {
	for _, hc := range []httpConfig{defaultNode(), defaultCluster()} {
		s := genStream(hc.Stream, 3, opsFor(hc.Stream, hc.CapRate, 1))
		acked := make([]bool, len(s.ops))
		clk := clock{epoch: time.Now()}
		in, err := startInstance(hc, s, nil, clk)
		if err != nil {
			t.Fatal(err)
		}
		const win = 50 * time.Millisecond
		st, ends, ws, err := in.runSaturated(s, 0, len(s.ops), hc.InFlight, win, 300*time.Millisecond, win, clk, acked)
		if err != nil {
			t.Fatal(err)
		}
		if st.failed != 0 || st.writes == 0 {
			t.Fatalf("cluster=%v: %d writes, %d failed", hc.Cluster, st.writes, st.failed)
		}
		for c, e := range ends {
			if e >= len(s.ops) {
				t.Errorf("cluster=%v: connection %d sent every op; the stream should outlast 300 ms", hc.Cluster, c)
			}
		}
		if len(ws) != 5 {
			t.Errorf("cluster=%v: %d windows, want 5 whole 50 ms windows in 250 ms", hc.Cluster, len(ws))
		}
		if _, err := in.verify(s, 0, len(s.ops), ends, acked, 0, false); err != nil {
			t.Errorf("cluster=%v: %v", hc.Cluster, err)
		}
		// The ops past a connection's end were not sent: counting them
		// must fail the exact check.
		if _, err := in.verify(s, 0, len(s.ops), nil, acked, 0, false); err == nil {
			t.Errorf("cluster=%v: the check passed with unsent ops counted as sent", hc.Cluster)
		}
		in.close()
	}
}

func TestWindowRates(t *testing.T) {
	cfg := defaultStream()
	s := genStream(cfg, 1, 200)
	acked := make([]bool, len(s.ops))
	doneAt := make([]int64, len(s.ops))
	want := make([]float64, 3)
	for i, o := range s.ops {
		doneAt[i] = int64(i) * 1e6 // op i answered at i ms
		acked[i] = i%7 != 0
		if k := (i - 50) / 40; i >= 50 && k < 3 && acked[i] && o.kind == opCommands {
			want[k] += float64(cfg.Batch) / 0.04
		}
	}
	got := windowRates(s, 0, len(s.ops), doneAt, acked, 50e6, 175e6, 40e6)
	if len(got) != 3 {
		t.Fatalf("%d windows, want 3 whole 40 ms windows in [50, 175) ms", len(got))
	}
	for k := range want {
		if math.Abs(got[k]-want[k]) > 1e-6*want[k] {
			t.Errorf("window %d: %.1f cmd/s, want %.1f", k, got[k], want[k])
		}
	}
}

func TestSustainedRateSkipsStolenWindows(t *testing.T) {
	ws := []window{{100, 0}, {10, 0.3}, {110, 0.01}, {150, 0.02}, {20, 0.05}}
	if r, kept := sustainedRate(ws); r != 120 || kept != 3 {
		t.Errorf("got %v over %d windows, want the mean 120 of the 3 calm ones", r, kept)
	}
	// Fewer than half calm: the half that lost the least counts.
	ws = []window{{100, 0.1}, {10, 0.3}, {90, 0.2}, {20, 0.5}}
	if r, kept := sustainedRate(ws); r != 95 || kept != 2 {
		t.Errorf("got %v over %d windows, want 95 over the 2 least stolen", r, kept)
	}
}
