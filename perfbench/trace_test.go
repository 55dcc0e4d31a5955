package main

import "testing"

func TestQueueWaitIsServerTime(t *testing.T) {
	// Two pipelined requests on connection 0, sent at 0 and 1 µs. The
	// server handles the first over [2, 10] and the second over [10, 12],
	// so the second waits from 1 to 10 behind the first's handler.
	const us = 1000
	spans := []span{
		{start: 0 * us, end: 11 * us, id: 0, kind: spanClient, node: 0, shard: 0, op: opCommands, code: 200},
		{start: 1 * us, end: 13 * us, id: 1, kind: spanClient, node: 0, shard: 0, op: opCommands, code: 200},
		{start: 2 * us, end: 10 * us, id: 0, kind: spanServe, shard: 0, op: opCommands, code: 200},
		{start: 10 * us, end: 12 * us, id: 1, kind: spanServe, shard: 0, op: opCommands, code: 200},
	}
	ls := analyzeHTTP(spans, 2)
	got := map[string]int64{}
	for _, r := range ls.self {
		got[r.layer] = r.total
	}
	// Client self: 11 - 8 = 3 µs for the first, 12 - 9 - 2 = 1 µs for the
	// second; the 9 µs wait is the server's.
	if c, q := got["client + loopback TCP + net/http"], got["queued behind the connection's earlier requests"]; c != 4*us || q != 9*us {
		t.Errorf("client self %d ns, queue wait %d ns; want 4000, 9000", c, q)
	}
	if p50 := ls.metrics["net.overhead_us_p50"]; p50 < 0.99 || p50 > 3.01 {
		t.Errorf("net.overhead_us_p50 = %v µs, want between 1 and 3", p50)
	}
}
