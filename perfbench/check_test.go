package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/serve"
)

// servedShard runs a short stream against a real serve.Server and returns
// shard 0's log, status and expectations.
func servedShard(t *testing.T) (*serve.Tail, *serve.ShardStatus, *shardExpect) {
	t.Helper()
	hc := defaultNode()
	hc.Stream.Shards = 1
	srv, err := newServer(hc)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Stop()
	}()
	s := genStream(hc.Stream, 1, 40)
	c := ts.Client()
	post := func(path string, body []byte) {
		resp, err := c.Post(ts.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %s", path, resp.Status)
		}
	}
	post("/v1/shards/0/commands", s.joinBody(0))
	post("/v1/shards/0/advance", advanceBody)
	acked := make([]bool, len(s.ops))
	for i, o := range s.ops {
		switch o.kind {
		case opCommands:
			post("/v1/shards/0/commands", s.bodies[0][o.body])
		case opAdvance:
			post("/v1/shards/0/advance", advanceBody)
		}
		acked[i] = true
	}
	post("/v1/shards/0/advance", advanceBody)
	tail, st, err := fetchShard(c, ts.URL, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tail, st, expectations(s, 0, len(s.ops), nil, acked, 0)[0]
}

func TestCheckShardAcceptsServedState(t *testing.T) {
	tail, st, exp := servedShard(t)
	if err := checkShard(tail, st, exp); err != nil {
		t.Fatal(err)
	}
	acc, err := replayAccuracy(tail)
	if err != nil {
		t.Fatal(err)
	}
	if g := acc.idealGap(); acc.tasks != 16 || !(g > 0) || math.IsInf(g, 0) {
		t.Errorf("accuracy over %d tasks, ideal gap %v", acc.tasks, g)
	}
}

func TestCheckShardRejectsTampering(t *testing.T) {
	cases := map[string]func(*serve.Tail, *serve.ShardStatus){
		"digest": func(tl *serve.Tail, _ *serve.ShardStatus) { tl.Digest ^= 1 },
		"weight": func(tl *serve.Tail, _ *serve.ShardStatus) {
			c := &tl.Commands[len(tl.Commands)-1]
			c.Weight = c.Weight.Add(frac.New(1, 64))
		},
		"dropped command": func(tl *serve.Tail, _ *serve.ShardStatus) {
			tl.Commands = tl.Commands[:len(tl.Commands)-1]
		},
		"duplicated command": func(tl *serve.Tail, _ *serve.ShardStatus) {
			last := tl.Commands[len(tl.Commands)-1]
			tl.Commands = append(tl.Commands, last)
		},
		"accepted count": func(_ *serve.Tail, st *serve.ShardStatus) { st.Accepted-- },
		"failed apply":   func(_ *serve.Tail, st *serve.ShardStatus) { st.FailedApplies = 1 },
		"left pending": func(tl *serve.Tail, _ *serve.ShardStatus) {
			tl.DeferredLeaves = []string{"s0t00"}
		},
	}
	for name, tamper := range cases {
		t.Run(name, func(t *testing.T) {
			tail, st, exp := servedShard(t)
			tamper(tail, st)
			if err := checkShard(tail, st, exp); err == nil {
				t.Fatal("tampered shard passed the check")
			}
		})
	}
}

func TestCheckWhisperRejectsTampering(t *testing.T) {
	wc := defaultWhisper()
	wc.Speakers, wc.M, wc.Horizon = 6, 8, 3000
	sc, err := genScenario(wc, 11)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.New(whisperCfg(wc, nil, nil, false), sc.sys)
	if err != nil {
		t.Fatal(err)
	}
	for tm := int64(0); tm < wc.Horizon; tm++ {
		for _, c := range sc.cmds[sc.off[tm]:sc.off[tm+1]] {
			if err := eng.Apply(c); err != nil {
				t.Fatal(err)
			}
		}
		eng.Step()
	}
	if len(sc.cmds) < 10 {
		t.Fatalf("scenario has only %d reweights", len(sc.cmds))
	}
	digest := eng.StateDigest()
	if err := checkWhisper(wc, sc.sys, sc.cmds, digest); err != nil {
		t.Fatalf("untampered run: %v", err)
	}
	if err := checkWhisper(wc, sc.sys, sc.cmds, digest^1); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Errorf("tampered digest: %v", err)
	}
	dropped := append([]core.Command(nil), sc.cmds[:len(sc.cmds)/2]...)
	dropped = append(dropped, sc.cmds[len(sc.cmds)/2+1:]...)
	if err := checkWhisper(wc, sc.sys, dropped, digest); err == nil {
		t.Error("log with a dropped command passed the check")
	}
	moved := append([]core.Command(nil), sc.cmds...)
	moved[0].Weight = frac.New(1, 3)
	if err := checkWhisper(wc, sc.sys, moved, digest); err == nil {
		t.Error("log with a changed weight passed the check")
	}
}

func TestFixedPhaseFailuresFailTheRun(t *testing.T) {
	if err := phaseErr(openLoop(t, okHandler(0), 20, 0, time.Millisecond)); err != nil {
		t.Fatalf("clean phase: %v", err)
	}
	var calls atomic.Int64
	cases := map[string]http.HandlerFunc{
		"5xx": func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 5 {
				w.WriteHeader(http.StatusInternalServerError)
				return
			}
			w.Write([]byte(`[{"status":"queued"}]`))
		},
		"dropped connection": func(w http.ResponseWriter, r *http.Request) {
			if calls.Add(1) == 5 {
				nc, _, err := w.(http.Hijacker).Hijack()
				if err == nil {
					nc.Close()
				}
				return
			}
			w.Write([]byte(`[{"status":"queued"}]`))
		},
	}
	for name, h := range cases {
		calls.Store(0)
		st := openLoop(t, h, 20, 0, time.Millisecond)
		if st.failed == 0 || phaseErr(st) == nil {
			t.Errorf("%s: %d failed, phase error %v; want the phase to fail", name, st.failed, phaseErr(st))
		}
	}
}
