package main

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cluster"
)

// wire is every byte the workload would send: join bodies, then every
// request of the stream.
func wire(s *stream) []byte {
	var b []byte
	for sh := 0; sh < s.cfg.Shards; sh++ {
		b = append(b, s.joinBody(sh)...)
	}
	for i := range s.ops {
		b = s.appendRequest(b, i)
	}
	return b
}

func TestSameSeedSameStream(t *testing.T) {
	a := wire(genStream(defaultStream(), 7, 3000))
	b := wire(genStream(defaultStream(), 7, 3000))
	if !bytes.Equal(a, b) {
		t.Fatal("two streams from seed 7 differ")
	}
	if c := wire(genStream(defaultStream(), 8, 3000)); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same stream")
	}
}

func TestStreamShape(t *testing.T) {
	cfg := defaultCluster().Stream
	if got := int64(cfg.TasksPerShard) * cfg.MaxWeightNum; got > int64(cfg.M)*cfg.WeightDen {
		t.Fatalf("tasks at the largest weight sum to %d/%d > M=%d: admission would refuse", got, cfg.WeightDen, cfg.M)
	}
	s := genStream(cfg, 3, 60000)
	var posts, advances, reads int
	perShard := make([]int, cfg.Shards)
	for _, o := range s.ops {
		switch o.kind {
		case opCommands:
			posts++
			perShard[o.shard]++
			if round := (posts-1)/cfg.Shards + 1; perShard[o.shard] != round {
				t.Fatalf("post %d is shard %d's %dth, in round %d", posts, o.shard, perShard[o.shard], round)
			}
		case opAdvance:
			advances++
			if (perShard[o.shard]+int(o.shard)*cfg.PostsPerAdvance/cfg.Shards)%cfg.PostsPerAdvance != 0 {
				t.Fatalf("advance of shard %d after %d posts", o.shard, perShard[o.shard])
			}
		case opRead:
			reads++
		}
	}
	if want := float64(posts) * cfg.ReadShare; float64(reads) < 0.9*want || float64(reads) > 1.1*want {
		t.Errorf("%d reads for %d posts, want about %.0f", reads, posts, want)
	}
	// 1000 posts of 32 commands and 1000/64 advances, no reads.
	if n := opsFor(defaultStream(), 32000, 1); n != 1016 {
		t.Errorf("opsFor(32000 cmd/s, 1 s) = %d, want 1016", n)
	}
	// Names are precomputed: building a request allocates nothing.
	buf := make([]byte, 0, 4096)
	if a := testing.AllocsPerRun(100, func() { buf = s.appendRequest(buf[:0], 5) }); a != 0 {
		t.Errorf("appendRequest allocates %v times", a)
	}
}

func TestSameSeedSameScenario(t *testing.T) {
	wc := defaultWhisper()
	wc.Horizon = 2000
	key := func(seed uint64) string {
		sc, err := genScenario(wc, seed)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(sc.sys, sc.cmds, sc.off)
	}
	if key(5) != key(5) {
		t.Fatal("two scenarios from seed 5 differ")
	}
	if key(5) == key(6) {
		t.Fatal("seeds 5 and 6 gave the same scenario")
	}
}

func TestClusterIDsSplitPrimaries(t *testing.T) {
	cfg := defaultStream()
	per := map[string]int{}
	for _, r := range cluster.Place(clusterIDs, cfg.Shards, 1) {
		per[r.Primary]++
	}
	for _, id := range clusterIDs {
		if per[id] != cfg.Shards/len(clusterIDs) {
			t.Fatalf("primaries per node %v, want %d each", per, cfg.Shards/len(clusterIDs))
		}
	}
}

func TestClusterSendsTheNodesWrites(t *testing.T) {
	node := genStream(defaultNode().Stream, 5, 20000)
	cl := genStream(defaultCluster().Stream, 5, 40000)
	var k, reads int
	for _, o := range cl.ops {
		if o.kind == opRead {
			reads++
			continue
		}
		if k == len(node.ops) {
			break
		}
		if node.ops[k] != o {
			t.Fatalf("write %d: cluster-rw sends %+v, node-reweight %+v", k, o, node.ops[k])
		}
		k++
	}
	if k != len(node.ops) || reads == 0 {
		t.Fatalf("matched %d of %d writes with %d reads between them", k, len(node.ops), reads)
	}
	for _, o := range node.ops {
		if o.kind == opRead {
			t.Fatal("node-reweight sends status reads")
		}
	}
}
