package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"

	"repro/internal/core"
	"repro/internal/serve"
)

// cmdKey identifies a logged command for the delivery multiset.
type cmdKey struct {
	op       core.CommandOp
	task     string
	num, den int64
}

// shardExpect is what one shard must hold after a run: every join, every
// reweight of an acked POST, and — when nothing failed — nothing else.
type shardExpect struct {
	cmds  map[cmdKey]int
	sent  int64 // commands POSTed, joins included
	exact bool  // no request failed, so the log must equal what was sent
}

// expectations builds each shard's expected log from the stream: joins,
// then the reweights of the ops in [lo, hi) that were acked. With until
// set, a shard was sent only its ops below until[shard].
func expectations(s *stream, lo, hi int, until []int, acked []bool, failed int64) []*shardExpect {
	exp := make([]*shardExpect, s.cfg.Shards)
	for sh := range exp {
		e := &shardExpect{cmds: map[cmdKey]int{}, exact: failed == 0}
		for t, num := range s.joins[sh] {
			w := ratOf(num, s.cfg.WeightDen)
			e.cmds[cmdKey{core.OpJoin, s.names[sh][t], w[0], w[1]}]++
			e.sent++
		}
		exp[sh] = e
	}
	for i := lo; i < hi; i++ {
		o := s.ops[i]
		if o.kind != opCommands || until != nil && i >= until[o.shard] {
			continue
		}
		e := exp[o.shard]
		e.sent += int64(s.cfg.Batch)
		if !acked[i] {
			continue
		}
		for _, c := range s.content[o.shard][o.body] {
			w := ratOf(int64(c.num), s.cfg.WeightDen)
			e.cmds[cmdKey{core.OpReweight, s.names[o.shard][c.task], w[0], w[1]}]++
		}
	}
	return exp
}

// ratOf reduces num/den to lowest terms, as frac.Rat stores it.
func ratOf(num, den int64) [2]int64 {
	a, b := num, den
	for b != 0 {
		a, b = b, a%b
	}
	return [2]int64{num / a, den / a}
}

// accuracy is the paper's drift and allocation accuracy of replayed
// shards.
type accuracy struct {
	driftSum float64 // sum over shards of the max over tasks of |drift| at the shard's clock
	missSum  float64 // sum over tasks of |A(S) - A(I_PS)|, in quanta
	idealSum float64 // sum over tasks of A(I_PS), in quanta
	tasks    int
}

// checkShard verifies one shard's served state: its full log replays
// through serve.VerifyTail to the digest the shard serves, nothing is
// left pending, the log holds every acked command (and, when no request
// failed, exactly the commands sent), and the shard's counters show no
// refusal, failed apply, miss or invariant violation.
func checkShard(t *serve.Tail, st *serve.ShardStatus, e *shardExpect) error {
	digest, err := serve.VerifyTail(t)
	if err != nil {
		return fmt.Errorf("shard %d: verify tail: %w", t.Shard, err)
	}
	if digest != t.Digest {
		return fmt.Errorf("shard %d: replayed digest %016x != served digest %016x", t.Shard, digest, t.Digest)
	}
	if len(t.Batch) != 0 || len(t.DeferredJoins) != 0 || len(t.DeferredLeaves) != 0 {
		return fmt.Errorf("shard %d: %d commands still pending after the final advance", t.Shard,
			len(t.Batch)+len(t.DeferredJoins)+len(t.DeferredLeaves))
	}
	got := make(map[cmdKey]int, len(e.cmds))
	for _, c := range t.Commands {
		got[cmdKey{c.Op, c.Task, c.Weight.Num(), c.Weight.Den()}]++
	}
	for k, n := range e.cmds {
		if got[k] < n {
			return fmt.Errorf("shard %d: log holds %d of %d acked %s %s %d/%d", t.Shard, got[k], n, k.op, k.task, k.num, k.den)
		}
	}
	if e.exact {
		if len(t.Commands) != sumCounts(e.cmds) {
			return fmt.Errorf("shard %d: log holds %d commands, %d were sent", t.Shard, len(t.Commands), sumCounts(e.cmds))
		}
		if st.Accepted != e.sent {
			return fmt.Errorf("shard %d: accepted %d commands, %d were sent", t.Shard, st.Accepted, e.sent)
		}
	}
	if n := st.RejectedW + st.RejectedOther + st.FailedApplies; n != 0 {
		return fmt.Errorf("shard %d: %d rejected or failed commands", t.Shard, n)
	}
	if st.Misses != 0 || st.Violations != 0 {
		return fmt.Errorf("shard %d: %d deadline misses, %d invariant violations", t.Shard, st.Misses, st.Violations)
	}
	return nil
}

// replayAccuracy replays a shard's applied commands to its clock and
// reads the paper's accuracy metrics over its tasks. Commands still
// pending have not reached the engine, so they are left out.
func replayAccuracy(t *serve.Tail) (accuracy, error) {
	var acc accuracy
	cfg, err := t.Config.CoreConfig()
	if err != nil {
		return acc, err
	}
	eng, err := core.Replay(cfg, t.Seed, t.Commands, t.Now)
	if err != nil {
		return acc, fmt.Errorf("shard %d: replay: %w", t.Shard, err)
	}
	for _, m := range eng.AllMetrics() {
		acc.driftSum = max(acc.driftSum, m.Drift.Abs().Float64())
		acc.missSum += math.Abs(float64(m.Scheduled) - m.CumPS.Float64())
		acc.idealSum += m.CumPS.Float64()
		acc.tasks++
	}
	return acc, nil
}

// idealGap is the share of the ideal allocation the schedule misplaced:
// the sum over tasks of |A(S) - A(I_PS)| over the sum of A(I_PS). 0 is
// the ideal processor-sharing schedule, and lower is better whether
// tasks ran ahead of it or behind. Summing before dividing keeps a task
// whose ideal allocation is still a fraction of a quantum from
// dominating.
func (a accuracy) idealGap() float64 { return a.missSum / a.idealSum }

func sumCounts(m map[cmdKey]int) int {
	n := 0
	for _, c := range m {
		n += c
	}
	return n
}

// fetchShard reads a shard's full log and status from the node serving it.
func fetchShard(c *http.Client, base string, shard int) (*serve.Tail, *serve.ShardStatus, error) {
	var t serve.Tail
	if err := getJSON(c, fmt.Sprintf("%s/v1/shards/%d/log?from=0", base, shard), &t); err != nil {
		return nil, nil, err
	}
	var st serve.ShardStatus
	if err := getJSON(c, fmt.Sprintf("%s/v1/shards/%d", base, shard), &st); err != nil {
		return nil, nil, err
	}
	return &t, &st, nil
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}
