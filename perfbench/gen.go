package main

import (
	"fmt"
	"strconv"
)

// rng is splitmix64: tiny, fast, and fixed forever, so a seed names the
// same inputs on every Go release and every host.
type rng struct{ s uint64 }

func newRNG(seed, purpose uint64) *rng {
	return &rng{s: seed*0x9e3779b97f4a7c15 ^ purpose*0xbf58476d1ce4e5b9}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamConfig shapes the HTTP write/read stream shared by node-reweight
// and cluster-rw.
type streamConfig struct {
	Shards          int     `json:"shards"`
	M               int     `json:"m"`
	TasksPerShard   int     `json:"tasks_per_shard"`
	Batch           int     `json:"batch"`             // reweights per POST
	PostsPerAdvance int     `json:"posts_per_advance"` // per shard
	ReadShare       float64 `json:"read_share"`        // status reads per POST
	WeightDen       int64   `json:"weight_den"`        // weights are k/WeightDen
	MaxWeightNum    int64   `json:"max_weight_num"`    // k in [1, MaxWeightNum]
	Pool            int     `json:"pool"`              // distinct bodies per shard
}

// defaultStream is the repository's documented serving traffic: the
// batch-32 column of docs/SERVE.md's scaling table and ROADMAP's
// single-node and cluster figures, which run pd2load with its defaults of
// 16 tasks per shard and one advance every 64 posts, and no reads. Every
// shard stays admission-clean: 16 tasks of weight at most 8/64 sum to at
// most M = 2, so no join or reweight is ever refused.
func defaultStream() streamConfig {
	return streamConfig{
		Shards: 8, M: 2, TasksPerShard: 16, Batch: 32, PostsPerAdvance: 64,
		WeightDen: 64, MaxWeightNum: 8, Pool: 256,
	}
}

type opKind uint8

const (
	opCommands opKind = iota // POST a batch of reweights (a write)
	opAdvance                // POST /advance 1 slot (a write)
	opRead                   // GET the shard status
)

// op is one request of the stream; body indexes the shard's body pool.
type op struct {
	kind  opKind
	shard uint8
	body  uint16
}

// reweight is one generated command: task index and weight numerator.
type reweight struct{ task, num uint16 }

// stream is every input of one HTTP workload, generated from the seed
// before timing starts: task names, join weights, reweight batches
// (pre-encoded), and the order of writes, advances and reads.
type stream struct {
	cfg     streamConfig
	names   [][]string // [shard][task]
	joins   [][]int64  // [shard][task] join weight numerators
	bodies  [][][]byte // [shard][pool] encoded reweight batches
	content [][][]reweight
	heads   [3][][]byte // [kind][shard] request line and fixed headers
	ops     []op
}

func genStream(cfg streamConfig, seed uint64, nops int) *stream {
	s := &stream{cfg: cfg}
	wr := newRNG(seed, 1)
	for sh := 0; sh < cfg.Shards; sh++ {
		names := make([]string, cfg.TasksPerShard)
		joins := make([]int64, cfg.TasksPerShard)
		for t := range names {
			names[t] = fmt.Sprintf("s%dt%02d", sh, t)
			joins[t] = 1 + int64(wr.intn(int(cfg.MaxWeightNum)))
		}
		s.names = append(s.names, names)
		s.joins = append(s.joins, joins)
		var bodies [][]byte
		var content [][]reweight
		for p := 0; p < cfg.Pool; p++ {
			cmds := make([]reweight, cfg.Batch)
			for i := range cmds {
				cmds[i] = reweight{
					task: uint16(wr.intn(cfg.TasksPerShard)),
					num:  uint16(1 + wr.intn(int(cfg.MaxWeightNum))),
				}
			}
			content = append(content, cmds)
			bodies = append(bodies, s.encodeBatch(sh, "reweight", cmds))
		}
		s.bodies = append(s.bodies, bodies)
		s.content = append(s.content, content)
		s.heads[opCommands] = append(s.heads[opCommands], []byte(fmt.Sprintf(
			"POST /v1/shards/%d/commands HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n", sh)))
		s.heads[opAdvance] = append(s.heads[opAdvance], []byte(fmt.Sprintf(
			"POST /v1/shards/%d/advance HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n", sh)))
		s.heads[opRead] = append(s.heads[opRead], []byte(fmt.Sprintf(
			"GET /v1/shards/%d HTTP/1.1\r\nHost: bench\r\n", sh)))
	}
	s.ops = genOps(cfg, newRNG(seed, 2), newRNG(seed, 3), nops)
	return s
}

// genOps draws the request order. POSTs come in rounds that visit every
// shard once, in a random order, as pd2load's workers rotate over the
// shards. A shard is advanced after every PostsPerAdvance-th of its POSTs,
// counted from an offset of sh·PostsPerAdvance/Shards, so the shards'
// pending batches stay spread over their advance cycles: a node's write
// cost, which grows with the batch it replicates, then holds steady
// instead of peaking whenever the batches of its shards happen to fill
// together. A POST is followed by a status read of a random shard with
// probability ReadShare. Reads draw from rr alone, so streams that differ
// only in ReadShare carry the same writes in the same order.
func genOps(cfg streamConfig, r, rr *rng, n int) []op {
	ops := make([]op, 0, n)
	order := make([]int, cfg.Shards)
	for i := range order {
		order[i] = i
	}
	for round := 1; len(ops) < n; round++ {
		for i := len(order) - 1; i > 0; i-- {
			j := r.intn(i + 1)
			order[i], order[j] = order[j], order[i]
		}
		for _, sh := range order {
			ops = append(ops, op{kind: opCommands, shard: uint8(sh), body: uint16(r.intn(cfg.Pool))})
			if (round+sh*cfg.PostsPerAdvance/cfg.Shards)%cfg.PostsPerAdvance == 0 {
				ops = append(ops, op{kind: opAdvance, shard: uint8(sh)})
			}
			if rr.float() < cfg.ReadShare {
				ops = append(ops, op{kind: opRead, shard: uint8(rr.intn(cfg.Shards))})
			}
		}
	}
	return ops[:n]
}

func (s *stream) weight(num int64) string {
	return strconv.FormatInt(num, 10) + "/" + strconv.FormatInt(s.cfg.WeightDen, 10)
}

func (s *stream) encodeBatch(sh int, verb string, cmds []reweight) []byte {
	b := []byte{'['}
	for i, c := range cmds {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"op":%q,"task":%q,"weight":%q}`, verb, s.names[sh][c.task], s.weight(int64(c.num)))
	}
	return append(b, ']')
}

// joinBody is the setup POST joining every task of a shard.
func (s *stream) joinBody(sh int) []byte {
	cmds := make([]reweight, s.cfg.TasksPerShard)
	for t := range cmds {
		cmds[t] = reweight{task: uint16(t), num: uint16(s.joins[sh][t])}
	}
	return s.encodeBatch(sh, "join", cmds)
}

var advanceBody = []byte(`{"slots":1}`)

// appendRequest appends the HTTP/1.1 request for op i, tagged with its
// request id. It allocates only when dst must grow.
func (s *stream) appendRequest(dst []byte, i int) []byte {
	o := s.ops[i]
	dst = append(dst, s.heads[o.kind][o.shard]...)
	dst = append(dst, "X-Bench-Req: "...)
	dst = strconv.AppendInt(dst, int64(i), 10)
	var body []byte
	switch o.kind {
	case opCommands:
		body = s.bodies[o.shard][o.body]
	case opAdvance:
		body = advanceBody
	case opRead:
		return append(dst, "\r\n\r\n"...)
	}
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}
