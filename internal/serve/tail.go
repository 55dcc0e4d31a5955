package serve

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/frac"
	"repro/internal/model"
)

// A Tail is the shard's one state record: everything that changed on
// a shard since log index From, plus the full admitted-but-unapplied
// state (the slot batch, the rule-L/J deferral queues and the admission
// books, which are small and ride whole on every tail). Digest and Now
// certify the engine state after the last carried command.
//
// A tail with From == 0 is complete, and a complete tail is the shard's
// snapshot. It leans on the engine's determinism: instead of
// serializing the scheduler's internal heaps, it carries the seed
// system plus the log of commands actually applied, core.Replay
// rebuilds the engine byte for byte, and Digest proves it did. The same
// record persists a shard (cmd/pd2d), installs it on a migration
// receiver or a promoted follower (Server.InstallShard), and is checked
// by one replay path (replayTail). A tail with From > 0 is a
// replication delta: a follower that holds log[0:From) and applies
// Commands ends up with the primary's full log.
type Tail struct {
	Shard  int          `json:"shard"`
	Config ShardConfig  `json:"config"`
	Seed   model.System `json:"seed"`
	From   int          `json:"from"`
	// Total is the primary's full log length after Commands; a follower
	// whose own log does not reach From answers with the index it wants.
	Total    int            `json:"total"`
	Now      int64          `json:"now"`
	Digest   uint64         `json:"digest"`
	Commands []core.Command `json:"commands,omitempty"`

	Batch          []pendingCmd   `json:"batch,omitempty"`
	DeferredJoins  []pendingCmd   `json:"deferred_joins,omitempty"`
	DeferredLeaves []string       `json:"deferred_leaves,omitempty"`
	Admission      admissionState `json:"admission"`
}

// buildTail serializes the shard's state from log index `from` on.
// Run-goroutine only (or after the loop has exited).
//
//lint:allocok tails copy the log suffix and pending sets by design; replication traffic, not the per-slot path
func (sh *Shard) buildTail(from int) (*Tail, error) {
	if from < 0 || from > len(sh.log) {
		return nil, fmt.Errorf("serve: shard %d tail from %d outside [0,%d]", sh.id, from, len(sh.log))
	}
	cmds := make([]core.Command, len(sh.log)-from)
	copy(cmds, sh.log[from:])
	return &Tail{
		Shard:          sh.id,
		Config:         sh.cfg,
		Seed:           sh.seed,
		From:           from,
		Total:          len(sh.log),
		Now:            sh.eng.Now(),
		Digest:         sh.eng.StateDigest(),
		Commands:       cmds,
		Batch:          toPendingCmds(sh.batch),
		DeferredJoins:  toPendingCmds(sh.defJoins),
		DeferredLeaves: append([]string(nil), sh.defLeaves...),
		Admission:      sh.adm.state(),
	}, nil
}

// replayTail rebuilds the engine a complete tail describes: resolve the
// config and replay the log over the seed to the tail's clock. It
// refuses a delta (From > 0) and a tail whose Total disagrees with the
// commands it carries, so a truncated record cannot pass for a shard.
func replayTail(t *Tail) (*core.Scheduler, error) {
	if t.From != 0 {
		return nil, fmt.Errorf("serve: shard %d: need a complete tail, got from=%d", t.Shard, t.From)
	}
	if t.Total != len(t.Commands) {
		return nil, fmt.Errorf("serve: shard %d: tail total %d but %d commands", t.Shard, t.Total, len(t.Commands))
	}
	ccfg, err := t.Config.CoreConfig()
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d config: %w", t.Shard, err)
	}
	eng, err := core.Replay(ccfg, t.Seed, t.Commands, t.Now)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d replay: %w", t.Shard, err)
	}
	return eng, nil
}

// VerifyTail replays a complete tail on a fresh engine and returns the
// replayed digest; the caller compares it with the tail's. It is the
// cluster-level differential check: a primary's full tail must replay
// byte-identically through core.Replay alone.
func VerifyTail(t *Tail) (uint64, error) {
	eng, err := replayTail(t)
	if err != nil {
		return 0, err
	}
	return eng.StateDigest(), nil
}

// restoreShard rebuilds a stopped shard from a complete tail: replay
// the log, verify the engine digest, then reinstate the admission books
// and the pending queues. The returned shard is not started.
func restoreShard(t *Tail, mailboxCap int) (*Shard, error) {
	eng, err := replayTail(t)
	if err != nil {
		return nil, err
	}
	if got := eng.StateDigest(); got != t.Digest {
		return nil, fmt.Errorf("serve: shard %d restore digest mismatch: replayed %016x, tail %016x",
			t.Shard, got, t.Digest)
	}
	batch, err := fromPendingCmds(t.Batch)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d tail batch: %w", t.Shard, err)
	}
	defJoins, err := fromPendingCmds(t.DeferredJoins)
	if err != nil {
		return nil, fmt.Errorf("serve: shard %d tail joins: %w", t.Shard, err)
	}
	if mailboxCap < 1 {
		mailboxCap = 1
	}
	adm := newAdmission(t.Config.M)
	adm.restore(t.Admission)
	sh := &Shard{
		id:        t.Shard,
		cfg:       t.Config,
		mbox:      make(chan *pending, mailboxCap),
		tickc:     make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		eng:       eng,
		adm:       adm,
		seed:      t.Seed,
		log:       append([]core.Command(nil), t.Commands...),
		batch:     batch,
		defJoins:  defJoins,
		defLeaves: append([]string(nil), t.DeferredLeaves...),
		drain:     make([]*pending, 0, mailboxCap+1),
	}
	sh.publishStatus()
	return sh, nil
}

// pendingCmd is the serialized form of an admitted-but-unapplied
// command.
type pendingCmd struct {
	Op     string   `json:"op"`
	Task   string   `json:"task"`
	Weight frac.Rat `json:"weight"`
	Group  string   `json:"group,omitempty"`
}

func toPendingCmds(cmds []wireCmd) []pendingCmd {
	if len(cmds) == 0 {
		return nil
	}
	out := make([]pendingCmd, len(cmds))
	for i, c := range cmds {
		out[i] = pendingCmd{Op: opName(c.op), Task: c.task, Weight: c.weight, Group: c.group}
	}
	return out
}

func fromPendingCmds(cmds []pendingCmd) ([]wireCmd, error) {
	if len(cmds) == 0 {
		return nil, nil
	}
	out := make([]wireCmd, len(cmds))
	for i, c := range cmds {
		op, err := opFromName(c.Op)
		if err != nil {
			return nil, err
		}
		out[i] = wireCmd{op: op, task: c.Task, weight: c.Weight, group: c.Group}
	}
	return out, nil
}

func opName(op pendingOp) string {
	switch op {
	case opJoin:
		return "join"
	case opLeave:
		return "leave"
	case opReweight:
		return "reweight"
	default:
		panic(fmt.Sprintf("serve: unhandled pending op %d", op))
	}
}

func opFromName(name string) (pendingOp, error) {
	switch name {
	case "join":
		return opJoin, nil
	case "leave":
		return opLeave, nil
	case "reweight":
		return opReweight, nil
	}
	return 0, fmt.Errorf("serve: tail names unknown op %q", name)
}
