// Package cluster turns a set of pd2d processes into one multi-node
// deployment: a coordinator assigns each shard a primary and followers
// by rendezvous hashing (rendezvous.go), every node hosts a serve
// server with all shards and wraps it in routing/replication middleware
// (node.go), primaries stream their applied command log to followers as
// serve.Tail deltas (replica.go), and shards move between nodes by a
// complete-tail stream + delta replay with a digest check before the
// routing table flips (migration in node.go, orchestrated by
// coordinator.go). A promotion installs the replica's complete tail
// through serve.Server.InstallShard, the same digest-verified path a
// restart from disk takes.
//
// docs/CLUSTER.md is the normative protocol description; keep the two
// in sync.
package cluster
