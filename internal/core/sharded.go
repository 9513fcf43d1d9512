package core

import "corroborate/internal/truth"

// ShardedStream is a Stream that carries a shard count. Its batches run the
// Stream pipeline unchanged: the count has no effect on how a batch is
// processed, and is kept because the daemon, the CLI and checkpoint
// restores construct and report streams by it. Batches are not split
// across workers: deciding the groups is about 2% of a batch, and a
// worker pool over that step measured as a net cost. Output is the plain
// Stream's for any count (see Stream).
//
// A ShardedStream is safe for concurrent use, with the same contract as
// Stream.
type ShardedStream struct {
	Stream
	shards int
}

// NewShardedStream returns an empty sharded stream using the scale
// profile. Shard counts below 1 are clamped to 1.
func NewShardedStream(shards int) *ShardedStream {
	if shards < 1 {
		shards = 1
	}
	ss := &ShardedStream{shards: shards}
	ss.Config = *NewScale()
	ss.symtab = truth.NewInterner()
	return ss
}

// Shards returns the configured shard count. It has no effect on how a
// batch is processed.
func (ss *ShardedStream) Shards() int { return ss.shards }
