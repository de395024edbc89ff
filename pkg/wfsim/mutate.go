package wfsim

import (
	"context"
	"fmt"

	"repro/internal/corpus"
)

// Mutation is one operation in an Engine.Apply batch. Build mutations with
// AddWorkflow, RemoveWorkflow and ReplaceWorkflow; the zero Mutation is
// invalid and rejected by Apply.
type Mutation struct {
	op corpus.Op
}

// AddWorkflow inserts a workflow into the repository. Its ID must be
// non-empty and not already present.
func AddWorkflow(wf *Workflow) Mutation {
	m := Mutation{op: corpus.Op{Kind: corpus.OpAdd, Workflow: wf}}
	if wf != nil {
		m.op.ID = wf.ID
	}
	return m
}

// RemoveWorkflow deletes the workflow with the given ID.
func RemoveWorkflow(id string) Mutation {
	return Mutation{op: corpus.Op{Kind: corpus.OpRemove, ID: id}}
}

// ReplaceWorkflow swaps the repository workflow with wf.ID for wf, keeping
// its position. The ID must already be present.
func ReplaceWorkflow(wf *Workflow) Mutation {
	m := Mutation{op: corpus.Op{Kind: corpus.OpReplace, Workflow: wf}}
	if wf != nil {
		m.op.ID = wf.ID
	}
	return m
}

// String describes the mutation for logs and errors.
func (m Mutation) String() string {
	switch m.op.Kind {
	case corpus.OpAdd:
		return "add(" + m.op.ID + ")"
	case corpus.OpRemove:
		return "remove(" + m.op.ID + ")"
	case corpus.OpReplace:
		return "replace(" + m.op.ID + ")"
	default:
		return "invalid"
	}
}

// Apply commits a transactional mutation batch against the repository and
// returns the new generation (the sum of the per-shard vector; see
// ApplyVector). The batch is all-or-nothing: every workflow is structurally
// validated and every op is checked against the repository state (with
// preceding ops of the same batch staged) on every touched shard before any
// shard commits, so a failed Apply leaves the repository, the indexes and
// the caches exactly as they were.
//
// On success the whole batch becomes visible atomically: the inverted
// indexes are maintained incrementally (O(labels) per op, no corpus
// rescans), every added or replacing workflow is committed under a new
// revision — which retires exactly the cached pairs involving removed or
// replaced workflows and leaves every other cached score valid — and the
// repository-knowledge projector (WithRepositoryKnowledge) is recomputed
// from the post-batch view on the next read — "ip" measures never score
// against pre-mutation module frequencies. Reads already in flight keep
// their pinned pre-mutation view. The engine takes ownership of the
// workflows it is given; one it has committed before (its own stored object
// handed back) is stored as a copy, because pinned readers may share it.
// With storage, the batch is logged and fsynced before it commits in memory,
// and a log that has outgrown its thresholds is compacted afterwards.
//
// Concurrent Apply calls are serialised; reads never block on a writer. An
// empty batch is a no-op returning the current generation. After Close the
// call fails with an error wrapping storage.ErrClosed.
func (e *Engine) Apply(ctx context.Context, muts ...Mutation) (uint64, error) {
	gens, err := e.ApplyVector(ctx, muts...)
	if err != nil {
		return 0, err
	}
	var sum uint64
	for _, g := range gens {
		sum += g
	}
	return sum, nil
}

// mutationOps validates a batch's mutations and unwraps the corpus ops.
func mutationOps(muts []Mutation) ([]corpus.Op, error) {
	ops := make([]corpus.Op, len(muts))
	for i, m := range muts {
		if m.op.Kind == 0 {
			return nil, fmt.Errorf("wfsim: empty mutation at position %d", i)
		}
		if m.op.Workflow != nil {
			if err := m.op.Workflow.Validate(); err != nil {
				return nil, fmt.Errorf("wfsim: mutation %d (%s): %w", i, m, err)
			}
		}
		ops[i] = m.op
	}
	return ops, nil
}

// ApplyVector is Apply returning the post-batch per-shard generation vector
// instead of its sum.
func (e *Engine) ApplyVector(ctx context.Context, muts ...Mutation) ([]uint64, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(muts) == 0 {
		return e.coord.View().Generations(), nil
	}
	ops, err := mutationOps(muts)
	if err != nil {
		return nil, err
	}
	return e.coord.Apply(ops)
}

// IndexStats describes the inverted index's incremental-maintenance state.
type IndexStats struct {
	// Live is the number of searchable workflows in the index.
	Live int `json:"live"`
	// Dead is the number of tombstoned entries awaiting compaction.
	Dead int `json:"dead"`
	// Vocabulary is the number of distinct canonical labels indexed.
	Vocabulary int `json:"vocabulary"`
	// Compactions counts tombstone sweeps (cheap, label-list based).
	Compactions int `json:"compactions"`
	// Rebuilds counts full from-scratch index rebuilds; it stays 0 while
	// all mutations go through Apply.
	Rebuilds int `json:"rebuilds"`
	// Generation is the repository generation the index reflects.
	Generation uint64 `json:"generation"`
}

// IndexStats reports the index's maintenance counters; ok is false when the
// engine was built without WithIndex. The counters are summed across the
// per-shard indexes (Vocabulary is the sum of per-shard vocabularies, not
// the global distinct-label count, and Generation is the sum of the
// per-shard index generations); per-shard detail is in Reader.ShardStats.
func (e *Engine) IndexStats() (stats IndexStats, ok bool) {
	for _, info := range e.coord.Infos() {
		if info.Index == nil {
			continue
		}
		ok = true
		stats.Live += info.Index.Live
		stats.Dead += info.Index.Dead
		stats.Vocabulary += info.Index.Vocabulary
		stats.Compactions += info.Index.Compactions
		stats.Rebuilds += info.IndexRebuilds
		stats.Generation += info.Index.Generation
	}
	return stats, ok
}
