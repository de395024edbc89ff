// Fixture: the reads and writes the snapshotpin analyzer once accepted.
// With the rule held by corpus.Repository's type they must still compile:
// a read pins a Snapshot, and the mutation path writes through the
// repository.
package fixture

import (
	"io"

	"repro/internal/corpus"
	"repro/internal/workflow"
)

func pinned(repo *corpus.Repository, id string) (*workflow.Workflow, int, uint64) {
	snap := repo.Snapshot()
	return snap.Get(id), snap.Size(), snap.Generation()
}

func pinnedAll(repo *corpus.Repository, w io.Writer) ([]*workflow.Workflow, []string, error) {
	snap := repo.Snapshot()
	if err := snap.Validate(); err != nil {
		return nil, nil, err
	}
	return snap.Workflows(), snap.IDs(), snap.Save(w)
}

func mutate(repo *corpus.Repository, wf *workflow.Workflow) (uint64, error) {
	return repo.ApplyBatch([]corpus.Op{{Kind: corpus.OpAdd, ID: wf.ID, Workflow: wf}})
}
