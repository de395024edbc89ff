// Fixture: direct repository reads, which the snapshotpin analyzer once
// flagged in the query layers. corpus.Repository has no read API, so in
// any package they no longer compile: a read pins a Snapshot first.
package fixture

import (
	"io"

	"repro/internal/corpus"
	"repro/internal/workflow"
)

func size(repo *corpus.Repository) int {
	return repo.Size() // want `repo\.Size undefined`
}

func fetch(repo *corpus.Repository, id string) *workflow.Workflow {
	return repo.Get(id) // want `repo\.Get undefined`
}

func all(repo *corpus.Repository) []*workflow.Workflow {
	return repo.Workflows() // want `repo\.Workflows undefined`
}

func ids(repo *corpus.Repository) []string {
	return repo.IDs() // want `repo\.IDs undefined`
}

func check(repo *corpus.Repository) error {
	return repo.Validate() // want `repo\.Validate undefined`
}

func save(repo *corpus.Repository, w io.Writer) error {
	return repo.Save(w) // want `repo\.Save undefined`
}
