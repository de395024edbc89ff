package wfsim

import (
	"io"

	"repro/internal/corpus"
	"repro/internal/gen"
	"repro/internal/measures"
	"repro/internal/rank"
	"repro/internal/search"
	"repro/internal/wfio"
	"repro/internal/workflow"
)

// Core model types, re-exported so callers outside this module can build
// workflows and repositories without reaching into internal packages.
type (
	// Workflow is a scientific workflow: a DAG of typed, labeled modules
	// with repository annotations (title, description, tags).
	Workflow = workflow.Workflow
	// Module is one workflow step (a web-service call, script, local shim...).
	Module = workflow.Module
	// Annotations carries a workflow's repository metadata.
	Annotations = workflow.Annotations
	// Edge is a directed data link between two modules.
	Edge = workflow.Edge
	// Repository is a mutable, snapshot-versioned in-memory workflow
	// collection — what an Engine is seeded from (New) and what corpus
	// files load into. It has no read API of its own: Snapshot pins a
	// Snapshot, which does the ID lookups and JSON persistence (SaveFile
	// saves the current one).
	Repository = corpus.Repository
	// Snapshot is an immutable, generation-stamped view of a Repository.
	Snapshot = corpus.Snapshot
	// Measure scores the similarity of two workflows; see Registry for the
	// built-in measures and their paper notation.
	Measure = measures.Measure
	// Result is one search hit.
	Result = search.Result
	// Pair is a scored workflow pair, as returned by Engine.Duplicates.
	Pair = search.Pair
)

// Module type identifiers, as found in Taverna and Galaxy repositories.
// They drive type-match/type-equivalence preselection and the importance
// projection's notion of trivial local modules.
const (
	TypeWSDL          = workflow.TypeWSDL
	TypeArbitraryWSDL = workflow.TypeArbitraryWSDL
	TypeSoaplabWSDL   = workflow.TypeSoaplabWSDL
	TypeBioMoby       = workflow.TypeBioMoby
	TypeRESTService   = workflow.TypeRESTService
	TypeBeanshell     = workflow.TypeBeanshell
	TypeRShell        = workflow.TypeRShell
	TypeScript        = workflow.TypeScript
	TypeLocalWorker   = workflow.TypeLocalWorker
	TypeStringConst   = workflow.TypeStringConst
	TypeXMLSplitter   = workflow.TypeXMLSplitter
	TypeXMLMerger     = workflow.TypeXMLMerger
	TypeDataflow      = workflow.TypeDataflow
	TypeTool          = workflow.TypeTool
	TypeUnknown       = workflow.TypeUnknown
)

// Sentinel mutation errors, re-exported for errors.Is discrimination:
// Apply (and Repository mutation) failures wrap these, so callers —
// e.g. an HTTP layer separating conflicts from malformed requests — don't
// need to match error strings.
var (
	// ErrNotFound: a remove/replace named an ID the repository lacks.
	ErrNotFound = corpus.ErrNotFound
	// ErrDuplicateID: an add reused an existing workflow ID.
	ErrDuplicateID = corpus.ErrDuplicateID
)

// NewWorkflow returns an empty workflow with the given repository ID.
func NewWorkflow(id string) *Workflow { return workflow.New(id) }

// NewRepository builds a repository from the given workflows.
// Duplicate or empty IDs are rejected.
func NewRepository(wfs ...*Workflow) (*Repository, error) {
	return corpus.NewRepository(wfs...)
}

// LoadRepository reads a repository from a corpus JSON file written by
// Repository.SaveFile (or the wfsim CLI's gen/import commands).
func LoadRepository(path string) (*Repository, error) {
	return corpus.LoadFile(path)
}

// ReadRepository reads a repository from corpus JSON.
func ReadRepository(r io.Reader) (*Repository, error) {
	return corpus.Load(r)
}

// Ranking is an ordered list of candidate IDs with ties, as produced by
// scoring candidates under a measure.
type Ranking = rank.Ranking

// RankingFromScores turns a candidate->score map into a descending ranking;
// scores within eps tie.
func RankingFromScores(scores map[string]float64, eps float64) Ranking {
	return rank.FromScores(scores, eps)
}

// ConsensusRanking aggregates several rankings of the same candidates into
// a consensus with the BioConsert heuristic — how the paper aggregates
// expert rankings before scoring algorithms against them.
func ConsensusRanking(rankings []Ranking) Ranking { return rank.BioConsert(rankings) }

// RankingCorrectness scores a ranking against a reference ranking: the
// paper's correctness measure in [-1, 1] (generalized Kendall agreement).
func RankingCorrectness(reference, r Ranking) float64 {
	return rank.Correctness(reference, r)
}

// ParseT2Flow reads a Taverna-style t2flow XML workflow.
func ParseT2Flow(r io.Reader) (*Workflow, error) { return wfio.ParseT2Flow(r) }

// ParseGalaxy reads a Galaxy .ga JSON workflow.
func ParseGalaxy(r io.Reader) (*Workflow, error) { return wfio.ParseGalaxy(r) }

// WriteT2Flow writes a workflow as Taverna-style t2flow XML.
func WriteT2Flow(w io.Writer, wf *Workflow) error { return wfio.WriteT2Flow(w, wf) }

// WriteGalaxy writes a workflow as Galaxy .ga JSON.
func WriteGalaxy(w io.Writer, wf *Workflow) error { return wfio.WriteGalaxy(w, wf) }

// Synthetic corpus generation, re-exported for demos and benchmarks: the
// generator emits myExperiment-style corpora together with the latent
// ground truth (functional clusters) the paper's gold standard plays.
type (
	// Profile parameterises corpus generation (size, cluster count, module
	// vocabulary mix).
	Profile = gen.Profile
	// GeneratedCorpus bundles a generated Repository with its GroundTruth.
	GeneratedCorpus = gen.Corpus
	// GroundTruth is the generator's latent similarity structure.
	GroundTruth = gen.Truth
)

// TavernaProfile is the myExperiment/Taverna-style generation profile
// (the paper's main corpus: 1483 workflows in 48 functional clusters).
func TavernaProfile() Profile { return gen.Taverna() }

// GalaxyProfile is the Galaxy-style generation profile (139 workflows).
func GalaxyProfile() Profile { return gen.Galaxy() }

// GenerateCorpus deterministically generates a synthetic corpus with latent
// ground truth from the profile and seed.
func GenerateCorpus(p Profile, seed int64) (*GeneratedCorpus, error) {
	return gen.Generate(p, seed)
}
