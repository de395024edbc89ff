package main

import (
	"math"
	"math/rand"
	"strconv"

	"repro/pkg/wfsim"
)

// topK is the k of every search: the paper's top-10.
const topK = 10

// hotIDs is how many repository IDs search_hot queries; 16 × 2 000 pairs
// fit wfsimd's default 65 536-entry score cache.
const hotIDs = 16

// workload is one traffic mix against one wfsimd configuration.
//
// closedRate, openRate and sloMS are frozen: they were measured on the seed
// commit on the reference box (2 cores) and are part of the benchmark's
// definition, not of a run. closedRate only sizes the closed schedule so it
// lasts about the requested time there; openRate is about half of it, so the
// open loop runs the server near 50 % utilisation; sloMS is far above four
// times any seed p95 and above the longest stall seen on the seed (a 0.4 s
// snapshot compaction, 0.5 s of a neighbour's noise) plus the time to drain
// it, so the seed reads 1.0 and slo_ok_share moves only when capacity falls
// below the open rate and a backlog builds: a cliff detector, not a gauge.
type workload struct {
	name string
	cfg  serverConfig

	warmup     int     // warm-up steps at full size: enough that set-up lasts most of a second
	closedRate float64 // steps/s
	openRate   float64 // steps/s
	sloMS      float64

	plan func(in *inputs, sz sizes, n counts) *plan
}

// serverConfig is one wfsimd configuration, as flags for the child process
// and as the options cmd/wfsimd builds from those flags for the in-process
// twins of the traced run. Everything else stays at wfsimd's defaults
// (measure MS_ip_te_pll, score cache 65 536 entries, fsync on).
type serverConfig struct {
	preload        bool // -corpus base.json
	durable        bool // -data DIR: acknowledged writes must survive SIGKILL
	shards         int  // -shards N (0 = the single-engine default)
	index          bool // -index
	compactRecords int  // -compact-records N (0 = default)
	// compactPerSlice sets compactRecords to the length of one slice of the
	// closed loop, so that every slice holds exactly one log compaction and
	// all slices carry the same work.
	compactPerSlice bool
}

// args returns wfsimd's flags. fresh is false for a restart over a data
// directory that already holds state, which a preload must not target.
func (c serverConfig) args(corpus, data string, fresh bool) []string {
	var args []string
	if c.preload && (fresh || !c.durable) {
		args = append(args, "-corpus", corpus)
	}
	if c.durable {
		args = append(args, "-data", data)
	}
	if c.shards > 1 {
		args = append(args, "-shards", strconv.Itoa(c.shards))
	}
	if c.index {
		args = append(args, "-index")
	}
	if c.compactRecords > 0 {
		args = append(args, "-compact-records", strconv.Itoa(c.compactRecords))
	}
	return args
}

// options mirrors cmd/wfsimd's flag handling.
func (c serverConfig) options(data string) []wfsim.Option {
	var opts []wfsim.Option
	if c.shards > 1 {
		opts = append(opts, wfsim.WithShards(c.shards))
	}
	if c.durable {
		opts = append(opts, wfsim.WithStorage(data, wfsim.StorageCompaction(0, c.compactRecords)))
	}
	if c.index {
		opts = append(opts, wfsim.WithIndex(1))
	}
	return append(opts, wfsim.WithScoreCache(cacheEntries))
}

// cacheEntries is wfsimd's default -cache.
const cacheEntries = 1 << 16

// counts is the length of each phase's schedule, in steps.
type counts struct{ warmup, closed, open int }

// plan is the fixed, seeded schedule of one run.
type plan struct {
	ingest []step // ingest_durable's set-up: loads the base corpus before the crash
	warmup []step
	closed []step
	open   []step
}

func (w *workload) counts(sz sizes) counts {
	n := counts{
		warmup: int(math.Ceil(float64(w.warmup) * sz.warmupScale)),
		closed: int(math.Round(w.closedRate * sz.closedSeconds)),
		open:   int(math.Round(w.openRate * sz.openSeconds)),
	}
	// Whole slices, so that all of them carry the same number of steps.
	n.closed = (n.closed + closedSlices - 1) / closedSlices * closedSlices
	if sz.closedOps > 0 {
		n.closed = sz.closedOps
	}
	if sz.openOps > 0 {
		n.open = sz.openOps
	}
	return n
}

var workloads = []*workload{
	{
		// Distinct inline queries: every pair misses the score cache, so time
		// is the per-pair kernel plus top-k; cache and JSON work must not show
		// here.
		name: "search_scan",
		cfg:  serverConfig{preload: true},

		warmup: 16, closedRate: 24, openRate: 12, sloMS: 1000,
		plan: func(in *inputs, sz sizes, n counts) *plan {
			next := 0
			phase := func(k int) []step {
				out := make([]step, k)
				for i := range out {
					out[i] = step{in.searchInline(next % len(in.held))}
					next++
				}
				return out
			}
			return &plan{warmup: phase(n.warmup), closed: phase(n.closed), open: phase(n.open)}
		},
	},
	{
		// 16 hot query_ids whose pairs all sit in the score cache: kernel
		// time is nil, what is left is serve decode/encode, snapshot pin,
		// cache hits and the top-k sort.
		name: "search_hot",
		cfg:  serverConfig{preload: true},

		warmup: hotIDs, closedRate: 400, openRate: 200, sloMS: 1000,
		plan: func(in *inputs, sz sizes, n counts) *plan {
			hot := in.protected
			if len(hot) > hotIDs {
				hot = hot[:hotIDs]
			}
			r := rand.New(rand.NewSource(in.seed + 1))
			reqs := make([]*request, len(hot))
			for i, id := range hot {
				reqs[i] = in.searchByID(id, false)
			}
			phase := func(k int) []step {
				out := make([]step, k)
				for i, j := range zipf(r, len(hot), k) {
					out[i] = step{reqs[j]}
				}
				return out
			}
			// The warm-up touches every hot ID once, whatever its scale,
			// so the measured phases only ever hit.
			p := &plan{closed: phase(n.closed), open: phase(n.open)}
			for _, req := range reqs {
				p.warmup = append(p.warmup, step{req})
			}
			return p
		},
	},
	{
		// Fsynced mutation batches only (2 adds, 1 replace, 2 removes, so the
		// corpus keeps its size; JSON and NDJSON): decode, resolve/intern,
		// ApplyBatch, log append+fsync, index upkeep, compaction; no search
		// kernel at all.
		name: "ingest_durable",
		cfg:  serverConfig{durable: true, index: true, compactPerSlice: true},

		warmup: 200, closedRate: 640, openRate: 320, sloMS: 1000,
		plan: func(in *inputs, sz sizes, n counts) *plan {
			p := &plan{}
			// Set-up uses storage the other way round: ingest the base
			// corpus, crash, recover (see runSetup).
			per := (len(in.base) + sz.ingestBatches - 1) / sz.ingestBatches
			for lo := 0; lo < len(in.base); lo += per {
				var ops []mutOp
				for i := lo; i < lo+per && i < len(in.base); i++ {
					ops = append(ops, mutOp{kind: "add", id: in.base[i].ID, src: i, fromBase: true})
				}
				p.ingest = append(p.ingest, step{in.batch(ops, false)})
			}
			c := newChurn(in, rand.New(rand.NewSource(in.seed+2)), in.mutable)
			seq := 0
			phase := func(k int) []step {
				out := make([]step, k)
				for i := range out {
					out[i] = step{in.batch(c.ops(2, 1, 2), seq%2 == 1)}
					seq++
				}
				return out
			}
			p.warmup, p.closed, p.open = phase(n.warmup), phase(n.closed), phase(n.open)
			return p
		},
	},
	{
		// A mutation batch and an indexed query_id search in lock-step on two
		// connections over 2 shards: every commit invalidates cached scores,
		// the index serves while maintained, reads pin views under a writer.
		name: "mixed_churn",
		cfg:  serverConfig{preload: true, durable: true, shards: 2, index: true},

		warmup: 40, closedRate: 60, openRate: 30, sloMS: 1000,
		plan: func(in *inputs, sz sizes, n counts) *plan {
			r := rand.New(rand.NewSource(in.seed + 3))
			c := newChurn(in, r, in.mutable)
			phase := func(k int) []step {
				out := make([]step, k)
				for i := range out {
					id := in.protected[r.Intn(len(in.protected))]
					out[i] = step{in.batch(c.ops(1, 1, 1), false), in.searchByID(id, true)}
				}
				return out
			}
			return &plan{warmup: phase(n.warmup), closed: phase(n.closed), open: phase(n.open)}
		},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
