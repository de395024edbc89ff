// Command wfsimd is the long-lived workflow-similarity service: an HTTP/JSON
// front-end over the wfsim Engine that serves searches, comparisons,
// duplicate detection, clustering and transactional mutation batches to many
// concurrent clients. It is built entirely on the public packages
// repro/pkg/wfsim and repro/pkg/wfsim/serve.
//
// Usage:
//
//	wfsimd [-addr :8080] [-corpus corpus.json] [-data DIR] [-shards N]
//	       [-index] [-min-shared 1] [-cache 65536] [-repoknow]
//	       [-threshold 0.5] [-measure NAME] [-concurrency N]
//	       [-default-deadline 30s] [-max-deadline 2m]
//	       [-compact-bytes N] [-compact-records N]
//
// Without -corpus the service starts over an empty repository and is
// populated through POST /v1/workflows:batch. With -data the repository is
// durable: every committed batch is written to an append-only mutation log
// in DIR before it is applied, the log is periodically compacted into
// snapshots, and a restart recovers the corpus to the last committed
// generation (replaying the log tail, tolerating a torn final record).
// -corpus may only be combined with a -data directory that holds no state
// yet; the preload then becomes the baseline snapshot.
//
// -index maintains an inverted label index over the corpus. A search uses it
// only when its measure offers nothing better: Module Sets measures (the
// default MS_ip_te_pll among them) have an exact score bound, so their
// searches scan every workflow, skip most of them by the bound and return the
// exact top-k ("pruned" is absent from their stats); Path Sets, Graph Edit,
// BW/BT and ensembles score only the workflows sharing at least -min-shared
// labels with the query — a heuristic — and report the rest as "pruned".
// -cache N is the score cache's capacity in entries (about 60 bytes each,
// allocated at start-up).
//
// The corpus is partitioned across -shards N in-process shards (default 1)
// by consistent-hashed workflow ID: mutation batches commit all-or-nothing
// across the touched shards and reads scatter-gather over all of them. With
// N > 1 every response additionally carries the per-shard generation vector,
// and a -data directory holds one subdirectory per shard plus a marker
// recording N; with one shard the store lies flat in the directory. A data
// directory refuses to reopen under a different -shards value. See the
// package documentation of repro/pkg/wfsim/serve for the endpoint
// reference.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/pkg/wfsim"
	"repro/pkg/wfsim/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "wfsimd: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("wfsimd", flag.ExitOnError)
	addr := fs.String("addr", ":8080", "listen address")
	corpusPath := fs.String("corpus", "", "corpus JSON to serve (empty repository when omitted)")
	dataDir := fs.String("data", "", "data directory for durable storage (RAM-only when omitted)")
	shards := fs.Int("shards", 1, "partition the corpus across N in-process shards; a -data directory reopens only with the count it was written with")
	compactBytes := fs.Int64("compact-bytes", 0, "compact the mutation log past this many bytes (0 = default 8 MiB)")
	compactRecords := fs.Int("compact-records", 0, "compact the mutation log past this many records (0 = default 4096)")
	useIndex := fs.Bool("index", false, "maintain an inverted label index for searches under measures without an exact score bound (PS, GE, BW, BT, ensembles); Module Sets searches stay exact")
	minShared := fs.Int("min-shared", 1, "index candidate threshold (shared canonical labels)")
	cacheSize := fs.Int("cache", 1<<16, "pairwise score cache entries (0 disables)")
	repoKnow := fs.Bool("repoknow", false, "derive the importance projection from repository IDF instead of module types")
	threshold := fs.Float64("threshold", 0, "repository-knowledge projection threshold (0 = default)")
	measure := fs.String("measure", "", "default measure in paper notation (empty = library default)")
	concurrency := fs.Int("concurrency", 0, "scoring worker-pool width (0 = GOMAXPROCS)")
	defaultDeadline := fs.Duration("default-deadline", 30*time.Second, "per-request deadline when the client sends none")
	maxDeadline := fs.Duration("max-deadline", 2*time.Minute, "cap on client-requested deadlines")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *corpusPath != "" && *dataDir != "" {
		// A preload into a directory that already recovered state would
		// silently double-load (or be shadowed by) the stored corpus;
		// require an explicit choice instead.
		has, err := wfsim.HasStoredState(*dataDir)
		if err != nil {
			return fmt.Errorf("inspect -data directory: %w", err)
		}
		if has {
			return fmt.Errorf("-corpus %s conflicts with -data %s: the data directory already holds a stored corpus; drop -corpus to serve the stored state, or point -data at a fresh directory to preload", *corpusPath, *dataDir)
		}
	}

	var repo *wfsim.Repository
	var err error
	if *corpusPath != "" {
		repo, err = wfsim.LoadRepository(*corpusPath)
		if err != nil {
			return err
		}
	} else {
		repo, err = wfsim.NewRepository()
		if err != nil {
			return err
		}
	}

	// Engine construction validates the count and, with -data, refuses a
	// directory written under a different shard count.
	opts := []wfsim.Option{wfsim.WithShards(*shards)}
	if *dataDir != "" {
		opts = append(opts, wfsim.WithStorage(*dataDir,
			wfsim.StorageCompaction(*compactBytes, *compactRecords),
			wfsim.StorageWarnings(log.Printf),
		))
	}
	if *useIndex {
		opts = append(opts, wfsim.WithIndex(*minShared))
	}
	if *cacheSize > 0 {
		opts = append(opts, wfsim.WithScoreCache(*cacheSize))
	}
	if *repoKnow {
		opts = append(opts, wfsim.WithRepositoryKnowledge(*threshold))
	}
	if *measure != "" {
		opts = append(opts, wfsim.WithDefaultMeasure(*measure))
	}
	if *concurrency > 0 {
		opts = append(opts, wfsim.WithConcurrency(*concurrency))
	}
	eng, err := wfsim.New(repo, opts...)
	if err != nil {
		return err
	}
	if st, ok := eng.StorageStats(); ok {
		log.Printf("wfsimd: recovered %d workflows at generation %d from %s (snapshot gen %d, %d log records replayed, %d warm cache entries)",
			st.Recovery.Workflows, st.Recovery.Generation, st.Dir,
			st.Recovery.SnapshotGeneration, st.Recovery.ReplayedRecords, st.WarmCacheEntries)
	}

	srv := serve.New(eng, serve.Config{
		DefaultDeadline: *defaultDeadline,
		MaxDeadline:     *maxDeadline,
	})
	httpServer := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		f := eng.Read().Frontier()
		log.Printf("wfsimd: serving %d workflows on %d shard(s) (generations %v) on %s", f.Workflows, eng.Shards(), f.Generations, *addr)
		errc <- httpServer.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("wfsimd: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpServer.Shutdown(shutdownCtx); err != nil {
		return err
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// In-flight mutations are done (the listener is drained): flush a final
	// snapshot and the warm score cache so the next boot replays nothing.
	if err := eng.Close(); err != nil {
		return fmt.Errorf("flush storage: %w", err)
	}
	return nil
}
