// Command wfsimvet runs the repository's invariant analyzer suite
// (internal/lint) over the module: canonical pair ordering, one engine view
// per request function, context flow, lock scope, error paths, and hot-loop
// allocations. It is the lint gate CI runs next to go vet. Three contracts
// once checked here are carried by types instead, and -list names them:
// snapshot-pinned reads, canonical score-cache keys and generation-stamped
// responses.
//
// Usage:
//
//	wfsimvet [-c analyzers] [-suppressed] [-list] [-json] [packages]
//
// Packages default to ./... relative to the enclosing module. The exit
// status is 1 when any unsuppressed finding remains, 2 on usage or load
// errors. Findings are silenced site-by-site with
//
//	//wfsimvet:ignore <analyzer> <justification>
//
// on the flagged line or the line above; -suppressed lists the silenced
// findings with their justifications.
//
// -json emits one JSON object per diagnostic (file, line, column, analyzer,
// message, suppressed, justification) for tooling — the CI problem matcher
// consumes the default text format, editors and scripts the JSON one. With
// -json, suppressed findings are always included, marked.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/lint"
)

// jsonDiagnostic is the -json wire format, one object per line.
type jsonDiagnostic struct {
	File          string `json:"file"`
	Line          int    `json:"line"`
	Column        int    `json:"column"`
	Analyzer      string `json:"analyzer"`
	Message       string `json:"message"`
	Suppressed    bool   `json:"suppressed"`
	Justification string `json:"justification,omitempty"`
}

func main() {
	var (
		selection      = flag.String("c", "", "comma-separated analyzer subset to run (default: all)")
		listAnalyzers  = flag.Bool("list", false, "list the analyzers and exit")
		showSuppressed = flag.Bool("suppressed", false, "also print suppressed findings")
		asJSON         = flag.Bool("json", false, "emit one JSON object per diagnostic (suppressed included)")
	)
	flag.Parse()

	if *listAnalyzers {
		for _, a := range lint.All {
			summary, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Printf("%-12s %s\n", a.Name, summary)
		}
		fmt.Print(`
retired into types (TestRetiredRulesAreTypeErrors in internal/lint):
snapshotpin  corpus.Repository has no read API: a read pins a Snapshot
pairorder    (cache-key half) scorecache.Key has no exported field: PairKey builds keys
genstamp     serve's writeJSON takes only a body that carries a generation stamp
`)
		return
	}

	analyzers, err := lint.ByName(*selection)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfsimvet: %v\n", err)
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfsimvet: %v\n", err)
		os.Exit(2)
	}
	root, err := lint.ModuleRoot(wd)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfsimvet: %v\n", err)
		os.Exit(2)
	}

	u, err := lint.Load(root, flag.Args()...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfsimvet: %v\n", err)
		os.Exit(2)
	}

	diags, err := lint.RunAnalyzers(u, u.Targets, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wfsimvet: %v\n", err)
		os.Exit(2)
	}

	enc := json.NewEncoder(os.Stdout)
	failures, suppressed := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			suppressed++
		} else {
			failures++
		}
		switch {
		case *asJSON:
			if err := enc.Encode(jsonDiagnostic{
				File:          d.Pos.Filename,
				Line:          d.Pos.Line,
				Column:        d.Pos.Column,
				Analyzer:      d.Analyzer,
				Message:       d.Message,
				Suppressed:    d.Suppressed,
				Justification: d.Justification,
			}); err != nil {
				fmt.Fprintf(os.Stderr, "wfsimvet: encode diagnostic: %v\n", err)
				os.Exit(2)
			}
		case !d.Suppressed || *showSuppressed:
			fmt.Println(d)
		}
	}
	if suppressed > 0 && !*showSuppressed && !*asJSON {
		fmt.Fprintf(os.Stderr, "wfsimvet: %d suppressed finding(s); rerun with -suppressed to list them\n", suppressed)
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "wfsimvet: %d finding(s)\n", failures)
		os.Exit(1)
	}
}
