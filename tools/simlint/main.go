// Command simlint is the repository's multi-analyzer invariant
// checker: four static analyzers for the simulator's own correctness
// contracts, sharing one typechecked view of each package.
//
//   - determinism — byte-identical output for identical inputs;
//   - snapcover — every field of a struct with a Snapshot()/Restore()
//     pair is serialized or carries //simlint:snapexempt <reason>;
//   - enumtotal — switches over the repo's closed enums are total;
//   - hookpair — hook-interface implementations handle the full hook
//     set or delegate via embedding.
//
// Three ways to run it:
//
// As a vet tool (the CI simlint-gate; exercises the cmd/go vet
// protocol — -V=full handshake, -flags enumeration, one vet.cfg
// invocation per package):
//
//	go build -o bin/simlint ./tools/simlint
//	go vet -vettool=$PWD/bin/simlint ./...
//	go vet -vettool=$PWD/bin/simlint -snapcover=false ./sim/...
//
// Standalone over module packages (no cmd/go in the loop; loads the
// module from source):
//
//	bin/simlint ./sim/... ./analysis/...
//	bin/simlint -json ./... > findings.json
//	bin/simlint -fail -enumtotal=false ./attack/...
//
// Baseline diff for incremental adoption (exit 2 only on findings
// absent from the baseline; keys ignore line numbers so unrelated
// edits don't churn the gate):
//
//	bin/simlint -diff baseline.json findings.json
//
// Per-analyzer enable flags (-determinism, -snapcover, -enumtotal,
// -hookpair) default to true and work in all modes.
// Exit codes: 0 clean, 1 usage/load error, 2 findings (vet mode and
// -fail/-diff).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"microscope/tools/simlint/lint"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	// The -V=full handshake arrives before any other flag and alone.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		lint.PrintVersion("simlint")
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		// cmd/go asks which analyzer flags we accept.
		fmt.Println(lint.VetFlagDefs())
		return 0
	}

	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	enabled := make(map[string]*bool)
	for _, a := range lint.All() {
		enabled[a.Name] = fs.Bool(a.Name, true, "enable the "+a.Name+" analyzer")
	}
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON diagnostics")
	failOnDiag := fs.Bool("fail", false, "exit 2 when any finding is reported (standalone mode)")
	diffMode := fs.Bool("diff", false, "diff two findings files: simlint -diff old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 1
	}

	var analyzers []*lint.Analyzer
	for _, a := range lint.All() {
		if *enabled[a.Name] {
			analyzers = append(analyzers, a)
		}
	}

	rest := fs.Args()
	switch {
	case *diffMode:
		return runDiff(rest, *jsonOut)
	case len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg"):
		// vet protocol: one unit config per package.
		diags, err := lint.RunUnit(rest[0], analyzers)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		if len(diags) > 0 {
			return 2 // the exit code cmd/go expects for findings
		}
		return 0
	case len(rest) > 0:
		return runStandalone(rest, analyzers, *jsonOut, *failOnDiag)
	default:
		fmt.Fprintln(os.Stderr,
			"usage: simlint [flags] ./pkg/...  |  simlint -diff old.json new.json  |  go vet -vettool=bin/simlint ./...")
		return 1
	}
}

func runStandalone(patterns []string, analyzers []*lint.Analyzer, jsonOut, failOnDiag bool) int {
	l, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	paths, err := l.ExpandPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	var all []lint.JSONDiagnostic
	for _, path := range paths {
		u, err := l.Load(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
		diags := lint.Run(u, analyzers)
		all = append(all, lint.ToJSON(l.Fset, l.ModRoot, diags)...)
	}
	if jsonOut {
		if err := lint.WriteJSON(os.Stdout, all); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s:%d:%d: %s: %s\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if failOnDiag && len(all) > 0 {
		return 2
	}
	return 0
}

func runDiff(files []string, jsonOut bool) int {
	if len(files) != 2 {
		fmt.Fprintln(os.Stderr, "usage: simlint -diff old.json new.json")
		return 1
	}
	oldD, err := lint.ReadJSONFile(files[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	newD, err := lint.ReadJSONFile(files[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "simlint:", err)
		return 1
	}
	fresh := lint.Diff(oldD, newD)
	if jsonOut {
		if err := lint.WriteJSON(os.Stdout, fresh); err != nil {
			fmt.Fprintln(os.Stderr, "simlint:", err)
			return 1
		}
	} else {
		for _, d := range fresh {
			fmt.Printf("%s:%d:%d: %s: %s (new since baseline)\n", d.File, d.Line, d.Col, d.Analyzer, d.Message)
		}
	}
	if len(fresh) > 0 {
		return 2
	}
	return 0
}
