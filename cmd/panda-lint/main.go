// Command panda-lint runs the repository's analyzer suite
// (internal/lint): the mechanical form of the invariants ARCHITECTURE.md
// documents — pooled-buffer ownership, fsync-outside-the-stripe-mutex,
// registered wire codes, resolved-now threading, context threading.
//
// Usage (scripts/lint.sh runs the first form as CI's hard gate):
//
//	panda-lint ./...            # lint packages by go list pattern
//	panda-lint -list            # print the analyzers and exit
//	panda-lint -run 'pool|wire' ./...   # only matching analyzers
//
// Findings print one per line as file:line:col: message [analyzer],
// and the exit status is 1 when there are any.
//
// False positives are suppressed at the offending line (or the line
// above) with a reason:
//
//	//panda:allow poolsafe — handler keeps the buffer for its lifetime
package main

import (
	"flag"
	"fmt"
	"os"
	"regexp"

	"github.com/pglp/panda/internal/lint"
	"github.com/pglp/panda/internal/lint/analysis"
	"github.com/pglp/panda/internal/lint/loader"
)

func main() {
	listOnly := flag.Bool("list", false, "print the analyzers and exit")
	runFilter := flag.String("run", "", "only run analyzers whose name matches this regexp")
	flag.Parse()

	analyzers := lint.All()
	if *runFilter != "" {
		re, err := regexp.Compile(*runFilter)
		if err != nil {
			fmt.Fprintf(os.Stderr, "panda-lint: bad -run regexp: %v\n", err)
			os.Exit(2)
		}
		var kept []*analysis.Analyzer
		for _, a := range analyzers {
			if re.MatchString(a.Name) {
				kept = append(kept, a)
			}
		}
		analyzers = kept
	}
	if *listOnly {
		for _, a := range analyzers {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}
	if len(analyzers) == 0 {
		fmt.Fprintln(os.Stderr, "panda-lint: no analyzers match -run")
		os.Exit(2)
	}

	patterns := flag.Args()
	pkgs, err := loader.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "panda-lint: %v\n", err)
		os.Exit(2)
	}
	found := false
	for _, pkg := range pkgs {
		findings, err := lint.Run(pkg, analyzers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "panda-lint: %s: %v\n", pkg.Path, err)
			os.Exit(2)
		}
		for _, f := range findings {
			found = true
			fmt.Println(f.String())
		}
	}
	if found {
		os.Exit(1)
	}
}
