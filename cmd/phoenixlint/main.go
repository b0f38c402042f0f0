// Command phoenixlint runs the static contract analyzers over the module and
// reports findings not covered by the checked-in baseline of accepted
// exceptions. Exit status 1 means the tree violates a contract.
//
// Usage:
//
//	phoenixlint [-root dir] [-json] [-list]
//
// The JSON report is deterministic: same tree, same baseline, byte-identical
// bytes.
package main

import (
	"flag"
	"fmt"
	"os"

	"phoenix/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root (default: ascend from cwd to go.mod)")
	asJSON := flag.Bool("json", false, "emit the deterministic JSON report instead of text")
	list := flag.Bool("list", false, "list registered analyzers and exit")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	dir := *root
	if dir == "" {
		cwd, err := os.Getwd()
		if err != nil {
			fatal(err)
		}
		dir, err = lint.FindRoot(cwd)
		if err != nil {
			fatal(err)
		}
	}

	rep, err := lint.Campaign(dir)
	if err != nil {
		fatal(err)
	}
	if *asJSON {
		data, err := rep.JSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(data)
	} else {
		fmt.Print(lint.FmtReport(rep))
	}
	if !rep.Clean {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "phoenixlint:", err)
	os.Exit(1)
}
