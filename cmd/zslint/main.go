// Command zslint runs ZeroSum's repo-specific static checks (hotpath,
// errcheck, goleak, wiresync, clock, guardedby, lockorder, deadexport,
// goroutinestop) over the module containing the given directory. It is
// stdlib-only — parsing and type-checking use go/parser and go/types with
// the source importer, so it needs no network and no tools beyond the Go
// distribution.
//
// Usage:
//
//	zslint [-json] [-time] [-baseline FILE | -diff FILE] [-self] [dir]
//
// dir defaults to "."; the conventional spelling `zslint ./...` also works
// (the whole module is always analyzed).
//
//	-baseline FILE  record the current findings as the accepted set and
//	                exit 0: the ratchet's starting notch.
//	-diff FILE      report (and fail on) only findings not covered by the
//	                baseline — new problems, not inherited ones.
//	-self           run the analyzer's own fixture smoke test first and
//	                fail if any fixture's diagnostics diverge from golden.
//	-time           report per-check wall-clock timings on stderr.
//
// Exit status is 0 when clean (or after -baseline), 1 when there are
// (new) findings, 2 on load/usage/self-test errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"zerosum/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	baseline := flag.String("baseline", "", "record current findings to `FILE` as the accepted baseline")
	diffFile := flag.String("diff", "", "fail only on findings not in baseline `FILE`")
	self := flag.Bool("self", false, "run the fixture self-test before analyzing")
	timings := flag.Bool("time", false, "report per-check runtimes on stderr")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: zslint [-json] [-time] [-baseline FILE | -diff FILE] [-self] [dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *baseline != "" && *diffFile != "" {
		fmt.Fprintln(os.Stderr, "zslint: -baseline and -diff are mutually exclusive")
		os.Exit(2)
	}

	dir := "."
	switch flag.NArg() {
	case 0:
	case 1:
		// Accept the conventional ./... spelling; the analyzer always
		// covers the whole module.
		dir = strings.TrimSuffix(flag.Arg(0), "...")
		dir = strings.TrimSuffix(dir, "/")
		if dir == "" {
			dir = "."
		}
	default:
		flag.Usage()
		os.Exit(2)
	}

	prog, err := lint.Load(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zslint:", err)
		os.Exit(2)
	}

	if *self {
		start := time.Now()
		ok, err := lint.SelfTest(prog.Root, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zslint:", err)
			os.Exit(2)
		}
		if !ok {
			fmt.Fprintln(os.Stderr, "zslint: self-test failed")
			os.Exit(2)
		}
		if *timings {
			fmt.Fprintf(os.Stderr, "zslint: self-test ok in %v\n", time.Since(start).Round(time.Millisecond))
		}
	}

	diags, perCheck := lint.RunTimed(prog, lint.Checks(lint.DefaultOptions()))
	if *timings {
		var total time.Duration
		for _, t := range perCheck {
			fmt.Fprintf(os.Stderr, "zslint: %-14s %8v\n", t.Check, t.Elapsed.Round(time.Millisecond))
			total += t.Elapsed
		}
		fmt.Fprintf(os.Stderr, "zslint: %-14s %8v\n", "total", total.Round(time.Millisecond))
	}

	if *baseline != "" {
		if err := lint.WriteBaselineFile(*baseline, lint.NewBaseline(diags)); err != nil {
			fmt.Fprintln(os.Stderr, "zslint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "zslint: baseline recorded to %s (%d finding(s))\n", *baseline, len(diags))
		return
	}
	if *diffFile != "" {
		base, err := lint.LoadBaselineFile(*diffFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "zslint:", err)
			os.Exit(2)
		}
		diags = base.Diff(diags)
	}

	if *jsonOut {
		err = lint.WriteJSON(os.Stdout, diags)
	} else {
		err = lint.WriteText(os.Stdout, diags)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zslint:", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
