// Command yystore audits and maintains a durable run-ledger store: the
// content-addressed artifact directory campaigns write through
// resilience.Config.Store (yycore -store) and the chaos storage arm
// exercises under injected filesystem faults.
//
// Usage:
//
//	yystore -root dir verify            # full walk: objects, refs, ledger chain, Merkle roots, anchor
//	yystore -root dir scrub             # verify + orphan-temp sweep, no mutation of damage
//	yystore -root dir repair [-replica dir,...]  # scrub with repair: restore from replicas, quarantine, re-anchor
//	yystore -root dir gc                # sweep objects unreachable from ledger and refs
//	yystore -root dir ls                # print the ledger chain and refs
//
// With -o the machine-readable JSON report is additionally committed
// (atomically) to the given path for CI to upload. Exit status 0 means
// the store is sound (severe findings absent, or for repair, all
// repaired); 1 means severe damage or unrepaired objects remain; 2
// means the harness itself failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("yystore", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		root     = fs.String("root", "", "store root directory (required)")
		replicas = fs.String("replica", "", "comma-separated replica roots repair may restore objects from")
		report   = fs.String("o", "", "write the JSON report here (atomic commit)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cmd := fs.Arg(0)
	if len(fs.Args()) > 1 {
		// Flags are accepted after the subcommand too (yystore -root d
		// repair -replica m): re-parse the remainder.
		if err := fs.Parse(fs.Args()[1:]); err != nil {
			return 2
		}
	}
	if *root == "" || cmd == "" {
		fmt.Fprintln(errOut, "usage: yystore -root dir [-replica dir,...] [-o report.json] <verify|scrub|repair|gc|ls>")
		return 2
	}

	primary, err := store.NewDirBackend(*root)
	if err != nil {
		fmt.Fprintf(errOut, "yystore: %v\n", err)
		return 2
	}
	var reps []store.Backend
	for _, r := range strings.Split(*replicas, ",") {
		if r == "" {
			continue
		}
		b, err := store.NewDirBackend(r)
		if err != nil {
			fmt.Fprintf(errOut, "yystore: replica %s: %v\n", r, err)
			return 2
		}
		reps = append(reps, b)
	}
	st, err := store.Open(primary, reps...)
	if err != nil {
		fmt.Fprintf(errOut, "yystore: opening store: %v\n", err)
		return 2
	}

	switch cmd {
	case "verify":
		rep, err := st.Verify()
		if err != nil {
			fmt.Fprintf(errOut, "yystore: verify: %v\n", err)
			return 2
		}
		printReport(out, rep)
		if !writeReport(*report, rep, errOut) {
			return 2
		}
		if rep.Severe() > 0 {
			return 1
		}
		return 0
	case "scrub", "repair":
		rep, err := st.Scrub(cmd == "repair")
		if err != nil {
			fmt.Fprintf(errOut, "yystore: %s: %v\n", cmd, err)
			return 2
		}
		printReport(out, rep)
		if !writeReport(*report, rep, errOut) {
			return 2
		}
		if cmd == "repair" {
			if len(rep.Unrepaired) > 0 {
				return 1
			}
			return 0
		}
		if rep.Verify.Severe() > 0 {
			return 1
		}
		return 0
	case "gc":
		rep, err := st.GC()
		if err != nil {
			fmt.Fprintf(errOut, "yystore: gc: %v\n", err)
			return 2
		}
		printReport(out, rep)
		if !writeReport(*report, rep, errOut) {
			return 2
		}
		return 0
	case "ls":
		if code := ls(st, out, errOut); code != 0 {
			return code
		}
		return 0
	default:
		fmt.Fprintf(errOut, "yystore: unknown command %q (verify|scrub|repair|gc|ls)\n", cmd)
		return 2
	}
}

// ls prints the ledger chain then the ref namespace.
func ls(st *store.Store, out, errOut io.Writer) int {
	entries, err := st.Entries()
	if err != nil {
		fmt.Fprintf(errOut, "yystore: reading ledger: %v\n", err)
		return 2
	}
	for _, m := range entries {
		extra := ""
		if len(m.Recoveries) > 0 {
			extra = "  recoveries: " + strings.Join(m.Recoveries, ", ")
		}
		fmt.Fprintf(out, "ledger %3d  run %-12s step %4d  %-10s %d artifact(s)  root %s%s\n",
			m.Seq, m.Run, m.Step, m.Note, len(m.Artifacts), m.Root.Short(), extra)
	}
	refs, err := st.Refs("")
	if err != nil {
		fmt.Fprintf(errOut, "yystore: reading refs: %v\n", err)
		return 2
	}
	for _, r := range refs {
		if r.Err != nil {
			fmt.Fprintf(out, "ref %-40s DAMAGED: %v\n", r.Name, r.Err)
			continue
		}
		fmt.Fprintf(out, "ref %-40s %s\n", r.Name, r.Hash.Short())
	}
	fmt.Fprintf(out, "%d ledger entries, %d refs, %d objects\n", len(entries), len(refs), st.Objects())
	return 0
}

// printReport writes a report's human rendering with exactly one
// trailing newline (the String() forms differ).
func printReport(out io.Writer, rep fmt.Stringer) {
	s := rep.String()
	if !strings.HasSuffix(s, "\n") {
		s += "\n"
	}
	fmt.Fprint(out, s)
}

// writeReport commits the JSON form of rep to path (no-op for ""),
// reporting success.
func writeReport(path string, rep any, errOut io.Writer) bool {
	if path == "" {
		return true
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(errOut, "yystore: marshaling report: %v\n", err)
		return false
	}
	if err := store.WriteFileAtomic(path, append(data, '\n'), 0o644); err != nil {
		fmt.Fprintf(errOut, "yystore: writing report: %v\n", err)
		return false
	}
	return true
}
