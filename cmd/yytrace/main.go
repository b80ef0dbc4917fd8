// Command yytrace merges and summarizes Chrome trace_event JSON files
// produced by yycore -trace (or any tool emitting the same format).
//
// Summarize one trace (per-track span totals and percentages):
//
//	yytrace run.json
//
// Merge several runs into one file, each input on its own process row
// in Perfetto:
//
//	yytrace -o merged.json run1.json run2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

// event mirrors the trace_event fields our tools emit, keeping unknown
// args intact for round-tripping.
type event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []event `json:"traceEvents"`
	DisplayTimeUnit string  `json:"displayTimeUnit,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable driver body; it returns the process exit code:
// 0 done, 1 an input or the output failed, 2 usage.
func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("yytrace", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		merged  = fs.String("o", "", "write the merged trace here instead of summarizing")
		summary = fs.Bool("summary", false, "print the per-track summary (default when -o is not given)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(errOut, "usage: yytrace [-o merged.json] [-summary] trace.json...")
		return 2
	}
	evs, err := merge(fs.Args())
	if err == nil && *merged != "" {
		err = writeMerged(*merged, evs)
		if err == nil {
			fmt.Fprintf(out, "wrote %s (%d events from %d files)\n", *merged, len(evs), fs.NArg())
		}
	}
	if err != nil {
		fmt.Fprintln(errOut, "yytrace:", err)
		return 1
	}
	if *merged == "" || *summary {
		summarize(out, evs)
	}
	return 0
}

// writeMerged writes evs as one trace file.
func writeMerged(path string, evs []event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(traceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// merge loads every input and reassigns each file's events to its own
// process row, so merged runs do not collide on (pid, tid) — even when
// the inputs were all recorded as the same pid.
func merge(paths []string) ([]event, error) {
	var merged []event
	for i, path := range paths {
		tf, err := load(path)
		if err != nil {
			return nil, err
		}
		for _, ev := range tf.TraceEvents {
			ev.PID = i
			merged = append(merged, ev)
		}
	}
	return merged, nil
}

func load(path string) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, err
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		// Also accept the bare-array form of the format.
		var evs []event
		if aerr := json.Unmarshal(data, &evs); aerr != nil {
			return tf, fmt.Errorf("%s: %v", path, err)
		}
		tf.TraceEvents = evs
	}
	return tf, nil
}

type trackKey struct{ pid, tid int }
type rowKey struct {
	trackKey
	name string
}

// summarize prints, per track, each span name's count, total time and
// share of the track's wall span, plus the instants seen.
func summarize(w io.Writer, evs []event) {
	names := map[trackKey]string{}
	rows := map[rowKey]*struct {
		count int
		total float64
	}{}
	walls := map[trackKey][2]float64{} // min ts, max ts+dur
	instants := map[string]int{}
	for _, ev := range evs {
		tk := trackKey{ev.PID, ev.TID}
		switch ev.Phase {
		case "M":
			if ev.Name == "thread_name" && ev.Args != nil {
				if n, ok := ev.Args["name"].(string); ok {
					names[tk] = n
				}
			}
		case "X":
			rk := rowKey{tk, ev.Name}
			r := rows[rk]
			if r == nil {
				r = &struct {
					count int
					total float64
				}{}
				rows[rk] = r
			}
			r.count++
			r.total += ev.Dur
			span, ok := walls[tk]
			if !ok {
				span = [2]float64{ev.TS, ev.TS + ev.Dur}
			}
			if ev.TS < span[0] {
				span[0] = ev.TS
			}
			if ev.TS+ev.Dur > span[1] {
				span[1] = ev.TS + ev.Dur
			}
			walls[tk] = span
		case "i":
			instants[ev.Name]++
		}
	}

	tracks := make([]trackKey, 0, len(walls))
	for tk := range walls {
		tracks = append(tracks, tk)
	}
	sort.Slice(tracks, func(i, j int) bool {
		if tracks[i].pid != tracks[j].pid {
			return tracks[i].pid < tracks[j].pid
		}
		return tracks[i].tid < tracks[j].tid
	})
	for _, tk := range tracks {
		label := names[tk]
		if label == "" {
			label = fmt.Sprintf("tid %d", tk.tid)
		}
		wall := walls[tk][1] - walls[tk][0]
		fmt.Fprintf(w, "\n[pid %d] %s  (wall %.3f ms)\n", tk.pid, label, wall/1e3)
		fmt.Fprintf(w, "  %-18s %8s %14s %8s\n", "span", "count", "total(ms)", "%wall")
		type line struct {
			name  string
			count int
			total float64
		}
		var lines []line
		for rk, r := range rows {
			if rk.trackKey == tk {
				lines = append(lines, line{rk.name, r.count, r.total})
			}
		}
		sort.Slice(lines, func(i, j int) bool { return lines[i].total > lines[j].total })
		for _, l := range lines {
			pct := 0.0
			if wall > 0 {
				pct = 100 * l.total / wall
			}
			fmt.Fprintf(w, "  %-18s %8d %14.3f %8.2f\n", l.name, l.count, l.total/1e3, pct)
		}
	}
	if len(instants) > 0 {
		fmt.Fprintf(w, "\nInstants:\n")
		keys := make([]string, 0, len(instants))
		for k := range instants {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "  %-24s %6d\n", k, instants[k])
		}
	}
}
