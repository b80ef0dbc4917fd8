// Command yywatch is the terminal client of the live telemetry plane a
// running campaign serves (yycore -telemetry): it tails /progress into
// one-line status updates, streams the /events fault timeline, dumps or
// sanity-checks the /metrics Prometheus exposition, and can assert that
// a given anomaly rule fired (the teeth of the CI telemetry smoke).
//
// Usage:
//
//	yywatch -addr host:port                # follow progress until the run is done
//	yywatch -addr host:port -once          # one progress line, then exit
//	yywatch -addr host:port -events        # stream the event timeline instead
//	yywatch -addr host:port -metrics       # dump the /metrics exposition
//	yywatch -addr host:port -check         # parse-validate the exposition, print a summary
//	yywatch -addr host:port -expect-alert rank-dead   # exit 1 unless the rule fired
//
// -addr-file reads the address from a file yycore -telemetry-addr-file
// wrote (racing the server start is fine: the read retries until
// -timeout). Exit status: 0 ok/done, 1 a -expect-alert assertion
// failed, 2 the scrape itself failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("yywatch", flag.ContinueOnError)
	fs.SetOutput(errOut)
	var (
		addr     = fs.String("addr", "", "telemetry address (host:port) of a yycore -telemetry run")
		addrFile = fs.String("addr-file", "", "read the telemetry address from this file (yycore -telemetry-addr-file)")
		interval = fs.Duration("interval", time.Second, "progress poll interval")
		timeout  = fs.Duration("timeout", 2*time.Minute, "give up after this long")
		once     = fs.Bool("once", false, "print one progress line and exit")
		events   = fs.Bool("events", false, "stream the /events timeline instead of progress")
		metrics  = fs.Bool("metrics", false, "dump the raw /metrics exposition and exit")
		check    = fs.Bool("check", false, "fetch /metrics and /progress, validate both parse, print a summary")
		expect   = fs.String("expect-alert", "", "comma-separated anomaly rules that must have fired (exit 1 otherwise)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	deadline := time.Now().Add(*timeout)
	base, err := resolveAddr(*addr, *addrFile, deadline)
	if err != nil {
		fmt.Fprintln(errOut, "yywatch:", err)
		return 2
	}

	switch {
	case *metrics:
		body, err := get(base + "/metrics")
		if err != nil {
			fmt.Fprintln(errOut, "yywatch:", err)
			return 2
		}
		fmt.Fprint(out, string(body))
		return 0
	case *check || *expect != "":
		return checkPlane(base, *expect, out, errOut)
	case *events:
		if err := streamEvents(base, deadline, out); err != nil {
			fmt.Fprintln(errOut, "yywatch:", err)
			return 2
		}
		return 0
	}

	// Progress mode: poll /progress, render one line per change, stop
	// at done (or immediately under -once).
	var last string
	for {
		info, err := progress(base)
		if err != nil {
			fmt.Fprintln(errOut, "yywatch:", err)
			return 2
		}
		if line := progressLine(info); line != last {
			fmt.Fprintln(out, line)
			last = line
		}
		if *once || info.Done {
			return 0
		}
		if time.Now().After(deadline) {
			fmt.Fprintln(errOut, "yywatch: timed out before the run finished")
			return 2
		}
		time.Sleep(*interval)
	}
}

// resolveAddr picks the telemetry base URL from -addr or -addr-file,
// retrying a missing/empty address file until the deadline (the file
// race: yywatch often starts before yycore has bound its port).
func resolveAddr(addr, addrFile string, deadline time.Time) (string, error) {
	if addr == "" && addrFile == "" {
		return "", fmt.Errorf("need -addr or -addr-file")
	}
	if addr == "" {
		for {
			raw, err := os.ReadFile(addrFile)
			if err == nil && len(strings.TrimSpace(string(raw))) > 0 {
				addr = strings.TrimSpace(string(raw))
				break
			}
			if time.Now().After(deadline) {
				return "", fmt.Errorf("no address appeared in %s", addrFile)
			}
			time.Sleep(50 * time.Millisecond)
		}
	}
	addr = strings.TrimPrefix(addr, "http://")
	return "http://" + addr, nil
}

func get(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", url, resp.Status)
	}
	return body, nil
}

func progress(base string) (telemetry.ProgressInfo, error) {
	var info telemetry.ProgressInfo
	body, err := get(base + "/progress")
	if err != nil {
		return info, err
	}
	if err := json.Unmarshal(body, &info); err != nil {
		return info, fmt.Errorf("/progress JSON: %w", err)
	}
	return info, nil
}

func progressLine(info telemetry.ProgressInfo) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: step %d/%d", info.Run, info.CommittedStep, info.TotalSteps)
	if info.LiveStep > info.CommittedStep {
		fmt.Fprintf(&b, " (live %d)", info.LiveStep)
	}
	fmt.Fprintf(&b, " seg %d", info.Segment)
	if info.Retries > 0 {
		fmt.Fprintf(&b, " retries %d", info.Retries)
	}
	if info.RateStepsPerSec > 0 {
		fmt.Fprintf(&b, " %.1f steps/s", info.RateStepsPerSec)
		if info.ETASec > 0 {
			fmt.Fprintf(&b, " eta %s", (time.Duration(info.ETASec * float64(time.Second))).Round(time.Second))
		}
	}
	if info.Alerts > 0 {
		fmt.Fprintf(&b, " ALERTS %d", info.Alerts)
	}
	if info.Done {
		b.WriteString(" done")
	}
	return b.String()
}

// checkPlane is the CI smoke: both endpoints must parse, and every
// -expect-alert rule must appear with a nonzero yy_alerts_total count.
func checkPlane(base, expect string, out, errOut io.Writer) int {
	body, err := get(base + "/metrics")
	if err != nil {
		fmt.Fprintln(errOut, "yywatch:", err)
		return 2
	}
	families, samples, alerts, err := parseExposition(strings.NewReader(string(body)))
	if err != nil {
		fmt.Fprintln(errOut, "yywatch: /metrics exposition:", err)
		return 2
	}
	info, err := progress(base)
	if err != nil {
		fmt.Fprintln(errOut, "yywatch:", err)
		return 2
	}
	fmt.Fprintf(out, "ok: %d metric families, %d samples; run %s at step %d/%d, %d alert rule(s) fired\n",
		families, samples, info.Run, info.CommittedStep, info.TotalSteps, len(alerts))
	code := 0
	if expect != "" {
		for _, rule := range strings.Split(expect, ",") {
			rule = strings.TrimSpace(rule)
			if alerts[rule] > 0 {
				fmt.Fprintf(out, "alert fired: %s (count %d)\n", rule, alerts[rule])
				continue
			}
			fmt.Fprintf(errOut, "yywatch: expected alert %q never fired\n", rule)
			code = 1
		}
	}
	return code
}

// parseExposition walks a Prometheus text-format (0.0.4) document,
// counting HELP/TYPE families and samples and collecting
// yy_alerts_total{rule=...} counts. Malformed lines are errors: the
// smoke exists to catch a writer regression, not to forgive one.
func parseExposition(r io.Reader) (families, samples int, alerts map[string]int, err error) {
	alerts = map[string]int{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	typed := map[string]bool{}
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		switch {
		case line == "":
		case strings.HasPrefix(line, "# HELP "):
		case strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			if len(f) != 4 {
				return 0, 0, nil, fmt.Errorf("line %d: malformed TYPE: %q", n, line)
			}
			typed[f[2]] = true
			families++
		case strings.HasPrefix(line, "#"):
		default:
			name, labels, value, perr := parseSample(line)
			if perr != nil {
				return 0, 0, nil, fmt.Errorf("line %d: %v", n, perr)
			}
			if !typed[name] {
				return 0, 0, nil, fmt.Errorf("line %d: sample %s has no preceding TYPE", n, name)
			}
			samples++
			if name == "yy_alerts_total" {
				alerts[labels["rule"]] = int(value)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, nil, err
	}
	if families == 0 {
		return 0, 0, nil, fmt.Errorf("no metric families in the document")
	}
	return families, samples, alerts, nil
}

// parseSample splits one `name{k="v",...} value` exposition line.
func parseSample(line string) (name string, labels map[string]string, value float64, err error) {
	labels = map[string]string{}
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample: %q", line)
	} else {
		name = rest[:i]
		rest = rest[i:]
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", nil, 0, fmt.Errorf("unterminated label set: %q", line)
		}
		for _, pair := range splitLabels(rest[1:end]) {
			k, v, ok := strings.Cut(pair, "=")
			if !ok || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", nil, 0, fmt.Errorf("malformed label %q in %q", pair, line)
			}
			labels[k] = strings.NewReplacer(`\"`, `"`, `\\`, `\`, `\n`, "\n").Replace(v[1 : len(v)-1])
		}
		rest = rest[end+1:]
	}
	rest = strings.TrimSpace(rest)
	if _, err := fmt.Sscanf(rest, "%g", &value); err != nil {
		return "", nil, 0, fmt.Errorf("malformed value %q in %q", rest, line)
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, escaped := false, false
	for _, r := range s {
		switch {
		case escaped:
			escaped = false
			cur.WriteRune(r)
		case r == '\\':
			escaped = true
			cur.WriteRune(r)
		case r == '"':
			inQuote = !inQuote
			cur.WriteRune(r)
		case r == ',' && !inQuote:
			out = append(out, cur.String())
			cur.Reset()
		default:
			cur.WriteRune(r)
		}
	}
	if cur.Len() > 0 {
		out = append(out, cur.String())
	}
	return out
}

// streamEvents tails the SSE /events stream, printing one line per
// event, until the stream closes or the deadline passes.
func streamEvents(base string, deadline time.Time, out io.Writer) error {
	req, err := http.NewRequest(http.MethodGet, base+"/events", nil)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: time.Until(deadline)}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/events: %s", base, resp.Status)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var id, kind string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			id = line[len("id: "):]
		case strings.HasPrefix(line, "event: "):
			kind = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			fmt.Fprintf(out, "%6s %-18s %s\n", id, kind, line[len("data: "):])
		}
	}
	// A cut stream (server closed after the run) and the deadline are
	// normal endings.
	if err := sc.Err(); err != nil && !strings.Contains(err.Error(), "closed") && time.Now().Before(deadline) {
		return err
	}
	return nil
}
