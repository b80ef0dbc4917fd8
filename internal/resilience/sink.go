package resilience

// The checkpoint sink abstracts where a campaign's artifacts live: a
// plain run directory (the original substrate, dirSink), a
// content-addressed store with a Merkle-chained ledger
// (internal/store, storeSink), or, for a run that persists nothing,
// memory (memSink). The campaign loop speaks only to this
// interface, so recovery semantics — the newest-valid fallback ladder,
// rollback, rewind, rank-replacement reload — are identical over all
// three; the store additionally dedups bit-identical checkpoints and appends
// one ledger manifest per commit so every recovery decision is
// verifiable offline.

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/snapshot"
	"repro/internal/store"
)

// segMeta is the provenance a commit carries into the ledger (ignored
// by the plain directory sink).
type segMeta struct {
	// note labels the commit ("origin", "segment").
	note string
	// recoveries are the recovery decisions taken since the previous
	// commit, rendered.
	recoveries []string
	// events is the campaign event log at commit time; the sink
	// digests it.
	events *mpi.EventLog
}

// ckptSink is the storage substrate of one campaign.
type ckptSink interface {
	// sweep removes orphaned temp files left by a crashed writer and
	// returns their names.
	sweep() ([]string, error)
	// newest restores the newest checkpoint that reads back valid,
	// skipping corrupt ones (returned in skipped): the newestValid
	// ladder. (nil, skipped, nil) means a fresh campaign.
	newest(spec grid.Spec) (in *snapshot.Interior, skipped []string, err error)
	// write encodes in and durably commits the checkpoint.
	write(in *snapshot.Interior, meta segMeta) error
	// segment loads the checkpoint committed at exactly the given
	// step, in layout-neutral form (the rank-replacement reload path).
	segment(step int) (*snapshot.Interior, error)
	// prune retires all but the newest keep checkpoints.
	prune(keep int) error
	// postmortem durably saves the failure account and returns a
	// human-readable location ("" if even that failed, "none saved"
	// with nowhere to save it).
	postmortem(text string) string
	// artifacts durably saves auxiliary run artifacts (segment pprof
	// profiles, traces, run reports): loose files beside the
	// checkpoints for the directory sink, blobs pinned by one ledger
	// manifest for the store sink. An empty list is a no-op.
	artifacts(step int, note string, arts []Artifact) error
}

// Artifact is one auxiliary blob a campaign commits beside its
// checkpoints: a segment CPU/heap profile, a Chrome trace, a run
// report.
type Artifact struct {
	// Name is the artifact's file/ref name inside the run's namespace;
	// Role classifies it in the ledger manifest ("profile.cpu",
	// "profile.heap", "trace", "report").
	Name, Role string
	Data       []byte
}

// CommitArtifacts pins post-run artifacts — the Chrome trace and the
// run report a driver renders after the campaign — into the campaign
// run's store ledger, so `yystore ls` shows them next to the
// checkpoints and gc keeps them reachable. An empty runID selects the
// default campaign namespace.
func CommitArtifacts(st *store.Store, runID string, step int, note string, arts []Artifact) error {
	if st == nil {
		return fmt.Errorf("resilience: CommitArtifacts needs a store")
	}
	if runID == "" {
		runID = "campaign"
	}
	s := &storeSink{st: st, run: runID}
	return s.artifacts(step, note, arts)
}

// sink builds the campaign's storage substrate from its config.
func (c Config) sink() (ckptSink, error) {
	if c.Store == nil && c.Dir == "" {
		return &memSink{}, nil
	}
	if c.Store != nil {
		run := c.RunID
		if run == "" {
			run = "campaign"
		}
		return &storeSink{st: c.Store, run: run}, nil
	}
	b, err := store.NewDirBackend(c.Dir)
	if err != nil {
		return nil, err
	}
	return &dirSink{dir: c.Dir, b: b}, nil
}

// memSink is the substrate of a campaign with neither Dir nor Store: a
// reference to the newest committed Interior, which rollback and
// rank-replacement reload read. It needs no copy: RunCampaign recycles
// a committed state into spare only once a newer one has committed, so
// nothing writes the referenced Interior while it is the newest commit.
// Nothing outlives the process: no resume, prune, artifact or
// post-mortem.
type memSink struct{ last *snapshot.Interior }

func (m *memSink) sweep() ([]string, error) { return nil, nil }

func (m *memSink) newest(grid.Spec) (*snapshot.Interior, []string, error) { return m.last, nil, nil }

func (m *memSink) write(in *snapshot.Interior, _ segMeta) error { m.last = in; return nil }

func (m *memSink) segment(step int) (*snapshot.Interior, error) {
	if m.last == nil || m.last.Step != step {
		return nil, fmt.Errorf("resilience: no checkpoint in memory at step %d", step)
	}
	return m.last, nil
}

func (m *memSink) prune(int) error { return nil }

func (m *memSink) postmortem(string) string { return "none saved" }

func (m *memSink) artifacts(int, string, []Artifact) error { return nil }

// dirSink is the loose-files substrate: a store.DirBackend rooted at
// Config.Dir holding ckpt-*.yyck, with postmortem.txt and profiles
// beside them. Every write goes through the backend's one commit path.
type dirSink struct {
	dir string
	b   *store.DirBackend
	// enc is the encode buffer every commit reuses (Put keeps no bytes).
	enc bytes.Buffer
}

func (d *dirSink) sweep() ([]string, error) {
	return d.b.SweepTemps()
}

// ckptSteps lists the directory's checkpoint steps ascending.
func (d *dirSink) ckptSteps() ([]int, error) {
	names, err := d.b.List(ckptPrefix)
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, name := range names {
		if step, ok := ckptStep(name); ok {
			steps = append(steps, step)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

func (d *dirSink) newest(spec grid.Spec) (*snapshot.Interior, []string, error) {
	steps, err := d.ckptSteps()
	if err != nil {
		return nil, nil, err
	}
	return newestValid(steps, ckptName, d.segment, spec, "directory")
}

func (d *dirSink) write(in *snapshot.Interior, _ segMeta) error {
	data, err := encodeInto(&d.enc, in)
	if err != nil {
		return err
	}
	return d.b.Put(ckptName(in.Step), data)
}

// encodeInto encodes in into a sink's reused buffer, grown once to the
// exact encoded size: a buffer left to double as the encode fills it
// makes about twice a checkpoint of garbage on a sink's first commit.
func encodeInto(buf *bytes.Buffer, in *snapshot.Interior) ([]byte, error) {
	buf.Reset()
	buf.Grow(in.EncodedLen())
	if err := in.Encode(buf); err != nil {
		return nil, fmt.Errorf("resilience: encoding checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

func (d *dirSink) segment(step int) (*snapshot.Interior, error) {
	data, err := d.b.Get(ckptName(step))
	if err != nil {
		return nil, err
	}
	in, err := snapshot.ReadInterior(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", filepath.Join(d.dir, ckptName(step)), err)
	}
	return in, nil
}

func (d *dirSink) prune(keep int) error {
	steps, err := d.ckptSteps()
	if err != nil {
		return err
	}
	return pruneOldest(steps, keep, func(step int) error { return d.b.Remove(ckptName(step)) })
}

func (d *dirSink) postmortem(text string) string {
	if err := d.b.Put(postmortemName, []byte(text)); err != nil {
		return ""
	}
	return filepath.Join(d.dir, postmortemName)
}

func (d *dirSink) artifacts(_ int, _ string, arts []Artifact) error {
	for _, a := range arts {
		if err := d.b.Put(a.Name, a.Data); err != nil {
			return fmt.Errorf("resilience: writing artifact %s: %w", a.Name, err)
		}
	}
	return nil
}

// storeSink is the content-addressed substrate: checkpoint blobs in
// the store, mutable refs runs/<run>/ckpt-%09d pointing at them, and
// one Merkle-chained ledger entry per commit.
type storeSink struct {
	st  *store.Store
	run string
	// enc is the encode buffer every commit reuses (Put keeps no bytes).
	enc bytes.Buffer
}

func (s *storeSink) refName(step int) string {
	return fmt.Sprintf("runs/%s/ckpt-%09d", s.run, step)
}

// refStep parses the step out of a checkpoint ref name.
func (s *storeSink) refStep(name string) (int, bool) {
	i := strings.LastIndex(name, "/ckpt-")
	if i < 0 {
		return 0, false
	}
	step, err := strconv.Atoi(name[i+len("/ckpt-"):])
	if err != nil || step < 0 {
		return 0, false
	}
	return step, true
}

func (s *storeSink) sweep() ([]string, error) {
	return s.st.Sweep()
}

// ckptSteps lists the run's checkpoint steps ascending, from its refs.
func (s *storeSink) ckptSteps() ([]int, error) {
	refs, err := s.st.Refs("runs/" + s.run + "/")
	if err != nil {
		return nil, err
	}
	var steps []int
	for _, r := range refs {
		if step, ok := s.refStep(r.Name); ok {
			steps = append(steps, step)
		}
	}
	sort.Ints(steps)
	return steps, nil
}

func (s *storeSink) newest(spec grid.Spec) (*snapshot.Interior, []string, error) {
	steps, err := s.ckptSteps()
	if err != nil {
		return nil, nil, err
	}
	// The store's typed errors (corrupt, missing blob) land in skipped.
	return newestValid(steps, s.refName, s.segment, spec, "run id")
}

func (s *storeSink) write(in *snapshot.Interior, meta segMeta) error {
	data, err := encodeInto(&s.enc, in)
	if err != nil {
		return err
	}
	h, err := s.st.Put(data)
	if err != nil {
		return err
	}
	name := fmt.Sprintf("ckpt-%09d", in.Step)
	if err := s.st.SetRef(s.refName(in.Step), h); err != nil {
		return err
	}
	m := store.Manifest{
		Run:  s.run,
		Step: in.Step,
		Note: meta.note,
		Artifacts: []store.Artifact{
			{Name: name, Role: "checkpoint", Hash: h, Size: int64(len(data))},
		},
		Recoveries: meta.recoveries,
	}
	if meta.events != nil {
		m.EventDigest = digestEvents(meta.events)
	}
	_, err = s.st.Append(m)
	return err
}

func (s *storeSink) segment(step int) (*snapshot.Interior, error) {
	h, err := s.st.Ref(s.refName(step))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("resilience: no checkpoint ref at step %d: %w", step, err)
		}
		return nil, err
	}
	data, err := s.st.Get(h)
	if err != nil {
		return nil, err
	}
	in, err := snapshot.ReadInterior(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("snapshot: %s: %w", s.refName(step), err)
	}
	return in, nil
}

// prune deletes all but the newest keep checkpoint *refs*. The blobs
// stay — possibly shared with other runs — until a gc sweep finds them
// unreachable from every ref and ledger entry.
func (s *storeSink) prune(keep int) error {
	steps, err := s.ckptSteps()
	if err != nil {
		return err
	}
	return pruneOldest(steps, keep, func(step int) error { return s.st.DelRef(s.refName(step)) })
}

func (s *storeSink) postmortem(text string) string {
	h, err := s.st.Put([]byte(text))
	if err != nil {
		return ""
	}
	ref := "runs/" + s.run + "/postmortem"
	if err := s.st.SetRef(ref, h); err != nil {
		return ""
	}
	// The failure account is itself ledger-pinned: an aborted campaign
	// leaves a verifiable record of why.
	if _, err := s.st.Append(store.Manifest{
		Run: s.run, Note: "postmortem",
		Artifacts: []store.Artifact{{Name: "postmortem", Role: "postmortem", Hash: h, Size: int64(len(text))}},
	}); err != nil {
		return ""
	}
	return "store:" + ref
}

// artifacts puts every blob, points a run-namespaced ref at each (so
// `yystore ls` shows them and gc marks them live), and pins the whole
// batch with one ledger manifest.
func (s *storeSink) artifacts(step int, note string, arts []Artifact) error {
	if len(arts) == 0 {
		return nil
	}
	m := store.Manifest{Run: s.run, Step: step, Note: note}
	for _, a := range arts {
		h, err := s.st.Put(a.Data)
		if err != nil {
			return err
		}
		if err := s.st.SetRef("runs/"+s.run+"/"+a.Name, h); err != nil {
			return err
		}
		m.Artifacts = append(m.Artifacts, store.Artifact{
			Name: a.Name, Role: a.Role, Hash: h, Size: int64(len(a.Data)),
		})
	}
	if _, err := s.st.Append(m); err != nil {
		return err
	}
	return nil
}

// digestEvents hashes the rendered event timeline, so the ledger pins
// which fault history led to each commit without storing the log.
func digestEvents(events *mpi.EventLog) store.Hash {
	var b strings.Builder
	for _, e := range events.Events() {
		fmt.Fprintf(&b, "%s\n", e)
	}
	return store.HashOf([]byte(b.String()))
}
