package store

// Seeded filesystem fault injection — the storage analogue of
// mpi.FaultPlan. A FaultPlan is attached to a DirBackend (SetFaults)
// and matched against the backend's Put counter: the op'th Put fires
// the fault planned for op. The chaos harness generates plans from a
// seed, runs a campaign through the faulted store, and then asserts
// that Verify detects every fired corruption and that Scrub plus a
// deterministic rerun restore a byte-identical state.

// FaultKind names one way a write can go wrong.
type FaultKind string

const (
	// FaultTornWrite writes a prefix of the payload to the temp file
	// and dies: no rename, an orphan temp, a crash error surfaced.
	FaultTornWrite FaultKind = "torn-write"
	// FaultBitFlip lets the Put succeed, then flips one bit of the
	// committed object — silent media rot that only content
	// verification can see.
	FaultBitFlip FaultKind = "bit-flip"
	// FaultENOSPC fails the Put with a typed *DiskFullError before
	// any bytes are written.
	FaultENOSPC FaultKind = "enospc"
	// FaultCrashBeforeRename dies after the temp is durable but
	// before the commit rename: an orphan temp, no visible blob.
	FaultCrashBeforeRename FaultKind = "crash-before-rename"
	// FaultCrashAfterRename dies after the commit rename but before
	// the directory fsync: the blob is whole and visible.
	FaultCrashAfterRename FaultKind = "crash-after-rename"
)

// Fault is one planned misbehavior.
type Fault struct {
	// Op is the backend Put counter value this fault fires on;
	// -1 fires on every Put (a persistent fault, e.g. a full disk
	// that stays full).
	Op int
	// Kind selects the misbehavior.
	Kind FaultKind
	// Byte positions the damage for torn-write (prefix length) and
	// bit-flip (offset); values out of range clamp to mid-payload.
	Byte int
}

// FiredFault records a fault that actually triggered, for detection
// accounting: the chaos harness demands a Verify finding for every
// fired silent corruption.
type FiredFault struct {
	Kind FaultKind
	Name string // the blob name the faulted Put targeted
}

// FaultPlan is a deterministic schedule of storage faults.
type FaultPlan struct {
	faults []Fault
	fired  []FiredFault
}

// NewFaultPlan builds a plan from a fault schedule.
func NewFaultPlan(faults []Fault) *FaultPlan {
	return &FaultPlan{faults: faults}
}

// take returns the fault planned for op, consuming one-shot faults
// (persistent Op==-1 faults never deplete) and recording the firing.
// Called by the backend; not safe for concurrent Puts, which matches
// the single-writer campaign model the plans are used under.
func (p *FaultPlan) take(op int, name string) *Fault {
	for i := range p.faults {
		f := &p.faults[i]
		if f.Op == op || f.Op == -1 {
			p.fired = append(p.fired, FiredFault{Kind: f.Kind, Name: name})
			if f.Op != -1 {
				// Consume: shift the tail down over the fired fault.
				p.faults = append(p.faults[:i], p.faults[i+1:]...)
			}
			return &Fault{Op: op, Kind: f.Kind, Byte: f.Byte}
		}
	}
	return nil
}

// Fired returns the faults that have triggered so far, in firing order.
func (p *FaultPlan) Fired() []FiredFault { return p.fired }
